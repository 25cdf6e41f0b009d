"""Counterexample construction, its slack inequality, and family sweeps.

For deep families with lead > depth, second coefficient positive and last
coefficient > 1, a specific integer N in the window
(G_{L+s+2}, G_{L+s+3}) is claimed to carry two distinct legal
decompositions built from the same large prefix.  ``construction_slack``
computes the quantity whose negativity places N inside that window;
``construct_counterexample`` builds and verifies the two candidate
decompositions and reports exactly what holds.

``CounterexampleReport`` and ``UniquenessReport`` are NamedTuples, with tuple
semantics: indexing, unpacking, equality with an equal plain tuple.
``ExperimentRecord`` is a ``types.SimpleNamespace`` instead, so a caller can
amend a row in place; no record uses ``dataclasses``.
"""

from __future__ import annotations

import time
from itertools import product
from types import SimpleNamespace
from typing import NamedTuple

from .errors import (
    BudgetExceededError,
    ConstructionFailedError,
    NotApplicableError,
    RecurrenceError,
)
from .greedy import greedy_decompose
from .legality import Decomposition, evaluate, is_legal
from .recurrence import RecurrenceSpec, construction_applies, parse_recurrence
from .enumerator import DEFAULT_GRAMMAR_BUDGET, enumerate_legal, first_nonunique
from .sequence import SequenceHandle


def _require_construction(handle: SequenceHandle) -> None:
    if not construction_applies(handle.spec):
        raise NotApplicableError(
            f"{handle.spec.text}: construction needs a deep family with "
            "lead > depth, positive second coefficient and last coefficient > 1"
        )


def _prefix(spec: RecurrenceSpec) -> dict[int, int]:
    """The construction's fixed prefix: c_{s+k} copies of G_{L+3-k}, k = 1..L-s-1."""
    c, s, L = spec.coefficients, spec.depth, spec.order
    return {L + 3 - k: c[s + k - 1] for k in range(1, L - s) if c[s + k - 1]}


def construction_slack(handle: SequenceHandle) -> int:
    """G_{s+L+2} minus the construction's fixed prefix value minus G_{s+3}.

    Negative slack means every x >= 1 pushes the constructed target above
    G_{s+L+2}, i.e. into the intended window.
    """
    _require_construction(handle)
    s, L = handle.spec.depth, handle.spec.order
    prefix = sum(mult * handle.term(idx) for idx, mult in _prefix(handle.spec).items())
    return handle.term(s + L + 2) - prefix - handle.term(s + 3)


def case1_slack_closed_form(handle: SequenceHandle) -> int:
    """Closed form of the slack for order = depth+2: (2 - G_3)*lead^2 - 2*lead."""
    _require_construction(handle)
    if handle.spec.order != handle.spec.depth + 2:
        raise NotApplicableError("closed form only covers order = depth + 2")
    lead = handle.spec.lead
    return (2 - handle.term(3)) * lead * lead - 2 * lead


class CounterexampleReport(NamedTuple):
    """Verified outcome of the two-decompositions construction.

    ``decompA`` is the prefix + explicit G_{s+3} + greedy(x) decomposition.
    ``decompB`` is a second, distinct, verified-legal decomposition of the
    same N.  ``direct_pair_legal`` records whether the construction's own
    candidate for the second decomposition (prefix + greedy(G_{s+3}+x))
    passed the grammar; when it does not, ``decompB`` comes from exhaustive
    enumeration and ``direct_candidate`` keeps the rejected candidate.
    """

    n_value: int
    x: int
    decompA: Decomposition
    decompB: Decomposition
    window_ok: bool
    count_at_n: int
    direct_pair_legal: bool
    direct_candidate: Decomposition


def _merge(parts: dict[int, int], extra: Decomposition) -> Decomposition:
    merged = dict(parts)
    for idx, mult in extra.summands:
        merged[idx] = merged.get(idx, 0) + mult
    return Decomposition.from_dict(merged)


def construct_counterexample(
    handle: SequenceHandle, budget: int = DEFAULT_GRAMMAR_BUDGET
) -> CounterexampleReport:
    """Build the two-decompositions witness for an applicable family.

    Raises ConstructionFailedError (with full diagnostics) when no second
    legal decomposition of the constructed N exists at all, and
    BudgetExceededError (with the same diagnostics) when N exceeds ``budget``.
    """
    _require_construction(handle)
    s, L = handle.spec.depth, handle.spec.order
    g_s3, g_s4 = handle.term(s + 3), handle.term(s + 4)
    # x_cap >= 3 on every applicable family (README), so the offset x = 1 fits
    diagnostics: dict = {"recurrence": handle.spec.text, "x_cap": min(g_s3, g_s4 - g_s3)}
    x = 1
    prefix = _prefix(handle.spec)
    n_value = sum(mult * handle.term(idx) for idx, mult in prefix.items()) + g_s3 + x
    lo, hi = handle.term(L + s + 2), handle.term(L + s + 3)
    window_ok = lo < n_value < hi
    decomp_a = _merge({**prefix, s + 3: 1}, greedy_decompose(handle, x))
    candidate_b = _merge(prefix, greedy_decompose(handle, g_s3 + x))
    diagnostics.update(
        n_value=n_value, x=x, window=(lo, hi), window_ok=window_ok,
        decompA=str(decomp_a), direct_candidate=str(candidate_b),
    )
    verdict_a, verdict_b = is_legal(decomp_a, handle), is_legal(candidate_b, handle)
    a_legal, b_legal = verdict_a.legal, verdict_b.legal
    diagnostics.update(decompA_legal=a_legal, direct_candidate_legal=b_legal)
    for name, verdict in (("decompA", verdict_a), ("direct_candidate", verdict_b)):
        if verdict.reason:  # where a rejected candidate dies
            diagnostics[f"{name}_reason"] = verdict.reason
    if evaluate(decomp_a, handle) != n_value or evaluate(candidate_b, handle) != n_value:
        raise ConstructionFailedError("constructed sums do not evaluate to N", diagnostics)
    try:
        all_decomps = sorted(enumerate_legal(handle, n_value, budget), key=str)
    except BudgetExceededError as exc:
        raise BudgetExceededError(str(exc), diagnostics) from None
    diagnostics["count_at_n"] = len(all_decomps)
    diagnostics["legal_decompositions"] = [str(d) for d in all_decomps]
    if not a_legal or not window_ok:
        raise ConstructionFailedError(
            "primary decomposition or window bound failed verification", diagnostics
        )
    others = (d for d in all_decomps if d != decomp_a)
    decomp_b = candidate_b if b_legal and candidate_b != decomp_a else next(others, None)
    if decomp_b is None:
        raise ConstructionFailedError(
            f"N = {n_value} admits no second legal decomposition "
            f"(count = {len(all_decomps)})",
            diagnostics,
        )
    assert is_legal(decomp_b, handle).legal and decomp_b != decomp_a
    return CounterexampleReport(
        n_value=n_value,
        x=x,
        decompA=decomp_a,
        decompB=decomp_b,
        window_ok=window_ok,
        count_at_n=len(all_decomps),
        direct_pair_legal=b_legal,
        direct_candidate=candidate_b,
    )


class UniquenessReport(NamedTuple):
    recurrence: str
    bound: int
    all_unique: bool
    violation: tuple[int, int] | None = None  # (N, count)
    witnesses: tuple[Decomposition, ...] = ()


def verify_uniqueness_range(
    handle: SequenceHandle, bound: int, budget: int = DEFAULT_GRAMMAR_BUDGET
) -> UniquenessReport:
    """Scan 1..bound for a value with two legal decompositions."""
    hit = first_nonunique(handle, bound, budget)
    if hit is None:
        return UniquenessReport(handle.spec.text, bound, all_unique=True)
    witnesses = tuple(sorted(enumerate_legal(handle, hit[0], budget), key=str))
    return UniquenessReport(
        handle.spec.text, bound, all_unique=False, violation=hit, witnesses=witnesses
    )


CSV_HEADER = (
    "recurrence,s,L,bound,first_nonunique_N,count_at_N,lemma22,"
    "counterexample_N,status,elapsed_ms"
)


class ExperimentRecord(SimpleNamespace):
    """One row of a sweep: everything measured for a single family.  A
    ``types.SimpleNamespace``, so it is mutable and unhashable, and rows
    compare field by field."""

    __match_args__ = ("recurrence", "s", "L", "bound", "first_nonunique_n", "count_at_n",
                      "slack", "counterexample_n", "status", "elapsed_ms", "note")

    def __init__(self, recurrence: str, s: int, L: int, bound: int,
                 first_nonunique_n: int | None = None, count_at_n: int | None = None,
                 slack: int | None = None, counterexample_n: int | None = None,
                 status: str = "ok", elapsed_ms: int = 0, note: str = ""):
        super().__init__(recurrence=recurrence, s=s, L=L, bound=bound,
                         first_nonunique_n=first_nonunique_n, count_at_n=count_at_n,
                         slack=slack, counterexample_n=counterexample_n,
                         status=status, elapsed_ms=elapsed_ms, note=note)

    def __reduce__(self):  # the namespace's own would call __init__() with no arguments
        return self.__class__, (self.recurrence, self.s, self.L, self.bound), self.__dict__

    def csv_cells(self) -> list[str]:
        """Every field but the trailing ``note``, in ``CSV_HEADER``'s order."""
        return ["" if (v := getattr(self, name)) is None else str(v)
                for name in self.__match_args__[:-1]]


def expand_grid(
    depths: range | list[int], spans: range | list[int], c_max: int,
    limit: int | None = None,
) -> tuple[list[str], list[str]]:
    """All coefficient texts with the given depths and span = order - depth.

    Lead and last coefficients range over 1..c_max, interior ones over
    0..c_max.  Returns (valid_texts, skipped_notes); grid points rejected by
    the parser (degenerate index sets) land in the notes.  A depth below 0
    or a span below 1 raises ValueError; a grid of more than ``limit``
    points raises BudgetExceededError before any point is listed: the count
    is read off the lengths of the ranges.
    """
    for name, values, least in (("depths", depths, 0), ("spans", spans, 1)):
        # a range is checked at its two ends, so a long one is never walked
        ends = (values[0], values[-1]) if isinstance(values, range) and values else values
        if any(v < least for v in ends):
            raise ValueError(f"{name} must be >= {least}, got {values}")
    leads, inner = range(1, c_max + 1), range(c_max + 1)
    k, n = len(leads), len(inner)
    if isinstance(spans, range) and spans.step == 1 and spans and k:
        # k for span 1, plus the geometric sum of k*k*n**(span - 2) over spans >= 2
        lo, hi = max(spans.start, 2), spans[-1]
        per_depth = k * (1 in spans) + k * k * (n ** (hi - 1) - n ** (lo - 2)) // (n - 1)
    else:
        per_depth = sum(k if span == 1 else k * k * n ** (span - 2) for span in spans)
    points = len(depths) * per_depth
    if limit is not None and points > limit:
        raise BudgetExceededError(f"grid of {points} points exceeds limit {limit}")
    valid: list[str] = []
    skipped: list[str] = []
    for s in depths:
        for span in spans:
            tails = product(leads, *[inner] * (span - 2), leads) if span > 1 else product(leads)
            for tail in tails:
                text = ",".join(str(v) for v in (0,) * s + tail)
                try:
                    parse_recurrence(text)
                except RecurrenceError as exc:
                    skipped.append(f"{text}: {exc}")
                    continue
                valid.append(text)
    return valid, skipped


def probe_family(
    recurrences: list[str], bound: int, budget: int = DEFAULT_GRAMMAR_BUDGET
) -> list[ExperimentRecord]:
    """Run the full measurement battery over a list of families.

    Per family: scan for the first non-unique value, and, when the
    construction applies, compute the slack and attempt the counterexample.
    A budget overrun or a failed construction becomes the record's status,
    and keeps the constructed N if it got that far; any other error, such
    as the constant family's, propagates.
    """
    records: list[ExperimentRecord] = []
    for text in recurrences:
        started = time.perf_counter()
        spec = parse_recurrence(text)
        handle = SequenceHandle(spec)
        hit = slack = n_value = None
        status, note = "ok", ""
        try:
            hit = first_nonunique(handle, bound, budget)
            if construction_applies(spec):
                slack = construction_slack(handle)
                report = construct_counterexample(handle, budget)
                n_value = report.n_value
                if not report.direct_pair_legal:
                    note = "second decomposition found by enumeration"
        except (BudgetExceededError, ConstructionFailedError) as exc:
            n_value = exc.diagnostics.get("n_value")
            status = ("budget_exceeded" if isinstance(exc, BudgetExceededError)
                      else "inconsistent")
            note = str(exc)
        records.append(ExperimentRecord(
            text, spec.depth, spec.order, bound, *(hit or (None, None)), slack, n_value,
            status, int((time.perf_counter() - started) * 1000), note))
    return records

"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

All arithmetic is exact; every assertion is an equality unless the criterion
itself is a reported probe.  Run with ``pytest tests/test_acceptance.py -v -s``
to see the per-criterion lines and the research-finding reports.
"""

import time

import pytest

from zecklab import (
    Decomposition,
    SequenceHandle,
    bijection_count,
    case1_slack_closed_form,
    construct_counterexample,
    construction_applies,
    construction_slack,
    decompositions_up_to,
    enumerate_legal,
    evaluate,
    expand_grid,
    first_nonunique,
    greedy_decompose,
    is_legal,
    naive_oracle,
    parse_recurrence,
    word_is_legal,
)
from zecklab.errors import ConstructionFailedError

GREEDY_FAMILIES = ["0,2,2", "0,1,1", "0,2,1,2", "0,0,1,4", "0,3,1",
                   "1,1", "3,2,4", "2,2", "0,1,2", "0,0,2,3"]
ORACLE_FAMILIES = ["1,1", "3,2,4", "0,2,2", "0,1,1", "0,0,1,4"]


def report(criterion: int, ok: bool, detail: str = "") -> None:
    tag = "PASS" if ok else "FAIL"
    print(f"criterion {criterion:02d} {tag}{': ' + detail if detail else ''}")


def grid_handles():
    """Every valid family with depth <= 3, span <= 4, coefficients <= 4."""
    texts, _ = expand_grid(range(0, 4), range(1, 5), 4)
    return [SequenceHandle(parse_recurrence(t)) for t in texts]


def test_criterion_01_worked_example_reproduction(handles):
    h = handles("0,2,2")
    seq_ok = h.terms(10) == [1, 2, 3, 6, 10, 18, 32, 56, 100, 176]
    d = greedy_decompose(h, 164)
    decomp_ok = d.to_dict() == {8: 2, 7: 1, 5: 2}
    legal_ok = is_legal(d, h).legal
    ok = seq_ok and decomp_ok and legal_ok
    report(1, ok, f"greedy(164) = {d}, legal = {legal_ok}")
    assert ok


def test_criterion_02_lagonacci_reproduction(handles):
    h = handles("0,1,1")
    seq_ok = h.terms(9) == [1, 2, 4, 3, 6, 7, 9, 13, 16]
    d = greedy_decompose(h, 10)
    decomp_ok = d.to_dict() == {6: 1, 4: 1}
    ok = seq_ok and decomp_ok
    report(2, ok, f"prefix ok = {seq_ok}, greedy(10) = {d}")
    assert ok


def test_criterion_03_legality_triplet(handles):
    h = handles("3,2,4")
    results = (
        word_is_legal((1, 3, 2, 3, 0), h),
        word_is_legal((1, 3, 2, 4, 0), h),
        word_is_legal((6, 2), h),
    )
    ok = results == (True, False, False)
    report(3, ok, f"verdicts = {results}")
    assert ok


def test_criterion_04_greedy_total_and_legal(handles):
    started = time.perf_counter()
    bad = []
    for text in GREEDY_FAMILIES:
        h = handles(text)
        h.extend_until_exceeds(10**4)
        for n in range(0, 10**4 + 1):
            d = greedy_decompose(h, n)
            if evaluate(d, h) != n or not is_legal(d, h).legal:
                bad.append((text, n))
                break
    elapsed = time.perf_counter() - started
    ok = not bad
    report(4, ok, f"{len(GREEDY_FAMILIES)} families x 10^4 targets in {elapsed:.1f}s"
           + (f"; failures: {bad}" if bad else ""))
    assert ok
    assert elapsed < 120, f"runtime target exceeded: {elapsed:.1f}s"


def test_criterion_05_depth_zero_uniqueness_and_census(handles):
    problems = []
    for text in ["1,1", "2,2", "3,2,4"]:
        h = handles(text)
        buckets = decompositions_up_to(h, 5000)
        for n in range(1, 5001):
            if len(buckets.get(n, [])) != 1:
                problems.append((text, n, len(buckets.get(n, []))))
                break
        for n in range(1, 13):
            anchored, gap = bijection_count(h, n)
            if anchored != gap:
                problems.append((text, f"census at {n}", (anchored, gap)))
                break
    ok = not problems
    report(5, ok, "unique counts and matching census up to n = 12"
           + (f"; problems: {problems}" if problems else ""))
    assert ok


def test_criterion_06_oracle_equivalence(handles):
    mismatches = []
    for text in ORACLE_FAMILIES:
        h = handles(text)
        for n in range(0, 301):
            grammar = enumerate_legal(h, n)
            oracle = naive_oracle(h, n)
            if grammar != oracle:
                mismatches.append((text, n))
                break
    ok = not mismatches
    report(6, ok, f"5 families x 301 values" + (f"; mismatches: {mismatches}" if mismatches else ""))
    assert ok


def test_criterion_07_window_slack_negative():
    checked = 0
    problems = []
    for h in grid_handles():
        if not construction_applies(h.spec):
            continue
        checked += 1
        slack = construction_slack(h)
        if slack >= 0:
            problems.append((h.spec.text, slack))
        if h.spec.order == h.spec.depth + 2:
            if slack != case1_slack_closed_form(h):
                problems.append((h.spec.text, "closed form mismatch"))
    ok = checked > 0 and not problems
    report(7, ok, f"slack negative on {checked} applicable families"
           + (f"; problems: {problems[:5]}" if problems else ""))
    assert ok


def test_criterion_08_counterexample_construction():
    attempted = 0
    failures = []
    for h in grid_handles():
        if not construction_applies(h.spec):
            continue
        attempted += 1
        try:
            rep = construct_counterexample(h)
            if not (rep.window_ok and rep.decompA != rep.decompB):
                failures.append((h.spec.text, "weak report"))
        except ConstructionFailedError as exc:
            failures.append((h.spec.text, str(exc)))
    ok = attempted > 0 and not failures
    detail = f"{attempted - len(failures)}/{attempted} families verified"
    if failures:
        detail += (
            "; the construction's second decomposition is rejected by the "
            "grammar and the constructed target admits no other legal "
            f"decomposition (first failures: {failures[:2]})"
        )
    report(8, ok, detail)
    assert ok, (
        "the two-decompositions construction does not verify under the "
        "grammar as written; every applicable family fails the same way. "
        f"Sample diagnostics: {failures[:3]}"
    )


def test_criterion_09_conjecture_probes(handles):
    findings = []
    # conjectured-unique shapes: zero non-unique targets expected up to 10^4
    for c in (4, 5, 6):
        h = handles(f"0,0,1,{c}")
        hit = first_nonunique(h, 10**4)
        if hit is not None:
            value, count = hit
            witnesses = sorted(str(d) for d in enumerate_legal(h, value))
            findings.append(
                f"conjectured-unique family 0,0,1,{c} has {count} legal "
                f"decompositions of {value}: {witnesses}"
            )
    # conjectured-non-unique: every deep family with lead > depth in the grid
    # should reveal a non-unique target by 5000
    missing = []
    probed = 0
    for h in grid_handles():
        if not (h.spec.depth >= 1 and h.spec.lead > h.spec.depth):
            continue
        probed += 1
        if first_nonunique(h, 5000) is None:
            missing.append(h.spec.text)
    if missing:
        findings.append(
            f"{len(missing)} lead-exceeds-depth families show no non-unique "
            f"target up to 5000: {missing[:10]}"
        )
    if findings:
        print("=" * 72)
        print("RESEARCH FINDINGS (probes report deviations; they do not fail):")
        for f in findings:
            print(f"  * {f}")
        print("=" * 72)
    report(9, True, f"{probed} families probed; {len(findings)} finding(s) reported")


def test_criterion_10_lagonacci_first_failure(handles):
    h = handles("0,1,1")
    hit = first_nonunique(h, 100)
    pair = sorted(str(d) for d in enumerate_legal(h, 7))
    oracle_pair = sorted(str(d) for d in naive_oracle(h, 7))
    oracle_unique_below = all(len(naive_oracle(h, n)) == 1 for n in range(1, 7))
    alt = Decomposition.from_dict({5: 1, 3: 1})
    alt_verdict = is_legal(alt, h)
    print(
        "strict-grammar status of the informal alternative 5:1,3:1 "
        f"(value {evaluate(alt, h)}): {'legal' if alt_verdict.legal else 'illegal'}"
    )
    ok = (
        hit == (7, 2)
        and pair == ["5:1,1:1", "6:1"]
        and oracle_pair == pair
        and oracle_unique_below
    )
    report(10, ok, f"first non-unique = {hit}, decompositions = {pair}, "
                   f"oracle agrees = {oracle_pair == pair}")
    assert ok

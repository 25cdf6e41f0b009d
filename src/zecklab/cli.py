"""Command-line front end.

``main`` builds the SequenceHandle from ``--rec`` and runs the command, which
returns ``(payload, lines, code)``: the dict that ``--json`` prints, the text
lines read off it, and the exit code.  ``main`` alone prints, either the
payload as JSON or the lines (a ``_Stderr`` line to stderr).  ``scan``,
``lemma22`` and ``probe`` (which streams its CSV) return no payload, so their
lines print either way.  Under ``--json`` a command that does not apply to
the family answers ``{"applicable": false, "reason": ...}``.  Every other
``ZecklabError`` is a failure, which ``main`` turns into its ``FAILURES`` row:
``{"error": label, "reason": ..., "diagnostics": {...}}`` under ``--json``,
else ``label: reason`` and one line per diagnostic on stderr.

Exit codes: 0 success, 1 invalid recurrence, 2 invalid decomposition text,
a malformed option, a term index above MAX_INDEX or an unwritable --out path,
3 scan exhausted under --expect-find, 4 internal inconsistency (oracle
mismatch, counterexample verification failure, or the constant family ``1``),
5 enumeration budget or oracle bound exceeded, or a probe grid of more than
MAX_GRID_POINTS points.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys

from .enumerator import DEFAULT_GRAMMAR_BUDGET, enumerate_legal, naive_oracle
from .errors import (
    BudgetExceededError,
    ConstructionFailedError,
    DecompositionTextError,
    NotApplicableError,
    OracleBoundExceededError,
    RecurrenceError,
    ZecklabError,
)
from .greedy import greedy_decompose
from .legality import evaluate, is_legal, parse_decomposition
from .recurrence import parse_recurrence
from .sequence import SequenceHandle
from .uniqueness import (
    CSV_HEADER,
    case1_slack_closed_form,
    construct_counterexample,
    construction_slack,
    expand_grid,
    probe_family,
    verify_uniqueness_range,
)

EXIT_OK = 0
EXIT_BAD_RECURRENCE = 1
EXIT_BAD_DECOMP = 2
EXIT_NOT_FOUND = 3
EXIT_INCONSISTENT = 4
EXIT_BUDGET = 5
MAX_INDEX = 10**4  # the largest term index that seq and check grow the table to
MAX_GRID_POINTS = 10**5  # the most grid points probe lists before its sweep
# (exception classes, exit code, label) of a failed command; the first match wins
FAILURES = (
    (RecurrenceError, EXIT_BAD_RECURRENCE, "invalid recurrence"),
    (DecompositionTextError, EXIT_BAD_DECOMP, "invalid decomposition"),
    ((BudgetExceededError, OracleBoundExceededError), EXIT_BUDGET, "budget exceeded"),
    (ConstructionFailedError, EXIT_INCONSISTENT, "construction failed"),
    (ZecklabError, EXIT_INCONSISTENT, "error"),
)


def _natural(text: str) -> int:
    """argparse type: a non-negative decimal integer."""
    if not (text.isascii() and text.isdigit()):
        raise argparse.ArgumentTypeError(f"not a non-negative integer: {text!r}")
    return int(text)


def _positive(text: str) -> int:
    """argparse type: a positive decimal integer."""
    if not (text.isascii() and text.isdigit()) or int(text) < 1:
        raise argparse.ArgumentTypeError(f"not a positive integer: {text!r}")
    return int(text)


def _count(text: str) -> int:
    """argparse type: a term count in 0..MAX_INDEX."""
    if (count := _natural(text)) > MAX_INDEX:
        raise argparse.ArgumentTypeError(f"above the cap {MAX_INDEX}: {text!r}")
    return count


class _Stderr(str):
    """A text line that main prints on stderr, not stdout."""


def _cmd_seq(args, handle):
    payload = {
        "recurrence": handle.spec.text,
        "terms": [str(t) for t in handle.terms(args.count)],
        "duplicate_values": handle.has_duplicate_values,
    }
    lines = [" ".join(payload["terms"])]
    if payload["duplicate_values"]:
        lines.append(_Stderr("note: the sequence repeats a value at two indices"))
    return payload, lines, EXIT_OK


def _cmd_decompose(args, handle):
    if args.trace:
        decomp, steps = greedy_decompose(handle, args.n, trace=True)
    else:
        decomp = greedy_decompose(handle, args.n)
    legal = is_legal(decomp, handle).legal
    payload = {
        "n": str(args.n),
        "summands": [{"index": i, "mult": m, "value": str(handle.term(i))}
                     for i, m in decomp.summands],
        "legal": legal,
    }
    pieces = " + ".join(f"{s['mult']}*G_{s['index']}({s['value']})"
                        for s in payload["summands"])
    lines = [f"{payload['n']} = {pieces or '0'}  [{'legal' if legal else 'ILLEGAL'}]"]
    if args.trace:
        payload["trace"] = [
            {
                "kind": step.kind,
                "anchor": step.anchor,
                "takes": [
                    {"index": i, "copies": k, "value": str(g)}
                    for i, k, g in step.takes
                ],
                "remainder": str(step.remainder),
            }
            for step in steps
        ]
        for step in payload["trace"]:
            if step["kind"] == "unit":
                lines.append(f"  exact term: G_{step['anchor']}")
            else:
                takes = ", ".join(f"{t['copies']}*G_{t['index']}({t['value']})"
                                  for t in step["takes"])
                lines.append(f"  anchor {step['anchor']}: took {takes or 'nothing'};"
                             f" remainder {step['remainder']}")
    return payload, lines, EXIT_OK if legal else EXIT_INCONSISTENT


def _cmd_check(args, handle):
    decomp = parse_decomposition(args.decomp)
    if decomp.max_index > MAX_INDEX:
        raise DecompositionTextError(f"index above the cap {MAX_INDEX}")
    value = evaluate(decomp, handle)
    verdict = is_legal(decomp, handle)
    payload = {
        "decomposition": str(decomp),
        "value": str(value),
        "legal": verdict.legal,
        "alignment": verdict.alignment,
    }
    lines = [f"value {payload['value']}, alignment {payload['alignment']}: "
             f"{'legal' if payload['legal'] else 'illegal'}"]
    if verdict.blocks is not None:  # legal, so there is no reason
        payload["derivation"] = [
            {k: v for k, v in b._asdict().items() if v is not None}
            for b in verdict.blocks
        ]
        for b in payload["derivation"]:
            extra = (f" t={b['t']} coeff={b['coefficient']} gap={b['gap']}"
                     if b["condition"] == 3 else "")
            lines.append(f"  condition {b['condition']} at position {b['start']}{extra}")
    if verdict.reason:
        payload["reason"] = verdict.reason
        lines.append(f"  {verdict.reason}")
    return payload, lines, EXIT_OK


def _cmd_enumerate(args, handle):
    n = args.n
    grammar = sorted(enumerate_legal(handle, n, args.budget), key=str)
    if args.oracle:
        oracle = sorted(naive_oracle(handle, n), key=str)
        if oracle != grammar:
            raise ZecklabError(f"oracle and grammar enumerations disagree for N={n}",
                               {"grammar": [str(d) for d in grammar],
                                "oracle": [str(d) for d in oracle]})
    payload = {
        "n": str(n),
        "count": len(grammar),
        "decompositions": [str(d) for d in grammar],
    }
    lines = [f"{payload['count']} legal decomposition(s) of {payload['n']}"]
    lines += [f"  {d or '(empty)'}" for d in payload["decompositions"]]
    return payload, lines, EXIT_OK


def _cmd_scan(args, handle):
    report = verify_uniqueness_range(handle, args.max, args.budget)
    if report.all_unique:
        lines = [f"no value in 1..{args.max} has two legal decompositions"
                 if args.mode == "nonunique" else
                 f"all values 1..{args.max} have a unique legal decomposition"]
    elif args.mode == "nonunique":
        value, count = report.violation
        lines = [f"N={value} has {count} decompositions: "
                 + "; ".join(str(d) for d in report.witnesses)]
    else:
        value, count = report.violation
        lines = ["=" * 60,
                 f"RESEARCH FINDING: uniqueness fails for {handle.spec.text} "
                 f"at N={value} ({count} decompositions)",
                 *(f"  {d}" for d in report.witnesses),
                 "=" * 60]
    code = EXIT_NOT_FOUND if args.expect_find and report.all_unique else EXIT_OK
    return None, lines, code


def _cmd_lemma22(args, handle):
    slack = construction_slack(handle)
    verdict = "negative as required" if slack < 0 else "NOT NEGATIVE"
    lines = [f"slack = {slack} ({verdict})"]
    if handle.spec.order == handle.spec.depth + 2:
        lines.append(f"closed form check: {case1_slack_closed_form(handle)}")
    return None, lines, EXIT_OK if slack < 0 else EXIT_INCONSISTENT


def _cmd_counterexample(args, handle):
    report = construct_counterexample(handle, args.budget)
    payload = {
        "n": str(report.n_value),
        "x": str(report.x),
        "decompA": str(report.decompA),
        "decompB": str(report.decompB),
        "window_ok": report.window_ok,
        "count_at_n": report.count_at_n,
        "direct_pair_legal": report.direct_pair_legal,
    }
    lines = [f"N = {payload['n']} (x = {payload['x']}, "
             f"window ok: {payload['window_ok']})",
             f"  A: {payload['decompA']}",
             f"  B: {payload['decompB']}",
             f"  total legal decompositions of N: {payload['count_at_n']}"]
    if not payload["direct_pair_legal"]:
        lines.append("  note: the construction's direct second candidate "
                     f"{report.direct_candidate} is not grammar-legal; "
                     "B was found by enumeration")
    return payload, lines, EXIT_OK


def _parse_range(text: str, kind=_natural) -> range | list[int]:
    """"lo..hi" as a range, "a;b;c" as a list, each bound parsed by the
    argparse type ``kind``."""
    lo, dots, hi = text.partition("..")
    values = (range(kind(lo.strip()), kind(hi.strip()) + 1) if dots
              else [kind(p.strip()) for p in text.split(";")])
    if not values:
        raise argparse.ArgumentTypeError(f"empty range: {text!r}")
    return values


def _grid(text: str) -> tuple[range | list[int], range | list[int], int]:
    """argparse type: "s=1..2,span=2..3,c=0..3" as (depths, spans, c_max)."""
    grid = {"s": "1..2", "span": "2..3", "c": "0..3"}
    for part in text.split(","):
        key, _, val = part.partition("=")
        if key.strip() not in grid:
            raise argparse.ArgumentTypeError(f"unknown key: {key.strip()!r}")
        grid[key.strip()] = val.strip()
    depths = _parse_range(grid["s"])
    spans = _parse_range(grid["span"], _positive)
    coefficients = _parse_range(grid["c"])
    # a range compares with a range in O(1); a list is the user's own short list
    expected = range(len(coefficients))
    if coefficients != (expected if isinstance(coefficients, range) else list(expected)):
        raise argparse.ArgumentTypeError(f"c must run from 0: {grid['c']!r}")
    return depths, spans, coefficients[-1]


def _cmd_probe(args, handle):
    texts, skipped = expand_grid(*args.grid, limit=MAX_GRID_POINTS)
    # streams its rows; open the output before the sweep, so an unusable
    # path fails before any family runs
    try:
        out = open(args.out, "w", newline="") if args.out else sys.stdout
    except OSError as exc:
        return None, [_Stderr(f"error: argument --out: cannot write {args.out!r}: "
                              f"{exc.strerror}")], EXIT_BAD_DECOMP
    rows = findings = 0
    try:
        for note in skipped:
            print(f"skipped invalid grid point: {note}", file=sys.stderr)
        writer = csv.writer(out)
        writer.writerow(CSV_HEADER.split(","))
        for text in texts:
            try:
                [rec] = probe_family([text], args.max, args.budget)
            except ZecklabError as exc:
                print(f"error: family {text}: {exc}", file=sys.stderr)
                continue
            writer.writerow(rec.csv_cells())
            rows += 1
            findings += rec.status != "ok"
    finally:
        if args.out:
            out.close()
    lines = [_Stderr(f"{findings} of {rows} families reported a non-ok "
                     "status; inspect the CSV")] if findings else []
    return None, lines, EXIT_INCONSISTENT if rows < len(texts) else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zecklab",
        description="Decompositions over linear recurrence numeration systems",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, summary, as_json=True, budget=False):
        p = sub.add_parser(name, help=summary)
        p.set_defaults(func=func)
        p.add_argument("--rec", required=True, help="coefficients c1,c2,...,cL")
        if as_json:
            p.add_argument("--json", action="store_true")
        if budget:
            p.add_argument("--budget", type=_natural)
        return p

    p = command("seq", _cmd_seq, "print sequence terms")
    p.add_argument("--count", type=_count, required=True)

    p = command("decompose", _cmd_decompose, "greedy decomposition of N")
    p.add_argument("--n", type=_natural, required=True)
    p.add_argument("--trace", action="store_true")

    p = command("check", _cmd_check, "legality verdict for a decomposition")
    p.add_argument("--decomp", required=True, help='e.g. "8:2,7:1,5:2"')

    p = command("enumerate", _cmd_enumerate, "all legal decompositions of N",
                budget=True)
    p.add_argument("--n", type=_natural, required=True)
    p.add_argument("--oracle", action="store_true",
                   help="cross-check with the brute-force oracle")

    p = command("scan", _cmd_scan, "scan a range for uniqueness failures",
                as_json=False, budget=True)
    p.add_argument("--max", type=_positive, required=True)
    p.add_argument("--mode", choices=["nonunique", "unique"], default="nonunique")
    p.add_argument("--expect-find", action="store_true")

    command("lemma22", _cmd_lemma22, "window-slack value for the construction",
            as_json=False)

    # enumerates too, under ZECKLAB_BUDGET only
    p = command("counterexample", _cmd_counterexample,
                "build the two-decompositions witness")
    p.set_defaults(budget=None)

    p = sub.add_parser("probe", help="sweep a family grid, write CSV")
    p.set_defaults(func=_cmd_probe)
    p.add_argument("--grid", type=_grid, default="s=1..2,span=2..3,c=0..3",
                   help='e.g. "s=1..2,span=2..3,c=0..3"')
    p.add_argument("--max", type=_positive, default=5000)
    p.add_argument("--out", help="CSV output path (default stdout)")
    p.add_argument("--budget", type=_natural)

    return parser


def main(argv: list[str] | None = None) -> int:
    # read and print integers of any length (the limit exists from Python 3.10.7)
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        parser = build_parser()
        args = parser.parse_args(argv)
        # a command that enumerates: --budget, else ZECKLAB_BUDGET, else the default
        if "budget" in vars(args) and args.budget is None:
            raw = os.environ.get("ZECKLAB_BUDGET") or str(DEFAULT_GRAMMAR_BUDGET)
            if not (raw.isascii() and raw.isdigit()):
                parser.error(f"ZECKLAB_BUDGET must be a non-negative integer, got {raw!r}")
            args.budget = int(raw)
        try:
            rec = vars(args).get("rec")  # every command but probe
            handle = None if rec is None else SequenceHandle(parse_recurrence(rec))
            payload, lines, code = args.func(args, handle)
        except NotApplicableError as exc:  # an answer, not a failure
            payload = {"applicable": False, "reason": str(exc)}
            lines, code = [f"not applicable: {exc}"], EXIT_OK
        except ZecklabError as exc:
            code, label = next((code, label) for kinds, code, label in FAILURES
                               if isinstance(exc, kinds))
            diagnostics = dict(sorted(exc.diagnostics.items()))
            payload = {"error": label, "reason": str(exc),
                       # integers as decimal strings, tuples as lists
                       "diagnostics": json.loads(json.dumps(diagnostics), parse_int=str)}
            lines = [_Stderr(f"{label}: {exc}"),
                     *(_Stderr(f"  {key}: {val}") for key, val in diagnostics.items())]
        if payload is not None and vars(args).get("json"):  # lemma22 has no --json
            print(json.dumps(payload))
        else:
            for line in lines:
                print(line, file=sys.stderr if isinstance(line, _Stderr) else sys.stdout)
        return code
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())

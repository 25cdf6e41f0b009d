"""The four benchmark workloads: seeded inputs, the timed op, the output check.

Each workload turns a seed into a JSON-serialisable input set (one *pass*),
runs one op at a time against the ``zecklab`` module it is handed, and checks
every op's output against an independent route outside the timed region.
Importing this file does not import ``zecklab``: ``import_zecklab`` does,
from the checkout's ``src/``, so that a cold set-up can time the import.

The reason each workload exists is stored with its name in BENCHMARK.json.
"""

from __future__ import annotations

import importlib
import itertools
import math
import random
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# criterion-4 and criterion-6 families of the acceptance suite
GREEDY_FAMILIES = ["0,2,2", "0,1,1", "0,2,1,2", "0,0,1,4", "0,3,1",
                   "1,1", "3,2,4", "2,2", "0,1,2", "0,0,2,3"]
# values per family: 0,0,1,4's oracle cost grows about as n^3.5 (2 s at
# n=300 on a 2-vCPU x86-64 VM, CPython 3.11), so it gets a tenth as many
# values as the others.  A pass then takes about 3.5 s there, so that a run
# repeats every op several times, and the cheap families give the median
# enough ops.
ORACLE_FAMILIES = {"1,1": 60, "3,2,4": 60, "0,2,2": 60, "0,1,1": 60, "0,0,1,4": 6}

TARGETS_PER_FAMILY = 100
TARGET_DIGITS = 100
ORACLE_MAX = 300
# families per depth: a depth-0 probe sweeps the whole range (about 110 ms
# on the VM above), a deeper one stops early (6-15 ms).  Depth 0 keeps a
# fifth of the ops, so that the 85th-95th percentile band lies inside it and
# the median among the deeper families, and a pass takes about 3 s.
PROBE_PER_DEPTH = {0: 20, 1: 30, 2: 30, 3: 30}
PROBE_BOUND = 5000
# about 3.2 s a pass on the VM above, so that a run repeats each sweep
SWEEPS = [
    ("decompositions_up_to", "0,1,1", 2500),
    ("decompositions_up_to", "0,0,1,5", 10000),
    ("verify_uniqueness_range", "1,1", 10000),
    ("verify_uniqueness_range", "3,2,4", 10000),
]
CHECKS_PER_SWEEP = 16
ENUMERATE_CHECK_MAX = 300


class CheckError(Exception):
    """An op's output disagrees with the independent check."""


def import_zecklab():
    """Import ``zecklab`` from this checkout's ``src/`` and nowhere else."""
    if not (SRC / "zecklab" / "__init__.py").is_file():
        raise SystemExit(f"no zecklab package under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    zk = importlib.import_module("zecklab")
    if Path(zk.__file__).resolve().parent != SRC / "zecklab":
        raise SystemExit(f"imported zecklab from {zk.__file__}, not from {SRC}")
    return zk


def set_up(zk, families: dict) -> tuple[dict, list[str]]:
    """Parse every family, build its handle and extend it past its largest input.

    Returns the handles and the families whose extension raised; the
    constant family ``1`` is one, and its ops show the same defect.
    """
    handles, errors = {}, []
    for text, largest in families.items():
        handles[text] = zk.SequenceHandle(zk.parse_recurrence(text))
        try:
            handles[text].extend_until_exceeds(largest)
        except zk.errors.ZecklabError as exc:
            errors.append(f"{text}: {type(exc).__name__}: {exc}")
    return handles, errors


class CheckHandles(dict):
    """The checker's own handles, one per family, made on first use."""

    def __init__(self, zk):
        super().__init__()
        self.zk = zk

    def __missing__(self, text):
        handle = self[text] = self.zk.SequenceHandle.from_text(text)
        return handle


def acceptance_grid() -> list[str]:
    """Every valid family with depth 0..3, span 1..4 and coefficients <= 4.

    Rebuilt here rather than taken from ``zecklab.expand_grid`` so that the
    inputs do not depend on the code being measured.  Lead and last
    coefficients range over 1..4, interior ones over 0..4; families whose
    nonzero-coefficient indices share a factor are invalid and skipped.
    """
    out = []
    for depth in range(4):
        for span in range(1, 5):
            ends = [range(1, 5)] if span == 1 else [range(1, 5), range(1, 5)]
            choices = ends[:1] + [range(0, 5)] * (span - 2) + ends[1:]
            for tail in itertools.product(*choices):
                coeffs = (0,) * depth + tail
                support = [i for i, c in enumerate(coeffs, 1) if c]
                if math.gcd(*support) == 1:
                    out.append(",".join(map(str, coeffs)))
    return out


def _depth(text: str) -> int:
    coeffs = text.split(",")
    return next(i for i, c in enumerate(coeffs) if c != "0")


class Workload:
    """One workload.  Subclasses define inputs, the op and its check.

    A run repeats whole passes over the inputs, so that every run measures
    the same mix of cheap and expensive ops whatever the seed.
    """

    name = ""

    def inputs(self, seed: int) -> dict:
        """{"families": {text: largest input}, "ops": [...], ...}."""
        raise NotImplementedError

    def weight(self, op) -> int:
        """How many ops one call counts as."""
        return 1

    def label(self, op) -> str:
        return repr(op)

    def run(self, zk, handles: dict, op):
        raise NotImplementedError

    def check(self, zk, handles: dict, op, output) -> dict:
        """Raise CheckError on a wrong output; return counts for the report.

        ``handles`` are the checker's own, never the ones the ops use.
        """
        raise NotImplementedError

    def sizes(self, inputs: dict) -> dict:
        ops = inputs["ops"]
        return {
            "families": len(inputs["families"]),
            "calls_per_pass": len(ops),
            "ops_per_pass": sum(self.weight(op) for op in ops),
            "max_input": max(inputs["families"].values()),
        }


class PointQueries(Workload):
    name = "point-queries"

    def inputs(self, seed):
        rng = random.Random(f"{self.name}:{seed}")
        ops = []
        for text in GREEDY_FAMILIES:
            for k in range(TARGETS_PER_FAMILY):
                # log-uniform, stratified: target k has an equal share of
                # the digit counts 1..100, so each pass costs about the same
                digits = 1 + k * TARGET_DIGITS // TARGETS_PER_FAMILY
                target = rng.randrange(10 ** (digits - 1), 10 ** digits)
                ops.append([text, target, rng.randrange(1 << 30)])
        families = {text: 10 ** TARGET_DIGITS for text in GREEDY_FAMILIES}
        return {"families": families, "ops": ops}

    def label(self, op):
        return f"{self.name} rec={op[0]} n={op[1]}"

    @staticmethod
    def perturb(zk, d, selector):
        """Add one copy of the summand picked by ``selector``."""
        summands = d.to_dict()
        idx = sorted(summands)[selector % len(summands)]
        summands[idx] += 1
        return zk.Decomposition.from_dict(summands)

    def run(self, zk, handles, op):
        text, target, selector = op
        h = handles[text]
        d = zk.greedy_decompose(h, target)
        verdict = zk.is_legal(d, h)
        bumped = self.perturb(zk, d, selector)
        return d, verdict, bumped, zk.is_legal(bumped, h)

    def check(self, zk, handles, op, output):
        text, target, _ = op
        d, verdict, bumped, bumped_verdict = output
        h = handles[text]
        if zk.evaluate(d, h) != target:
            raise CheckError(f"greedy result {d} does not evaluate to {target}")
        if not verdict.legal:
            raise CheckError(f"greedy result {d} is judged illegal")
        for dec, ver in ((d, verdict), (bumped, bumped_verdict)):
            if ver.legal:
                word = zk.replay_derivation(ver.blocks, ver.alignment, h.spec)
                if word != dec.dense(ver.alignment):
                    raise CheckError(f"derivation of {dec} does not replay to its word")
        enumerated = 0
        for dec, ver in ((d, verdict), (bumped, bumped_verdict)):
            value = zk.evaluate(dec, h)
            if value <= ENUMERATE_CHECK_MAX:
                enumerated += 1
                if ver.legal != (dec in zk.enumerate_legal(h, value)):
                    raise CheckError(
                        f"verdict legal={ver.legal} for {dec} (value {value}) "
                        "disagrees with enumerate_legal")
        return {"illegal_verdicts": int(not bumped_verdict.legal),
                "verdicts_enumerated": enumerated}


class OracleCrosscheck(Workload):
    name = "oracle-crosscheck"

    def inputs(self, seed):
        rng = random.Random(f"{self.name}:{seed}")
        # The values are fixed, the midpoints of equal strata of 0..300, and
        # the seed only orders them.  naive_oracle's cost jumps between
        # neighbouring n (0,0,1,4 on the VM above: 177 ms at n=148, 297 ms
        # at n=150), so seeded values moved the latency percentiles by up to
        # a fifth.
        groups = []
        for text, count in ORACLE_FAMILIES.items():
            values = [(2 * k + 1) * (ORACLE_MAX + 1) // (2 * count) for k in range(count)]
            rng.shuffle(values)
            groups.append([[text, n] for n in values])
        # round-robin over the families, so that no family's ops bunch in time
        ops = [op for row in itertools.zip_longest(*groups) for op in row if op]
        families = {text: ORACLE_MAX for text in ORACLE_FAMILIES}
        return {"families": families, "ops": ops}

    def label(self, op):
        return f"{self.name} rec={op[0]} n={op[1]}"

    def run(self, zk, handles, op):
        text, n = op
        h = handles[text]
        # the comparison `zecklab enumerate --oracle` makes
        grammar = sorted(zk.enumerate_legal(h, n), key=str)
        oracle = sorted(zk.naive_oracle(h, n, max(n, 1)), key=str)
        return grammar, oracle, grammar == oracle

    def check(self, zk, handles, op, output):
        text, n = op
        grammar, oracle, agree = output
        if not agree:
            raise CheckError(
                f"grammar {list(map(str, grammar))} != oracle {list(map(str, oracle))}")
        h = handles[text]
        for d in grammar:
            if zk.evaluate(d, h) != n:
                raise CheckError(f"member {d} does not evaluate to {n}")
        return {"decompositions": len(grammar)}


class FamilyProbe(Workload):
    name = "family-probe"

    def inputs(self, seed):
        rng = random.Random(f"{self.name}:{seed}")
        by_depth: dict[int, list[str]] = {}
        for text in acceptance_grid():
            by_depth.setdefault(_depth(text), []).append(text)
        ops = []
        for depth in sorted(by_depth):
            # A systematic sample, the middle family of each of equal strata:
            # the grid is ordered by span and coefficients, so it keeps the
            # grid's spread of family shapes.  The sample is fixed and the
            # seed only orders it.  A sample from a seeded start moved the
            # median probe cost by a fifth and the peak memory by a tenth
            # from seed to seed (0,0,0,1,1 alone adds 2-3 MB when drawn).
            pool = by_depth[depth]
            count = PROBE_PER_DEPTH[depth]
            step = len(pool) / count
            picked = [pool[int((i + 0.5) * step)] for i in range(count)]
            # the constant family raises out of probe_family; it always
            # stays in so that the defect shows as a failed op
            if depth == 0 and "1" not in picked:
                picked[0] = "1"
            ops += picked
        rng.shuffle(ops)
        return {"families": {text: PROBE_BOUND for text in ops}, "ops": ops}

    def label(self, op):
        return f"{self.name} rec={op}"

    def run(self, zk, handles, op):
        return zk.probe_family([op], PROBE_BOUND)

    def check(self, zk, handles, op, output):
        if len(output) != 1 or output[0].recurrence != op:
            raise CheckError(f"expected one record for {op}, got {output}")
        rec = output[0]
        if rec.status not in ("ok", "inconsistent", "budget_exceeded"):
            raise CheckError(f"unknown status {rec.status!r}")
        if rec.first_nonunique_n is not None:
            if _depth(op) == 0:
                raise CheckError(f"depth-0 family reports a non-unique N={rec.first_nonunique_n}")
            h = handles[op]
            count = len(zk.enumerate_legal(h, rec.first_nonunique_n))
            if count != rec.count_at_n:
                raise CheckError(
                    f"N={rec.first_nonunique_n}: reported {rec.count_at_n} "
                    f"decompositions, enumerate_legal finds {count}")
        return {f"status_{rec.status}": 1}


class RangeScan(Workload):
    name = "range-scan"

    def inputs(self, seed):
        rng = random.Random(f"{self.name}:{seed}")
        ops = [[kind, text, bound, sorted(rng.sample(range(1, bound + 1), CHECKS_PER_SWEEP))]
               for kind, text, bound in SWEEPS]
        families = {text: bound for _, text, bound in SWEEPS}
        return {"families": families, "ops": ops}

    def weight(self, op):
        return op[2]

    def label(self, op):
        return f"{self.name} {op[0]} rec={op[1]} to {op[2]}"

    def run(self, zk, handles, op):
        kind, text, bound, _ = op
        return getattr(zk, kind)(handles[text], bound)

    def check(self, zk, handles, op, output):
        kind, text, bound, sample = op
        h = handles[text]
        if kind == "decompositions_up_to":
            if not set(output) <= set(range(1, bound + 1)):
                raise CheckError("sweep reports values outside 1..bound")
            for v in sample:
                got = output.get(v, [])
                want = zk.enumerate_legal(h, v)
                if len(got) != len(want) or set(got) != want:
                    raise CheckError(
                        f"N={v}: sweep has {len(got)} decompositions, "
                        f"enumerate_legal has {len(want)}")
            return {"words": sum(map(len, output.values()))}
        if not output.all_unique:
            raise CheckError(f"depth-0 family reported non-unique at {output.violation}")
        for v in sample:
            if len(zk.enumerate_legal(h, v)) != 1:
                raise CheckError(f"N={v} is not unique under enumerate_legal")
        return {}


WORKLOADS = {w.name: w for w in (PointQueries(), OracleCrosscheck(), FamilyProbe(), RangeScan())}

"""Fixed-workload benchmark for zecklab.

One run measures one workload in this fresh process, as a closed loop with
one caller: the next op starts only after the previous one has finished and
its output has been checked (outside the timed region).  Inputs come from
the seed; the package only sees the generated inputs.  A run repeats whole
passes over the inputs until at least ``--seconds`` of op time are measured.

    python3 bench/run.py --workload point-queries --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 [--out BENCH.json]

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced run (``--spans FILE`` also writes every span).
``--workload all`` runs each workload untraced and traced, one process at a
time, and prints every end-to-end metric with its tracing overhead.

End-to-end metrics: ``setup_s`` (median cold set-up, see cold_setup.py),
``ops_per_s`` (ops of one pass over the sum of each op's median time across
the passes), ``op_p50_ms`` and ``op_p90_ms`` (latency of one op, the median
of its passes, over every op of a pass), ``peak_rss_mb`` (``ru_maxrss`` of
this process) and ``failed_share`` (failed / attempted ops; printed and
recorded, and carried by ``attempted`` and ``failed`` in the result line).
On range-scan one op is one swept value, and its latency is its sweep's time
divided by the values the sweep covers.  Every time is reported at reference
speed (see reference.py): scaled by a fixed loop timed between the ops of
the same run, so that the host's drift in speed moves it less.  The record
keeps the raw figures under ``raw``.

The last line of standard output is one JSON object:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
The line before it, ``record: {...}``, holds the host, the input sizes and
everything else measured.  A wrong output stops the run with exit code 1
and names the op; a ``ZecklabError`` raised by an op counts as a failed op.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from reference import SpeedProbe
from tracer import Tracer
from workloads import WORKLOADS, CheckError

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_REPEATS = 11
BAND = 0.05  # half-width of the percentile band, as a share of all ops
# where ROADMAP's baseline says each of these workloads spends its time
HOT_PATHS = {
    "oracle-crosscheck": ["enumerator.naive_oracle", "legality.word_is_legal"],
    "range-scan": ["enumerator.decompositions_up_to", "sequence.top_index"],
}


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def host() -> dict:
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "machine": platform.machine(), "commit": git_commit()}


def cold_setup_seconds(name: str, seed: int, probe: SpeedProbe) -> list[float]:
    """Set-up times of SETUP_REPEATS fresh interpreters, run one at a time.

    ``probe`` times the reference loop in this process between the children.
    """
    samples = []
    for _ in range(SETUP_REPEATS):
        for _ in range(5):
            probe.sample()
        done = subprocess.run(
            [sys.executable, str(BENCH / "cold_setup.py"), name, str(seed)],
            capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(done.stdout.split()[-1]))
    for _ in range(5):
        probe.sample()
    return samples


def percentile(samples: list[tuple[float, int]], q: float) -> float:
    """The q-quantile of weighted (value, weight) samples, smoothed.

    It is the mean of the empirical quantile function over q - BAND ..
    q + BAND, so it averages the ops ranked around q instead of taking the
    single op at q, whose time moves with whatever else the machine was
    doing in that moment.
    """
    ordered = sorted(samples)
    total = sum(w for _, w in ordered)
    lo, hi = (q - BAND) * total, (q + BAND) * total
    acc = seen = 0.0
    for value, weight in ordered:
        overlap = min(seen + weight, hi) - max(seen, lo)
        if overlap > 0:
            acc += value * overlap
        seen += weight
    return acc / (hi - lo)


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 spans_path: str | None) -> tuple[dict, dict]:
    """One run; returns (result line, record)."""
    wl = WORKLOADS[name]
    inputs = wl.inputs(seed)
    zk = workloads.import_zecklab()
    setup_speed, speed = SpeedProbe(), SpeedProbe()
    setup_samples = cold_setup_seconds(name, seed, setup_speed)
    tracer = Tracer(keep_spans=spans_path is not None) if trace else None
    if tracer:
        tracer.install(zk)
    handles, setup_errors = workloads.set_up(zk, inputs["families"])
    held = {text: len(h) for text, h in handles.items()}
    if tracer:
        tracer.settle_handles()
        tracer.active = False
    checkers = workloads.CheckHandles(zk)

    ops = inputs["ops"]
    timed = 0.0
    attempted = failed = calls = 0
    times: list[list[float]] = [[] for _ in ops]  # seconds per pass, for each op
    failures: dict[str, str] = {}  # op label: error, however many passes raised it
    tallies: dict[str, int] = {}
    while calls % len(ops) or timed < seconds:  # whole passes only
        index = calls % len(ops)
        op = ops[index]
        calls += 1
        weight = wl.weight(op)
        attempted += weight
        # free the previous op's output here, not inside this op's timed
        # region (a range-scan sweep leaves some 100 MB of words)
        output = None
        speed.tick()
        if tracer:
            tracer.op_id = calls
            tracer.active = True
        started = time.perf_counter()
        try:
            output = wl.run(zk, handles, op)
        except zk.errors.ZecklabError as exc:
            output = exc
        except Exception:
            print(f"op raised: {wl.label(op)}", file=sys.stderr)
            raise
        finally:
            elapsed = time.perf_counter() - started
            if tracer:
                tracer.active = False
                tracer.settle_handles()
        timed += elapsed
        times[index].append(elapsed)
        if isinstance(output, zk.errors.ZecklabError):
            failed += weight
            failures[wl.label(op)] = f"{type(output).__name__}: {output}"
            continue
        try:
            for key, value in wl.check(zk, checkers, op, output).items():
                tallies[key] = tallies.get(key, 0) + value
        except CheckError as exc:
            print(f"output check failed: {wl.label(op)}: {exc}", file=sys.stderr)
            return ({"correct": False, "attempted": attempted, "failed": failed,
                     "metrics": {}}, {"workload": name, "failed_op": wl.label(op)})
    speed.sample()
    # Each op's time is the median of its passes, so that a slow stretch of
    # the machine moves neither the percentiles nor the throughput.  A pass
    # then takes the sum of these medians.
    typical = [statistics.median(t) for t in times]
    ok_ops = [wl.label(op) not in failures for op in ops]
    latencies = [(t * 1000 / wl.weight(op), wl.weight(op))
                 for op, t, ok in zip(ops, typical, ok_ops) if ok]
    completed_per_pass = sum(w for w, ok in zip(map(wl.weight, ops), ok_ops) if ok)
    raw = {
        "setup_s": (statistics.median(setup_samples), "s"),
        "ops_per_s": (completed_per_pass / sum(typical), "op/s"),
        "op_p50_ms": (percentile(latencies, 0.5), "ms"),
        "op_p90_ms": (percentile(latencies, 0.9), "ms"),
    }
    # the same at reference speed (see reference.py)
    scale = {"setup_s": setup_speed.factor(), "ops_per_s": 1 / speed.factor(),
             "op_p50_ms": speed.factor(), "op_p90_ms": speed.factor()}
    end_to_end = {
        **{key: (value * scale[key], unit) for key, (value, unit) in raw.items()},
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "failed_share": (failed / attempted, "ratio"),
    }
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "host": host(), "inputs": wl.sizes(inputs),
        "calls": calls, "passes": calls // len(ops), "timed_s": timed,
        "speed": {"setup": setup_speed.summary(), "ops": speed.summary()},
        "raw": {k: {"value": v, "unit": u} for k, (v, u) in raw.items()},
        "latency_samples": sum(w for _, w in latencies), "setup_samples_s": setup_samples,
        "setup_errors": setup_errors, "checks": tallies,
        "failures": [f"{label}: {error}" for label, error in failures.items()],
    }
    if tracer:
        for text, handle in handles.items():
            tracer.counts["sequence.terms_grown"] += len(handle) - held[text]
        per_layer = tracer.metrics()
        per_layer["traced.ops_per_s"] = end_to_end["ops_per_s"]
        metrics = per_layer
        record["per_layer"] = {k: {"value": v, "unit": u} for k, (v, u) in per_layer.items()}
        if name in HOT_PATHS:
            record["hot_path"] = {"functions": HOT_PATHS[name],
                                  "self_share": tracer.self_share(HOT_PATHS[name])}
        if spans_path:
            tracer.write_spans(spans_path)
            record["spans"] = {"path": spans_path, "count": len(tracer.spans)}
    else:
        metrics = {k: v for k, v in end_to_end.items() if k != "failed_share"}
    record["end_to_end"] = {k: {"value": v, "unit": u} for k, (v, u) in end_to_end.items()}
    result = {"correct": True, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    return result, record


def print_run(result: dict, record: dict) -> None:
    """Human-readable lines, then the record line, then the result line."""
    if result["correct"]:
        print(f"workload {record['workload']}  seed {record['seed']}  "
              f"trace {record['trace']}  commit {record['host']['commit'][:12]}")
        print(f"inputs {json.dumps(record['inputs'])}")
        e2e = record["end_to_end"]
        notes = {
            "setup_s": f"median of {len(record['setup_samples_s'])} cold set-ups",
            "ops_per_s": f"{result['attempted'] - result['failed']} ops in {record['timed_s']:.2f} s",
            "op_p50_ms": f"45th-55th percentile of {record['latency_samples']} ops, "
                         f"each the median of {record['passes']} passes",
            "op_p90_ms": "85th-95th percentile of the same ops",
            "peak_rss_mb": "ru_maxrss of this process",
            "failed_share": f"{result['failed']} of {result['attempted']} ops failed",
        }
        speed = record["speed"]["ops"]
        print(f"  times at reference speed: raw x {speed['reference_s']:g} s / the median "
              f"of {speed['loops']} reference loops in the run ({speed['median_s']:.6g} s)")
        for key, note in notes.items():
            if key in record["raw"]:
                note += f"; raw {record['raw'][key]['value']:.6g}"
            print(f"  {key:<13} {e2e[key]['value']:>14.6g} {e2e[key]['unit']:<6} {note}")
        for line in record["failures"]:
            print(f"  failed op: {line}")
        if "hot_path" in record:
            hot = record["hot_path"]
            print(f"  self time in {' + '.join(hot['functions'])}: "
                  f"{hot['self_share']:.1%} of traced self time")
    print("record: " + json.dumps(record))
    print(json.dumps(result), flush=True)


def run_all(args) -> int:
    """Every workload, untraced then traced, each in its own process."""
    summary, ok = {}, True
    for name in WORKLOADS:
        runs = summary[name] = {}
        for kind, trace in (("untraced", 0), ("traced", 1)):
            done = subprocess.run(
                [sys.executable, str(BENCH / "run.py"), "--workload", name,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(trace)],
                capture_output=True, text=True, timeout=600)
            lines = done.stdout.splitlines()
            if done.returncode != 0 or len(lines) < 2 or '"correct": true' not in lines[-1]:
                ok = False
                print(f"{name} {kind}: FAILED (exit {done.returncode})\n"
                      f"{done.stderr[-2000:]}", file=sys.stderr)
                continue
            runs[kind] = json.loads(lines[-2][len("record: "):])
        if len(runs) == 2:
            runs["traced_over_untraced_ops_per_s"] = (
                runs["traced"]["end_to_end"]["ops_per_s"]["value"]
                / runs["untraced"]["end_to_end"]["ops_per_s"]["value"])
    units = {"setup_s": "s", "ops_per_s": "op/s", "op_p50_ms": "ms", "op_p90_ms": "ms",
             "peak_rss_mb": "MB", "failed_share": "ratio"}
    print(f"host {json.dumps(host())}  seed {args.seed}  seconds {args.seconds}")
    print(f"{'workload':<18}" + "".join(f"{k:>14}" for k in units) + f"{'traced/untr.':>14}")
    for name, runs in summary.items():
        if "untraced" in runs:
            e2e = runs["untraced"]["end_to_end"]
            ratio = runs.get("traced_over_untraced_ops_per_s")
            print(f"{name:<18}" + "".join(f"{e2e[k]['value']:>14.6g}" for k in units)
                  + (f"{ratio:>14.3f}" if ratio else ""))
    print(f"{'(unit)':<18}" + "".join(f"{u:>14}" for u in units.values()) + f"{'ratio':>14}")
    for name, runs in summary.items():
        for line in runs.get("untraced", {}).get("failures", []):
            print(f"{name}: failed op: {line}")
        hot = runs.get("traced", {}).get("hot_path")
        if hot:
            print(f"{name}: self time in {' + '.join(hot['functions'])}: "
                  f"{hot['self_share']:.1%} of traced self time")
    if args.out:
        with open(args.out, "w") as out:
            json.dump({"host": host(), "seed": args.seed, "seconds": args.seconds,
                       "workloads": summary}, out, indent=1)
    print("all output checks passed" if ok else "SOME RUNS FAILED")
    return 0 if ok else 1


def positive(text: str) -> float:
    value = float(text)
    if not value > 0:
        raise argparse.ArgumentTypeError("must be > 0")
    return value


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=positive, default=20.0,
                        help="op time to measure; the run ends with the pass it is in")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--spans", help="with --trace 1: write every span to this file")
    parser.add_argument("--out", help="with --workload all: write every record to this file")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    result, record = run_workload(args.workload, args.seed, args.seconds,
                                  bool(args.trace), args.spans)
    print_run(result, record)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

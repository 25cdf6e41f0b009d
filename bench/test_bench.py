"""Tests of the benchmark itself (stdlib unittest; not part of the package suite).

    python3 -m unittest discover -s bench -p 'test_*.py'
"""

import json
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import unittest
from pathlib import Path

import reference
import workloads
from reference import SpeedProbe
from workloads import WORKLOADS, CheckError

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
zk = workloads.import_zecklab()


def inputs_bytes(name, seed):
    return json.dumps(WORKLOADS[name].inputs(seed), sort_keys=True).encode()


class InputsTest(unittest.TestCase):
    def test_same_seed_gives_byte_identical_inputs(self):
        for name in WORKLOADS:
            self.assertEqual(inputs_bytes(name, 7), inputs_bytes(name, 7), name)

    def test_other_seed_gives_other_inputs(self):
        for name in WORKLOADS:
            self.assertNotEqual(inputs_bytes(name, 7), inputs_bytes(name, 8), name)

    def test_grid_is_the_packages_acceptance_grid(self):
        texts, _ = zk.expand_grid(range(0, 4), range(1, 5), 4)
        self.assertEqual(sorted(workloads.acceptance_grid()), sorted(texts))
        self.assertEqual(len(texts), 1940)

    def test_family_probe_always_keeps_the_constant_family(self):
        for seed in range(20):
            ops = WORKLOADS["family-probe"].inputs(seed)["ops"]
            self.assertIn("1", ops)
            self.assertEqual(len(ops), len(set(ops)))

    def test_sizes(self):
        sizes = {name: wl.sizes(wl.inputs(1)) for name, wl in WORKLOADS.items()}
        self.assertEqual(sizes["point-queries"]["ops_per_pass"], 1000)
        self.assertEqual(sizes["oracle-crosscheck"]["ops_per_pass"], 246)
        self.assertEqual(sizes["family-probe"]["ops_per_pass"], 110)
        self.assertEqual(sizes["range-scan"]["ops_per_pass"], 32500)


class PlantedWrongAnswerTest(unittest.TestCase):
    """Each checker accepts the real output and rejects a planted wrong one."""

    def setUp(self):
        self.handles = workloads.CheckHandles(zk)

    def real(self, name, op):
        wl = WORKLOADS[name]
        own = workloads.CheckHandles(zk)
        output = wl.run(zk, own, op)
        wl.check(zk, self.handles, op, output)
        return wl, output

    def test_point_queries(self):
        op = ["0,2,2", 164, 0]
        wl, (d, verdict, bumped, bumped_verdict) = self.real("point-queries", op)
        wrong = zk.Decomposition.from_dict({**d.to_dict(), 1: 1})
        with self.assertRaises(CheckError):
            wl.check(zk, self.handles, op, (wrong, verdict, bumped, bumped_verdict))
        flipped = zk.LegalityVerdict(legal=not bumped_verdict.legal,
                                     alignment=bumped_verdict.alignment, blocks=())
        with self.assertRaises(CheckError):
            wl.check(zk, self.handles, op, (d, verdict, bumped, flipped))

    def test_oracle_crosscheck(self):
        op = ["0,1,1", 7]
        wl, (grammar, oracle, agree) = self.real("oracle-crosscheck", op)
        self.assertEqual(len(grammar), 2)
        with self.assertRaises(CheckError):
            wl.check(zk, self.handles, op, (grammar, oracle[:1], False))
        stray = zk.Decomposition.from_dict({5: 1})
        with self.assertRaises(CheckError):
            wl.check(zk, self.handles, op, (grammar + [stray], oracle + [stray], True))

    def test_family_probe(self):
        op = "0,1,1"
        wl, [rec] = self.real("family-probe", op)
        self.assertEqual((rec.first_nonunique_n, rec.count_at_n), (7, 2))
        rec.count_at_n = 3
        with self.assertRaises(CheckError):
            wl.check(zk, self.handles, op, [rec])

    def test_range_scan(self):
        op = ["decompositions_up_to", "0,1,1", 200, [7, 50, 199]]
        wl, buckets = self.real("range-scan", op)
        buckets[7] = buckets[7][:1]
        with self.assertRaises(CheckError):
            wl.check(zk, self.handles, op, buckets)
        op = ["verify_uniqueness_range", "1,1", 200, [7, 50, 199]]
        wl, report = self.real("range-scan", op)
        with self.assertRaises(CheckError):
            wl.check(zk, self.handles, op, zk.UniquenessReport("1,1", 200, all_unique=False))


class SpeedProbeTest(unittest.TestCase):
    def test_tick_times_the_loop_once_per_interval_passed(self):
        probe = SpeedProbe()
        probe.tick()
        self.assertEqual(len(probe.times), 0)
        time.sleep(3.5 * reference.INTERVAL_S)
        probe.tick()
        self.assertEqual(len(probe.times), 3)
        self.assertAlmostEqual(probe.factor(),
                               reference.REFERENCE_S / statistics.median(probe.times))


class RunTest(unittest.TestCase):
    """Whole runs, one pass each, against the metric names in BENCHMARK.json."""

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    def one_pass(self, name, trace):
        done = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", name, "--seed", "3",
             "--seconds", "0.001", "--trace", str(trace)],
            capture_output=True, text=True, timeout=300, cwd=ROOT)
        self.assertEqual(done.returncode, 0, done.stderr)
        lines = done.stdout.splitlines()
        return json.loads(lines[-1]), json.loads(lines[-2][len("record: "):])

    def test_end_to_end_metrics_and_failed_constant_family(self):
        result, record = self.one_pass("family-probe", 0)
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(set(result["metrics"]), {m["name"] for m in self.spec["end_to_end"]})
        self.assertEqual((result["attempted"], result["failed"]), (110, 1))
        self.assertEqual(len(record["failures"]), 1)
        self.assertIn("rec=1:", record["failures"][0])
        self.assertEqual(set(record["end_to_end"]) - set(result["metrics"]), {"failed_share"})
        # times are reported at reference speed, the raw ones are recorded
        speed = record["speed"]["ops"]
        factor = speed["reference_s"] / speed["median_s"]
        self.assertAlmostEqual(result["metrics"]["op_p50_ms"]["value"],
                               record["raw"]["op_p50_ms"]["value"] * factor)
        self.assertAlmostEqual(result["metrics"]["ops_per_s"]["value"],
                               record["raw"]["ops_per_s"]["value"] / factor)

    def test_traced_runs_confirm_the_baseline_traffic(self):
        names = {m["name"] for m in self.spec["per_layer"]}
        for name in ("oracle-crosscheck", "range-scan"):
            result, record = self.one_pass(name, 1)
            self.assertEqual(set(result["metrics"]), names)
            # ROADMAP's baseline: the oracle's descent and its recognizer
            # calls dominate one; the materialising sweep and its window
            # lookups dominate the other
            self.assertGreater(record["hot_path"]["self_share"], 0.5, name)

    def test_refuses_to_run_without_the_package(self):
        with tempfile.TemporaryDirectory(prefix=".bench-bare-", dir=ROOT) as bare:
            shutil.copytree(BENCH, Path(bare) / "bench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            done = subprocess.run(
                [sys.executable, "bench/run.py", "--workload", "point-queries",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                capture_output=True, text=True, timeout=180, cwd=bare)
        self.assertNotEqual(done.returncode, 0)
        self.assertNotIn('"correct"', done.stdout)


if __name__ == "__main__":
    unittest.main()

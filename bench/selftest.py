"""The benchmark's own tests, at the small ``fast`` sizes.

Run from the root of a checkout with ``python3 bench/selftest.py`` (standard
library only); it takes well under a minute.
"""

from __future__ import annotations

import copy
import hashlib
import json
import random
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import tracer  # noqa: E402
import worker  # noqa: E402
from g2crystal import cli  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_bench(*args, cwd=ROOT, script=BENCH / "run.py"):
    return subprocess.run([sys.executable, str(script), *args], capture_output=True,
                          text=True, timeout=170, cwd=cwd)


class MetricsTest(unittest.TestCase):
    def check_run(self, workload, trace, declared):
        proc = run_bench("--workload", workload, "--seed", "3", "--seconds", "0",
                         "--trace", str(trace), "--fast")
        self.assertEqual(proc.returncode, 0, proc.stderr)
        lines = proc.stdout.splitlines()
        result = json.loads(lines[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], proc.stdout)
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        want = {m["name"]: m["unit"] for m in declared}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        self.assertEqual(got, want)
        for name, metric in result["metrics"].items():
            self.assertIsInstance(metric["value"], (int, float), name)
            if trace == 0:
                self.assertGreater(metric["value"], 0, name)
        self.assertIn("  error_rate = 0 1", lines)
        return result

    def test_end_to_end_metrics_named_with_units(self):
        for workload in ("export", "verify", "walk"):
            with self.subTest(workload=workload):
                self.check_run(workload, 0, SPEC["end_to_end"])

    def test_per_layer_metrics_named_with_units_and_repeatable(self):
        counts = ("calls", "checks", "nodes", "edges", "bytes", "spans")
        for workload in ("export", "verify", "walk"):
            with self.subTest(workload=workload):
                first = self.check_run(workload, 1, SPEC["per_layer"])["metrics"]
                second = self.check_run(workload, 1, SPEC["per_layer"])["metrics"]
                for name in first:
                    if name.rsplit(".", 1)[-1] in counts:
                        self.assertEqual(first[name], second[name], name)


class CheckFailureTest(unittest.TestCase):
    """Corrupted reference data must register as failed units."""

    def setUp(self):
        self.sizes = worker.load_sizes("fast")
        self.out = worker.OUT / "selftest"

    def test_seed_passes(self):
        self.assertEqual(worker.export_pass(self.sizes, self.out).failed, 0)
        self.assertEqual(worker.verify_pass(self.sizes, random.Random(1)).failed, 0)

    def test_corrupted_digest_fails(self):
        sizes = copy.deepcopy(self.sizes)
        sizes["export"]["sha256"]["cliff.dot"] = "0" * 64
        result = worker.export_pass(sizes, self.out)
        self.assertEqual(result.failed, 1)
        self.assertIn("cliff.dot", result.errors[0])

    def test_corrupted_check_count_fails(self):
        sizes = copy.deepcopy(self.sizes)
        sizes["verify"]["census"]["checks"] += 1
        result = worker.verify_pass(sizes, random.Random(1))
        self.assertEqual(result.failed, 1)
        self.assertIn("census", result.errors[0])

    def test_kostant_oracle(self):
        table = worker.kostant_table(18)
        self.assertEqual((table[(1, 1)], table[(2, 1)], table[(3, 2)]), (2, 3, 7))
        self.assertEqual(sum(table.values()), 3611)
        self.assertIsNotNone(worker.check_graph_dot("", 18, table))


class TracerTest(unittest.TestCase):
    def test_checks_are_left_out_of_the_metrics(self):
        spans = tracer.Tracer()
        inner = spans.wrap(lambda: None, "minf.op")
        outer = spans.wrap(inner, "minf.structure")
        check = spans.exclude(lambda: outer())
        outer()
        check()
        totals, counted, _key_calls = spans.span_totals()
        self.assertEqual((totals["minf.structure"][0], totals["minf.op"][0], counted), (1, 1, 2))


class GoldenDigestTest(unittest.TestCase):
    def test_depth2_digests_equal_the_test_goldens(self):
        pinned = worker.load_sizes("depth2")
        self.assertEqual(len(pinned["export"]["sha256"]), 4)
        for name, digest in pinned["export"]["sha256"].items():
            realization, fmt = name.split(".")
            golden = ROOT / "tests" / "golden" / f"{realization}_depth2.{fmt}"
            self.assertEqual(hashlib.sha256(golden.read_bytes()).hexdigest(), digest, name)
            path = worker.OUT / "selftest" / name
            path.parent.mkdir(parents=True, exist_ok=True)
            argv = ["graph", "--realization", realization, "--depth", "2",
                    "--format", fmt, "--out", str(path)]
            self.assertEqual(cli.main(argv), 0)
            self.assertEqual(worker.sha256_file(path), digest, name)


class ContractTest(unittest.TestCase):
    def test_fails_without_the_program(self):
        bare = worker.OUT / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        try:
            proc = run_bench("--workload", "export", "--seed", "1", "--seconds", "1",
                             "--trace", "0", cwd=bare, script=bare / "bench" / "run.py")
        finally:
            shutil.rmtree(bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()

#!/usr/bin/env python3
"""Tests of the benchmark itself (stdlib unittest).

    python3 benchmark/test_bench.py

Runs run.py in --smoke mode (short windows, 2 trials), so it checks the
plumbing, not the speed: every metric BENCHMARK.json names is printed
with its unit, another seed changes the fingerprints, compare.py's
self-test passes, and the benchmark refuses to run without the
repository it measures.
"""

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORK_DIR = BENCH_DIR / "build"


def run_bench(*args, cwd=ROOT, script=BENCH_DIR / "run.py"):
    return subprocess.run([sys.executable, str(script), "--smoke", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=900)


class SmokeRun:
    """One smoke run of every workload, shared by the tests that read it."""
    _cache = {}

    @classmethod
    def get(cls, *args):
        if args not in cls._cache:
            WORK_DIR.mkdir(exist_ok=True)
            with tempfile.TemporaryDirectory(dir=WORK_DIR) as tmp:
                out = Path(tmp) / "result.json"
                proc = run_bench("--out", str(out), *args)
                result = json.loads(out.read_text()) if out.exists() else None
            cls._cache[args] = (proc, result)
        return cls._cache[args]


class BenchmarkTest(unittest.TestCase):
    def check_printed(self, trace_args, declared):
        proc, _ = SmokeRun.get("--seed", "1", *trace_args)
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        lines = proc.stdout.splitlines()
        printed = {}
        for line in lines:
            fields = line.split("#")[0].split()
            if len(fields) == 4:
                printed[(fields[0], fields[1])] = fields[3]
        last = json.loads(lines[-1])
        self.assertTrue(last["correct"])
        self.assertEqual(last["failed"], 0)
        self.assertGreaterEqual(last["attempted"], 1)
        for w in SPEC["workloads"]:
            for m in declared:
                self.assertEqual(printed.get((w["name"], m["name"])), m["unit"],
                                 f"{w['name']} {m['name']} not printed with unit {m['unit']}")
                entry = last["metrics"][f"{w['name']}.{m['name']}"]
                self.assertEqual(entry["unit"], m["unit"])
                self.assertIsInstance(entry["value"], float)

    def test_end_to_end_metrics_printed_with_units(self):
        self.check_printed((), SPEC["end_to_end"])

    def test_per_layer_metrics_printed_with_units(self):
        self.check_printed(("--trace", "1"), SPEC["per_layer"])

    def test_another_seed_changes_fingerprints(self):
        _, first = SmokeRun.get("--seed", "1")
        _, second = SmokeRun.get("--seed", "2")
        prints = lambda r: {w["workload"]: w["fingerprints"] for w in r["workloads"]}  # noqa: E731
        a, b = prints(first), prints(second)
        self.assertEqual(set(a), {w["name"] for w in SPEC["workloads"]})
        for workload, fps in a.items():
            self.assertEqual(len(fps), 1, f"{workload}: trials disagree")
            self.assertNotEqual(fps, b[workload], f"{workload}: seed did not change the inputs")

    def test_compare_self_test(self):
        proc = subprocess.run([sys.executable, str(BENCH_DIR / "compare.py"), "--self-test"],
                              capture_output=True, text=True, timeout=120)
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)

    def test_fails_without_the_repository(self):
        # Only BENCHMARK.json and the benchmark's sources: the build must
        # fail, and no result may be printed.
        WORK_DIR.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=WORK_DIR) as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(BENCH_DIR, Path(tmp) / "benchmark",
                            ignore=shutil.ignore_patterns("build", "results", "__pycache__"))
            proc = run_bench("--workload", SPEC["workloads"][0]["name"], cwd=tmp,
                             script=Path(tmp) / "benchmark" / "run.py")
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()

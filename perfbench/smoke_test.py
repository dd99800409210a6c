#!/usr/bin/env python3
"""Smoke tests of the benchmark itself. Run from the root of the repository:

    python3 perfbench/smoke_test.py

A one-second run of each workload must print every metric named in BENCHMARK.json,
with its unit, traced and untraced, and fail nothing; a run whose output is tampered
with must count it as failed; a tree without the repository's sources must be refused.
"""

import json
import pathlib
import shutil
import subprocess
import sys
import unittest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload, trace, *extra, root=ROOT):
    done = subprocess.run(
        [
            sys.executable,
            str(root / "perfbench" / "run.py"),
            "--workload", workload,
            "--seed", "7",
            "--seconds", "1",
            "--trace", str(trace),
            *extra,
        ],
        cwd=root,
        capture_output=True,
        text=True,
        timeout=900,
    )
    return done


def result_of(done):
    assert done.returncode == 0, done.stderr[-3000:]
    lines = done.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


class Smoke(unittest.TestCase):
    def test_every_workload_prints_every_metric_with_its_unit(self):
        for workload in SPEC["workloads"]:
            for trace, table in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload["name"], trace=trace):
                    lines, result = result_of(run(workload["name"], trace))
                    self.assertEqual(
                        set(result), {"correct", "attempted", "failed", "metrics"}
                    )
                    self.assertEqual(
                        {name: m["unit"] for name, m in result["metrics"].items()},
                        {m["name"]: m["unit"] for m in SPEC[table]},
                    )
                    for metric in result["metrics"].values():
                        self.assertIsInstance(metric["value"], (int, float))
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreater(result["attempted"], 0)
                    self.assertTrue(any(line.startswith("host {") for line in lines))

    def test_a_tampered_output_counts_as_failed(self):
        for workload in SPEC["workloads"]:
            with self.subTest(workload=workload["name"]):
                _, result = result_of(run(workload["name"], 0, "--tamper"))
                self.assertFalse(result["correct"])
                self.assertGreaterEqual(result["failed"], 1)

    def test_a_tree_without_the_sources_is_refused(self):
        bare = ROOT / ".bench_build" / "smoke-bare"
        shutil.rmtree(bare, ignore_errors=True)
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(ROOT / "perfbench", bare / "perfbench")
        try:
            done = run("pipeline", 0, root=bare)
            self.assertNotEqual(done.returncode, 0)
            self.assertNotIn('"correct"', done.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main(verbosity=2)

"""Tests of the benchmark itself, on the same three kinds of workload
shrunk to n <= 4 so the whole file runs in well under a minute.

    python3 bench/selftest.py

Not named ``test_*.py`` on purpose: the repository's test suite does not
collect it, so a benchmark change never moves the Tier-1 count.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import os
import shutil
import subprocess
import sys
import unittest

import run

TINY = {
    "suite-n4": run.Workload(
        kind="verify", conjecture="theorem-suite", max_n=4, jobs=2, units=90,
        counts=(90, 0, 0),
        digest="c322eeab3628f326b5903803f50bb5251a43e2a93ed9eb8521298881861f4380",
    ),
    "hbound-n4": run.Workload(
        kind="verify", conjecture="h-lower-bound", max_n=4, jobs=1, units=90,
        counts=(90, 0, 0),
        digest="333798cce2326a6415ca5e3d18752f659f7ff2678a1ea3e1c5d5ac3b605330af",
    ),
    "expand-n4": run.Workload(
        kind="expand", max_n=4, units=22,
        digest="7085ea1cb0deddbcf1ecbba3b580707666698f83d1fc315dca6245d4a7816cd0",
    ),
}


def bench(name, trace=0, workloads=TINY):
    """Call the benchmark in this process; returns (exit code, stdout lines)."""
    buf = io.StringIO()
    argv = ["--workload", name, "--seed", "7", "--seconds", "0.1", "--trace", str(trace)]
    with contextlib.redirect_stdout(buf):
        code = run.main(argv, workloads)
    return code, buf.getvalue().splitlines()


class BenchmarkTest(unittest.TestCase):
    spec = run.load_spec()

    def check_prints(self, name, trace, section):
        code, lines = bench(name, trace)
        self.assertEqual(code, 0, "\n".join(lines))
        result = json.loads(lines[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], TINY[name].units)
        wanted = {m["name"]: m["unit"] for m in self.spec[section]}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        self.assertEqual(got, wanted)
        table = "\n".join(lines[:-1])
        for metric, unit in wanted.items():
            self.assertRegex(table, rf"\n  {metric} +\S+ {unit} +median of n=\d+")
        self.assertRegex(table, r"\n  error_share +0 ratio +0 of \d+ units")
        return result["metrics"]

    def test_every_end_to_end_metric_prints(self):
        for name in TINY:
            with self.subTest(name):
                metrics = self.check_prints(name, 0, "end_to_end")
                for metric in metrics.values():
                    self.assertGreater(metric["value"], 0)

    def test_every_per_layer_metric_prints(self):
        for name in TINY:
            with self.subTest(name):
                metrics = self.check_prints(name, 1, "per_layer")
                units = metrics["harness.units"]["value"]
                self.assertEqual(units, 0 if name == "expand-n4" else TINY[name].units)

    def test_wrong_pinned_count_fails(self):
        wrong = dataclasses.replace(TINY["hbound-n4"], counts=(89, 1, 0))
        code, lines = bench("hbound-n4", workloads={"hbound-n4": wrong})
        self.assertEqual(code, 1)
        self.assertFalse(json.loads(lines[-1])["correct"])

    def test_wrong_pinned_failing_unit_fails(self):
        wrong = dataclasses.replace(TINY["hbound-n4"], failing=(((0, 0, 1, 2), (2, 2)),))
        code, lines = bench("hbound-n4", workloads={"hbound-n4": wrong})
        self.assertEqual(code, 1)
        self.assertFalse(json.loads(lines[-1])["correct"])

    def test_wrong_pinned_digest_fails(self):
        for name in ("suite-n4", "expand-n4"):
            with self.subTest(name):
                wrong = dataclasses.replace(TINY[name], digest="0" * 64)
                code, lines = bench(name, workloads={name: wrong})
                self.assertEqual(code, 1)
                self.assertFalse(json.loads(lines[-1])["correct"])

    def test_without_sources_fails_and_prints_no_result(self):
        bare = os.path.join(run.OUT, f"bare-{os.getpid()}")
        shutil.rmtree(bare, ignore_errors=True)
        try:
            os.makedirs(os.path.join(bare, "bench"))
            shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
            for name in os.listdir(run.BENCH):
                if name.endswith((".py", ".json")):
                    shutil.copy(os.path.join(run.BENCH, name), os.path.join(bare, "bench"))
            cmd = [*self.spec["command"], "--workload", "suite-n6", "--seed", "1",
                   "--seconds", "1", "--trace", "0"]
            proc = subprocess.run(cmd, cwd=bare, capture_output=True, text=True, timeout=180)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()

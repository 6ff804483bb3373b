#!/usr/bin/env python3
"""Tests of the campaign benchmark itself.

    python3 perfbench/test_run.py          # all (builds, ~2 min)
    python3 perfbench/test_run.py Names OutputCheck   # the fast ones
"""

import contextlib
import io
import json
import os
import re
import subprocess
import sys
import unittest
from unittest import mock

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9_.-]+$")


def manifest():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


class Names(unittest.TestCase):
    def test_every_name_is_well_formed(self):
        m = manifest()
        names = (list(run.END_TO_END) + list(run.PER_LAYER)
                 + [w["name"] for w in m["workloads"]])
        for name in names:
            self.assertRegex(name, NAME)
            self.assertLessEqual(len(name), 64)
        self.assertEqual(len(names), len(set(names)))

    def test_manifest_lists_what_run_emits(self):
        m = manifest()
        self.assertEqual({e["name"]: e["unit"] for e in m["end_to_end"]}, run.END_TO_END)
        self.assertEqual({e["name"]: e["unit"] for e in m["per_layer"]}, run.PER_LAYER)
        self.assertEqual(tuple(w["name"] for w in m["workloads"]), run.WORKLOADS)
        self.assertIn("setup_s", run.END_TO_END)


def passes(*digests):
    return [{"digests": d} for d in digests]


class OutputCheck(unittest.TestCase):
    expected = run.EXPECTED["ckpt_telemetry"]

    def test_recorded_digests_pass(self):
        self.assertEqual(run.check_outputs(passes(self.expected, dict(self.expected)),
                                           self.expected), 0)

    def test_corrupted_digest_fails(self):
        corrupted = dict(self.expected, ledger="0" * 16 + "-1")
        self.assertEqual(run.check_outputs(passes(self.expected, self.expected), corrupted), 2)

    def test_jobs_disagreement_fails_at_other_seeds(self):
        other = dict(self.expected, csv="0" * 16 + "-1")
        self.assertEqual(run.check_outputs(passes(self.expected, other), None), 1)
        self.assertEqual(run.check_outputs(passes(other, other), None), 0)


def run_benchmark(workload, trace):
    return subprocess.run(
        [sys.executable, os.path.join(run.HERE, "run.py"), "--workload", workload,
         "--seconds", "0", "--trace", str(trace)],
        cwd=run.ROOT, capture_output=True, text=True)


class EveryWorkload(unittest.TestCase):
    """Builds the benchmark and runs one round of every workload."""

    def test_every_workload_emits_every_metric(self):
        for workload in run.WORKLOADS:
            for trace, units in ((0, run.END_TO_END), (1, run.PER_LAYER)):
                with self.subTest(workload=workload, trace=trace):
                    proc = run_benchmark(workload, trace)
                    self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
                    result = json.loads(proc.stdout.splitlines()[-1])
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual({k: v["unit"] for k, v in result["metrics"].items()}, units)

    def test_corrupted_digest_fails_the_run(self):
        out = io.StringIO()
        corrupted = {"short_sweep": {"csv": "0" * 16 + "-1"}}
        with mock.patch.dict(run.EXPECTED, corrupted), contextlib.redirect_stdout(out):
            code = run.main(["--workload", "short_sweep", "--seconds", "0"])
        self.assertEqual(code, 1)
        result = json.loads(out.getvalue().splitlines()[-1])
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], 2)  # both passes mismatch
        self.assertLess(result["metrics"]["replica_ok_ratio"]["value"], 1.0)


if __name__ == "__main__":
    unittest.main()

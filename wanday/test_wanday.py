#!/usr/bin/env python3
"""Self-tests of the WAN-day pipeline benchmark.

Run from the root of a checkout:

    python3 wanday/test_wanday.py

Each workload runs once at the tiny size, untraced and traced, and must pass
its checks and print exactly the metrics BENCHMARK.json names. Two planted
wrong answers (a record dropped from the ingest oracle, a summary altered
inside a region export) must be rejected. A copy of the benchmark with no
library sources beside it must fail without printing a result.
"""
import json
import math
import os
import re
import shutil
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MANIFEST = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run(workload, trace="0", plant="", cwd=ROOT):
    command = [sys.executable, os.path.join("wanday", "run.py"), "--workload", workload,
               "--seed", "7", "--seconds", "1", "--trace", trace, "--size", "tiny"]
    if plant:
        command += ["--plant", plant]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=900)


def result_of(proc):
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def late_queries(proc):
    """Shed plus over-deadline queries, from the run's "queries:" line."""
    match = re.search(r"^queries: \d+ attempted, (\d+) shed .*?, (\d+) over deadline",
                      proc.stdout, re.MULTILINE)
    return int(match.group(1)) + int(match.group(2))


class TinyWorkloads(unittest.TestCase):
    def check_run(self, workload, trace):
        proc = run(workload, trace)
        self.assertEqual(proc.returncode, 0, proc.stdout[-3000:] + proc.stderr[-3000:])
        result = result_of(proc)
        self.assertEqual(set(result), RESULT_KEYS)
        self.assertTrue(result["correct"])
        # Shed and over-deadline queries depend on the host's load and are
        # failed operations, not failed checks; nothing else may fail.
        self.assertEqual(result["failed"], late_queries(proc))
        self.assertGreaterEqual(result["attempted"], 1)
        expected = MANIFEST["per_layer" if trace == "1" else "end_to_end"]
        self.assertEqual(set(result["metrics"]), {m["name"] for m in expected})
        for metric in expected:
            reported = result["metrics"][metric["name"]]
            self.assertEqual(reported["unit"], metric["unit"], metric["name"])
            self.assertIsInstance(reported["value"], (int, float), metric["name"])
            self.assertTrue(math.isfinite(reported["value"]), metric["name"])
        return result

    def test_ingest_day(self):
        self.check_run("ingest_day", "0")
        traced = self.check_run("ingest_day", "1")["metrics"]
        self.assertGreater(traced["telemetry.seal.records_retired"]["value"], 0)
        self.assertGreater(traced["telemetry.spill.bytes"]["value"], 0)

    def test_regime_day(self):
        self.check_run("regime_day", "0")
        traced = self.check_run("regime_day", "1")["metrics"]
        self.assertGreater(traced["smn.resolve.count"]["value"], 0)
        self.assertGreater(traced["te.sweep.pairs"]["value"], 0)

    def test_federated_day(self):
        self.check_run("federated_day", "0")
        traced = self.check_run("federated_day", "1")["metrics"]
        self.assertGreater(traced["smn.global.summaries"]["value"], 0)
        self.assertGreater(traced["te.federated.sp_calls"]["value"], 0)


class PlantedWrongAnswers(unittest.TestCase):
    def assert_rejected(self, workload, plant):
        proc = run(workload, plant=plant)
        self.assertNotEqual(proc.returncode, 0, proc.stdout[-3000:])
        result = result_of(proc)
        self.assertFalse(result["correct"])
        self.assertGreaterEqual(result["failed"], 1)

    def test_dropped_record_in_ingest_oracle(self):
        self.assert_rejected("ingest_day", "drop_record")

    def test_mutated_summary_in_export(self):
        self.assert_rejected("federated_day", "mutate_summary")


class WithoutSources(unittest.TestCase):
    def test_fails_without_library_sources(self):
        isolated = os.path.join(ROOT, ".bench_build", "wanday", "selftest-isolated")
        shutil.rmtree(isolated, ignore_errors=True)
        os.makedirs(isolated)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), isolated)
        for path in MANIFEST["paths"]:
            shutil.copytree(os.path.join(ROOT, path), os.path.join(isolated, path))
        try:
            proc = run("regime_day", cwd=isolated)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)
        finally:
            shutil.rmtree(isolated, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()

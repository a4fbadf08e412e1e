"""The benchmark's own tests.

Usage (from the repository root): python3 perfbench/selftest.py

Runs a tiny-size smoke run of every workload, untraced and traced, with
the output check, and checks every printed metric name and unit against
``BENCHMARK.json`` and the layer predictions in ``predictions.json``.
The smoke runs start Ray, so the whole file takes a few minutes.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [ROOT, HERE]

TINY = {"pages_parquet": 40, "warc_recrawl": 30, "cdc_delta": 100}
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _load(name: str) -> dict:
    with open(os.path.join(ROOT if name == "BENCHMARK.json" else HERE,
                           name)) as f:
        return json.load(f)


def _run(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=300)


class BenchmarkFile(unittest.TestCase):
    def test_contract_shape(self):
        b = _load("BENCHMARK.json")
        self.assertEqual(set(b), {"command", "paths", "run_seconds",
                                  "workloads", "end_to_end", "per_layer"})
        self.assertEqual(b["paths"], ["perfbench"])
        self.assertTrue(1 <= b["run_seconds"] <= 60)
        self.assertLessEqual({w["name"] for w in b["workloads"]}, set(TINY))
        names = [m["name"] for k in ("end_to_end", "per_layer")
                 for m in b[k]] + [w["name"] for w in b["workloads"]]
        self.assertEqual(len(names), len(set(names)))
        for n in names:
            self.assertRegex(n, NAME)
        for w in b["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)
        bounds = {}
        for m in b["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertRegex(m["unit"], UNIT)
            self.assertTrue(0 < m["bound"] <= 0.25)
            bounds[m["name"]] = m["bound"]
        self.assertEqual(bounds["setup_s"], max(bounds.values()))
        for m in b["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
            self.assertRegex(m["unit"], UNIT)

    def test_every_layer_metric_has_a_prediction(self):
        b = _load("BENCHMARK.json")
        layers = _load("predictions.json")["layers"]
        listed = [m for entry in layers for m in entry["metrics"]]
        self.assertEqual(sorted(listed),
                         sorted(m["name"] for m in b["per_layer"]))
        e2e = {m["name"] for m in b["end_to_end"]}
        measured = {w["name"] for w in b["workloads"]}
        for entry in layers:
            moved_on = set()
            for metric, workloads in entry["moves"].items():
                self.assertIn(metric, e2e)
                self.assertLessEqual(set(workloads), set(TINY))
                moved_on |= set(workloads)
            # every layer is exercised by a workload the driver runs
            self.assertTrue(moved_on & measured, entry["layer"])

    def test_inputs_are_a_function_of_the_seed(self):
        import gen

        with tempfile.TemporaryDirectory() as tmp:
            for wl, size in TINY.items():
                a = gen.generate(wl, os.path.join(tmp, wl, "a"), 7, size)
                b = gen.generate(wl, os.path.join(tmp, wl, "b"), 7, size)
                c = gen.generate(wl, os.path.join(tmp, wl, "c"), 8, size)
                self.assertEqual(a["digest"], b["digest"])
                self.assertNotEqual(a["digest"], c["digest"])

    def test_default_seed_matches_the_recorded_digests(self):
        import gen
        from run import SIZES

        expected = _load("expected.json")
        self.assertEqual(set(expected["workloads"]), set(TINY))
        with tempfile.TemporaryDirectory() as tmp:
            for wl, rec in expected["workloads"].items():
                self.assertEqual(rec["size"], SIZES[wl])
                meta = gen.generate(wl, os.path.join(tmp, wl),
                                    expected["seed"], rec["size"])
                self.assertEqual(meta["digest"], rec["digest"], wl)

    def test_fails_without_the_program(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(HERE, os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            out = _run("--workload", "pages_parquet", "--seed", "1",
                       "--seconds", "1", "--trace", "0", cwd=tmp)
            self.assertNotEqual(out.returncode, 0)
            self.assertNotIn('"metrics"', out.stdout)


class SmokeRuns(unittest.TestCase):
    """Tiny inputs, one second of timed work: every metric is printed
    with its unit and every output check passes."""

    def _smoke(self, workload: str, trace: int) -> dict:
        out = _run("--workload", workload, "--seed", "3", "--seconds", "1",
                   "--trace", str(trace), "--size", str(TINY[workload]))
        self.assertEqual(out.returncode, 0, out.stderr[-2000:])
        result = json.loads(out.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], out.stdout[-2000:])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        kind = "per_layer" if trace else "end_to_end"
        want = {m["name"]: m["unit"] for m in _load("BENCHMARK.json")[kind]}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        self.assertEqual(got, want)
        for v in result["metrics"].values():
            self.assertIsInstance(v["value"], (int, float))
        return result["metrics"]

    def test_untraced(self):
        for wl in TINY:
            with self.subTest(workload=wl):
                m = self._smoke(wl, 0)
                self.assertGreater(m["pages_per_s_at_ref"]["value"], 0)
                self.assertGreater(m["peak_rss_mib"]["value"], 0)

    def test_traced(self):
        for wl in TINY:
            with self.subTest(workload=wl):
                m = self._smoke(wl, 1)
                self.assertGreater(m["extract.rows"]["value"], 0)
                self.assertEqual(m["warc.records"]["value"] > 0,
                                 wl == "warc_recrawl")
                self.assertEqual(m["cdc.extracted_rows"]["value"] > 0,
                                 wl == "cdc_delta")


if __name__ == "__main__":
    unittest.main(verbosity=2)

#!/usr/bin/env python3
"""The benchmark's own tests. Run from the root of a wdag checkout:

    python3 perfbench/test_counts.py

1. BENCHMARK.json lists exactly the metrics (names, units, order) that
   the benchmark binary reports.
2. Counts repeat exactly: two runs with the same seed report identical
   per-layer counts (dispatch shares, exact search nodes, conflict
   edges, split-merge levels and fix-ups, chain recolorings) and
   identical proven_share and wavelength_load_ratio. A harness whose
   counts drift is nondeterministic, and its timings are not trusted.
3. Every run passes its answer checks, and the traced runs confirm the
   layer each workload is meant to load.
4. Without the wdag sources next to it the benchmark fails fast and
   prints no result.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
BATCH = ["upp-mix", "certify-exact", "dense-dsatur"]
COUNTS = [
    "core.dispatch.theorem1_share", "core.dispatch.split_merge_share",
    "core.dispatch.dsatur_share", "core.dispatch.exact_share",
    "conflict.exact_nodes", "conflict.exact_proven_share", "conflict.edges",
    "core.split_merge.levels", "core.split_merge.fixups",
    "core.theorem1.chain_recolorings",
]
ANSWERS = ["proven_share", "wavelength_load_ratio"]
_cache = {}


def run(workload, seed, trace, seconds=2, cwd=ROOT):
    """Runs the benchmark; returns (exit code, stdout, parsed last line)."""
    p = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300)
    lines = p.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            pass
    return p.returncode, p.stdout, result


def metrics(workload, seed, trace, attempt):
    """Values of one (memoized) run, after checking it passed."""
    key = (workload, seed, trace, attempt)
    if key not in _cache:
        code, out, result = run(workload, seed, trace)
        assert code == 0 and result and result["correct"], out
        assert result["failed"] == 0 and result["attempted"] >= 1, out
        _cache[key] = {k: v["value"] for k, v in result["metrics"].items()}
    return _cache[key]


class Benchmark(unittest.TestCase):
    def test_benchmark_json_matches_the_binary(self):
        run("upp-mix", 1, 0, seconds=0.1)  # builds the binary if needed
        listed = subprocess.run(
            [os.path.join(ROOT, ".bench_build", "perfbench", "perfbench"),
             "--list-metrics"], capture_output=True, text=True,
            check=True).stdout.split("\n")
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            doc = json.load(f)
        declared = [f"end_to_end {m['name']} {m['unit']}"
                    for m in doc["end_to_end"]]
        declared += [f"per_layer {m['name']} {m['unit']}"
                     for m in doc["per_layer"]]
        self.assertEqual([l for l in listed if l], declared)

    def test_counts_repeat_exactly(self):
        for w in BATCH:
            a, b = metrics(w, 7, 1, 0), metrics(w, 7, 1, 1)
            for name in COUNTS:
                self.assertEqual(a[name], b[name], f"{w}: {name}")

    def test_answers_repeat_exactly(self):
        for w in BATCH + ["serve-open"]:
            a, b = metrics(w, 7, 0, 0), metrics(w, 7, 0, 1)
            for name in ANSWERS:
                self.assertEqual(a[name], b[name], f"{w}: {name}")

    def test_each_workload_loads_its_layer(self):
        upp = metrics("upp-mix", 7, 1, 0)
        self.assertGreater(
            upp["core.split_merge_share"] + upp["dag.classify_share"], 0.5)
        self.assertEqual(upp["core.dispatch.dsatur_share"], 0)
        self.assertGreater(
            metrics("certify-exact", 7, 1, 0)["conflict.exact_share"], 0.5)
        dense = metrics("dense-dsatur", 7, 1, 0)
        self.assertGreater(dense["conflict.dsatur_share"], 0.5)
        self.assertEqual(dense["core.dispatch.exact_share"], 0)
        serve = metrics("serve-open", 7, 1, 0)
        self.assertGreater(serve["serve.overhead_p50_ms"],
                           serve["serve.service_p50_ms"])

    def test_fails_without_the_sources(self):
        lonely = os.path.join(ROOT, ".bench_build", "lonely")
        shutil.rmtree(lonely, ignore_errors=True)
        shutil.copytree(HERE, os.path.join(lonely, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), lonely)
        p = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "upp-mix",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=lonely, capture_output=True, text=True, timeout=180)
        shutil.rmtree(lonely, ignore_errors=True)
        self.assertNotEqual(p.returncode, 0)
        self.assertEqual(p.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()

"""Tests for the checks in run.py.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

The binary-backed test builds the benchmark first (see run.py).
"""

import json
import os
import subprocess
import unittest

import run


def rep(fingerprint="00000000000000aa", failures=(), **overrides):
    values = {
        "setup_s": 0.01, "run_s": 2.0, "cpu_s": 2.0, "fingerprint": fingerprint,
        "completed": 1000, "p99_ms": 120.5, "latency_samples": 990, "goodput_rps": 10.0,
        "offered_rps": 10.0, "frozen_mib": 512.0, "oom_kills": 0,
        "failures": list(failures),
    }
    values.update(overrides)
    return values


def result(*reps):
    return {"workload": "suite", "seed": 1, "peak_rss_mib": 100.0, "reps": list(reps)}


def spec():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


class CheckRepsTest(unittest.TestCase):
    def test_identical_repetitions_pass(self):
        self.assertEqual(run.check_reps(result(rep(), rep(), rep())), [[], [], []])

    def test_perturbed_fingerprint_trips_the_check(self):
        failures = run.check_reps(result(rep(), rep("00000000000000ab"), rep()))
        self.assertEqual(failures[0], [])
        self.assertEqual(len(failures[1]), 1)
        self.assertIn("fingerprint", failures[1][0])
        self.assertEqual(failures[2], [])

    def test_perturbed_simulated_output_trips_the_check(self):
        failures = run.check_reps(result(rep(), rep(p99_ms=120.6)))
        self.assertIn("p99_ms", failures[1][0])

    def test_program_failures_are_kept(self):
        failures = run.check_reps(result(rep(failures=["goodput too low"])))
        self.assertEqual(failures, [["goodput too low"]])

    def test_host_time_may_differ(self):
        self.assertEqual(run.check_reps(result(rep(), rep(run_s=3.0, cpu_s=3.1))), [[], []])


class MetricsTest(unittest.TestCase):
    def test_declared_names_are_well_formed_and_unique(self):
        declared = spec()
        names = [m["name"] for key in ("end_to_end", "per_layer") for m in declared[key]]
        for name in names:
            self.assertRegex(name, run.METRIC_NAME)
            self.assertLessEqual(len(name), 64)
        self.assertEqual(len(names), len(set(names)))

    def test_end_to_end_metrics_match_the_declaration(self):
        declared = {m["name"] for m in spec()["end_to_end"]}
        self.assertEqual(set(run.end_to_end(result(rep(), rep()))), declared)

    def test_every_workload_emits_every_declared_layer_metric(self):
        # The binary emits one fixed list on every workload; run.py adds the
        # metrics that compare the traced run with the untraced one.
        binary = run.build()
        emitted = subprocess.run([binary, "metrics"], check=True, capture_output=True,
                                 text=True).stdout.split()
        untraced = result(rep(), rep())
        traced = rep(layers={"engine.serial_s": 4.0})
        emitted += list(run.derived_layer_metrics(traced, untraced))
        declared = [m["name"] for m in spec()["per_layer"]]
        self.assertEqual(sorted(emitted), sorted(declared))
        workloads = {w["name"] for w in spec()["workloads"]}
        self.assertLessEqual(workloads, set(run.WORKLOADS))

    def test_derived_layer_metrics(self):
        untraced = result(rep(run_s=2.0), rep(run_s=2.2), rep(run_s=2.4))
        derived = run.derived_layer_metrics(
            rep(setup_s=0.2, run_s=4.2, layers={"engine.serial_s": 8.8}), untraced)
        self.assertAlmostEqual(derived["engine.speedup"], 4.0)
        self.assertAlmostEqual(derived["bench.trace_overhead"], 4.4 / 2.21)
        serial_workload = run.derived_layer_metrics(
            rep(layers={"engine.serial_s": 0}), untraced)
        self.assertEqual(serial_workload["engine.speedup"], 0.0)

    def test_missing_and_malformed_metrics_fail(self):
        declared = [{"name": "wall_s"}, {"name": "cpu_s"}]
        problems = run.metric_failures(declared, {"wall_s": 1.0, "bad name": 2.0})
        self.assertEqual(len(problems), 2)
        self.assertEqual(run.metric_failures(declared, {"wall_s": 1.0, "cpu_s": 1.0}), [])


class LayerExpectationsTest(unittest.TestCase):
    def layers(self, **values):
        base = {name: 0 for name in run.LAYER_EXPECTATIONS}
        base.update({k.replace("__", "."): v for k, v in values.items()})
        return base

    def test_each_workload_passes_with_its_own_layers(self):
        self.assertEqual(run.layer_failures("suite", self.layers(faas__events=10)), [])
        self.assertEqual(run.layer_failures(
            "pressure", self.layers(faas__events=10, os__kswapd_runs=3)), [])
        self.assertEqual(run.layer_failures("cell", self.layers(
            faas__events=10, snapshot__restores_planned=5,
            router__migration_barriers=2)), [])
        self.assertEqual(run.layer_failures("chain", self.layers(os__touch_calls=9)), [])

    def test_idle_or_stray_layers_fail(self):
        self.assertTrue(run.layer_failures("pressure", self.layers(faas__events=10)))
        self.assertTrue(run.layer_failures(
            "suite", self.layers(faas__events=10, os__kswapd_runs=1)))
        self.assertTrue(run.layer_failures(
            "chain", self.layers(os__touch_calls=9, faas__events=1)))


if __name__ == "__main__":
    unittest.main()

"""Self-tests of the benchmark.  Run from the repository root:

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
import unittest

import run  # pins BLAS threads and imports the package from src/

import numpy as np  # noqa: E402

import inputs  # noqa: E402
import tasks  # noqa: E402
from curvedyn import dynamics  # noqa: E402

with open(os.path.join(run.ROOT, "BENCHMARK.json")) as _fh:
    BENCHMARK = json.load(_fh)


def tiny_run(workload: str, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, os.path.join(run.HERE, "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, cwd=run.ROOT, timeout=170, check=True,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


class TinyRuns(unittest.TestCase):
    def test_every_metric_with_its_unit(self):
        for workload in run.WORKLOADS:
            for trace, section in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    result = tiny_run(workload, trace)
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    declared = {m["name"]: m["unit"] for m in BENCHMARK[section]}
                    got = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(got, declared)
                    for name, m in result["metrics"].items():
                        self.assertTrue(math.isfinite(m["value"]), name)


class NegativeChecks(unittest.TestCase):
    def setUp(self):
        self.saved = dynamics.integrate

    def tearDown(self):
        dynamics.integrate = self.saved

    def test_perturbed_trajectory_fails_the_conservation_check(self):
        ctx, items = run.build("conserve", 5)
        clean = run.Tally()
        run.run_tasks("conserve", ctx, items, clean, 0, stop=6, timed=False)
        self.assertEqual(clean.failed, 0)

        def corrupted(*args, **kwargs):
            traj = self.saved(*args, **kwargs)
            traj.states[len(traj.states) // 2, 3] += 1e-6
            return traj

        dynamics.integrate = corrupted
        tally = run.Tally()
        run.run_tasks("conserve", ctx, items, tally, 0, stop=6, timed=False)
        self.assertEqual((tally.attempted, tally.failed), (6, 6))

    def test_raising_task_counts_as_failed_and_the_run_goes_on(self):
        ctx, items = run.build("conserve", 5)
        calls = []

        def flaky(*args, **kwargs):
            calls.append(1)
            if len(calls) == 1:
                raise FloatingPointError("injected")
            return self.saved(*args, **kwargs)

        dynamics.integrate = flaky
        tally = run.Tally()
        run.run_tasks("conserve", ctx, items, tally, 0, stop=3)
        self.assertEqual((tally.attempted, tally.failed, len(tally.latencies)), (3, 1, 3))

    def test_wrong_row_count_fails_the_cli_check(self):
        ctx, items = run.build("cli", 5)
        kind, argv, expected, spec = items[3]  # the rk4_fixed run
        self.assertIsInstance(expected, int)
        tally = run.Tally()
        run.run_tasks("cli", ctx, [(kind, argv, expected + 1, spec)], tally, 0, stop=1)
        self.assertEqual(tally.failed, 1)

    def test_adaptive_rows_checked_against_the_library(self):
        ctx, items = run.build("cli", 5)
        tally = run.Tally()
        run.run_tasks("cli", ctx, items, tally, 0, stop=3, timed=False)
        self.assertEqual(tally.failed, 0)
        ctx.adaptive_rows[0] += 1
        run.after_run_checks(ctx, items, tally)
        self.assertEqual(tally.failed, 1)

    def test_gradient_check_catches_a_wrong_gradient(self):
        ctx, items = run.build("audit", 5)
        sid, kap, tight, loose, seed = items[1]
        obs = ctx.full[sid, kap]["J1"]

        class Skewed:
            value = staticmethod(obs.value)

            @staticmethod
            def value_and_gradient(y):
                v, g = obs.value_and_gradient(y)
                return v, g + 1e-3

        errors = tasks.gradient_errors({"J1": Skewed}, loose)
        self.assertTrue(all(e >= tasks.GRADIENT_TOL for _, e in errors))


class Determinism(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        a = inputs.audit_inputs(np.random.default_rng([7, 1]), 1)
        b = inputs.audit_inputs(np.random.default_rng([7, 1]), 1)
        c = inputs.audit_inputs(np.random.default_rng([8, 1]), 1)
        self.assertEqual(inputs.digest(a), inputs.digest(b))
        self.assertNotEqual(inputs.digest(a), inputs.digest(c))

    def test_mismatch_is_flagged(self):
        saved = run.STATE_DIR
        run.STATE_DIR = os.path.join(saved, "selftest")
        os.makedirs(run.STATE_DIR, exist_ok=True)
        try:
            self.assertTrue(run.determinism_check("k", {"counts": [1]}))
            self.assertTrue(run.determinism_check("k", {"counts": [1]}))
            self.assertFalse(run.determinism_check("k", {"counts": [2]}))
        finally:
            shutil.rmtree(run.STATE_DIR)
            run.STATE_DIR = saved


if __name__ == "__main__":
    os.makedirs(run.STATE_DIR, exist_ok=True)
    unittest.main()

#!/usr/bin/env python3
"""Self-test of the benchmark's own accounting.

    python3 perfbench/selftest.py

Checks self time on a synthetic nested call under a scripted clock, hook
installation on module globals and class attributes, absent hooks, and the
exact phi-coefficient build counts of the two solver schedules (14 per
decay member, 22 on the criterion-10 schedule).  The build count depends on
the snapshot schedule and dt only, so the schedules run here at N=32.
"""

import dataclasses
import shutil
import sys
import tempfile
import types
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import DecayPipeline, Iteration256  # noqa: E402

from sqgdiag import harness, solver, spectral  # noqa: E402


class ScriptedClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class TracerAccounting(unittest.TestCase):
    def test_self_time_of_nested_calls(self):
        clock = ScriptedClock()
        tracer = Tracer(clock)

        def inner():
            clock.now += 2.0

        inner = tracer.wrap("inner", inner)

        def outer():
            clock.now += 1.0
            inner()
            clock.now += 3.0
            inner()

        tracer.wrap("outer", outer)()
        s = tracer.summary()
        self.assertEqual(s["outer"], {"calls": 1, "total_s": 8.0, "self_s": 4.0})
        self.assertEqual(s["inner"], {"calls": 2, "total_s": 4.0, "self_s": 4.0})
        self.assertEqual(tracer.self_by_name_under("outer"), {"outer": 4.0, "inner": 4.0})

    def test_install_reaches_imported_names_and_restores(self):
        owner = types.ModuleType("sqgdiag._selftest_owner")
        importer = types.ModuleType("sqgdiag._selftest_importer")

        def f(x):
            return x + 1

        class K:
            def m(self):
                return f(1)

        owner.f, owner.K = f, K
        original_m = K.m
        importer.f = f  # as bound by "from .owner import f"
        sys.modules[owner.__name__] = owner
        sys.modules[importer.__name__] = importer
        try:
            tracer = Tracer()
            self.assertTrue(tracer.install("f", owner.__name__, "f"))
            self.assertTrue(tracer.install("m", owner.__name__, "K.m"))
            self.assertEqual(importer.f(1), 2)
            self.assertEqual(owner.f(1), 2)
            self.assertEqual(K().m(), 2)  # m calls the original f via closure
            self.assertEqual(tracer.summary()["f"]["calls"], 2)
            self.assertEqual(tracer.summary()["m"]["calls"], 1)
            tracer.uninstall()
            self.assertIs(importer.f, f)
            self.assertIs(owner.f, f)
            self.assertIs(K.m, original_m)
        finally:
            del sys.modules[owner.__name__], sys.modules[importer.__name__]

    def test_absent_hook_is_reported_not_raised(self):
        tracer = Tracer()
        self.assertFalse(tracer.install("gone", "sqgdiag.solver", "_no_such_function"))
        self.assertFalse(tracer.install("gone", "sqgdiag.solver", "NoClass.method"))
        self.assertEqual(
            tracer.absent,
            ["sqgdiag.solver:_no_such_function", "sqgdiag.solver:NoClass.method"],
        )
        self.assertEqual(layers.metrics(tracer)["solver.phi_builds"], 0)


class PhiBuildCounts(unittest.TestCase):
    def traced_metrics(self, fn):
        tracer = Tracer()
        layers.install(tracer)
        try:
            fn()
        finally:
            tracer.uninstall()
        self.assertEqual(tracer.absent, [])
        return layers.metrics(tracer)

    def test_decay_member_schedule_builds_14_tables(self):
        out = HERE.parent / ".perfbench_out"
        out.mkdir(exist_ok=True)
        scratch = tempfile.mkdtemp(prefix="selftest-", dir=out)
        try:
            _, config = DecayPipeline().prepare(100, scratch)
            config = dataclasses.replace(config, n=32)
            m = self.traced_metrics(lambda: harness.simulate(config, out_dir=config.output_dir))
        finally:
            shutil.rmtree(scratch)
        self.assertEqual(m["solver.phi_builds"], 14)
        self.assertEqual(m["solver.steps"], 500)
        # 8 half-spectrum float64 tables of 32 x 17 per build
        self.assertEqual(m["solver.phi_cache_bytes"], 14 * 8 * 32 * 17 * 8)

    def test_iteration_schedule_builds_22_tables(self):
        w = Iteration256()
        _, theta0, sched = w.prepare(42, None)
        grid = spectral.Grid(32, theta0.grid.side_length)
        small = spectral.random_band_limited(grid, 6, [42, 0, 0], amplitude=2.0)
        config = solver.SolverConfig(alpha=w.alpha, dt=4e-3, t_end=w.t_end)
        self.assertEqual(len(sched), 61)
        m = self.traced_metrics(lambda: solver.run(small, config, snapshot_times=sched))
        self.assertEqual(m["solver.phi_builds"], 22)


if __name__ == "__main__":
    unittest.main()

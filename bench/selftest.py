"""Self-tests of the benchmark itself (not of the library):

    python3 bench/selftest.py [-v]

* the same seed gives identical generated inputs;
* different seeds give different inputs but answers equal to the reference;
* the tracer restores every function it wrapped;
* the tracer's call counts equal cProfile's, so no binding site is missed;
* an injected wrong answer, or a crash, counts as a failed check.

Takes about three minutes, mostly the two Albert iterations.
"""

from __future__ import annotations

import cProfile
import dataclasses
import json
import pstats
import sys
import unittest

import run
import tracing
from workloads import WORKLOADS, Library

SEEDS = (11, 12)


def describe(drawn):
    """The drawn inputs as JSON-comparable data."""
    return json.loads(json.dumps(drawn, default=str))


class BenchmarkSelfTest(unittest.TestCase):

    @classmethod
    def setUpClass(cls):
        cls.lib = Library(run.ROOT)

    def iterate_checked(self, workload, seed):
        tally = run.Tally()
        run.run_iteration(workload, self.lib, run.prepare(workload, self.lib, seed), tally)
        return tally

    def test_same_seed_same_inputs(self):
        for name, workload in WORKLOADS.items():
            with self.subTest(workload=name):
                self.assertEqual(describe(workload.draw(5)), describe(workload.draw(5)))
        suite = WORKLOADS["paper-suite"]
        accepted = [[(f, p) for f, p, _ in suite.prepare(self.lib, suite.draw(5))["entries"]]
                    for _ in range(2)]
        self.assertEqual(accepted[0], accepted[1])

    def test_other_seed_other_inputs_same_answers(self):
        for name, workload in WORKLOADS.items():
            with self.subTest(workload=name):
                first, second = (describe(workload.draw(s)) for s in SEEDS)
                self.assertNotEqual(first, second)
                for seed in SEEDS:
                    tally = self.iterate_checked(workload, seed)
                    self.assertGreater(tally.attempted, 0)
                    self.assertEqual(tally.failures, [])

    def test_tracer_restores_everything(self):
        before = self._package_bindings()
        scalar = self.lib.scalars.Scalar
        scalar_before = dict(vars(scalar))
        spans = tracing.SpanTracer().install()
        counter = tracing.ScalarCounter(scalar).install()
        try:
            self.assertEqual(spans.missing, [])
            self.assertEqual(counter.missing, [])
            for site, name, original in spans.sites() + counter.sites():
                self.assertIsNot(getattr(site, name), original)
            # module-level functions are wrapped where they were imported too
            self.assertIsNot(self.lib.extension.eigen_decompose,
                             before[("axial.extension", "eigen_decompose")])
            self.assertIsNot(self.lib.miyamoto.eigen_decompose,
                             before[("axial.miyamoto", "eigen_decompose")])
            self.assertIsNot(self.lib.cli.cocycle_space,
                             before[("axial.cli", "cocycle_space")])
        finally:
            counter.uninstall()
            spans.uninstall()
        self.assertEqual(self._package_bindings(), before)
        self.assertEqual(dict(vars(scalar)), scalar_before)

    def _package_bindings(self):
        """Identity of every attribute of every axial module and class."""
        out = {}
        for modname, module in sys.modules.items():
            if modname != "axial" and not modname.startswith("axial."):
                continue
            for name, value in vars(module).items():
                out[(modname, name)] = id(value)
                if isinstance(value, type) and value.__module__ == modname:
                    for attr, member in vars(value).items():
                        out[(modname, f"{name}.{attr}")] = id(member)
        return out

    def test_call_counts_match_cprofile(self):
        for name in ("paper-suite", "miyamoto", "gaussian"):
            workload = WORKLOADS[name]
            state = run.prepare(workload, self.lib, SEEDS[0])
            profile = cProfile.Profile()
            profile.runcall(workload.iterate, self.lib, state)
            stats = pstats.Stats(profile).stats
            with tracing.SpanTracer() as tr:
                workload.iterate(self.lib, state)
            for layer, dotted, key, _kind in tracing.SPAN_TARGETS:
                code = tracing._resolve(dotted)[2].__code__
                profiled = stats.get((code.co_filename, code.co_firstlineno, code.co_name))
                with self.subTest(workload=name, target=dotted):
                    self.assertEqual(tr.calls(f"{layer}.{key}"),
                                     profiled[1] if profiled else 0)

    def test_injected_wrong_answer_fails(self):
        workload = WORKLOADS["gaussian"]
        original = self.lib.axial.cocycle_space

        def wrong(*args, **kwargs):
            cs = original(*args, **kwargs)
            return dataclasses.replace(cs, quotient_dim=cs.quotient_dim + 1)

        def crash(*args, **kwargs):
            raise RuntimeError("injected crash")

        for injected in (wrong, crash):
            with self.subTest(injected=injected.__name__):
                self.lib.axial.cocycle_space = injected
                try:
                    tally = self.iterate_checked(workload, SEEDS[0])
                finally:
                    self.lib.axial.cocycle_space = original
                self.assertGreater(tally.failed / tally.attempted, 0)


if __name__ == "__main__":
    unittest.main()

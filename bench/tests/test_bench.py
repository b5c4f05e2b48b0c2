"""Tests of the benchmark itself, at tiny sizes.

Run from the root of a checkout with

    python3 -m unittest discover -s bench/tests
"""

from __future__ import annotations

import importlib
import os
import sys
import tempfile
import types
import unittest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))
sys.path.insert(0, BENCH)

import reference  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

TINY = {
    "compose_chain": {"k": 4, "pool": 2},
    "simulate_tensor": {"k": 1, "pool": 1},
    "law_mix": {"rounds": 1},
    "iso_search": {"n": 4},
}


def opencospan() -> types.SimpleNamespace:
    # imported normally, not purged, so other tests in the process keep
    # their module identities
    return types.SimpleNamespace(
        **{m: importlib.import_module(f"opencospan.{m}") for m in run.MODULES})


class BenchTest(unittest.TestCase):
    def setUp(self):
        self._tmp = tempfile.TemporaryDirectory()
        self.tmp = self._tmp.name
        self.oc = opencospan()

    def tearDown(self):
        self._tmp.cleanup()

    def tiny(self, name: str, seed: int = 5):
        workdir = os.path.join(self.tmp, f"{name}-{seed}")
        os.makedirs(workdir)
        return workloads.WORKLOADS[name](self.oc, seed, workdir, **TINY[name])

    def loop(self, workload, min_ops: int) -> tuple[run.Tally, run.Loop]:
        tally = run.Tally()
        return tally, run.Loop(workload, tally, reference.Speed()).run(0.0, min_ops)

    def test_smoke_run_of_every_workload_has_no_errors(self):
        for name in workloads.WORKLOADS:
            with self.subTest(workload=name):
                tally, loop = self.loop(self.tiny(name), min_ops=6)
                self.assertEqual(len(loop), 6)
                self.assertEqual(tally.failed / tally.attempted, 0.0, tally.errors)
                metrics = run.end_to_end(loop, [(loop.starts[0], 0.1)], 50.0, scaled=True)
                self.assertTrue(all(value > 0 for value, _ in metrics.values()), metrics)

    def test_inputs_depend_only_on_the_seed(self):
        for name in workloads.WORKLOADS:
            with self.subTest(workload=name):
                a, b = self.tiny(name, 1), self.tiny(name, 2)
                again = os.path.join(self.tmp, f"{name}-again")
                os.makedirs(again)
                c = workloads.WORKLOADS[name](self.oc, 1, again, **TINY[name])
                self.assertEqual(a.input_digest, c.input_digest)
                self.assertNotEqual(a.input_digest, b.input_digest)

    def test_corrupted_expected_value_counts_as_a_failure(self):
        def corrupt(name, w):
            if name == "compose_chain":
                w.chains[0]["expected"]["places"] += 1
            elif name == "simulate_tensor":
                w.cases[0]["initial"] += 1e-6
            elif name == "law_mix":
                instance, args, expected = w.pool[0]
                w.pool[0] = (instance, args, not expected)
            else:
                paths, code = w.pairs[0]
                w.pairs[0] = (paths, 2 - code)

        for name in workloads.WORKLOADS:
            with self.subTest(workload=name):
                w = self.tiny(name)
                corrupt(name, w)
                tally, loop = self.loop(w, min_ops=1)
                self.assertEqual((tally.attempted, tally.failed), (1, 1))
                self.assertEqual(loop.ops_per_s(scaled=False), 0.0)
                self.assertIn("op 0", tally.errors[0])

    def test_a_wrong_field_is_a_failure(self):
        # the dynamics, not only the totals: a rate off by a little in the
        # oracle's copy must fail the simulation and the gray-boxed field
        w = self.tiny("simulate_tensor")
        w.cases[0]["blocks"][0]["beta"] *= 1.001
        tally, _ = self.loop(w, min_ops=1)
        self.assertEqual((tally.attempted, tally.failed), (1, 1))
        self.assertIn("net 0", tally.errors[0])
        w = self.tiny("compose_chain")
        field = w.chains[0]["expected"]["field"]
        place = next(p for p, terms in enumerate(field) if terms)
        exps = next(iter(field[place]))
        field[place][exps] *= 1.001
        tally, _ = self.loop(w, min_ops=1)
        self.assertEqual((tally.attempted, tally.failed), (1, 1))
        self.assertIn("gray-boxed field", tally.errors[0])

    def test_a_spent_iso_budget_is_a_failure(self):
        # a capped search exits 2 like a plain "not isomorphic" verdict
        w = self.tiny("iso_search")
        saved = os.environ.get("OPENCOSPAN_ISO_BUDGET")
        os.environ["OPENCOSPAN_ISO_BUDGET"] = "1"
        try:
            tally, _ = self.loop(w, min_ops=len(w.pairs))
        finally:
            if saved is None:
                del os.environ["OPENCOSPAN_ISO_BUDGET"]
            else:
                os.environ["OPENCOSPAN_ISO_BUDGET"] = saved
        self.assertEqual(tally.attempted, len(w.pairs))
        not_iso = [c for c, (_, code) in enumerate(w.pairs) if code == 2]
        self.assertGreaterEqual(tally.failed, len(not_iso))
        self.assertIn("stderr", tally.errors[0])

    def test_an_op_that_raises_is_a_failure(self):
        w = self.tiny("iso_search")
        w.pairs[0] = ([os.path.join(self.tmp, "missing.json")] * 2, 0)
        tally, _ = self.loop(w, min_ops=2)
        self.assertEqual((tally.attempted, tally.failed), (2, 1))

    def test_tracer_counts_spans_and_restores_every_binding(self):
        w = self.tiny("compose_chain")
        before = {
            "hcompose": self.oc.cospans.hcompose,
            "cli_hcompose": self.oc.cli.hcompose,
            "pushforward": self.oc.systems.Multiset.__dict__["pushforward"],
            "init": self.oc.finset.FinFunction.__dict__["__post_init__"],
        }
        tracer = tracing.Tracer(max_spans=10)
        tracer.install(self.oc)
        try:
            self.assertIsNot(self.oc.cli.hcompose, before["cli_hcompose"])
            op = tracer.wrap_op(w.run_op)
            self.assertIsNone(w.check(0, op(0)))
        finally:
            tracer.uninstall()
        self.assertIs(self.oc.cospans.hcompose, before["hcompose"])
        self.assertIs(self.oc.cli.hcompose, before["cli_hcompose"])
        self.assertIs(self.oc.systems.Multiset.__dict__["pushforward"], before["pushforward"])
        self.assertIs(self.oc.finset.FinFunction.__dict__["__post_init__"], before["init"])
        self.assertEqual(tracer.calls["cli.main"], 2)
        self.assertEqual(tracer.calls["cospans.hcompose"], 3)
        self.assertGreater(tracer.calls["systems.Multiset.pushforward"], 0)
        self.assertGreater(tracer.bytes_written, 0)
        self.assertEqual(tracer.spans_seen, sum(tracer.calls.values()))
        self.assertEqual(len(tracer.spans), 10)
        self.assertTrue(all(span[4] == 0 for span in tracer.spans))

    def test_self_time_excludes_child_spans(self):
        tracer = tracing.Tracer()
        clock = iter([0.0, 1.0, 3.0, 10.0])
        real = tracing.time.perf_counter
        tracing.time.perf_counter = lambda: next(clock)
        try:
            inner = tracer.wrap("cli.main", lambda: None)
            outer = tracer.wrap("dynamics.simulate", lambda: inner())
            outer()
        finally:
            tracing.time.perf_counter = real
        self.assertEqual(tracer.self_s["cli.main"], 2.0)
        self.assertEqual(tracer.self_s["dynamics.simulate"], 8.0)

    def test_times_scale_by_the_nearest_reference_samples(self):
        speed = reference.Speed()
        speed.starts = [0.0, 1.0, 2.0, 3.0, 10.0]
        speed.seconds = [0.001, 0.002, 0.002, 0.002, 0.004]
        power = reference.SCALE_POWER
        self.assertAlmostEqual(speed.scale(2.1), (reference.REFERENCE_MS / 2.0) ** power)
        self.assertAlmostEqual(speed.scale(9.0), (reference.REFERENCE_MS / 3.0) ** power)
        self.assertAlmostEqual(speed.scale(0.5), (reference.REFERENCE_MS / 1.5) ** power)
        self.assertAlmostEqual(speed.scale(11.0), (reference.REFERENCE_MS / 4.0) ** power)
        speed.cpu_seconds = [0.001, 0.001, 0.001, 0.001, 0.002]
        self.assertAlmostEqual(speed.scale(2.1, cpu=True), reference.REFERENCE_MS ** power)
        self.assertAlmostEqual(speed.scale(9.0, cpu=True), (reference.REFERENCE_MS / 1.5) ** power)

    def test_tail_percentile_has_ten_samples_beyond_it(self):
        for pct in (60.0, 75.0, 95.0):
            n = run.min_ops_for(pct)
            self.assertGreaterEqual(n * (1 - pct / 100), 10 - 1e-9)
            self.assertLess((n - 1) * (1 - pct / 100), 10)
        self.assertEqual(run.percentile([4.0, 1.0, 3.0, 2.0], 50), 2.5)


if __name__ == "__main__":
    unittest.main()

"""Self-tests of the benchmark: tracer arithmetic and attribute restore, a
smoke-size run of every workload checked against BENCHMARK.json, and the
refusal to run without the package sources.

    python3 perfbench/selftest.py

(The file name keeps it out of the repository's pytest collection.)
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import json
import math
import shutil
import subprocess
import sys
import tempfile
import types
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import harness  # noqa: E402
import layers  # noqa: E402
import mapprior  # noqa: E402
from tracer import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _scripted():
    """A fake clock and three functions that advance it by known amounts;
    callers look each other up through the returned namespace."""
    now = [0.0]
    ns = types.SimpleNamespace()

    def leaf():
        now[0] += 0.5
        return True

    def inner():
        now[0] += 2.0
        return ns.leaf()

    def outer():
        now[0] += 1.0
        ns.inner()
        ns.inner()
        now[0] += 0.25

    def broken():
        now[0] += 1.0
        raise ValueError("no")

    ns.leaf, ns.inner, ns.outer, ns.broken = leaf, inner, outer, broken
    return ns, (lambda: now[0])


class TracerTest(unittest.TestCase):
    def test_self_time_subtracts_child_spans_and_counted_calls(self):
        ns, clock = _scripted()
        tracer = Tracer(clock)
        tracer.count(ns, "leaf", "leaf")
        tracer.wrap(ns, "inner", "inner")
        tracer.wrap(ns, "outer", "outer")
        ns.outer()
        tracer.restore()
        totals = tracer.totals()
        self.assertEqual(totals["outer"], (1, 6.25, 1.25))
        self.assertEqual(totals["inner"], (2, 5.0, 4.0))
        leaf = tracer.counters["leaf"]
        self.assertEqual((leaf.calls, leaf.total_s, leaf.hits), (2, 1.0, 2))

    def test_error_closes_span_and_reports(self):
        ns, clock = _scripted()
        tracer = Tracer(clock)
        seen = []
        tracer.wrap(ns, "broken", "broken", on_error=seen.append)
        with self.assertRaises(ValueError):
            ns.broken()
        tracer.restore()
        self.assertEqual(tracer.totals()["broken"], (1, 1.0, 1.0))
        self.assertEqual(len(seen), 1)

    def test_restore_puts_back_every_attribute(self):
        ns, clock = _scripted()
        before = dict(vars(ns))
        tracer = Tracer(clock)
        tracer.count(ns, "leaf", "leaf")
        tracer.wrap(ns, "inner", "inner")
        tracer.wrap(ns, "inner", "inner again")  # nested wrap of one name
        self.assertIsNot(ns.inner, before["inner"])
        tracer.restore()
        self.assertEqual(dict(vars(ns)), before)

    def test_mapprior_plan_restores_originals(self):
        tracer = Tracer()
        layers.install(tracer, mapprior)
        patched = [(owner, attr, orig) for owner, attr, orig in tracer._patches]
        self.assertGreater(len(patched), 20)
        for owner, attr, orig in patched:
            self.assertIsNot(getattr(owner, attr), orig, attr)
        tracer.restore()
        for owner, attr, orig in patched:
            self.assertIs(getattr(owner, attr), orig, attr)

    def _filter_spans(self, lead_in, extra=None):
        """Spans of one scripted run_filter: encode_map, then two steps of
        propagate, score and maybe_reinit with 0.2 s of loop code between
        them.  Returns the tracer and the step times the filter would
        report."""
        now = [0.0]
        tracer = Tracer(lambda: now[0])

        def span(name, secs):
            i = tracer.open(name)
            now[0] += secs
            tracer.close(i)

        run = tracer.open("particle_filter.run_filter")
        span("model.encode_map", 2.0)
        steps = []
        for _ in range(2):
            t0 = now[0]
            now[0] += lead_in
            span("particle_filter.propagate", 1.0)
            now[0] += 0.2
            span("model.score", 0.5)
            if extra:
                span(extra, 0.1)
            span("particle_filter.maybe_reinit", 0.3)
            now[0] += lead_in
            steps.append(now[0] - t0)
        now[0] += 0.4
        tracer.close(run)
        return tracer, layers.Health(steps=len(steps), step_s=sum(steps))

    def test_filter_breakdown_matches_step_times(self):
        tracer, health = self._filter_spans(lead_in=1e-4)
        pf = layers.filter_breakdown(tracer)
        self.assertEqual(pf["streams"], 1)
        self.assertAlmostEqual(pf["encode_map"], 2.0)
        self.assertAlmostEqual(pf["propagate"], 2.0)
        self.assertAlmostEqual(pf["prior_query"], 1.0)
        self.assertAlmostEqual(pf["maybe_reinit"], 0.6)
        self.assertAlmostEqual(pf["self"], 0.4 + 2e-4)
        self.assertAlmostEqual(pf["outside_loop"], 0.4 + 2e-4)
        self.assertEqual(layers.breakdown_problems(tracer, health), [])

    def test_filter_breakdown_flags_a_gap_or_stray_span(self):
        tracer, health = self._filter_spans(lead_in=0.05)
        self.assertEqual(len(layers.breakdown_problems(tracer, health)), 1)
        tracer, health = self._filter_spans(lead_in=0.0, extra="nn.conv2d")
        problems = layers.breakdown_problems(tracer, health)
        self.assertEqual(len(problems), 1)
        self.assertIn("nn.conv2d", problems[0])

    def test_tail_has_ten_samples_beyond(self):
        from workloads import tail
        value, pct, n = tail(range(100))
        self.assertEqual((value, n), (89.0, 100))
        self.assertEqual(sum(v > value for v in range(100)), 10)
        self.assertAlmostEqual(pct, 90.0)


class SmokeTest(unittest.TestCase):
    """Every workload at smoke size: schema, metric names and units."""

    def test_spec_matches_code(self):
        self.assertEqual(harness.check_spec(SPEC), [])

    def test_untraced_run_reports_every_end_to_end_metric(self):
        # One untraced run executes all four workloads (the named one plus
        # the three companions).
        result = harness.run("simulate", 0, 0.0, False, ROOT, size="smoke")
        self.assertEqual(result["problems"], [])
        self.assertTrue(result["correct"])
        want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        self.assertEqual(got, want)
        for name, m in result["metrics"].items():
            self.assertTrue(math.isfinite(m["value"]) and m["value"] > 0, name)
        self.assertGreaterEqual(result["attempted"], 1)

    def test_traced_runs_report_every_per_layer_metric(self):
        want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
        for name in harness.WORKLOADS:
            with self.subTest(workload=name):
                result = harness.run(name, 0, 0.0, True, ROOT, size="smoke")
                self.assertEqual(result["problems"], [])
                got = {k: v["unit"] for k, v in result["metrics"].items()}
                self.assertEqual(got, want)
                self.assertTrue(all(math.isfinite(m["value"])
                                    for m in result["metrics"].values()))

    def test_refuses_to_run_without_sources(self):
        base = ROOT / ".perfbench" / "tmp"
        base.mkdir(parents=True, exist_ok=True)
        bare = Path(tempfile.mkdtemp(dir=base))
        try:
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            shutil.copytree(HERE, bare / HERE.name,
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                SPEC["command"] + ["--workload", "simulate", "--seed", "1",
                                   "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=120)
            self.assertNotEqual(proc.returncode, 0)
            self.assertEqual(proc.stdout, "")
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()

"""Fast self-test of the benchmark harness (a few seconds, no workload runs).

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import math
import re
import sys
import unittest
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import numpy as np  # noqa: E402

import harness  # noqa: E402
from tracer import Tracer, layer_metric_names, result_metric_names  # noqa: E402
from workloads import LAYER_MAP, WORKLOADS  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


class FakeClock:
    def __init__(self, ticks):
        self.ticks = iter(ticks)

    def __call__(self):
        return next(self.ticks)


class SpanArithmetic(unittest.TestCase):
    def test_self_time_subtracts_direct_children_only(self):
        # outer [0, 10] holds a [1, 3] and b [4, 8]; b holds a [5, 6]
        tr = Tracer(clock=FakeClock([0, 1, 3, 4, 5, 6, 8, 10]))
        outer, a, b = (tr.name_id_of(n) for n in ("outer", "a", "b"))
        o = tr.open(outer)
        tr.close(tr.open(a))
        ib = tr.open(b)
        tr.close(tr.open(a))
        tr.close(ib)
        tr.close(o)
        st = tr.stats()
        self.assertEqual((st["outer"].s, st["outer"].self_s, st["outer"].calls), (10, 4, 1))
        self.assertEqual((st["a"].s, st["a"].self_s, st["a"].calls), (3, 3, 2))
        self.assertEqual((st["b"].s, st["b"].self_s, st["b"].calls), (4, 3, 1))
        self.assertEqual(list(tr.parent), [-1, 0, 0, 2])

    def test_wrapped_calls_nest_and_record_task(self):
        tr = Tracer(clock=FakeClock(range(100)))
        inner = tr.wrap("inner", lambda x: x + 1)
        outer = tr.wrap("outer", lambda x: inner(x) * 2)
        tr.task_id = 3
        self.assertEqual(outer(1), 4)
        self.assertEqual(list(tr.parent), [-1, 0])
        self.assertEqual(list(tr.task), [3, 3])
        self.assertEqual(tr.stats()["outer"].self_s, 2.0)  # [0, 3] minus [1, 2]

    def test_open_spans_are_refused(self):
        tr = Tracer(clock=FakeClock([0.0]))
        tr.open(tr.name_id_of("x"))
        with self.assertRaises(RuntimeError):
            tr.stats()


class Patching(unittest.TestCase):
    def test_conv2d_vjp_is_timed_and_patches_undo(self):
        from podlearn import backbone, tensor
        from podlearn.tensor import Tensor

        originals = (tensor.conv2d, backbone.conv2d, Tensor.backward)
        tr = Tracer()
        uninstall = tr.install()
        try:
            self.assertIsNot(backbone.conv2d, originals[1])
            x = Tensor(np.ones((1, 1, 3, 3)))
            w = Tensor(np.ones((2, 1, 3, 3)), requires_grad=True)
            tensor.tsum(backbone.conv2d(x, w, padding=1)).backward()
        finally:
            uninstall()
        self.assertEqual((tensor.conv2d, backbone.conv2d, Tensor.backward), originals)
        m = {k: v for k, (v, _) in tr.layer_metrics(run_s=1.0).items()}
        self.assertEqual(m["tensor.conv2d.calls"], 1)
        self.assertEqual(m["tensor.conv2d.vjp_calls"], 1)
        self.assertEqual(m["tensor.sum.calls"], 1)
        self.assertEqual(m["tensor.backward.calls"], 1)
        self.assertGreater(m["tensor.conv2d.vjp_s"], 0.0)
        self.assertEqual(w.grad.shape, (2, 1, 3, 3))


class MetricNames(unittest.TestCase):
    def test_names_are_valid_and_match_benchmark_json(self):
        spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
        e2e = [m["name"] for m in spec["end_to_end"]]
        layer = [m["name"] for m in spec["per_layer"]]
        self.assertEqual(e2e, list(harness.END_TO_END))
        self.assertEqual(layer, result_metric_names())
        self.assertTrue(set(layer) <= set(layer_metric_names()))
        self.assertEqual([w["name"] for w in spec["workloads"]], list(WORKLOADS))
        names = e2e + layer + list(WORKLOADS)
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertRegex(name, NAME)

    def test_layer_map_names_exist(self):
        reported = set(layer_metric_names())
        for row in LAYER_MAP:
            self.assertIn(row["moves"], harness.END_TO_END)
            self.assertTrue(set(row["workloads"]) <= set(WORKLOADS))
            for name in row["metrics"]:
                if "<op>" not in name:
                    self.assertIn(name, reported)


class Correctness(unittest.TestCase):
    workload = WORKLOADS["a5_podnet"]
    ref_nme, ref_cnn = workload.reference[0]

    def _result(self, nme, cnn=None, tasks=None):
        cnn = list(nme) if cnn is None else cnn
        return harness.ScheduleResult(1.0, 100, len(nme) if tasks is None else tasks,
                                      list(nme), cnn)

    def test_accepts_valid_schedules(self):
        res = [self._result([0.9, 0.8]), self._result([0.9, 0.8])]
        self.assertEqual(harness.check_schedules(self.workload, 7, res, None)[:2], (4, 0))

    def test_rejects_tampered_accuracy(self):
        for bad in (1.2, -0.1, math.nan, math.inf):
            attempted, failed, problems = harness.check_schedules(
                self.workload, 7, [self._result([0.9, bad])], None)
            self.assertEqual((attempted, failed), (2, 1), bad)
            self.assertTrue(problems)

    def test_rejects_incomplete_schedule(self):
        res = self._result([0.9], tasks=6)
        res.errors.append("Traceback ...\nNumericError: boom\n")
        attempted, failed, problems = harness.check_schedules(self.workload, 7, [res], None)
        self.assertEqual((attempted, failed), (6, 5))
        self.assertIn("NumericError: boom", problems[0])

    def test_rejects_repeat_that_differs(self):
        res = [self._result([0.9, 0.8]), self._result([0.9, 0.8 + 1e-12])]
        self.assertEqual(harness.check_schedules(self.workload, 7, res, None)[:2], (4, 2))

    def test_reference_seed(self):
        ok = self._result([self.ref_nme], [self.ref_cnn])
        self.assertEqual(harness.check_schedules(self.workload, 0, [ok], None)[1], 0)
        off = self._result([self.ref_nme - 0.05], [self.ref_cnn])
        self.assertEqual(harness.check_schedules(self.workload, 0, [off], None)[1], 1)


if __name__ == "__main__":
    unittest.main(verbosity=2)

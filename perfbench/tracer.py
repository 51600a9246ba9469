"""Outside-in span tracing of podlearn's public functions.

The tracer replaces functions and methods with timing wrappers at every
place a podlearn module imports them, so no file under ``src/`` changes.
Each call becomes a span (name, start, end, parent span, task id) kept in
flat arrays in memory and written out when the run ends. The backward pass
of a primitive is timed by wrapping the vjp closure that the wrapped
primitive stores on the tensor it returns.

A span's self time is its duration minus the durations of its direct
children. Spans of one thread nest strictly, so the children never overlap.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from array import array
from dataclasses import dataclass

import numpy as np

# span suffix / metric prefix -> attribute of podlearn.tensor
TENSOR_OPS = {
    "conv2d": "conv2d",
    "matmul": "matmul",
    "l2_normalize": "l2_normalize",
    "softmax": "softmax",
    "mul": "mul",
    "add": "add",
    "sub": "sub",
    "scale": "scale",
    "square": "square",
    "relu": "relu",
    "exp": "exp",
    "log": "log",
    "sum": "tsum",
    "mean": "tmean",
    "reshape": "reshape",
    "transpose": "transpose",
    "concat": "concat",
}

# layer span -> (podlearn module, function name)
FUNCTION_LAYERS = {
    "pod.pod_final": ("pod", "pod_final"),
    "lsc.lsc_scores": ("lsc", "lsc_scores"),
    "lsc.nca_hinge_loss": ("lsc", "nca_hinge_loss"),
    "lsc.imprint_new_classes": ("lsc", "imprint_new_classes"),
    "lsc.kmeans": ("lsc", "kmeans"),
    "memory.herd_select": ("memory", "herd_select"),
    "protocol.evaluate": ("protocol", "evaluate"),
    "checkpoint.save_run_checkpoint": ("checkpoint", "save_run_checkpoint"),
    "datasets.generate_synthetic_dataset": ("datasets", "generate_synthetic_dataset"),
}

# layer span -> (podlearn module, class name, method name)
METHOD_LAYERS = {
    "tensor.backward": ("tensor", "Tensor", "backward"),
    "protocol.run_next_task": ("protocol", "IncrementalRunner", "run_next_task"),
    "protocol.sgd_step": ("protocol", "SGD", "step"),
    "memory.class_means": ("memory", "ExemplarMemory", "class_means"),
}

# Backbone.forward_with_stages is split by how it is called
BACKBONE_LAYERS = ("backbone.forward_train", "backbone.forward_teacher", "backbone.embed_nograd")

LAYERS = (*METHOD_LAYERS, *BACKBONE_LAYERS, *FUNCTION_LAYERS)

COUNTERS = (
    "backbone.embed_nograd.samples",
    "memory.herd_select.rows",
    "checkpoint.save_run_checkpoint.bytes",
)


def _metric_unit(name: str) -> str:
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith(".bytes"):
        return "bytes"
    return "count"


# Times of layers that a workload never runs: scale and square serve only
# POD, which wide_lsc switches off together with the teacher. They read 0.0
# on every run there, so they are printed and recorded but left out of the
# result line, where every time must be a fresh measurement.
SOMETIMES_IDLE_TIMES = frozenset({
    "tensor.scale.fwd_s", "tensor.scale.vjp_s",
    "tensor.square.fwd_s", "tensor.square.vjp_s",
    "backbone.forward_teacher.s", "backbone.forward_teacher.self_s",
    "pod.pod_final.s", "pod.pod_final.self_s",
})


def layer_metric_names() -> list[str]:
    """Every per-layer metric a traced run prints, in report order."""
    names = []
    for op in TENSOR_OPS:
        names += [f"tensor.{op}.fwd_s", f"tensor.{op}.vjp_s", f"tensor.{op}.calls"]
        if op == "conv2d":
            names += ["tensor.conv2d.self_s", "tensor.conv2d.vjp_calls"]
    for layer in LAYERS:
        names += [f"{layer}.s", f"{layer}.self_s", f"{layer}.calls"]
    return [*names, *COUNTERS, "trace.run_s", "trace.spans"]


def result_metric_names() -> list[str]:
    """The per-layer metrics of the JSON result line (BENCHMARK.json's per_layer)."""
    return [n for n in layer_metric_names() if n not in SOMETIMES_IDLE_TIMES]


@dataclass(frozen=True)
class SpanStats:
    s: float = 0.0
    self_s: float = 0.0
    calls: int = 0


class Tracer:
    """In-memory span recorder; ``install`` patches podlearn to feed it."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.task = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.current = -1  # index of the innermost open span
        self.task_id = -1  # set by the caller; -1 outside any task

    def name_id_of(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self.current)
        self.task.append(self.task_id)
        self.start.append(self.clock())
        self.end.append(-1.0)
        self.current = idx
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = self.clock()
        self.current = self.parent[idx]

    def wrap(self, name: str, fn):
        """``fn`` with every call recorded as a span called ``name``."""
        nid = self.name_id_of(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(idx)

        return traced

    def wrap_op(self, op: str, fn):
        """A tensor primitive: a forward span, plus a vjp span per backward call."""
        fwd = self.wrap(f"tensor.{op}.fwd", fn)
        vjp_nid = self.name_id_of(f"tensor.{op}.vjp")
        open_span, close_span = self.open, self.close

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            out = fwd(*args, **kwargs)
            vjp = out._vjp
            if vjp is not None:
                def timed_vjp(g):
                    idx = open_span(vjp_nid)
                    try:
                        return vjp(g)
                    finally:
                        close_span(idx)

                out._vjp = timed_vjp
            return out

        return traced

    # -- patching podlearn ------------------------------------------------------

    def install(self):
        """Patch the traced functions wherever a loaded podlearn module binds them.

        Returns a callable that undoes every patch.
        """
        m = {name.rpartition(".")[2]: mod for name, mod in sys.modules.items()
             if name == "podlearn" or name.startswith("podlearn.")}
        by_id: dict[int, object] = {}
        originals = {}
        for op, attr in TENSOR_OPS.items():
            fn = getattr(m["tensor"], attr)
            by_id[id(fn)] = self.wrap_op(op, fn)
            originals[id(fn)] = fn
        for layer, (mod, attr) in FUNCTION_LAYERS.items():
            fn = getattr(m[mod], attr)
            by_id[id(fn)] = self._with_counter(layer, self.wrap(layer, fn))
            originals[id(fn)] = fn

        undo = []
        for module in m.values():
            for attr, value in list(vars(module).items()):
                if id(value) in by_id and originals[id(value)] is value:
                    undo.append((module, attr, value))
                    setattr(module, attr, by_id[id(value)])

        for layer, (mod, cls_name, attr) in METHOD_LAYERS.items():
            cls = getattr(m[mod], cls_name)
            undo.append((cls, attr, cls.__dict__[attr]))
            setattr(cls, attr, self.wrap(layer, cls.__dict__[attr]))

        backbone_cls = m["backbone"].Backbone
        undo.append((backbone_cls, "forward_with_stages", backbone_cls.forward_with_stages))
        backbone_cls.forward_with_stages = self._backbone_forward(
            backbone_cls.forward_with_stages
        )

        def uninstall():
            for owner, attr, value in reversed(undo):
                setattr(owner, attr, value)

        return uninstall

    def _with_counter(self, layer: str, traced):
        counters = self.counters
        if layer == "memory.herd_select":
            def counted(features, m):
                counters["memory.herd_select.rows"] += len(features)
                return traced(features, m)
        elif layer == "checkpoint.save_run_checkpoint":
            def counted(path, *args, **kwargs):
                result = traced(path, *args, **kwargs)
                counters["checkpoint.save_run_checkpoint.bytes"] += os.path.getsize(path)
                return result
        else:
            return traced
        return functools.wraps(traced)(counted)

    def _backbone_forward(self, forward):
        """Classify each forward after it returns: train, teacher or no-grad."""
        nid = {name: self.name_id_of(name) for name in BACKBONE_LAYERS}
        counters = self.counters

        @functools.wraps(forward)
        def traced(model, batch):
            idx = self.open(nid["backbone.forward_train"])
            try:
                outs = forward(model, batch)
            finally:
                self.close(idx)
            if not outs.embedding.requires_grad:
                student = model.params["head.weight"].requires_grad
                name = "backbone.embed_nograd" if student else "backbone.forward_teacher"
                self.name_id[idx] = nid[name]
                if student:
                    counters["backbone.embed_nograd.samples"] += batch.shape[0]
            return outs

        return traced

    # -- results ----------------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "names": np.asarray(self.names, dtype=str),
            "name_id": np.frombuffer(self.name_id, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "task": np.frombuffer(self.task, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
        }

    def stats(self) -> dict[str, SpanStats]:
        """Total seconds, self seconds and call count per span name."""
        a = self.arrays()
        if (a["end"] < 0).any():
            raise RuntimeError("stats() called with spans still open")
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        covered = np.zeros_like(dur)
        np.add.at(covered, a["parent"][has_parent], dur[has_parent])
        width = len(self.names)
        total = np.bincount(a["name_id"], weights=dur, minlength=width)
        own = np.bincount(a["name_id"], weights=dur - covered, minlength=width)
        calls = np.bincount(a["name_id"], minlength=width)
        return {
            name: SpanStats(float(total[i]), float(own[i]), int(calls[i]))
            for i, name in enumerate(self.names)
        }

    def layer_metrics(self, run_s: float) -> dict[str, tuple[float, str]]:
        """The per-layer metrics, name -> (value, unit); absent layers read 0."""
        stats = self.stats()
        zero = SpanStats()
        values: dict[str, float] = {}
        for op in TENSOR_OPS:
            fwd = stats.get(f"tensor.{op}.fwd", zero)
            vjp = stats.get(f"tensor.{op}.vjp", zero)
            values[f"tensor.{op}.fwd_s"] = fwd.s
            values[f"tensor.{op}.vjp_s"] = vjp.s
            values[f"tensor.{op}.calls"] = fwd.calls
            values[f"tensor.{op}.self_s"] = fwd.self_s + vjp.self_s
            values[f"tensor.{op}.vjp_calls"] = vjp.calls
        for layer in LAYERS:
            st = stats.get(layer, zero)
            values[f"{layer}.s"] = st.s
            values[f"{layer}.self_s"] = st.self_s
            values[f"{layer}.calls"] = st.calls
        values.update(self.counters)
        values["trace.run_s"] = run_s
        values["trace.spans"] = len(self.start)
        return {name: (values[name], _metric_unit(name)) for name in layer_metric_names()}

    def self_time_shares(self) -> list[tuple[str, float]]:
        """Self seconds per layer, tensor ops with fwd and vjp together, descending."""
        merged: dict[str, float] = {}
        for name, st in self.stats().items():
            if name.startswith("tensor.") and name.endswith((".fwd", ".vjp")):
                name = name.rsplit(".", 1)[0]
            merged[name] = merged.get(name, 0.0) + st.self_s
        return sorted(merged.items(), key=lambda kv: kv[1], reverse=True)

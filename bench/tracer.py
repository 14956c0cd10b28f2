"""Outside-in span tracer for the benchmark's traced runs.

The tracer wraps public functions of the ``tssan`` package from outside
(tensor ops, module ``__call__``s, ``Adam.step``, checkpoint I/O, data
loading, training and CLI entry points) and records one span per call:
name, start, end and parent.  Each tensor an op produces gets its backward
rule wrapped too; the rule's time is charged to the op and to every named
module that was open when the op ran, which gives per-module backward time
without touching the program.  ``install`` patches, ``uninstall`` restores
the original objects, so untraced runs execute the program unchanged.
"""

from __future__ import annotations

import functools
import math
import os
import time
from collections import defaultdict

# Ops reported on their own; every other traced op is folded into "other"
# and the shape ops into "shape_ops", so no op time goes unreported.
REPORTED_OPS = ("conv2d", "matmul", "layer_norm", "softmax", "maxpool2d",
                "dropout", "relu", "add")
SHAPE_OPS = ("reshape", "permute", "concat", "index")
OTHER_OPS = ("sub", "mul", "exp", "log", "tsum", "tmean", "amax", "logsumexp",
             "log_softmax", "cross_entropy", "nll_from_log_probs")
OP_GROUPS = REPORTED_OPS + ("shape_ops", "other")

# Module spans whose forward and backward times are reported.
MODULE_SPANS = ("encoders", "attention.mha", "attention.layer", "attention.block",
                "models.head")

# Every per-layer metric with its unit, in report order.
PER_LAYER_UNITS: dict[str, str] = {}
for _group in OP_GROUPS:
    PER_LAYER_UNITS[f"tensor.{_group}.fwd_ms"] = "ms"
    PER_LAYER_UNITS[f"tensor.{_group}.bwd_ms"] = "ms"
    PER_LAYER_UNITS[f"tensor.{_group}.calls"] = "count"
PER_LAYER_UNITS.update({
    "tensor.conv2d.gflop": "GFLOP",
    "tensor.matmul.gflop": "GFLOP",
    "tensor.backward.self_ms": "ms",
    "tensor.graph_nodes": "count",
})
for _module in MODULE_SPANS:
    PER_LAYER_UNITS[f"{_module}.fwd_ms"] = "ms"
    PER_LAYER_UNITS[f"{_module}.bwd_ms"] = "ms"
PER_LAYER_UNITS.update({
    "attention.trace_ms": "ms",
    "models.variant.fwd_ms": "ms",
    "segments.forward_batch.self_ms": "ms",
    "segments.ts_loss_ms": "ms",
    "optim.adam_step_ms": "ms",
    "checkpoint.save_ms": "ms",
    "checkpoint.load_ms": "ms",
    "checkpoint.bytes": "bytes",
    "data.make_synthetic_s": "s",
    "data.load_samples_s": "s",
    "data.prepare_samples_s": "s",
    "training.train_epoch_s": "s",
    "training.evaluate_s": "s",
    "cli.prepare_s": "s",
    "cli.train_s": "s",
    "cli.eval_s": "s",
    "trace.overhead_pct": "%",
    "trace.coverage": "ratio",
    "trace.uncovered_ms": "ms",
})


def _group_of(op: str) -> str:
    if op in SHAPE_OPS:
        return "shape_ops"
    if op in REPORTED_OPS:
        return op
    return "other"


def _gemm_flops(op: str, args) -> tuple[float, float]:
    """(forward, backward) multiply-add flops of the GEMMs an op runs.

    Backward counts only the products the rule computes, i.e. one per
    operand that requires a gradient.
    """
    if op == "matmul":
        a, b = args[0], args[1]
        sa, sb = getattr(a, "data", a).shape, getattr(b, "data", b).shape
        lead = math.prod(_broadcast(sa[:-2], sb[:-2]))
        one = 2.0 * lead * sa[-2] * sa[-1] * sb[-1]
        grads = sum(bool(getattr(t, "requires_grad", False)) for t in (a, b))
        return one, one * grads
    if op == "conv2d":
        x, w = args[0], args[1]
        cout, cin, kh, kw = getattr(w, "data", w).shape
        sx = getattr(x, "data", x).shape
        rows = math.prod(sx[:-3]) * sx[-2] * sx[-1]
        one = 2.0 * rows * cout * cin * kh * kw
        grads = sum(bool(getattr(t, "requires_grad", False)) for t in (x, w))
        return one, one * grads
    return 0.0, 0.0


def _broadcast(sa, sb):
    n = max(len(sa), len(sb))
    sa = (1,) * (n - len(sa)) + tuple(sa)
    sb = (1,) * (n - len(sb)) + tuple(sb)
    return [max(x, y) for x, y in zip(sa, sb)]


class Tracer:
    """Records spans in memory while installed; see the module docstring."""

    def __init__(self):
        self._patches: list[tuple[object, str, object]] = []
        self.reset()

    # -- recording ----------------------------------------------------------
    def reset(self):
        self.spans: list[list] = []          # [name, start, end, parent index]
        self._stack: list[int] = []
        self._modules: list[str] = []
        self._in_op = False
        self.calls: dict[str, int] = defaultdict(int)
        self.flops: dict[str, float] = defaultdict(float)
        self.module_bwd_s: dict[str, float] = defaultdict(float)
        self.graph_nodes = 0
        self.checkpoint_sizes: list[int] = []

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> float:
        end = time.perf_counter()
        span = self.spans[idx]
        span[2] = end
        self._stack.pop()
        return end - span[1]

    # -- wrappers -----------------------------------------------------------
    def _wrap_call(self, fn, name: str, module: bool):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer._open(name)
            if module:
                tracer._modules.append(name)
            try:
                return fn(*args, **kwargs)
            finally:
                if module:
                    tracer._modules.pop()
                tracer._close(idx)

        return traced

    def _wrap_save(self, fn):
        traced = self._wrap_call(fn, "checkpoint.save", False)
        tracer = self

        @functools.wraps(fn)
        def traced_save(path, *args, **kwargs):
            result = traced(path, *args, **kwargs)
            tracer.checkpoint_sizes.append(os.path.getsize(path))
            return result

        return traced_save

    def _wrap_op(self, fn, op: str):
        tracer = self
        name = f"tensor.{op}.fwd"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer._in_op:          # an op re-entering itself (mul by scalar)
                return fn(*args, **kwargs)
            tracer._in_op = True
            idx = tracer._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
                tracer._in_op = False
            tracer.calls[op] += 1
            fwd_flops, bwd_flops = _gemm_flops(op, args)
            tracer.flops[op] += fwd_flops
            rule = getattr(out, "_backward", None)
            # dropout in eval mode hands back its input, whose rule is
            # already wrapped by the op that made it
            if rule is not None and not getattr(rule, "_bench_traced", False):
                out._backward = tracer._wrap_rule(rule, op, tuple(set(tracer._modules)),
                                                  bwd_flops)
            return out

        return traced

    def _wrap_rule(self, rule, op: str, owners: tuple[str, ...], bwd_flops: float):
        tracer = self
        name = f"tensor.{op}.bwd"

        def traced_rule(g):
            idx = tracer._open(name)
            try:
                rule(g)
            finally:
                elapsed = tracer._close(idx)
            for owner in owners:
                tracer.module_bwd_s[owner] += elapsed
            tracer.flops[op] += bwd_flops
            tracer.graph_nodes += 1

        traced_rule._bench_traced = True
        return traced_rule

    # -- installation -------------------------------------------------------
    def _patch(self, owner, attr: str, replacement):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, replacement)

    def install(self):
        """Patch the package's public entry points; idempotent per instance."""
        if self._patches:
            return
        from tssan import (attention, cli, encoders, models, optim, segments, tensor,
                           training)

        for op in REPORTED_OPS + SHAPE_OPS + OTHER_OPS:
            self._patch(tensor, op, self._wrap_op(vars(tensor)[op], op))
        module_calls = [
            (encoders.FeedForwardEncoder, "encoders"),
            (encoders.CnnEncoder, "encoders"),
            (attention.MultiHeadAttention, "attention.mha"),
            (attention.SanLayer, "attention.layer"),
            (attention.SanBlock, "attention.block"),
            (models.SanV1, "models.variant"),
            (models.SanV2, "models.variant"),
            (models.SanV3, "models.variant"),
            (models.ClassifierHead, "models.head"),
        ]
        for cls, name in module_calls:
            self._patch(cls, "__call__", self._wrap_call(vars(cls)["__call__"], name, True))
        calls = [
            (segments.TsSan, "forward_batch", "segments.forward_batch", True),
            (attention.AttentionTrace, "__init__", "attention.trace", False),
            (attention.AttentionTrace, "batch_slice", "attention.trace", False),
            (segments, "ts_loss", "segments.ts_loss", False),
            (training, "ts_loss", "segments.ts_loss", False),
            (tensor, "backward", "tensor.backward", False),
            (training, "backward", "tensor.backward", False),
            (optim.Adam, "step", "optim.adam_step", False),
            (training, "load_checkpoint", "checkpoint.load", False),
            (training, "prepare_samples", "data.prepare_samples", False),
            (training, "train_epoch", "training.train_epoch", False),
            (training, "evaluate", "training.evaluate", False),
            (cli, "evaluate", "training.evaluate", False),
            (cli, "load_samples", "data.load_samples", False),
            (cli, "prepare_samples", "data.prepare_samples", False),
            (cli, "make_synthetic_dataset", "data.make_synthetic", False),
            (cli, "cmd_prepare", "cli.prepare", False),
            (cli, "cmd_train", "cli.train", False),
            (cli, "cmd_eval", "cli.eval", False),
        ]
        for owner, attr, name, module in calls:
            self._patch(owner, attr, self._wrap_call(vars(owner)[attr], name, module))
        self._patch(training, "save_checkpoint", self._wrap_save(vars(training)["save_checkpoint"]))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- summary ------------------------------------------------------------
    def totals(self) -> dict:
        """Inclusive and self seconds per span name, plus the counters."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        inclusive: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)
        top_level = 0.0
        for i, (name, start, end, parent) in enumerate(self.spans):
            inclusive[name] += end - start
            own[name] += end - start - child[i]
            if parent < 0:
                top_level += end - start
        return {"inclusive": inclusive, "self": own, "top_level_s": top_level,
                "calls": dict(self.calls), "flops": dict(self.flops),
                "module_bwd_s": dict(self.module_bwd_s),
                "graph_nodes": self.graph_nodes,
                "checkpoint_sizes": list(self.checkpoint_sizes)}


def layer_metrics(totals: dict, units: int) -> dict[str, float]:
    """Per-layer values from ``Tracer.totals`` spread over ``units`` units.

    Times and counts are per unit; ``checkpoint.bytes`` is the mean size of
    one saved checkpoint.  The ``trace.*`` entries are filled by the caller.
    """
    inc, own = totals["inclusive"], totals["self"]
    ms = 1000.0 / units
    out: dict[str, float] = {name: 0.0 for name in PER_LAYER_UNITS}
    for name, seconds in inc.items():
        if not name.startswith("tensor.") or name == "tensor.backward":
            continue
        _, op, phase = name.split(".")
        out[f"tensor.{_group_of(op)}.{phase}_ms"] += seconds * ms
    for op, count in totals["calls"].items():
        out[f"tensor.{_group_of(op)}.calls"] += count / units
    out["tensor.conv2d.gflop"] = totals["flops"].get("conv2d", 0.0) / 1e9 / units
    out["tensor.matmul.gflop"] = totals["flops"].get("matmul", 0.0) / 1e9 / units
    out["tensor.backward.self_ms"] = own.get("tensor.backward", 0.0) * ms
    out["tensor.graph_nodes"] = totals["graph_nodes"] / units
    for module in MODULE_SPANS:
        out[f"{module}.fwd_ms"] = inc.get(module, 0.0) * ms
        out[f"{module}.bwd_ms"] = totals["module_bwd_s"].get(module, 0.0) * ms
    out["attention.trace_ms"] = inc.get("attention.trace", 0.0) * ms
    out["models.variant.fwd_ms"] = inc.get("models.variant", 0.0) * ms
    out["segments.forward_batch.self_ms"] = own.get("segments.forward_batch", 0.0) * ms
    out["segments.ts_loss_ms"] = inc.get("segments.ts_loss", 0.0) * ms
    out["optim.adam_step_ms"] = inc.get("optim.adam_step", 0.0) * ms
    out["checkpoint.save_ms"] = inc.get("checkpoint.save", 0.0) * ms
    out["checkpoint.load_ms"] = inc.get("checkpoint.load", 0.0) * ms
    sizes = totals["checkpoint_sizes"]
    out["checkpoint.bytes"] = sum(sizes) / len(sizes) if sizes else 0.0
    for name in ("data.make_synthetic", "data.load_samples", "data.prepare_samples",
                 "training.train_epoch", "training.evaluate",
                 "cli.prepare", "cli.train", "cli.eval"):
        out[f"{name}_s"] = inc.get(name, 0.0) / units
    return out

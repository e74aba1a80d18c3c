"""Spans and probes around calls into the public functions of `modem`.

The benchmark measures the program from outside: it replaces selected
public functions and methods of the `modem` modules with thin wrappers and
never edits the program's source. A function imported by name into another
`modem` module (``from .model import load_checkpoint``) is rebound there
too, so every call site goes through the wrapper.

Two kinds of wrapper exist:

* probes, always installed: optimizer-step timestamps (the end-to-end step
  time), scan-input capture for the output checks, and a finiteness check
  on restored images. Each costs a few microseconds per call.
* spans, installed only for a traced run: one span per layer call with its
  name, start, end, parent span and the operation it belongs to, plus work
  counts taken from argument shapes. Spans are kept in memory and written
  out when the run ends.
"""

from __future__ import annotations

import json
import os
import sys
import time
from dataclasses import dataclass, field

import numpy as np


@dataclass
class Span:
    sid: int
    parent: int          # -1 for a root span
    op: str              # operation identifier, e.g. "measure:r0:s1.3"
    name: str            # layer call, e.g. "ssm.scan_forward"
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)


class Tracer:
    """In-memory span recorder; with `enabled` False, `begin` and `end` do
    nothing."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self.op = "import"

    def begin(self, name: str, counts: dict | None = None) -> Span | None:
        if not self.enabled:
            return None
        parent = self._stack[-1].sid if self._stack else -1
        span = Span(len(self.spans), parent, self.op, name,
                    time.perf_counter(), counts=counts or {})
        self.spans.append(span)
        self._stack.append(span)
        return span

    def end(self, span: Span | None) -> None:
        if span is None:
            return
        span.end = time.perf_counter()
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name} closed out of order")

    def dump(self, path: str, extra: dict) -> None:
        rows = [[s.sid, s.parent, s.op, s.name, s.start, s.end, s.counts]
                for s in self.spans]
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as f:
            json.dump({**extra, "columns": ["id", "parent", "op", "name",
                                            "start", "end", "counts"],
                       "spans": rows}, f)


class Probes:
    """State read by the always-on probes."""

    def __init__(self):
        self.step_starts: list[float] = []
        self.step_ends: list[float] = []
        self.capture = False
        self.scans: dict[tuple[int, int, int], dict] = {}
        self.nonfinite_outputs = 0
        self.backbone_outputs = 0


def _modem_modules():
    return [m for name, m in list(sys.modules.items())
            if name == "modem" or name.startswith("modem.")]


class Instrumentation:
    """Installs wrappers into the imported `modem` modules and can undo it."""

    def __init__(self, tracer: Tracer, probes: Probes):
        self.tracer = tracer
        self.probes = probes
        self._undo: list[tuple[object, str, object]] = []

    # -- patching ---------------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def patch_function(self, module, attr: str, make_wrapper) -> None:
        """Replace module.attr and every `modem` binding of the same object."""
        orig = getattr(module, attr)
        wrapper = make_wrapper(orig)
        for mod in _modem_modules():
            if mod.__dict__.get(attr) is orig:
                self._set(mod, attr, wrapper)

    def patch_method(self, cls, attr: str, make_wrapper) -> None:
        raw = cls.__dict__[attr]
        if isinstance(raw, staticmethod):
            self._set(cls, attr, staticmethod(make_wrapper(raw.__func__)))
        else:
            self._set(cls, attr, make_wrapper(raw))

    def restore(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- wrappers ---------------------------------------------------------------

    def spanned(self, name: str, count=None, after=None):
        """Wrapper factory: a span around the call, with optional counts
        computed from the arguments and a hook on the result."""
        tracer = self.tracer

        def make(orig):
            def wrapper(*args, **kwargs):
                span = tracer.begin(name, count(*args, **kwargs)
                                    if count and tracer.enabled else None)
                try:
                    out = orig(*args, **kwargs)
                finally:
                    tracer.end(span)
                if after is not None:
                    after(out, *args, **kwargs)
                return out
            return wrapper
        return make

    def install(self) -> None:
        from modem import (blocks, cli, data, fileio, losses, model, nn, ops,
                           optim, scan_orders, ssm, tensor, train)

        probes = self.probes
        tracer = self.tracer

        # -- probes (always on) --
        def zero_grad_start(orig):
            def wrapper(self_, *args, **kwargs):
                probes.step_starts.append(time.perf_counter())
                return orig(self_, *args, **kwargs)
            return wrapper

        self.patch_method(optim.AdamW, "zero_grad", zero_grad_start)

        def step_end(out, *args, **kwargs):
            probes.step_ends.append(time.perf_counter())
            tracer.op = _next_op(tracer.op)

        self.patch_method(optim.AdamW, "step",
                          self.spanned("optim.step", after=step_end))

        def scan_shape(x, delta, A, B, C, D):
            d, L = x.shape
            N = A.shape[1]
            return {"ssm.scan_calls": 1, "ssm.state_elems": d * L * N}

        def scan_capture(out, x, delta, A, B, C, D):
            if not probes.capture:
                return
            key = (x.shape[0], x.shape[1], A.shape[1])
            if key not in probes.scans:
                probes.scans[key] = {
                    "x": x.data.copy(), "delta": delta.data.copy(),
                    "A": A.data.copy(), "B": B.data.copy(),
                    "C": C.data.copy(), "D": D.data.copy(),
                    "y": out.data.copy(),
                }

        self.patch_function(ssm, "selective_scan_op",
                            self.spanned("ssm.scan_forward", scan_shape,
                                         scan_capture))

        def backbone_finite(out, *args, **kwargs):
            probes.backbone_outputs += 1
            if not np.all(np.isfinite(out.data)):
                probes.nonfinite_outputs += 1

        self.patch_method(model.Backbone, "forward",
                          self.spanned("model.backbone", after=backbone_finite))

        if not tracer.enabled:
            return

        # -- spans (traced runs only) --
        self.patch_function(ssm, "scan_backward",
                            self.spanned("ssm.scan_backward"))

        def tape_nodes(root):
            seen = {id(root)}
            stack = [root]
            while stack:
                node = stack.pop()
                for p in node._parents:
                    if id(p) not in seen:
                        seen.add(id(p))
                        stack.append(p)
            return {"tensor.tape_nodes": len(seen)}

        self.patch_method(tensor.Tensor, "backward",
                          self.spanned("tensor.backward", tape_nodes))

        def conv_flop(x, w, *args, **kwargs):
            stride = kwargs.get("stride", args[1] if len(args) > 1 else 1)
            cout, cin, k, _ = w.shape
            _, H, W = x.shape
            ho, wo = -(-H // stride), -(-W // stride)
            return {"ops.conv2d_flop": 2 * cout * cin * k * k * ho * wo}

        self.patch_function(ops, "conv2d", self.spanned("ops.conv2d", conv_flop))
        self.patch_method(blocks.MOS2D, "forward", self.spanned("blocks.mos2d"))
        self.patch_method(blocks.LevelConditioning, "from_priors",
                          self.spanned("blocks.conditioning"))
        self.patch_method(model.DDEM, "forward", self.spanned("model.ddem"))

        def file_bytes(path, *args, **kwargs):
            return {"model.checkpoint_bytes": os.path.getsize(path)}

        self.patch_function(model, "load_checkpoint",
                            self.spanned("model.checkpoint_load", file_bytes))
        self.patch_function(model, "save_checkpoint",
                            self.spanned("model.checkpoint_save"))
        self.patch_function(train, "build_model",
                            self.spanned("train.build_model"))

        def overwritten(self_, state):
            return {"nn.params_overwritten":
                    int(sum(np.size(v) for v in state.values()))}

        self.patch_method(nn.Module, "load_state",
                          self.spanned("nn.load_state", overwritten))
        for fn in ("l1_loss", "correlation_loss", "kl_loss"):
            self.patch_function(losses, fn, self.spanned("losses.loss"))
        self.patch_function(scan_orders, "build_order",
                            self.spanned("scan_orders.build",
                                         lambda *a, **k: {"scan_orders.builds": 1}))
        for fn in ("read_ppm", "write_ppm"):
            self.patch_function(fileio, fn, self.spanned("fileio.ppm"))
        self.patch_function(data, "make_dataset",
                            self.spanned("data.make_dataset"))
        for fn in ("train_stage1", "train_stage2"):
            self.patch_function(train, fn, self.spanned(f"train.{fn}"))
        self.patch_function(cli, "main", self.spanned("cli.main"))


def _next_op(op: str) -> str:
    """Operation ids inside a training stage advance at each optimizer step:
    "phase:rN:sK.i" -> "phase:rN:sK.(i+1)"."""
    head, _, idx = op.rpartition(".")
    if head and idx.isdigit():
        return f"{head}.{int(idx) + 1}"
    return op


# -- reduction ------------------------------------------------------------------

TIME_METRICS = {
    "ssm.scan_forward": "ssm.scan_forward_s",
    "ssm.scan_backward": "ssm.scan_backward_s",
    "tensor.backward": "tensor.backward_s",
    "ops.conv2d": "ops.conv2d_s",
    "blocks.mos2d": "blocks.mos2d_s",
    "blocks.conditioning": "blocks.conditioning_s",
    "model.ddem": "model.ddem_s",
    "model.backbone": "model.backbone_s",
    "model.checkpoint_load": "model.checkpoint_load_s",
    "model.checkpoint_save": "model.checkpoint_save_s",
    "train.build_model": "train.build_model_s",
    "optim.step": "optim.step_s",
    "losses.loss": "losses.loss_s",
    "scan_orders.build": "scan_orders.build_s",
    "fileio.ppm": "fileio.ppm_s",
    "data.make_dataset": "data.make_dataset_s",
}
SELF_METRICS = {"tensor.backward": "tensor.backward_self_s"}
UNITS = {**{m: "s" for m in TIME_METRICS.values()},
         **{m: "s" for m in SELF_METRICS.values()},
         "ssm.scan_calls": "count", "ssm.state_elems": "count",
         "tensor.tape_nodes": "count", "ops.conv2d_flop": "flop",
         "model.checkpoint_bytes": "B", "nn.params_overwritten": "count",
         "scan_orders.builds": "count"}


def reduce_spans(spans: list[Span], ops: int) -> dict:
    """Per-operation inclusive and self times and counts of the timed rounds.

    Only spans recorded while a timed operation (an optimizer step with its
    share of the stage call around it, or a restore call) ran count; set-up
    and checks never do. Each value is their total divided by `ops`, the
    number of timed operations. Self time is a span's duration minus the
    durations of its direct children (children never overlap: the program
    is single-threaded).
    """
    child_time = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child_time[s.parent] += s.end - s.start
    totals = {m: 0.0 for m in UNITS}
    for s in spans:
        if not s.op.startswith("measure:"):
            continue
        dur = s.end - s.start
        if s.name in TIME_METRICS:
            totals[TIME_METRICS[s.name]] += dur
        if s.name in SELF_METRICS:
            totals[SELF_METRICS[s.name]] += dur - child_time[s.sid]
        for k, v in s.counts.items():
            totals[k] += v
    return {m: {"value": totals[m] / ops, "unit": UNITS[m]} for m in UNITS}

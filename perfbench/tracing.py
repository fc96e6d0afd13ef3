"""Spans and clocks around mmvseg's public entry points.

Everything here patches module or class attributes from the outside and puts
them back afterwards, so the program source stays untouched and an untraced
run executes unmodified program code.  Callers inside mmvseg resolve
``ad.<op>`` and names bound by ``from ... import`` (``training.backward``,
``cli.load_dataset``) at call time, which is what lets attribute patching see
every call.
"""

from __future__ import annotations

import os
import resource
import time
from pathlib import Path

clock = time.perf_counter

# Differentiable primitives of mmvseg.autodiff.  Node.op strings differ from
# the function names for a few of them.
AUTODIFF_OPS = (
    "add", "sub", "mul", "div", "neg", "texp", "tlog", "gelu", "sigmoid",
    "tsum", "tmean", "reshape", "moveaxis", "concat", "matmul", "softmax_last",
    "layer_norm", "conv3d", "avg_pool3d", "global_pool", "upsample2x",
)
NODE_OP_TO_FN = {"exp": "texp", "log": "tlog", "sum": "tsum", "mean": "tmean",
                 "softmax": "softmax_last"}

MB = 2 ** 20


def rss_hwm_mb():
    """High-water mark of this process's resident set in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Patcher:
    """Replaces attributes and puts the originals back in reverse order."""

    def __init__(self):
        self._saved = []

    def patch(self, owner, name, make):
        original = getattr(owner, name)
        self._saved.append((owner, name, original))
        setattr(owner, name, make(original))

    def restore(self):
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)


def expected_attention_pairs(cfg, attention_cost):
    """Closed-form query-key pairs of one model forward: the spatial mixer's
    per-layer cost times its layer count, plus cross-attention from every
    bottleneck token to every modality summary token."""
    layers = cfg.spatial_layers if cfg.use_spatial_attention else 0
    pairs = attention_cost(cfg.bottleneck_grid, cfg.attention.window) * layers
    if cfg.use_cross_attention:
        d, w, h = cfg.bottleneck_grid
        pairs += d * w * h * cfg.modalities * cfg.summary_tokens
    return pairs


class Clocks:
    """The per-step and per-case clocks that every run installs.

    A step sample is the interval between two consecutive ``adamw_step``
    returns inside one ``train`` call; the first step of each call has no
    start sample (the optimizer's step counter tells it apart) and is not
    counted.  A case sample is the wall time of one ``Model.__call__``.
    Each forward's attention pair count is compared with the closed form.
    """

    def __init__(self, mm):
        self.mm = mm
        self.step_s = []
        self.forward_s = []
        self.pairs_ok = 0
        self.pairs_bad = []
        self._last_step_end = None
        self._patcher = Patcher()

    def install(self):
        counter = self.mm.fusion.pair_counter
        attention_cost = self.mm.model.attention_cost

        def clock_adamw(original):
            def adamw_step(named_params, grads, state, cfg):
                out = original(named_params, grads, state, cfg)
                now = clock()
                if state.t > 1:
                    self.step_s.append(now - self._last_step_end)
                self._last_step_end = now
                return out
            return adamw_step

        def clock_forward(original):
            def __call__(model, volume):
                before = counter.count
                t0 = clock()
                out = original(model, volume)
                self.forward_s.append(clock() - t0)
                got = counter.count - before
                want = expected_attention_pairs(model.cfg, attention_cost)
                if got == want:
                    self.pairs_ok += 1
                else:
                    self.pairs_bad.append((got, want))
                return out
            return __call__

        self._patcher.patch(self.mm.training, "adamw_step", clock_adamw)
        self._patcher.patch(self.mm.model.Model, "__call__", clock_forward)

    def uninstall(self):
        self._patcher.restore()


class Tracer:
    """Records spans at layer boundaries, plus counters beside them.

    A span is ``[name, start, end, parent index, unit]``.  The unit is the
    training step (advanced at each ``adamw_step`` return) or, when
    ``per_case`` is set, the model forward the span belongs to.  Spans stay
    in memory until the run ends.
    """

    def __init__(self, mm, per_case=False):
        self.mm = mm
        self.per_case = per_case
        self.spans = []
        self.counts = {}
        self.first_forward_rss = {}
        self.steps = []  # (index of the training.adamw span, optimizer step)
        self._stack = []
        self._unit = 0
        self._forwards = 0
        self._patcher = Patcher()

    # -- recording -------------------------------------------------------

    def begin(self, name):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, clock(), 0.0, parent, self._unit])
        self._stack.append(idx)
        return idx

    def end(self, idx):
        self.spans[idx][2] = clock()
        self._stack.pop()

    def count(self, key, n):
        self.counts[key] = self.counts.get(key, 0) + n

    def count_max(self, key, v):
        self.counts[key] = max(self.counts.get(key, v), v)

    def span(self, name, before=None, after=None):
        """A patch maker that turns each call into a span named ``name``.
        ``before(args)`` runs ahead of the call, ``after(result, args)`` once
        it has returned; both only add counters."""
        def make(original):
            def traced(*args, **kwargs):
                if before is not None:
                    before(args)
                idx = self.begin(name)
                try:
                    out = original(*args, **kwargs)
                finally:
                    self.end(idx)
                if after is not None:
                    after(out, args)
                return out
            return traced
        return make

    # -- installation ----------------------------------------------------

    def install(self):
        mm, p, span = self.mm, self._patcher.patch, self.span
        for op in AUTODIFF_OPS:
            p(mm.autodiff, op, span(f"autodiff.{op}.fwd",
                                    after=self._conv_counts if op == "conv3d" else None))

        p(mm.training, "backward", self._traced_backward)
        p(mm.training, "adamw_step", self._traced_adamw)
        p(mm.training, "soft_dice_loss", span("training.loss"))
        p(mm.training, "cross_entropy_loss", span("training.loss"))
        p(mm.training, "save_checkpoint", span("model.ckpt_save", after=self._ckpt_saved))
        p(mm.training, "dice_score", span("metrics.dice"))
        p(mm.cli, "load_checkpoint", span("model.ckpt_load", before=self._ckpt_loading))
        p(mm.cli, "load_dataset", span("data.load", before=self._dataset_reading))
        p(mm.cli, "save_dataset", span("data.gen", after=self._dataset_written))

        p(mm.encoder.Encoder, "__call__", self._module_span("encoder.fwd"))
        p(mm.fusion.Fusion, "__call__", self._traced_fusion)
        p(mm.decoder.Decoder, "__call__", self._module_span("decoder.fwd"))
        p(mm.decoder.Decoder, "gated_skip", span("decoder.gate"))
        p(mm.model.Model, "__call__", self._traced_model)

        p(mm.metrics, "dice_score", span("metrics.dice"))
        p(mm.metrics, "hd95", span("metrics.hd95"))
        p(mm.metrics, "boundary_voxels", span(
            "metrics.boundary_voxels",
            after=lambda out, args: self.count("metrics.boundary_voxels", int(out.sum()))))

    def uninstall(self):
        self._patcher.restore()

    # -- wrappers that also count ------------------------------------------

    def _module_span(self, name):
        def after(out, args):
            # the RSS high-water mark as this layer returns during the first
            # forward shows which layer sets the process peak
            if self._forwards == 1:
                self.first_forward_rss[name] = rss_hwm_mb()
        return self.span(name, after=after)

    def _traced_model(self, original):
        traced = self.span("model.fwd")(original)

        def __call__(model, volume):
            self._forwards += 1
            if self.per_case:
                self._unit += 1
            return traced(model, volume)
        return __call__

    def _traced_fusion(self, original):
        counter = self.mm.fusion.pair_counter
        traced = self.span("fusion.fwd")(original)

        def __call__(fusion, feats):
            before = counter.count
            try:
                return traced(fusion, feats)
            finally:
                self.count("fusion.attn_pairs", counter.count - before)
        return __call__

    def _traced_backward(self, original):
        traced = self.span("autodiff.backward")(original)

        def backward(loss, tape, leaves=None):
            self.count("autodiff.tape_nodes", len(tape.nodes))
            for node in tape.nodes:
                node.backward = self._node_backward(node)
            return traced(loss, tape, leaves)
        return backward

    def _node_backward(self, node):
        fn = NODE_OP_TO_FN.get(node.op, node.op)
        traced = self.span(f"autodiff.{fn}.bwd")(node.backward)
        if fn != "conv3d":
            return traced
        # the closure must not hold the node itself: a reference cycle would
        # keep the tape's arrays alive past the step
        out, inputs = node.output, node.inputs

        def conv_backward(g):
            # rebuilds the column matrix, then two GEMMs of the forward's size
            self._conv_counts(out, inputs, gemms=2)
            return traced(g)
        return conv_backward

    def _conv_counts(self, out, args, gemms=1):
        """Column-matrix size and GEMM flops of one conv3d, computed from
        shapes; ``out`` is the output Tensor."""
        x, kernel = args[0], args[1]
        kd, kh, kw, cin, cout = kernel.shape
        cols = (out.size // cout) * kd * kh * kw * cin
        self.count_max("autodiff.conv3d.cols_mb.max", cols * x.data.dtype.itemsize / MB)
        self.count("autodiff.conv3d.flop", gemms * 2 * cols * cout)

    def _traced_adamw(self, original):
        def adamw_step(named_params, grads, state, cfg):
            idx = self.begin("training.adamw")
            try:
                return original(named_params, grads, state, cfg)
            finally:
                self.end(idx)
                self.steps.append((idx, state.t))
                if not self.per_case:
                    self._unit += 1
        return adamw_step

    def _ckpt_saved(self, out, args):
        self.count_max("model.ckpt_mb", os.path.getsize(args[1]) / MB)

    def _ckpt_loading(self, args):
        self.count_max("model.ckpt_mb", os.path.getsize(args[0]) / MB)

    def _dataset_reading(self, args):
        read = [d / name for d in Path(args[0]).glob("case_*")
                for name in ("volume.mmv", "mask.msk")]
        self.count("data.read_mb", sum(f.stat().st_size for f in read) / MB)

    def _dataset_written(self, case_dirs, args):
        written = (f for d in case_dirs for f in Path(d).iterdir())
        self.count("data.write_mb", sum(f.stat().st_size for f in written) / MB)


# ---------------------------------------------------------------- analysis


def self_times(spans):
    """Each span's duration minus the durations of its direct children.
    Spans nest (one thread), so children never overlap."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    return [s[2] - s[1] - c for s, c in zip(spans, child)]


def roots(spans):
    """Index of the top-level span each span descends from."""
    out = []
    for i, s in enumerate(spans):
        out.append(i if s[3] < 0 else out[s[3]])
    return out


def aggregate(spans, keep_root):
    """Per-name call count, total and self seconds over the spans whose
    top-level span's name satisfies ``keep_root``."""
    selfs = self_times(spans)
    top = roots(spans)
    table = {}
    for s, own, r in zip(spans, selfs, top):
        if not keep_root(spans[r][0]):
            continue
        row = table.setdefault(s[0], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += s[2] - s[1]
        row["self_s"] += own
    return table


def step_self_times(spans, steps):
    """Per-step time not covered by any span directly under the top-level
    call.  ``steps`` lists (adamw span index, optimizer step); a step runs
    from the previous adamw end to its own, so each ``train`` call's first
    step has no interval."""
    top = roots(spans)
    direct = {}  # top-level index -> its direct children
    for i, s in enumerate(spans):
        if s[3] >= 0 and s[3] == top[i]:
            direct.setdefault(top[i], []).append(s)
    out = []
    for (prev, _), (cur, t) in zip(steps, steps[1:]):
        if t == 1:
            continue
        lo, hi = spans[prev][2], spans[cur][2]
        covered = sum(c[2] - c[1] for c in direct.get(top[cur], ())
                      if c[1] >= lo and c[2] <= hi)
        out.append(hi - lo - covered)
    return out

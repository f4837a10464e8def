"""Timing wrappers installed around the public functions of every geoseq layer.

Nothing here edits the package: wrappers replace module attributes at run
time and are removed again by `Patches.undo`. A function is replaced under
every name that refers to it in any `geoseq` module, because callers look
functions up by the name they imported (`cli` imports `pretrain` and
`pretrained_predict_topk`, `downstream` imports `head_forward`).

Spans are aggregated in memory per (phase, name): call count, total time and
self time (total minus the time of the spans nested inside it). Selected
names also keep one sample per call, for percentiles. Tensor ops additionally
wrap the backward closure they record, so backward time is attributed to the
op kind that created the node.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from time import perf_counter

# Tensor op functions, by the kind they are reported under.
NAMED_OPS = (
    "matmul", "scaled_dot_product_attention", "softmax", "layer_norm", "add", "mul",
    "embedding_lookup", "cross_entropy", "concat", "getitem", "sigmoid", "tanh",
)
OTHER_OPS = (
    "sub", "neg", "reshape", "swapaxes", "relu", "log", "masked_fill", "dropout",
    "mean", "tsum",
)

# Functions that get a span, by layer; methods are given as "Class.method".
# These are the functions the per-layer metrics name plus the calls a handler
# makes into the next layer (`pretrain`, the ranking functions), so that a
# span's self time is its own code. Work in an unwrapped callee (`mark_stops`,
# head loading in `cli`, the `iter_csv_points` generator) counts as the
# caller's self time.
LAYER_FUNCTIONS = {
    "cli": ("dispatch",),
    "synth": ("generate_records",),
    "grid": ("project", "encode_point"),
    "vocab": ("build_vocab", "tokenize", "Vocabulary.load"),
    "pipeline": (
        "read_csv", "preprocess", "resample", "compute_velocity", "segment_trajectories",
        "window", "write_trajectories", "read_trajectories",
    ),
    "model": (
        "make_batch", "embed_sequence", "decoder_forward", "prediction_logits",
        "sequence_loss", "head_forward", "pretrain", "save_checkpoint", "load_checkpoint",
    ),
    "optim": ("Adam.step", "Adam.zero_grad"),
    "downstream": (
        "backbone_outputs", "beam_topk", "predict_topk", "pretrained_predict_topk",
        "compute_metrics", "NextLocationHeadFFN.level_logits",
        "NextLocationHeadLSTM.level_logits",
    ),
}

# Names whose per-call durations are kept as samples.
SAMPLED = {"synth.generate_records", "model.save_checkpoint", "model.load_checkpoint"}


def _geoseq_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "geoseq" or name.startswith("geoseq."))]


class Patches:
    """Replace attributes and restore them in reverse order."""

    def __init__(self):
        self._undo = []

    def everywhere(self, module, attr: str, make_wrapper):
        """Wrap `module.attr` under every geoseq name that refers to it."""
        current = getattr(module, attr)
        wrapper = make_wrapper(current)
        for m in _geoseq_modules():
            for name, value in list(vars(m).items()):
                if value is current:
                    self._undo.append((m, name, value))
                    setattr(m, name, wrapper)

    def method(self, cls, attr: str, make_wrapper):
        """Wrap a method (plain or classmethod) on its class."""
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            wrapped = classmethod(make_wrapper(raw.__func__))
        else:
            wrapped = make_wrapper(raw)
        self._undo.append((cls, attr, raw))
        setattr(cls, attr, wrapped)

    def undo(self):
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)


class Stat:
    __slots__ = ("calls", "total", "self_time")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0


class Tracer:
    """Span aggregator; `phase` None means wrappers pass straight through."""

    def __init__(self):
        self.phase = None
        self.stats = defaultdict(Stat)        # (phase, name) -> Stat
        self.samples = defaultdict(list)      # (phase, name) -> [seconds]
        self.counters = defaultdict(float)    # (phase, name) -> value
        self._stack = []                      # child-time accumulators
        self._patches = Patches()

    # -- spans -------------------------------------------------------------

    def _record(self, name, elapsed, child):
        stat = self.stats[(self.phase, name)]
        stat.calls += 1
        stat.total += elapsed
        stat.self_time += elapsed - child
        if name in SAMPLED:
            self.samples[(self.phase, name)].append(elapsed)

    def wrap(self, name, fn):
        tracer = self

        def traced(*args, **kwargs):
            if tracer.phase is None:
                return fn(*args, **kwargs)
            frame = [0.0]
            tracer._stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                tracer._stack.pop()
                if tracer._stack:
                    tracer._stack[-1][0] += elapsed
                tracer._record(name, elapsed, frame[0])

        traced.__wrapped__ = fn
        return traced

    def wrap_op(self, kind, fn, tensor_mod):
        """Forward span for a tensor op plus a span around its backward closure."""
        tracer = self
        Tensor = tensor_mod.Tensor
        fwd_name = f"tensor.{kind}.fwd"
        bwd_name = f"tensor.{kind}.bwd"

        def wrap_backward(closure):
            def backward(g):
                if tracer.phase is None:
                    return closure(g)
                start = perf_counter()
                try:
                    return closure(g)
                finally:
                    elapsed = perf_counter() - start
                    if tracer._stack:
                        tracer._stack[-1][0] += elapsed
                    tracer._record(bwd_name, elapsed, 0.0)

            backward.traced = True
            return backward

        def op(*args, **kwargs):
            if tracer.phase is None:
                return fn(*args, **kwargs)
            macs_before = tensor_mod._MACS
            frame = [0.0]
            tracer._stack.append(frame)
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                tracer._stack.pop()
                if tracer._stack:
                    tracer._stack[-1][0] += elapsed
                tracer._record(fwd_name, elapsed, frame[0])
            closure = out._backward if isinstance(out, Tensor) else None
            # composite ops return the node of their last inner op, whose
            # closure is already wrapped and keeps its own kind
            if closure is not None and not getattr(closure, "traced", False):
                out._backward = wrap_backward(closure)
                if kind == "matmul":
                    # backward runs two matmuls of the forward's size
                    macs = tensor_mod._MACS - macs_before
                    tracer.counters[(tracer.phase, "tensor.matmul.bwd_macs")] += 2 * macs
            return out

        return op

    # -- installation ------------------------------------------------------

    def install(self):
        import geoseq
        from geoseq import cli, downstream, grid, model, optim, pipeline, synth, tensor, vocab

        modules = {
            "cli": cli, "synth": synth, "grid": grid, "vocab": vocab, "pipeline": pipeline,
            "model": model, "optim": optim, "downstream": downstream,
        }
        for layer, names in LAYER_FUNCTIONS.items():
            mod = modules[layer]
            for name in names:
                span = f"{layer}.{name.split('.')[-1]}"
                if "." in name:
                    cls_name, attr = name.split(".")
                    self._patches.method(getattr(mod, cls_name), attr,
                                         lambda fn, s=span: self.wrap(s, fn))
                else:
                    self._patches.everywhere(mod, name, lambda fn, s=span: self.wrap(s, fn))
        for kind in NAMED_OPS + OTHER_OPS:
            self._patches.everywhere(tensor, kind,
                                     lambda fn, k=kind: self.wrap_op(k, fn, tensor))
        self._patches.method(tensor.Tensor, "backward",
                             lambda fn: self.wrap("tensor.backward", fn))
        # the by-name imports the per-layer numbers depend on
        for alias, canonical in (
            (cli.pretrain, model.pretrain),
            (cli.pretrained_predict_topk, downstream.pretrained_predict_topk),
            (downstream.head_forward, model.head_forward),
            (geoseq.preprocess, pipeline.preprocess),
        ):
            if alias is not canonical or not hasattr(alias, "__wrapped__"):
                raise RuntimeError("a by-name import escaped the tracer")

    def uninstall(self):
        self._patches.undo()

    # -- reading -----------------------------------------------------------

    def stat(self, phase, name) -> Stat:
        return self.stats.get((phase, name), Stat())

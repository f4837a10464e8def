"""Dense tensors with reverse-mode automatic differentiation on numpy arrays.

The sequence models use matmul (with an optional bias added in place), the
matmul of a concatenated input without the concatenation (`concat_matmul`),
add/mul, embedding lookup, relu, an LSTM recurrence as one node (`lstm`),
layer norm, softmax, sum, reshape/swapaxes, basic indexing, cross-entropy,
and attention as one node (`scaled_dot_product_attention`). Nine more ops
(`sub`, `neg`, `log`, `mean`, `masked_fill`, `dropout`, `concat`, `sigmoid`,
`tanh`) have no caller in the package; they stay because the benchmark's
tracer (`perfbench/tracer.py`) looks each of them up by name. Every
operation registers a backward closure; `Tensor.backward` runs reverse-mode
accumulation over the recorded graph.

Training runs in float32; pass float64 arrays for verification-grade gradient
checks. A module-level multiply-accumulate counter tracks matmul work for
FLOP instrumentation (see `count_macs`).
"""

from __future__ import annotations

import math
from contextlib import contextmanager

import numpy as np


class ShapeError(ValueError):
    """Raised when operand shapes are incompatible for an operation."""


_GRAD_ENABLED = True

# Running multiply-accumulate count over all matmuls (used by FLOP oracles).
_MACS = 0


@contextmanager
def no_grad():
    """Disable graph recording inside the block (inference / optimizer math)."""
    global _GRAD_ENABLED
    prev = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = prev


class MacBox:
    macs = 0


@contextmanager
def count_macs():
    """Yield a box whose `.macs` holds the matmul MACs executed in the block."""
    start = _MACS
    box = MacBox()
    try:
        yield box
    finally:
        box.macs = _MACS - start


class Tensor:
    """A dense array plus optional gradient and the op that produced it."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data)
        if requires_grad and not np.issubdtype(self.data.dtype, np.floating):
            raise ShapeError(f"requires_grad needs a float tensor, got {self.data.dtype}")
        self.requires_grad = requires_grad
        self.grad = None
        self._parents = ()
        self._backward = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}, grad={self.requires_grad})"

    def __getitem__(self, key):
        return getitem(self, key)

    def backward(self):
        """Reverse-mode gradient accumulation from this scalar into all leaves.

        Gradients are summed out of place: the first one to reach a tensor
        becomes its `.grad` as the closure returned it, and each later one
        replaces `.grad` with `.grad + g`, either cast to the tensor's dtype
        only when it differs. No code writes into a `.grad`, so a `.grad` may
        share memory with another. Leaves accumulate across calls.

        Each node lets go of its parents and its closure once its gradient
        has moved on to them, and this call drops its own reference to the
        node then too: a node nothing else holds is freed, with its output
        and its gradient, before the next one runs. A node the caller holds
        keeps its `.grad`.
        """
        if self.data.size != 1:
            raise ShapeError(f"backward requires a scalar loss, got shape {self.data.shape}")
        if not self.requires_grad:
            raise ShapeError("backward called on a tensor that does not require grad")

        # Iterative topological order over the recorded graph.
        order = []
        visited = set()
        stack = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if p.requires_grad and id(p) not in visited:
                    stack.append((p, False))

        self.grad = np.ones_like(self.data)
        while order:
            node = order.pop()
            if node._backward is None:
                continue
            grads = node._backward(node.grad)
            for parent, g in zip(node._parents, grads):
                if g is None or not parent.requires_grad:
                    continue
                if parent.grad is not None:
                    g = parent.grad + g
                parent.grad = np.asarray(g, dtype=parent.data.dtype)
            node._parents = ()
            node._backward = None


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _make(data, parents, backward):
    """Wrap an op result; record the graph edge only while grads are enabled."""
    req = _GRAD_ENABLED and any(p.requires_grad for p in parents)
    out = Tensor(data, requires_grad=req)
    if req:
        out._parents = tuple(parents)
        out._backward = backward
    return out


def _unbroadcast(g: np.ndarray, shape) -> np.ndarray:
    """Sum gradient over axes that numpy broadcasting expanded."""
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


# ---------------------------------------------------------------------------
# elementwise / linear algebra primitives
# ---------------------------------------------------------------------------

def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    return _make(
        a.data + b.data,
        (a, b),
        lambda g: (_unbroadcast(g, a.data.shape), _unbroadcast(g, b.data.shape)),
    )


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    return _make(
        a.data - b.data,
        (a, b),
        lambda g: (_unbroadcast(g, a.data.shape), _unbroadcast(-g, b.data.shape)),
    )


def neg(a) -> Tensor:
    a = as_tensor(a)
    return _make(-a.data, (a,), lambda g: (-g,))


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    return _make(
        a.data * b.data,
        (a, b),
        lambda g: (
            _unbroadcast(g * b.data, a.data.shape),
            _unbroadcast(g * a.data, b.data.shape),
        ),
    )


def matmul(a, b, bias=None) -> Tensor:
    """`a @ b (+ bias)`; an activation of any rank times a 2-D weight is one 2-D GEMM.

    Folding the leading axes of `a` into rows runs `(rows, k) @ (k, n)` in
    both directions, so the weight gradient is one `a2.T @ g2` instead of a
    per-batch `[..., k, n]` stack summed afterwards. A `bias` (2-D `b` only)
    is added into the GEMM's output in place and is a third parent, with the
    gradient an `add` node would give it. Operands that are both batched
    (attention's scores and context) take the broadcasting path.
    Backward computes only the gradients of operands that require one.
    """
    global _MACS
    a, b = as_tensor(a), as_tensor(b)
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise ShapeError(f"matmul needs >=2-D operands, got {a.data.shape} @ {b.data.shape}")
    if a.data.shape[-1] != b.data.shape[-2]:
        raise ShapeError(f"matmul inner dims differ: {a.data.shape} @ {b.data.shape}")
    if b.data.ndim == 2:
        k, n = b.data.shape
        rows = math.prod(a.data.shape[:-1])
        a2 = a.data.reshape(rows, k)
        _MACS += rows * k * n
        out = (a2 @ b.data).reshape(*a.data.shape[:-1], n)
        parents = (a, b)
        if bias is not None:
            bias = as_tensor(bias)
            if bias.data.shape != (n,):
                raise ShapeError(f"matmul bias must be [{n}], got {bias.data.shape}")
            out += bias.data
            parents = (a, b, bias)

        def backward(g):
            g2 = g.reshape(rows, n)
            ga = (g2 @ b.data.T).reshape(a.data.shape) if a.requires_grad else None
            gb = a2.T @ g2 if b.requires_grad else None
            if bias is None:
                return ga, gb
            return ga, gb, _unbroadcast(g, bias.data.shape) if bias.requires_grad else None

        return _make(out, parents, backward)

    if bias is not None:
        raise ShapeError(f"matmul bias needs a 2-D weight, got {b.data.shape}")
    out = np.matmul(a.data, b.data)
    m, k, n = a.data.shape[-2], a.data.shape[-1], b.data.shape[-1]
    _MACS += int(np.prod(out.shape[:-2], dtype=np.int64)) * m * k * n

    def backward(g):
        ga = gb = None
        if a.requires_grad:
            ga = _unbroadcast(np.matmul(g, b.data.swapaxes(-1, -2)), a.data.shape)
        if b.requires_grad:
            gb = _unbroadcast(np.matmul(a.data.swapaxes(-1, -2), g), b.data.shape)
        return ga, gb

    return _make(out, (a, b), backward)


def concat_matmul(a, extra, w, bias=None) -> Tensor:
    """`concat([a, extra]) @ w (+ bias)` without building the concatenation.

    `extra` is a constant array, such as the one-hot a chained head reads. It
    has `a`'s leading shape (one row per position), or that shape without its
    last axis (one row per sequence, the same at every step). `a` meets the
    first rows of `w` in one GEMM and `extra` the rest in another, so a
    per-sequence `extra` is multiplied once, not at every step. The bias is
    added last, as it was to the concatenated GEMM's output. `extra` None is
    `matmul(a, w, bias)`.
    """
    if extra is None:
        return matmul(a, w, bias)
    global _MACS
    a, w = as_tensor(a), as_tensor(w)
    extra = np.asarray(extra)
    lead, k = a.data.shape[:-1], a.data.shape[-1]
    per_sequence = extra.ndim == a.data.ndim - 1
    if extra.shape[:-1] != (lead[:-1] if per_sequence else lead):
        raise ShapeError(f"concat_matmul extra {extra.shape} does not fit a {a.data.shape}")
    if w.data.ndim != 2 or w.data.shape[0] != k + extra.shape[-1]:
        raise ShapeError(
            f"concat_matmul weight must be [{k + extra.shape[-1]}, n], got {w.data.shape}"
        )
    n = w.data.shape[1]
    top, bottom = w.data[:k], w.data[k:]
    rows = math.prod(lead)
    a2 = a.data.reshape(rows, k)
    e2 = extra.reshape(-1, extra.shape[-1])
    _MACS += (rows * k + e2.size) * n
    out = (a2 @ top).reshape(*lead, n)
    e_out = (e2 @ bottom).reshape(*extra.shape[:-1], n)
    out += e_out[..., None, :] if per_sequence else e_out
    parents = (a, w)
    if bias is not None:
        bias = as_tensor(bias)
        if bias.data.shape != (n,):
            raise ShapeError(f"concat_matmul bias must be [{n}], got {bias.data.shape}")
        out += bias.data
        parents = (a, w, bias)

    def backward(g):
        g2 = g.reshape(rows, n)
        ga = (g2 @ top.T).reshape(a.data.shape) if a.requires_grad else None
        gw = None
        if w.requires_grad:
            gw = np.empty_like(w.data)
            np.matmul(a2.T, g2, out=gw[:k])
            ge = g.sum(axis=-2) if per_sequence else g
            np.matmul(e2.T, ge.reshape(len(e2), n), out=gw[k:])
        if bias is None:
            return ga, gw
        return ga, gw, _unbroadcast(g, bias.data.shape) if bias.requires_grad else None

    return _make(out, parents, backward)


def concat(tensors, axis: int = -1) -> Tensor:
    tensors = [as_tensor(t) for t in tensors]
    sizes = [t.data.shape[axis] for t in tensors]
    out = np.concatenate([t.data for t in tensors], axis=axis)
    offsets = np.cumsum([0] + sizes)

    def backward(g):
        return tuple(
            np.take(g, range(offsets[i], offsets[i + 1]), axis=axis)
            for i in range(len(tensors))
        )

    return _make(out, tuple(tensors), backward)


def embedding_lookup(table, ids) -> Tensor:
    """Gather rows of a [V, W] table by an integer id array of any shape."""
    table = as_tensor(table)
    ids = np.asarray(ids)
    if ids.size and (ids.min() < 0 or ids.max() >= table.data.shape[0]):
        raise ShapeError(
            f"embedding id out of range [0, {table.data.shape[0]}): "
            f"min={ids.min()} max={ids.max()}"
        )

    def backward(g):
        # a stable sort groups each id's rows and one `reduceat` sums each
        # group; it adds them in another order than `np.add.at`, so the sums
        # agree to float rounding, not bit for bit
        gt = np.zeros_like(table.data)
        flat = ids.reshape(-1)
        if flat.size:
            order = np.argsort(flat, kind="stable")
            sorted_ids = flat[order]
            starts = np.flatnonzero(np.r_[True, sorted_ids[1:] != sorted_ids[:-1]])
            rows = g.reshape(flat.shape + table.data.shape[1:])[order]
            gt[sorted_ids[starts]] = np.add.reduceat(rows, starts, axis=0)
        return (gt,)

    return _make(table.data[ids], (table,), backward)


def getitem(a, key) -> Tensor:
    a = as_tensor(a)
    out = a.data[key]

    def backward(g):
        ga = np.zeros_like(a.data)
        # basic slicing never repeats elements, so += is exact there;
        # advanced (array) indices may repeat and need unbuffered add
        keys = key if isinstance(key, tuple) else (key,)
        if any(isinstance(k, (np.ndarray, list)) for k in keys):
            np.add.at(ga, key, g)
        else:
            ga[key] += g
        return (ga,)

    return _make(out, (a,), backward)


def reshape(a, shape) -> Tensor:
    a = as_tensor(a)
    return _make(a.data.reshape(shape), (a,), lambda g: (g.reshape(a.data.shape),))


def swapaxes(a, ax1: int, ax2: int) -> Tensor:
    a = as_tensor(a)
    return _make(a.data.swapaxes(ax1, ax2), (a,), lambda g: (g.swapaxes(ax1, ax2),))


# ---------------------------------------------------------------------------
# nonlinearities and normalization
# ---------------------------------------------------------------------------

def relu(a) -> Tensor:
    a = as_tensor(a)
    out = np.maximum(a.data, 0)
    return _make(out, (a,), lambda g: (g * (a.data > 0),))


def sigmoid(a) -> Tensor:
    a = as_tensor(a)
    out = 1.0 / (1.0 + np.exp(-a.data))
    return _make(out, (a,), lambda g: (g * out * (1.0 - out),))


def tanh(a) -> Tensor:
    a = as_tensor(a)
    out = np.tanh(a.data)
    return _make(out, (a,), lambda g: (g * (1.0 - out * out),))


def lstm(x_gates, wh, last) -> Tensor:
    """One LSTM layer's recurrence; returns each row's hidden state at its step `last`.

    `x_gates` [B, T, 4W] holds the input side of every step's gates, in the
    order i, f, g, o; `wh` [W, 4W] is the recurrent weight and `last` an int
    array [B]. From zero state, step t adds `h @ wh` to its gates, then sets
    `c = f*c + i*g` and `h = o*tanh(c)`, with the formulas of `sigmoid` and
    `tanh`. It is one node: backward walks the steps in reverse and forms
    the `wh` gradient as one GEMM over all of them. A row's steps after its
    `last` get no gradient.
    """
    global _MACS
    x_gates, wh = as_tensor(x_gates), as_tensor(wh)
    xg, whd = x_gates.data, wh.data
    last = np.asarray(last)
    if xg.ndim != 3 or whd.ndim != 2 or not xg.shape[2] == whd.shape[1] == 4 * whd.shape[0]:
        raise ShapeError(f"lstm expects x_gates [B, T, 4W] and wh [W, 4W], got "
                         f"{xg.shape} and {whd.shape}")
    b, t1, _ = xg.shape
    w = whd.shape[0]
    if last.shape != (b,) or (b and (last.min() < 0 or last.max() >= t1)):
        raise ShapeError(f"lstm last must be [{b}] steps in [0, {t1}), got {last}")
    _MACS += t1 * b * w * 4 * w
    record = _GRAD_ENABLED and (x_gates.requires_grad or wh.requires_grad)
    hs = np.zeros((t1 + 1, b, w), dtype=xg.dtype)  # hs[t + 1] is h after step t
    if record:  # what only backward reads
        acts = np.empty((t1, b, 4 * w), dtype=xg.dtype)  # the gates after their nonlinearity
        cs = np.zeros((t1 + 1, b, w), dtype=xg.dtype)  # cs[t + 1] is c after step t
        tanh_cs = np.empty((t1, b, w), dtype=xg.dtype)
    c = np.zeros((b, w), dtype=xg.dtype)
    # exp(-x) overflows to inf for very negative x, and 1 / (1 + inf) is sigmoid's limit 0
    with np.errstate(over="ignore"):
        for t in range(t1):
            pre = xg[:, t, :] + hs[t] @ whd
            g = np.tanh(pre[:, 2 * w : 3 * w])
            gates = 1.0 / (1.0 + np.exp(-pre))  # i, f and o; the g block takes its tanh
            gates[:, 2 * w : 3 * w] = g
            c = gates[:, w : 2 * w] * c + gates[:, :w] * g
            tanh_c = np.tanh(c)
            hs[t + 1] = gates[:, 3 * w :] * tanh_c
            if record:
                acts[t], cs[t + 1], tanh_cs[t] = gates, c, tanh_c
    rows = np.arange(b)

    def backward(grad):
        dgates = np.empty((b, t1, 4 * w), dtype=xg.dtype)
        dh_out = np.zeros((t1, b, w), dtype=xg.dtype)
        dh_out[last, rows] = grad
        dh = dc = np.zeros((b, w), dtype=xg.dtype)
        for t in range(t1 - 1, -1, -1):
            i, f, g, o = np.split(acts[t], 4, axis=1)
            dh = dh + dh_out[t]
            dc = dc + dh * o * (1.0 - tanh_cs[t] * tanh_cs[t])
            d = dgates[:, t, :]
            d[:, :w] = dc * g * i * (1.0 - i)
            d[:, w : 2 * w] = dc * cs[t] * f * (1.0 - f)
            d[:, 2 * w : 3 * w] = dc * i * (1.0 - g * g)
            d[:, 3 * w :] = dh * tanh_cs[t] * o * (1.0 - o)
            dc = dc * f
            if t:
                dh = d @ whd.T
        dwh = None
        if wh.requires_grad:
            h_prev = hs[:-1].swapaxes(0, 1).reshape(b * t1, w)  # h before each step
            dwh = h_prev.T @ dgates.reshape(b * t1, 4 * w)
        return (dgates if x_gates.requires_grad else None), dwh

    return _make(hs[last + 1, rows], (x_gates, wh), backward)


def log(a) -> Tensor:
    a = as_tensor(a)
    if np.any(a.data <= 0):
        raise ShapeError("log requires strictly positive inputs")
    return _make(np.log(a.data), (a,), lambda g: (g / a.data,))


def layer_norm(x, gain, bias, eps: float = 1e-5) -> Tensor:
    """Normalize over the last axis, then apply elementwise gain and bias."""
    x, gain, bias = as_tensor(x), as_tensor(gain), as_tensor(bias)
    mu = x.data.mean(axis=-1, keepdims=True)
    xhat = x.data - mu
    out = xhat * xhat
    var = out.mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + np.asarray(eps, dtype=x.data.dtype))
    xhat *= inv
    np.multiply(xhat, gain.data, out=out)
    out += bias.data

    def backward(g):
        # inv * (dxhat - mean(dxhat) - xhat * mean(dxhat * xhat)), in that
        # order, in two buffers
        dx = g * gain.data
        tmp = dx * xhat
        m2 = tmp.mean(axis=-1, keepdims=True)
        dx_mean = dx.mean(axis=-1, keepdims=True)
        np.multiply(xhat, m2, out=tmp)
        dx -= dx_mean
        dx -= tmp
        dx *= inv
        return (
            dx,
            _unbroadcast(g * xhat, gain.data.shape),
            _unbroadcast(g, bias.data.shape),
        )

    return _make(out, (x, gain, bias), backward)


def softmax(x) -> Tensor:
    """Softmax over the last axis; -inf entries yield exactly zero weight."""
    x = as_tensor(x)
    shifted = x.data - x.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=-1, keepdims=True)

    def backward(g):
        return (out * (g - (g * out).sum(axis=-1, keepdims=True)),)

    return _make(out, (x,), backward)


def masked_fill(x, keep, value) -> Tensor:
    """Replace entries where `keep` is False by `value` (e.g. -inf before softmax)."""
    x = as_tensor(x)
    keep = np.asarray(keep, dtype=bool)
    out = np.where(keep, x.data, np.asarray(value, dtype=x.data.dtype))
    return _make(out, (x,), lambda g: (g * keep,))


def dropout(x, p: float, rng: np.random.Generator | None = None, training: bool = False) -> Tensor:
    """Inverted dropout; identity when not training or p == 0."""
    x = as_tensor(x)
    if not training or p <= 0.0:
        return x
    if rng is None:
        raise ShapeError("dropout in training mode needs an rng")
    keep = (rng.random(x.data.shape) >= p).astype(x.data.dtype)
    scale = np.asarray(1.0 / (1.0 - p), dtype=x.data.dtype)
    return _make(x.data * keep * scale, (x,), lambda g: (g * keep * scale,))


# ---------------------------------------------------------------------------
# reductions
# ---------------------------------------------------------------------------

def mean(x, axis=None, keepdims: bool = False) -> Tensor:
    x = as_tensor(x)
    out = x.data.mean(axis=axis, keepdims=keepdims)
    count = x.data.size if axis is None else x.data.shape[axis]

    def backward(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, x.data.shape) / count,)

    return _make(out, (x,), backward)


def tsum(x, axis=None, keepdims: bool = False) -> Tensor:
    x = as_tensor(x)
    out = x.data.sum(axis=axis, keepdims=keepdims)

    def backward(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, x.data.shape).copy(),)

    return _make(out, (x,), backward)


# ---------------------------------------------------------------------------
# composite losses / attention
# ---------------------------------------------------------------------------

def cross_entropy(logits, targets) -> Tensor:
    """Mean negative log-likelihood of `targets` under the rows of `logits`.

    `logits` is [N, C], `targets` an int array [N]. Forward keeps the
    shifted exponentials and their row sums, so backward's softmax is one
    division and `exp` runs once.
    """
    logits = as_tensor(logits)
    targets = np.asarray(targets)
    if logits.data.ndim != 2 or targets.ndim != 1 or targets.shape[0] != logits.data.shape[0]:
        raise ShapeError(
            f"cross_entropy expects logits [N, C] and targets [N], got "
            f"{logits.data.shape} and {targets.shape}"
        )
    n, n_classes = logits.data.shape
    if n == 0:
        raise ShapeError("cross_entropy needs at least one row")
    if targets.min() < 0 or targets.max() >= n_classes:
        raise ShapeError(f"cross_entropy target outside [0, {n_classes})")

    rows = np.arange(n)
    shifted = logits.data - logits.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    total = e.sum(axis=-1, keepdims=True)
    picked = shifted[rows, targets] - np.log(total[:, 0])
    loss = -picked.sum() / n

    def backward(g):
        dl = e / total
        dl[rows, targets] -= 1.0
        dl *= g / n
        return (dl,)

    return _make(np.asarray(loss, dtype=logits.data.dtype), (logits,), backward)


def scaled_dot_product_attention(
    q, k, v, keep, dropout_p: float = 0.0,
    rng: np.random.Generator | None = None, training: bool = False,
) -> Tensor:
    """Attention over the trailing two axes; `keep` masks scores to -inf.

    `keep` must broadcast against [..., Tq, Tk] and leave at least one True
    entry per query row, otherwise the softmax row is undefined. In training
    with `dropout_p` > 0 the attention weights go through inverted dropout,
    its mask drawn by one `rng.random` call. One node: forward forms the
    scores in one batched matmul and scales, masks and normalizes them in
    place, with the arithmetic of `matmul`, `mul`, `masked_fill`, `softmax`
    and `dropout`; backward keeps only the weights (before and after
    dropout) and the dropout mask.
    """
    global _MACS
    q, k, v = as_tensor(q), as_tensor(k), as_tensor(v)
    qd, kd, vd = q.data, k.data, v.data
    if not (qd.ndim >= 2 and qd.shape[:-2] == kd.shape[:-2] == vd.shape[:-2]
            and qd.shape[-1] == kd.shape[-1] and kd.shape[-2] == vd.shape[-2]):
        raise ShapeError(f"attention expects q [..., Tq, d], k [..., Tk, d] and v [..., Tk, dv], "
                         f"got {qd.shape}, {kd.shape} and {vd.shape}")
    scale = 1.0 / np.sqrt(np.asarray(qd.shape[-1], dtype=qd.dtype))
    weights = np.matmul(qd, kd.swapaxes(-1, -2))
    weights *= scale
    masked = ~np.asarray(keep, dtype=bool)
    np.copyto(weights, np.asarray(-np.inf, dtype=weights.dtype), where=masked)
    weights -= weights.max(axis=-1, keepdims=True)
    np.exp(weights, out=weights)
    weights /= weights.sum(axis=-1, keepdims=True)
    dropped = weights
    if training and dropout_p > 0.0:
        if rng is None:
            raise ShapeError("dropout in training mode needs an rng")
        kept = rng.random(weights.shape) >= dropout_p
        drop_scale = np.asarray(1.0 / (1.0 - dropout_p), dtype=weights.dtype)
        dropped = weights * kept
        dropped *= drop_scale
    out = np.matmul(dropped, vd)
    batch = int(np.prod(out.shape[:-2], dtype=np.int64))
    _MACS += batch * weights.shape[-2] * weights.shape[-1] * (qd.shape[-1] + vd.shape[-1])

    def backward(g):
        gv = np.matmul(dropped.swapaxes(-1, -2), g) if v.requires_grad else None
        if not (q.requires_grad or k.requires_grad):
            return None, None, gv
        ds = np.matmul(g, vd.swapaxes(-1, -2))
        if dropped is not weights:
            ds *= kept
            ds *= drop_scale
        # softmax backward, then the score scale; masked weights are 0, so
        # their score gradients are too
        ds -= (ds * weights).sum(axis=-1, keepdims=True)
        ds *= weights
        ds *= scale
        gq = np.matmul(ds, kd) if q.requires_grad else None
        gk = np.matmul(qd.swapaxes(-1, -2), ds).swapaxes(-1, -2) if k.requires_grad else None
        return gq, gk, gv

    return _make(out, (q, k, v), backward)

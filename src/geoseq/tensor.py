"""Dense tensors with reverse-mode automatic differentiation on numpy arrays.

Implements the small operation set the sequence models need: matmul (with an
optional bias added in place), add/sub/neg/mul, concat, embedding lookup,
relu/sigmoid/tanh, layer norm, softmax, masked fill, dropout, log, mean/sum,
reshape/swapaxes, basic indexing, and a masked cross-entropy. Every operation
registers a backward closure; `Tensor.backward` runs reverse-mode accumulation
over the recorded graph.

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

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        self.data = np.asarray(data, dtype=dtype)
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

    def item(self) -> float:
        return float(self.data)

    def backward(self, retain_graph: bool = False):
        """Reverse-mode gradient accumulation from this scalar into all leaves.

        Leaves accumulate across calls; an interior node's gradient is this
        call's alone, so a retained graph run twice gives its leaves exactly
        twice the gradient.
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
                if node._backward is not None:
                    node.grad = None
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
        for node in reversed(order):
            if node._backward is None:
                continue
            grads = node._backward(node.grad)
            taken = []
            for parent, g in zip(node._parents, grads):
                if g is None or not parent.requires_grad:
                    continue
                if parent.grad is not None:
                    parent.grad += g
                elif _owns(g, parent.data.dtype, node.grad, taken):
                    parent.grad = g  # fresh: kept as it is, never copied
                    taken.append(g)
                else:
                    # a copy in the view's own memory order, which the bits
                    # of later reductions over this gradient depend on
                    parent.grad = np.array(g, dtype=parent.data.dtype)
            if not retain_graph:
                node._parents = ()
                node._backward = None


def _owns(g, dtype, node_grad, taken) -> bool:
    """Whether a first gradient may become the parent's own `.grad` uncopied.

    Later contributions are added into `.grad` in place, so it must be a
    writable array of the parent's dtype that shares memory with neither the
    node's own gradient (interior gradients are kept, and `add`, `reshape` and
    `swapaxes` hand back views of it) nor a gradient this node already gave
    to another parent. A fresh array from a closure passes them all.
    """
    return (
        isinstance(g, np.ndarray)
        and g.flags.writeable
        and g.dtype == dtype
        and not np.may_share_memory(g, node_grad)
        and not any(np.may_share_memory(g, t) for t in taken)
    )


def as_tensor(x, dtype=None) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x, dtype=dtype)


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
        gt = np.zeros_like(table.data)
        np.add.at(gt, ids, g)
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

def cross_entropy(logits, targets, ignore_id: int | None = None) -> Tensor:
    """Mean negative log-likelihood over rows whose target is not `ignore_id`.

    `logits` is [B, C], `targets` an int array [B]. Ignored rows contribute
    to neither the sum nor the denominator.
    """
    logits = as_tensor(logits)
    targets = np.asarray(targets)
    if logits.data.ndim != 2 or targets.ndim != 1 or targets.shape[0] != logits.data.shape[0]:
        raise ShapeError(
            f"cross_entropy expects logits [B, C] and targets [B], got "
            f"{logits.data.shape} and {targets.shape}"
        )
    n_classes = logits.data.shape[1]
    valid = np.ones_like(targets, dtype=bool) if ignore_id is None else targets != ignore_id
    n_valid = int(valid.sum())
    if n_valid == 0:
        raise ShapeError("cross_entropy: every row is ignored")
    safe_targets = np.where(valid, targets, 0)
    if safe_targets.min() < 0 or safe_targets.max() >= n_classes:
        raise ShapeError(f"cross_entropy target outside [0, {n_classes})")

    shifted = logits.data - logits.data.max(axis=-1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    logp = shifted - lse
    picked = logp[np.arange(targets.shape[0]), safe_targets]
    loss = -(picked * valid).sum() / n_valid

    def backward(g):
        dl = np.exp(logp)
        dl[np.arange(targets.shape[0]), safe_targets] -= 1.0
        dl *= (valid[:, None] / n_valid) * g
        return (dl,)

    return _make(np.asarray(loss, dtype=logits.data.dtype), (logits,), backward)


def scaled_dot_product_attention(
    q, k, v, keep, dropout_p: float = 0.0,
    rng: np.random.Generator | None = None, training: bool = False,
) -> Tensor:
    """Attention over the trailing two axes; `keep` masks scores to -inf.

    `keep` must broadcast against [..., Tq, Tk] and leave at least one True
    entry per query row, otherwise the softmax row is undefined.
    """
    q, k, v = as_tensor(q), as_tensor(k), as_tensor(v)
    dk = q.data.shape[-1]
    scores = mul(matmul(q, swapaxes(k, -1, -2)), 1.0 / np.sqrt(np.asarray(dk, dtype=q.data.dtype)))
    scores = masked_fill(scores, keep, -np.inf)
    weights = softmax(scores)
    weights = dropout(weights, dropout_p, rng, training)
    return matmul(weights, v)

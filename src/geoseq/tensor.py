"""Dense tensors with reverse-mode automatic differentiation on numpy arrays.

The sequence models use matmul (with an optional bias added in place), the
matmul of a concatenated input without the concatenation (`concat_matmul`,
which multiplies only the columns of its constant part that are nonzero
somewhere, and fans an input of one row out over the constant part's rows,
so a beam's kept candidates share one call), add/mul, embedding lookup
(also the row gather), its inverse `scatter_rows`, relu, an LSTM recurrence
as one node (`lstm`: each step writes into buffers made once, and a recurrent
product just above OpenBLAS's small-matrix bound runs as two column halves
below it at W = 256, where they keep one GEMM's bits), layer norm, softmax,
sum, reshape/swapaxes, basic indexing, cross-entropy, and attention as one node
(`scaled_dot_product_attention`). Nine more ops
(`sub`, `neg`, `log`, `mean`, `masked_fill`, `dropout`, `concat`, `sigmoid`,
`tanh`) have no caller in the package; they stay because the benchmark's
tracer (`perfbench/tracer.py`) looks each of them up by name. Every
operation registers a backward closure; `Tensor.backward` runs reverse-mode
accumulation over the recorded graph.

The graph is kept apart from the data. A `Tensor` holds its array and its
`Node`; the node holds the gradient, the parent nodes and the backward
closure, and no array. A closure holds only what its backward reads (arrays,
shapes and flags), never a `Tensor`, so an activation that no backward reads
is freed as soon as the caller drops its tensor.

Training runs in float32; pass float64 arrays for verification-grade gradient
checks. A module-level multiply-accumulate counter tracks matmul work for
FLOP instrumentation (see `count_macs`). It counts the product each op is
asked for, the convention of `bench.estimate_flops`: a `concat_matmul` whose
zero columns are skipped still counts its full width.
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


class Node:
    """A tensor's place in the graph: what backward reads and writes of it.

    A node holds the gradient, whether one is wanted, the dtype gradients are
    cast to, the parent nodes and the backward closure. It holds no data, so
    an op's output array lives only as long as its `Tensor` or a closure that
    reads it.
    """

    __slots__ = ("grad", "requires_grad", "dtype", "parents", "backward")

    def __init__(self, requires_grad: bool, dtype):
        self.grad = None
        self.requires_grad = requires_grad
        self.dtype = dtype
        self.parents = ()
        self.backward = None


class Tensor:
    """A dense array plus its graph node (the gradient and the op that produced it)."""

    __slots__ = ("data", "_node")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data)
        if requires_grad and not np.issubdtype(self.data.dtype, np.floating):
            raise ShapeError(f"requires_grad needs a float tensor, got {self.data.dtype}")
        self._node = Node(requires_grad, self.data.dtype)

    @property
    def grad(self):
        return self._node.grad

    @grad.setter
    def grad(self, value):
        self._node.grad = value

    @property
    def requires_grad(self) -> bool:
        return self._node.requires_grad

    @property
    def _backward(self):
        return self._node.backward

    @_backward.setter
    def _backward(self, closure):
        self._node.backward = closure

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

        The graph is made of nodes, not tensors: a node holds its gradient,
        its parent nodes and its backward closure, and each closure holds
        only the arrays its backward reads (plus shapes and flags), never a
        `Tensor`. So an op's input that backward does not read is freed as
        soon as the caller drops its tensor, before backward starts.

        Gradients are summed out of place: the first one to reach a tensor
        becomes its `.grad` as the closure returned it, and each later one
        replaces `.grad` with `.grad + g`, either cast to the tensor's dtype
        only when it differs. No code writes into a `.grad`, so a `.grad` may
        share memory with another. Leaves accumulate across calls.

        Each node lets go of its parents and its closure once its gradient
        has moved on to them, and this call drops its own reference to the
        node then too: a node nothing else holds is freed, with its gradient
        and the arrays its closure read, before the next one runs. A node
        whose tensor the caller holds keeps its `.grad`.
        """
        if self.data.size != 1:
            raise ShapeError(f"backward requires a scalar loss, got shape {self.data.shape}")
        if not self.requires_grad:
            raise ShapeError("backward called on a tensor that does not require grad")

        # Iterative topological order over the recorded graph.
        order = []
        visited = set()
        stack = [(self._node, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for p in node.parents:
                if p.requires_grad and id(p) not in visited:
                    stack.append((p, False))

        self._node.grad = np.ones_like(self.data)
        while order:
            node = order.pop()
            if node.backward is None:
                continue
            grads = node.backward(node.grad)
            for parent, g in zip(node.parents, grads):
                if g is None or not parent.requires_grad:
                    continue
                if parent.grad is not None:
                    g = parent.grad + g
                parent.grad = np.asarray(g, dtype=parent.dtype)
            node.parents = ()
            node.backward = None


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _make(data, parents, backward):
    """Wrap an op result; record the graph edge only while grads are enabled."""
    req = _GRAD_ENABLED and any(p.requires_grad for p in parents)
    out = Tensor(data, requires_grad=req)
    if req:
        out._node.parents = tuple(p._node for p in parents)
        out._node.backward = backward
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
    sa, sb = a.data.shape, b.data.shape
    return _make(
        a.data + b.data,
        (a, b),
        lambda g: (_unbroadcast(g, sa), _unbroadcast(g, sb)),
    )


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    sa, sb = a.data.shape, b.data.shape
    return _make(
        a.data - b.data,
        (a, b),
        lambda g: (_unbroadcast(g, sa), _unbroadcast(-g, sb)),
    )


def neg(a) -> Tensor:
    a = as_tensor(a)
    return _make(-a.data, (a,), lambda g: (-g,))


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    sa, sb = a.data.shape, b.data.shape
    # each factor is kept only for the other's gradient
    ad = a.data if b.requires_grad else None
    bd = b.data if a.requires_grad else None
    return _make(
        a.data * b.data,
        (a, b),
        lambda g: (
            None if bd is None else _unbroadcast(g * bd, sa),
            None if ad is None else _unbroadcast(g * ad, sb),
        ),
    )


def matmul(a, b, bias=None) -> Tensor:
    """`a @ b (+ bias)`; an activation of any rank times a 2-D weight is one 2-D GEMM.

    Folding the leading axes of `a` into rows runs `(rows, k) @ (k, n)` in
    both directions, so the weight gradient is one `a2.T @ g2` instead of a
    per-batch `[..., k, n]` stack summed afterwards. A `bias` (2-D `b` only)
    is added into the GEMM's output in place and is a third parent, with the
    gradient an `add` node would give it. Operands that are both batched take
    the broadcasting path; the model has none, since `attention` is one node
    with its own products.
    Backward computes only the gradients of operands that require one, and
    keeps each operand only for the other's gradient.
    """
    global _MACS
    a, b = as_tensor(a), as_tensor(b)
    sa, ra, rb = a.data.shape, a.requires_grad, b.requires_grad
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise ShapeError(f"matmul needs >=2-D operands, got {sa} @ {b.data.shape}")
    if sa[-1] != b.data.shape[-2]:
        raise ShapeError(f"matmul inner dims differ: {sa} @ {b.data.shape}")
    if b.data.ndim == 2:
        bd = b.data
        k, n = bd.shape
        rows = math.prod(sa[:-1])
        a2 = a.data.reshape(rows, k)
        _MACS += rows * k * n
        out = (a2 @ bd).reshape(*sa[:-1], n)
        parents = (a, b)
        rbias = None
        if bias is not None:
            bias = as_tensor(bias)
            if bias.data.shape != (n,):
                raise ShapeError(f"matmul bias must be [{n}], got {bias.data.shape}")
            out += bias.data
            parents, rbias = (a, b, bias), bias.requires_grad
        if not rb:
            a2 = None

        def backward(g):
            # in C order, as a gradient comes from every caller but one: at
            # batch 1 the decoder's dense path hands the K projection a
            # transposed view, whose bias sum would round another way
            g = np.ascontiguousarray(g)
            g2 = g.reshape(rows, n)
            ga = (g2 @ bd.T).reshape(sa) if ra else None
            gb = a2.T @ g2 if rb else None
            if rbias is None:
                return ga, gb
            return ga, gb, _unbroadcast(g, (n,)) if rbias else None

        return _make(out, parents, backward)

    if bias is not None:
        raise ShapeError(f"matmul bias needs a 2-D weight, got {b.data.shape}")
    out = np.matmul(a.data, b.data)
    m, k, n = sa[-2], sa[-1], b.data.shape[-1]
    _MACS += int(np.prod(out.shape[:-2], dtype=np.int64)) * m * k * n
    sb = b.data.shape
    ad = a.data if rb else None
    bd = b.data if ra else None

    def backward(g):
        ga = gb = None
        if ra:
            ga = _unbroadcast(np.matmul(g, bd.swapaxes(-1, -2)), sa)
        if rb:
            gb = _unbroadcast(np.matmul(ad.swapaxes(-1, -2), g), sb)
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

    An `a` with one leading row fans out over the n rows of `extra`, as if
    `a` were repeated n times: `a @ w[:k]` runs once at `a`'s own shape, and
    `extra`'s rows and the bias are added after it, broadcast over the rows,
    so each output row has the bits of a call with that row of `extra` alone.
    Backward sums the fanned rows' gradient back onto `a`. A beam ranks all
    of a level's kept candidates this way, one `extra` row each.

    Only the columns of `extra` that are nonzero somewhere are multiplied:
    `extra[..., cols] @ w[k + cols]`, which for a one-hot gives the same bits
    as the whole product. The weight gradient fills `w`'s rows `k + cols` and
    leaves its other `extra` rows zero. The MAC counter still counts the
    product the op is asked for, `extra`'s full width, as `estimate_flops` does;
    a fanned `a` counts once, as it runs.
    """
    if extra is None:
        return matmul(a, w, bias)
    global _MACS
    a, w = as_tensor(a), as_tensor(w)
    extra = np.asarray(extra)
    lead, k = a.data.shape[:-1], a.data.shape[-1]
    per_sequence = extra.ndim == a.data.ndim - 1
    fit = lead[:-1] if per_sequence else lead
    fanned = fit[:1] == (1,) and extra.shape[:1] != (1,)
    if fanned:
        fit = extra.shape[:1] + fit[1:]
    if extra.shape[:-1] != fit:
        raise ShapeError(f"concat_matmul extra {extra.shape} does not fit a {a.data.shape}")
    if w.data.ndim != 2 or w.data.shape[0] != k + extra.shape[-1]:
        raise ShapeError(
            f"concat_matmul weight must be [{k + extra.shape[-1]}, n], got {w.data.shape}"
        )
    n = w.data.shape[1]
    sa, sw, dtype = a.data.shape, w.data.shape, w.data.dtype
    ra, rw = a.requires_grad, w.requires_grad
    top = w.data[:k]
    rows = math.prod(lead)
    a2 = a.data.reshape(rows, k)
    e2 = extra.reshape(-1, extra.shape[-1])
    _MACS += (rows * k + e2.size) * n
    cols = np.flatnonzero(e2.any(axis=0))
    e2 = e2[:, cols]
    bottom = w.data[k + cols]
    out = (a2 @ top).reshape(*lead, n)
    e_out = (e2 @ bottom).reshape(*extra.shape[:-1], n)
    e_out = e_out[..., None, :] if per_sequence else e_out
    if fanned:
        out = out + e_out
    else:
        out += e_out
    parents = (a, w)
    rbias = None
    if bias is not None:
        bias = as_tensor(bias)
        if bias.data.shape != (n,):
            raise ShapeError(f"concat_matmul bias must be [{n}], got {bias.data.shape}")
        out += bias.data
        parents, rbias = (a, w, bias), bias.requires_grad
    if not rw:
        a2 = e2 = None

    def backward(g):
        g2 = (g.sum(axis=0) if fanned else g).reshape(rows, n)
        ga = (g2 @ top.T).reshape(sa) if ra else None
        gw = None
        if rw:
            gw = np.zeros(sw, dtype=dtype)
            np.matmul(a2.T, g2, out=gw[:k])
            ge = g.sum(axis=-2) if per_sequence else g
            gw[k + cols] = e2.T @ ge.reshape(len(e2), n)
        if rbias is None:
            return ga, gw
        return ga, gw, _unbroadcast(g, (n,)) if rbias else None

    return _make(out, parents, backward)


def concat(tensors, axis: int = -1) -> Tensor:
    tensors = [as_tensor(t) for t in tensors]
    sizes = [t.data.shape[axis] for t in tensors]
    out = np.concatenate([t.data for t in tensors], axis=axis)
    offsets = np.cumsum([0] + sizes)
    count = len(tensors)

    def backward(g):
        return tuple(
            np.take(g, range(offsets[i], offsets[i + 1]), axis=axis)
            for i in range(count)
        )

    return _make(out, tuple(tensors), backward)


def embedding_lookup(table, ids) -> Tensor:
    """Gather rows of a [V, W] table by an integer id array of any shape."""
    table = as_tensor(table)
    ids = np.asarray(ids)
    shape, dtype = table.data.shape, table.data.dtype
    if ids.size and (ids.min() < 0 or ids.max() >= shape[0]):
        raise ShapeError(
            f"embedding id out of range [0, {shape[0]}): "
            f"min={ids.min()} max={ids.max()}"
        )

    def backward(g):
        # a stable sort groups each id's rows and one `reduceat` sums each
        # group; it adds them in another order than `np.add.at`, so the sums
        # agree to float rounding, not bit for bit. Ids that never repeat (a
        # row gather) skip the sum: each row is its own group's sum.
        gt = np.zeros(shape, dtype=dtype)
        flat = ids.reshape(-1)
        if flat.size:
            rows = g.reshape(flat.shape + shape[1:])
            order = np.argsort(flat, kind="stable")
            sorted_ids = flat[order]
            starts = np.flatnonzero(np.r_[True, sorted_ids[1:] != sorted_ids[:-1]])
            if len(starts) == flat.size:
                gt[flat] = rows
            else:
                gt[sorted_ids[starts]] = np.add.reduceat(rows[order], starts, axis=0)
        return (gt,)

    return _make(table.data[ids], (table,), backward)


def scatter_rows(a, rows, n: int) -> Tensor:
    """An [n, ...] tensor holding `a`'s rows at `rows` and zero rows elsewhere.

    `rows` is a strictly increasing int array with one entry per row of `a`,
    each in [0, n). The inverse of gathering those rows (`embedding_lookup`),
    and backward is that gather.
    """
    a = as_tensor(a)
    rows = np.asarray(rows)
    if rows.shape != a.data.shape[:1] or (rows.size and not (
            rows[0] >= 0 and rows[-1] < n and np.all(rows[1:] > rows[:-1]))):
        raise ShapeError(f"scatter_rows needs {a.data.shape[:1]} increasing rows in [0, {n}), "
                         f"got {rows}")
    out = np.zeros((n,) + a.data.shape[1:], dtype=a.data.dtype)
    out[rows] = a.data
    return _make(out, (a,), lambda g: (g[rows],))


def getitem(a, key) -> Tensor:
    a = as_tensor(a)
    out = a.data[key]
    shape, dtype = a.data.shape, a.data.dtype

    def backward(g):
        ga = np.zeros(shape, dtype=dtype)
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
    sa = a.data.shape
    return _make(a.data.reshape(shape), (a,), lambda g: (g.reshape(sa),))


def swapaxes(a, ax1: int, ax2: int) -> Tensor:
    a = as_tensor(a)
    return _make(a.data.swapaxes(ax1, ax2), (a,), lambda g: (g.swapaxes(ax1, ax2),))


# ---------------------------------------------------------------------------
# nonlinearities and normalization
# ---------------------------------------------------------------------------

def relu(a) -> Tensor:
    a = as_tensor(a)
    out = np.maximum(a.data, 0)
    # out > 0 exactly where a > 0 (NaN in neither), so `a` need not be kept
    return _make(out, (a,), lambda g: (g * (out > 0),))


def sigmoid(a) -> Tensor:
    a = as_tensor(a)
    out = 1.0 / (1.0 + np.exp(-a.data))
    return _make(out, (a,), lambda g: (g * out * (1.0 - out),))


def tanh(a) -> Tensor:
    a = as_tensor(a)
    out = np.tanh(a.data)
    return _make(out, (a,), lambda g: (g * (1.0 - out * out),))


# OpenBLAS runs a float32 GEMM with M * N * K at or below this on its
# small-matrix kernels, without packing its operands: on a 2-core AVX-512 Xeon
# `[5, 256] @ [256, n]` takes 30-45 µs at n = 781 (M * N * K = 999 680) and
# 55-75 µs at n = 782
_BLAS_SMALL_MNK = 1_000_000
# The one recurrent width W (the inner dimension K of `h @ wh`) at which
# `lstm` may split that product into column halves, because a test checks
# there that the halves give one GEMM's bits (tests/test_tensor.py). At
# W = 512 a batch of one would also qualify by size, but there the halves took
# 82.7 against 72.8 µs for one GEMM on that Xeon, and no test covers K = 384,
# 512 or 1024.
_HALVES_WIDTH = 256


def _column_halves(b: int, w: int) -> bool:
    """Whether `lstm` runs a batch of b rows' `h @ wh` ([W, 4W]) as two
    `[W, 2W]` column halves: at W = `_HALVES_WIDTH`, where one product is
    above OpenBLAS's small-matrix bound and a half is not."""
    return w == _HALVES_WIDTH and b * w * 4 * w > _BLAS_SMALL_MNK >= b * w * 2 * w


def lstm(x_gates, wh, last) -> Tensor:
    """One LSTM layer's recurrence; returns each row's hidden state at its step `last`.

    `x_gates` [B, T, 4W] holds the input side of every step's gates, in the
    order i, f, g, o; `wh` [W, 4W] is the recurrent weight and `last` an int
    array [B]. From zero state, step t adds `h @ wh` to its gates, then sets
    `c = f*c + i*g` and `h = o*tanh(c)`, with the formulas of `sigmoid` and
    `tanh`. It is one node: backward walks the steps in reverse and forms
    the `wh` gradient as one GEMM over all of them. A row's steps after its
    `last` get no gradient.

    Each step writes its gates, cell, `tanh(c)` and `h` into buffers made
    once (a whole sequence of them when backward will read them), with the
    ufuncs of the expressions above in the same order. At W = 256, when
    `b * W * 4W` is above `_BLAS_SMALL_MNK` and `b * W * 2W` is not (b from
    4 to 7, the beam's fanned rows, never a training batch), `h @ wh` runs
    as two `[W, 2W]` column halves, each on OpenBLAS's small-matrix kernel
    rather than its packed one (`_column_halves`). Every column is still one
    dot product over K = W; at K = W = 256 the halves give the bits of the
    one GEMM (checked for b = 4 to 7 at 1 and 2 BLAS threads). At other
    widths no test checks that, and at W = 512 they are slower, so any other
    width runs one GEMM.
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
    dtype = xg.dtype
    hs = np.zeros((t1 + 1, b, w), dtype=dtype)  # hs[t + 1] is h after step t
    # backward reads every step's gates (after their nonlinearity), c and
    # tanh(c), and cs[t + 1] is c after step t; without it each step rewrites
    # one step's buffers and updates c in place
    n = t1 if record else 1
    acts = np.empty((n, b, 4 * w), dtype=dtype)
    cs = np.zeros((n + record, b, w), dtype=dtype)
    tanh_cs = np.empty((n, b, w), dtype=dtype)
    pre = np.empty((b, 4 * w), dtype=dtype)
    ig = np.empty((b, w), dtype=dtype)
    cuts = (slice(None, 2 * w), slice(2 * w, None)) if _column_halves(b, w) else (slice(None),)
    products = [(whd[:, cut], pre[:, cut]) for cut in cuts]
    # exp(-x) overflows to inf for very negative x, and 1 / (1 + inf) is sigmoid's limit 0
    with np.errstate(over="ignore"):
        for t in range(t1):
            s = t if record else 0
            gates, tanh_c, c_prev, c = acts[s], tanh_cs[s], cs[s], cs[s + record]
            for wcols, out in products:
                np.matmul(hs[t], wcols, out=out)
            pre += xg[:, t, :]
            # i, f and o; the g block takes its tanh
            np.negative(pre, out=gates)
            np.exp(gates, out=gates)
            np.add(1.0, gates, out=gates)
            np.divide(1.0, gates, out=gates)
            g = np.tanh(pre[:, 2 * w : 3 * w], out=gates[:, 2 * w : 3 * w])
            np.multiply(gates[:, w : 2 * w], c_prev, out=c)
            np.multiply(gates[:, :w], g, out=ig)
            c += ig
            np.tanh(c, out=tanh_c)
            np.multiply(gates[:, 3 * w :], tanh_c, out=hs[t + 1])
    rows = np.arange(b)
    out = hs[last + 1, rows]
    rx, rw = x_gates.requires_grad, wh.requires_grad
    if not rw:
        hs = None

    def backward(grad):
        dgates = np.empty((b, t1, 4 * w), dtype=dtype)
        dh_out = np.zeros((t1, b, w), dtype=dtype)
        dh_out[last, rows] = grad
        dh = dc = np.zeros((b, w), dtype=dtype)
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
        if rw:
            h_prev = hs[:-1].swapaxes(0, 1).reshape(b * t1, w)  # h before each step
            dwh = h_prev.T @ dgates.reshape(b * t1, 4 * w)
        return (dgates if rx else None), dwh

    return _make(out, (x_gates, wh), backward)


def log(a) -> Tensor:
    a = as_tensor(a)
    if np.any(a.data <= 0):
        raise ShapeError("log requires strictly positive inputs")
    return _make(np.log(a.data), (a,), lambda g: (g / a.data,))


def layer_norm(x, gain, bias, eps: float = 1e-5) -> Tensor:
    """Normalize over the last axis, then apply elementwise gain and bias."""
    x, gain, bias = as_tensor(x), as_tensor(gain), as_tensor(bias)
    gd, sg, sb = gain.data, gain.data.shape, bias.data.shape
    n = x.data.shape[-1]
    # np.mean's sum and division without its Python wrapper: a float32 quotient
    # rounds the same computed in float32 as in np.mean's float64
    mu = np.add.reduce(x.data, axis=-1, keepdims=True)
    mu /= n
    xhat = x.data - mu
    out = xhat * xhat
    var = np.add.reduce(out, axis=-1, keepdims=True)
    var /= n
    inv = 1.0 / np.sqrt(var + np.asarray(eps, dtype=x.data.dtype))
    xhat *= inv
    np.multiply(xhat, gain.data, out=out)
    out += bias.data

    def backward(g):
        # inv * (dxhat - mean(dxhat) - xhat * mean(dxhat * xhat)), in that
        # order, in two buffers
        dx = g * gd
        tmp = dx * xhat
        m2 = tmp.mean(axis=-1, keepdims=True)
        dx_mean = dx.mean(axis=-1, keepdims=True)
        np.multiply(xhat, m2, out=tmp)
        dx -= dx_mean
        dx -= tmp
        dx *= inv
        return dx, _unbroadcast(g * xhat, sg), _unbroadcast(g, sb)

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


def dropout(x, p: float, rng: np.random.Generator | None = None) -> Tensor:
    """Inverted dropout, its mask drawn from `rng`; identity without an rng or when p == 0."""
    x = as_tensor(x)
    if rng is None or p <= 0.0:
        return x
    keep = (rng.random(x.data.shape) >= p).astype(x.data.dtype)
    scale = np.asarray(1.0 / (1.0 - p), dtype=x.data.dtype)
    return _make(x.data * keep * scale, (x,), lambda g: (g * keep * scale,))


# ---------------------------------------------------------------------------
# reductions
# ---------------------------------------------------------------------------

def mean(x, axis=None, keepdims: bool = False) -> Tensor:
    x = as_tensor(x)
    out = x.data.mean(axis=axis, keepdims=keepdims)
    shape = x.data.shape
    count = x.data.size if axis is None else shape[axis]

    def backward(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, shape) / count,)

    return _make(out, (x,), backward)


def tsum(x, axis=None, keepdims: bool = False) -> Tensor:
    x = as_tensor(x)
    out = x.data.sum(axis=axis, keepdims=keepdims)
    shape = x.data.shape

    def backward(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, shape).copy(),)

    return _make(out, (x,), backward)


# ---------------------------------------------------------------------------
# composite losses / attention
# ---------------------------------------------------------------------------

def cross_entropy(logits, targets) -> Tensor:
    """Mean negative log-likelihood of `targets` under the rows of `logits`.

    `logits` is [N, C], `targets` an int array [N]. Forward keeps the
    shifted exponentials and their row sums, so backward's softmax is one
    division and `exp` runs once. Backward divides, subtracts and scales in
    place in those exponentials, which nothing else reads, and returns them
    as the gradient.
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
    e = logits.data - logits.data.max(axis=-1, keepdims=True)  # shifted, then exp in place
    picked = e[rows, targets]
    np.exp(e, out=e)
    total = e.sum(axis=-1, keepdims=True)
    picked -= np.log(total[:, 0])
    loss = -picked.sum() / n

    def backward(g):
        np.divide(e, total, out=e)
        e[rows, targets] -= 1.0
        np.multiply(e, g / n, out=e)
        return (e,)

    return _make(np.asarray(loss, dtype=logits.data.dtype), (logits,), backward)


def scaled_dot_product_attention(
    q, k, v, keep, dropout_p: float = 0.0, rng: np.random.Generator | None = None,
) -> Tensor:
    """Attention over the trailing two axes; `keep` masks scores to -inf.

    `keep` must broadcast against [..., Tq, Tk] and leave at least one True
    entry per query row, otherwise the softmax row is undefined. Given an
    `rng` and `dropout_p` > 0 the attention weights go through inverted
    dropout, its mask drawn by one `rng.random` call. One node: forward forms the
    scores in one batched matmul and scales, masks and normalizes them in
    place, with the arithmetic of `matmul`, `mul`, `masked_fill`, `softmax`
    and `dropout`; backward keeps the weights (before and after dropout),
    the dropout mask, and those of q, k and v that a wanted gradient reads.
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
    weights -= np.maximum.reduce(weights, axis=-1, keepdims=True)
    np.exp(weights, out=weights)
    weights /= np.add.reduce(weights, axis=-1, keepdims=True)
    dropped = weights
    if rng is not None and dropout_p > 0.0:
        kept = rng.random(weights.shape) >= dropout_p
        drop_scale = np.asarray(1.0 / (1.0 - dropout_p), dtype=weights.dtype)
        dropped = weights * kept
        dropped *= drop_scale
    out = np.matmul(dropped, vd)
    batch = math.prod(out.shape[:-2])
    _MACS += batch * weights.shape[-2] * weights.shape[-1] * (qd.shape[-1] + vd.shape[-1])
    rq, rk, rv = q.requires_grad, k.requires_grad, v.requires_grad
    # each input is kept only for a gradient that reads it
    qd, kd = (qd if rk else None), (kd if rq else None)
    if not (rq or rk):
        vd = None

    def backward(g):
        gv = np.matmul(dropped.swapaxes(-1, -2), g) if rv else None
        if not (rq or rk):
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
        gq = np.matmul(ds, kd) if rq else None
        gk = np.matmul(qd.swapaxes(-1, -2), ds).swapaxes(-1, -2) if rk else None
        return gq, gk, gv

    return _make(out, (q, k, v), backward)

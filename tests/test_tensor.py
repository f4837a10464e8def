"""Engine primitives: analytic values, gradient checks, masking, determinism."""

import math
import os
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from geoseq import tensor as T
from geoseq.tensor import ShapeError, Tensor

from gradcheck import assert_grads_match

SRC = Path(__file__).resolve().parent.parent / "src"


def test_softmax_uniform():
    out = T.softmax(Tensor([0.0, 0.0])).data
    assert np.allclose(out, [0.5, 0.5], atol=1e-12)


def test_softmax_analytic():
    out = T.softmax(Tensor([math.log(2.0), 0.0])).data
    assert np.allclose(out, [2 / 3, 1 / 3], atol=1e-12)


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(0)
    x32 = rng.normal(size=(50, 17)).astype(np.float32) * 10
    x64 = rng.normal(size=(50, 17)) * 10
    assert np.abs(T.softmax(Tensor(x32)).data.sum(-1) - 1).max() < 1e-6
    assert np.abs(T.softmax(Tensor(x64)).data.sum(-1) - 1).max() < 1e-12


def test_masked_attention_single_position_weight():
    # position 0 under a causal mask attends only to itself
    rng = np.random.default_rng(1)
    scores = Tensor(rng.normal(size=(3, 3)))
    keep = np.tril(np.ones((3, 3), dtype=bool))
    w = T.softmax(T.masked_fill(scores, keep, -np.inf)).data
    assert w[0, 0] == 1.0 and w[0, 1] == 0.0 and w[0, 2] == 0.0


def test_cross_entropy_uniform():
    loss = T.cross_entropy(Tensor(np.zeros((1, 4))), np.array([2]))
    assert abs(float(loss.data) - math.log(4)) < 1e-9


def test_cross_entropy_margin():
    # loss -> 0 as the correct-class margin grows; gap 10 over one
    # competitor is already below 1e-4
    logits = np.array([[10.0, 0.0]])
    loss = T.cross_entropy(Tensor(logits), np.array([0]))
    assert float(loss.data) < 1e-4
    big = np.array([[30.0, 0.0]])
    assert float(T.cross_entropy(Tensor(big), np.array([0])).data) < float(loss.data)


def _cross_entropy_before(logits, targets):
    """The formula `cross_entropy` used before it kept its exponentials:
    value and float64 gradient."""
    rows = np.arange(len(targets))
    shifted = logits - logits.max(axis=-1, keepdims=True)
    logp = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    loss = -(logp[rows, targets] * np.ones(len(targets), dtype=bool)).sum() / len(targets)
    grad = np.exp(logp)
    grad[rows, targets] -= 1.0
    grad *= np.ones((len(targets), 1)) / len(targets)
    return np.asarray(loss, dtype=logits.dtype), grad


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # -3e38 - 3e38 overflows to -inf
@settings(max_examples=120, deadline=None)
@given(
    n=st.integers(1, 6),
    c=st.integers(1, 7),
    magnitude=st.sampled_from([1.0, 30.0, 1e4, 1e30, 3e38]),
    dtype=st.sampled_from([np.float32, np.float64]),
    seed=st.integers(0, 2**31 - 1),
)
def test_cross_entropy_value_is_bitwise_the_old_formula(n, c, magnitude, dtype, seed):
    # very large logits included: the max shift keeps every exponential finite
    rng = np.random.default_rng(seed)
    logits = np.clip(rng.normal(size=(n, c)) * magnitude, -3e38, 3e38).astype(dtype)
    targets = rng.integers(0, c, size=n)
    got = T.cross_entropy(Tensor(logits), targets)
    want, _ = _cross_entropy_before(logits, targets)
    assert got.data.dtype == dtype
    assert got.data.tobytes() == want.tobytes()


@settings(max_examples=80, deadline=None)
@given(n=st.integers(1, 6), c=st.integers(1, 7), magnitude=st.sampled_from([1.0, 10.0, 300.0]),
       seed=st.integers(0, 2**31 - 1))
def test_cross_entropy_gradient_matches_the_old_formula(n, c, magnitude, seed):
    rng = np.random.default_rng(seed)
    logits = Tensor(rng.normal(size=(n, c)) * magnitude, requires_grad=True)
    targets = rng.integers(0, c, size=n)
    T.cross_entropy(logits, targets).backward()
    _, want = _cross_entropy_before(logits.data, targets)
    assert np.abs(logits.grad - want).max() <= 1e-12


def test_cross_entropy_backward_in_place_gives_the_out_of_place_bits():
    # backward divides, subtracts and scales in the forward's exponentials;
    # the float32 gradient is that of the same ops into a fresh buffer
    rng = np.random.default_rng(41)
    n, c = 37, 301
    logits = Tensor((rng.normal(size=(n, c)) * 4).astype(np.float32), requires_grad=True)
    targets = rng.integers(0, c, size=n)
    loss = T.cross_entropy(logits, targets)
    loss.backward()
    e = np.exp(logits.data - logits.data.max(axis=-1, keepdims=True))
    dl = e / e.sum(axis=-1, keepdims=True)
    dl[np.arange(n), targets] -= 1.0
    dl *= np.ones_like(loss.data) / n
    assert logits.grad.dtype == np.float32
    assert np.array_equal(logits.grad, dl)


def test_cross_entropy_rejects_no_rows_and_bad_targets():
    with pytest.raises(ShapeError, match="at least one row"):
        T.cross_entropy(Tensor(np.zeros((0, 3))), np.zeros(0, dtype=np.int64))
    with pytest.raises(ShapeError, match="outside"):
        T.cross_entropy(Tensor(np.zeros((2, 3))), np.array([0, 3]))


def test_backward_square():
    x = Tensor(np.array(3.0), requires_grad=True)
    y = T.mul(x, x)
    y.backward()
    assert x.grad == pytest.approx(6.0)


def test_backward_dead_relu():
    x = Tensor(np.array(1.0), requires_grad=True)
    y = T.relu(T.neg(x))
    y.backward()
    assert x.grad == 0.0


def test_backward_requires_scalar():
    x = Tensor(np.ones(3), requires_grad=True)
    with pytest.raises(ShapeError):
        T.relu(x).backward()


def test_matmul_shape_error_names_shapes():
    with pytest.raises(ShapeError, match=r"matmul"):
        T.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((4, 2))))
    with pytest.raises(ShapeError, match=r"bias needs a 2-D weight"):
        T.matmul(Tensor(np.ones((2, 2, 3))), Tensor(np.ones((2, 3, 4))), Tensor(np.ones(4)))
    with pytest.raises(ShapeError, match=r"bias must be \[4\]"):
        T.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((3, 4))), Tensor(np.ones((2, 4))))


def test_mlp_gradients_match_finite_differences():
    # random 3-layer MLP in float64, every parameter; each bias is a separate
    # `add` node or fused into `matmul`, over a [5, 4] or a [2, 5, 4] input
    for form, x_shape in (("add", (5, 4)), ("fused", (5, 4)), ("fused", (2, 5, 4))):
        rng = np.random.default_rng(3)
        params = {
            "w1": Tensor(rng.normal(size=(4, 8)), requires_grad=True),
            "b1": Tensor(rng.normal(size=(8,)), requires_grad=True),
            "w2": Tensor(rng.normal(size=(8, 8)), requires_grad=True),
            "b2": Tensor(rng.normal(size=(8,)), requires_grad=True),
            "w3": Tensor(rng.normal(size=(8, 3)), requires_grad=True),
            "b3": Tensor(rng.normal(size=(3,)), requires_grad=True),
        }
        x = rng.normal(size=x_shape)
        targets = rng.integers(0, 3, size=x.size // 4)

        def linear(a, i):
            w, b = params[f"w{i}"], params[f"b{i}"]
            return T.add(T.matmul(a, w), b) if form == "add" else T.matmul(a, w, b)

        def loss_fn():
            h1 = T.relu(linear(Tensor(x), 1))
            h2 = T.relu(linear(h1, 2))
            return T.cross_entropy(T.reshape(linear(h2, 3), (-1, 3)), targets)

        assert_grads_match(loss_fn, params)


@pytest.mark.parametrize("seed", range(20))
def test_primitive_gradients_randomized(seed):
    rng = np.random.default_rng(seed)
    x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    y = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    g = Tensor(rng.normal(size=(4,)), requires_grad=True)
    b = Tensor(rng.normal(size=(4,)), requires_grad=True)
    table = Tensor(rng.normal(size=(7, 4)), requires_grad=True)
    ids = rng.integers(0, 7, size=(3, 2))
    w = Tensor(rng.normal(size=(4, 4)), requires_grad=True)
    params = {"x": x, "y": y, "g": g, "b": b, "table": table, "w": w}

    def loss_fn():
        ln = T.layer_norm(x, g, b)
        sm = T.softmax(T.matmul(ln, w))
        mixed = T.concat([sm, T.sigmoid(y)], axis=-1)
        emb = T.embedding_lookup(table, ids)
        pooled = T.mean(emb, axis=1)
        gated = T.mul(T.tanh(pooled), mixed[:, :4])
        positive = T.add(T.mul(gated, gated), 0.1)
        return T.mean(T.log(positive))

    assert_grads_match(loss_fn, params)


@pytest.mark.parametrize("seed", range(20))
def test_structural_primitive_gradients_randomized(seed):
    # the ops the first composite misses: sub/neg, axis moves, masking,
    # train-mode dropout, full reductions
    rng = np.random.default_rng(100 + seed)
    a = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
    b = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    keep = rng.random((2, 3, 4)) > 0.3

    def loss_fn():
        d = T.sub(a, b)  # broadcast over the leading axis
        d = T.neg(T.swapaxes(d, 0, 1))
        d = T.reshape(d, (3, 8))
        d = T.masked_fill(d, keep.reshape(3, 8), 0.5)
        d = T.dropout(d, 0.25, rng=np.random.default_rng(7))
        total = T.tsum(T.mul(d, d))
        return T.mean(T.reshape(total, (1, 1)))

    assert_grads_match(loss_fn, {"a": a, "b": b})


def _attention_composed(q, k, v, keep, dropout_p=0.0, rng=None):
    """Attention as the graph of seven nodes it was before it became one."""
    dk = q.data.shape[-1]
    scores = T.mul(T.matmul(q, T.swapaxes(k, -1, -2)),
                   1.0 / np.sqrt(np.asarray(dk, dtype=q.data.dtype)))
    scores = T.masked_fill(scores, keep, -np.inf)
    weights = T.softmax(scores)
    weights = T.dropout(weights, dropout_p, rng)
    return T.matmul(weights, v)


def _attention_inputs(seed, shape=(2, 3, 5, 4), dtype=np.float64):
    rng = np.random.default_rng(seed)
    qkv = [Tensor(rng.normal(size=shape).astype(dtype), requires_grad=True) for _ in range(3)]
    b, t = shape[0], shape[-2]
    real = rng.random((b, t)) > 0.3
    real[:, 0] = True  # every query row keeps at least its first key
    keep = np.tril(np.ones((t, t), dtype=bool))[None, None] & real[:, None, None, :]
    return qkv, keep


def test_attention_gradients():
    rng = np.random.default_rng(11)
    q = Tensor(rng.normal(size=(1, 2, 3, 4)), requires_grad=True)
    k = Tensor(rng.normal(size=(1, 2, 3, 4)), requires_grad=True)
    v = Tensor(rng.normal(size=(1, 2, 3, 4)), requires_grad=True)
    keep = np.tril(np.ones((3, 3), dtype=bool))[None, None]

    def loss_fn():
        out = T.scaled_dot_product_attention(q, k, v, keep)
        return T.mean(T.mul(out, out))

    assert_grads_match(loss_fn, {"q": q, "k": k, "v": v})


def test_attention_gradients_with_dropout_and_padding():
    (q, k, v), keep = _attention_inputs(12)

    def loss_fn():
        out = T.scaled_dot_product_attention(
            q, k, v, keep, dropout_p=0.3, rng=np.random.default_rng(4))
        return T.mean(T.mul(out, out))

    assert_grads_match(loss_fn, {"q": q, "k": k, "v": v})


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("dropout_p, with_rng", [(0.0, True), (0.1, False), (0.1, True)])
@pytest.mark.parametrize("seed", range(3))
def test_attention_node_is_the_composed_graph(seed, dropout_p, with_rng, dtype):
    # forward and gradient bits equal, dropout's rng draw included (dropout
    # runs only given an rng); in float64 and at the attention shape of the
    # benchmark's pretrain step
    shape = (4, 8, 28, 32) if dtype == np.float32 else (2, 3, 6, 4)
    qkv, keep = _attention_inputs(seed, shape, dtype)
    g = np.random.default_rng(seed + 50).normal(size=shape).astype(dtype)
    results = []
    for attend in (_attention_composed, T.scaled_dot_product_attention):
        for t in qkv:
            t.grad = None
        rng = np.random.default_rng(seed + 100)
        out = attend(*qkv, keep, dropout_p=dropout_p, rng=rng if with_rng else None)
        T.tsum(T.mul(out, Tensor(g))).backward()
        results.append((out.data, [t.grad for t in qkv], rng.random()))
    (want, want_grads, want_next), (got, got_grads, got_next) = results
    assert got.tobytes() == want.tobytes()
    assert got_next == want_next  # the same draws from the generator
    for a, b in zip(got_grads, want_grads):
        assert np.array_equal(a, b)


def test_attention_is_one_node_and_counts_both_products():
    (q, k, v), keep = _attention_inputs(13, shape=(2, 3, 5, 4))
    with T.count_macs() as box:
        out = T.scaled_dot_product_attention(
            q, k, v, keep, dropout_p=0.2, rng=np.random.default_rng(0))
    assert out._node.parents == (q._node, k._node, v._node)
    assert box.macs == 2 * 3 * (5 * 4 * 5 + 5 * 5 * 4)
    with pytest.raises(ShapeError, match="attention expects"):
        T.scaled_dot_product_attention(q, k, Tensor(np.zeros((2, 3, 4, 4))), keep)


def test_dropout_identity_in_eval():
    x = Tensor(np.ones((4, 4)))
    assert T.dropout(x, 0.5) is x


def test_dropout_scales_in_train():
    rng = np.random.default_rng(5)
    x = Tensor(np.ones((1000,)))
    out = T.dropout(x, 0.25, rng=rng).data
    kept = out != 0
    assert np.allclose(out[kept], 1 / 0.75)
    assert abs(kept.mean() - 0.75) < 0.05


def test_determinism_same_inputs_same_bits():
    rng = np.random.default_rng(6)
    a = rng.normal(size=(16, 16)).astype(np.float32)
    b = rng.normal(size=(16, 16)).astype(np.float32)

    def run():
        return T.softmax(T.layer_norm(
            T.matmul(Tensor(a), Tensor(b)), Tensor(np.ones(16, np.float32)),
            Tensor(np.zeros(16, np.float32)),
        )).data

    assert np.array_equal(run(), run())


def test_no_grad_blocks_recording():
    x = Tensor(np.array(2.0), requires_grad=True)
    with T.no_grad():
        y = T.mul(x, x)
    assert not y.requires_grad


def test_embedding_out_of_range():
    with pytest.raises(ShapeError, match="out of range"):
        T.embedding_lookup(Tensor(np.zeros((3, 2))), np.array([3]))


@settings(max_examples=100, deadline=None)
@given(
    vocab=st.integers(1, 6),
    width=st.integers(1, 4),
    ids_shape=st.lists(st.integers(0, 12), min_size=1, max_size=2),
    dtype=st.sampled_from([np.float32, np.float64]),
    seed=st.integers(0, 2**31 - 1),
)
def test_embedding_backward_sums_repeated_ids_as_add_at(vocab, width, ids_shape, dtype, seed):
    # a few ids over many positions, so most repeat; `reduceat` adds a
    # group's rows in another order than `np.add.at`, so the sums agree to
    # the rounding of summing that many terms, not bit for bit
    rng = np.random.default_rng(seed)
    table = Tensor(rng.normal(size=(vocab, width)).astype(dtype), requires_grad=True)
    ids = rng.integers(0, vocab, size=ids_shape)
    out = T.embedding_lookup(table, ids)
    g = (rng.normal(size=out.shape) * 10.0 ** rng.integers(-3, 4, size=out.shape)).astype(dtype)
    T.tsum(T.mul(out, Tensor(g))).backward()
    want, magnitude = np.zeros_like(table.data), np.zeros_like(table.data)
    np.add.at(want, ids, g)
    np.add.at(magnitude, ids, np.abs(g))
    assert table.grad.dtype == dtype
    assert np.all(np.abs(table.grad - want) <= ids.size * np.finfo(dtype).eps * magnitude)
    untouched = np.setdiff1d(np.arange(vocab), ids)
    assert not table.grad[untouched].any()


def test_mac_counter_counts_matmul_work():
    with T.count_macs() as box:
        T.matmul(Tensor(np.zeros((2, 3, 4))), Tensor(np.zeros((4, 5))))
    assert box.macs == 2 * 3 * 4 * 5
    # the folded path counts rows * k * n; the batched path batch * m * k * n;
    # backward counts nothing
    x = Tensor(np.ones((2, 3, 5, 4)), requires_grad=True)
    with T.count_macs() as box:
        out = T.matmul(T.matmul(x, Tensor(np.ones((4, 6)))), Tensor(np.ones((2, 3, 6, 7))))
        T.tsum(out).backward()
    assert box.macs == 2 * 3 * 5 * 4 * 6 + 2 * 3 * 5 * 6 * 7
    # a fused bias is not matmul work
    with T.count_macs() as box:
        T.matmul(Tensor(np.zeros((2, 3, 4))), Tensor(np.zeros((4, 5))), Tensor(np.zeros(5)))
    assert box.macs == 2 * 3 * 4 * 5


def test_folded_matmul_gradients():
    # an activation of 2 or more leading axes times a weight runs as one 2-D
    # GEMM; the activation may be a non-contiguous view
    rng = np.random.default_rng(12)
    x3 = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
    x4 = Tensor(rng.normal(size=(2, 5, 3, 4)), requires_grad=True)
    w = Tensor(rng.normal(size=(4, 5)), requires_grad=True)
    assert not T.swapaxes(x4, 1, 2).data.flags.c_contiguous

    def loss_fn():
        a = T.matmul(x3, w)
        b = T.matmul(T.swapaxes(x4, 1, 2), w)  # [2, 3, 5, 4]
        return T.add(T.mean(T.mul(a, a)), T.mean(T.tanh(b)))

    assert_grads_match(loss_fn, {"x3": x3, "x4": x4, "w": w})


def test_batched_matmul_gradients():
    # both operands batched (attention's 4-D @ 4-D), one of them broadcast
    rng = np.random.default_rng(13)
    a = Tensor(rng.normal(size=(2, 3, 4, 5)), requires_grad=True)
    b = Tensor(rng.normal(size=(2, 3, 5, 2)), requires_grad=True)
    c = Tensor(rng.normal(size=(1, 3, 2, 3)), requires_grad=True)

    def loss_fn():
        out = T.matmul(T.matmul(a, b), c)
        return T.mean(T.mul(out, out))

    assert_grads_match(loss_fn, {"a": a, "b": b, "c": c})


def test_folded_matmul_matches_numpy():
    rng = np.random.default_rng(14)
    x = rng.normal(size=(3, 2, 7, 6))
    w = rng.normal(size=(6, 4))
    assert np.allclose(T.matmul(Tensor(x), Tensor(w)).data, np.matmul(x, w), rtol=1e-12, atol=0)


def test_gradient_of_one_tensor_through_both_operands():
    x = Tensor(np.array([1.5, -2.0, 3.25]), requires_grad=True)
    c = np.array([0.5, 3.0, -1.0])
    y = T.add(x, x)
    T.tsum(T.mul(y, c)).backward()
    assert np.array_equal(x.grad, 2 * c)
    assert np.array_equal(y.grad, c)  # add hands one array to both parents

    x = Tensor(np.array([1.5, -2.0, 3.25]), requires_grad=True)
    T.tsum(T.mul(T.mul(x, x), c)).backward()
    assert np.array_equal(x.grad, 2 * c * x.data)


def test_leaf_read_by_two_ops_sums_both_gradients():
    rng = np.random.default_rng(15)
    x = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
    c1, c2 = rng.normal(size=(6,)), rng.normal(size=(2, 3))
    # reshape's backward returns a view of r.grad, which becomes x's first
    # gradient; adding the other term's must leave r.grad as it was
    r = T.reshape(x, (6,))
    T.add(T.tsum(T.mul(r, c1)), T.tsum(T.mul(x, c2))).backward()
    assert np.array_equal(x.grad, c1.reshape(2, 3) + c2)
    assert np.array_equal(r.grad, c1)


def test_fused_bias_matches_separate_add_bit_for_bit():
    rng = np.random.default_rng(17)
    x, w, b, c = (rng.normal(size=shape).astype(np.float32)
                  for shape in ((2, 5, 4), (4, 3), (3,), (2, 5, 3)))
    results = []
    for fused in (False, True):
        xt, wt, bt = (Tensor(v.copy(), requires_grad=True) for v in (x, w, b))
        out = T.matmul(xt, wt, bt) if fused else T.add(T.matmul(xt, wt), bt)
        T.tsum(T.mul(T.tanh(out), c)).backward()
        results.append([out.data, xt.grad, wt.grad, bt.grad])
    for unfused, fused in zip(*results):
        assert unfused.tobytes() == fused.tobytes()


def _op(parents, backward):
    """A node with a hand-written backward, for the engine's summing rule."""
    return T._make(sum(p.data for p in parents), parents, backward)


@pytest.mark.parametrize("op_first", [True, False])
def test_read_only_first_gradient_sums_with_the_next(op_first):
    # a 0-d `mean` hands back a numpy scalar and a broadcast is a read-only
    # view; either may be a leaf's first gradient, kept as it is, and the sum
    # with the next one must still hold (it is made out of place)
    x = Tensor(np.array(1.5), requires_grad=True)
    terms = [T.mean(x), T.mul(x, x)]
    T.add(*(terms if op_first else terms[::-1])).backward()
    assert isinstance(x.grad, np.ndarray) and x.grad == 1.0 + 2 * 1.5

    x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    c = np.array([[1.0, -2.0, 0.5], [3.0, 0.0, -1.0]])
    spread = _op((x,), lambda g: (np.broadcast_to(g[0, 0], x.data.shape),))
    terms = [T.tsum(spread), T.tsum(T.mul(x, c))]
    T.add(*(terms if op_first else terms[::-1])).backward()
    assert np.array_equal(x.grad, 1.0 + c)


@pytest.mark.parametrize("op_first", [True, False])
def test_one_array_given_to_two_parents_sums_apart(op_first):
    a = Tensor(np.ones(3), requires_grad=True)
    b = Tensor(np.ones(3), requires_grad=True)
    c = np.array([2.0, -1.0, 4.0])
    # one array is the first gradient of both; summing into a's must leave b's
    both = _op((a, b), lambda g: (g * 1.0,) * 2)
    terms = [T.tsum(both), T.tsum(T.mul(a, c))]
    T.add(*(terms if op_first else terms[::-1])).backward()
    assert np.array_equal(a.grad, 1.0 + c)
    assert np.array_equal(b.grad, np.ones(3))


def test_first_gradient_becomes_grad_uncopied():
    # a read-only broadcast and a view of the node's own gradient are kept as
    # the closure returned them
    x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    given = []

    def spread(g):
        given.append(np.broadcast_to(g[0, 0], x.data.shape))
        return (given[-1],)

    T.tsum(_op((x,), spread)).backward()
    assert np.shares_memory(x.grad, given[0]) and not x.grad.flags.writeable

    x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    held = T.reshape(x, (6,))
    T.tsum(T.mul(held, np.arange(6.0))).backward()
    assert np.shares_memory(x.grad, held.grad)
    assert np.array_equal(x.grad, np.arange(6.0).reshape(2, 3))


def test_grad_keeps_the_tensor_dtype_when_a_closure_returns_another():
    x = Tensor(np.array([1.0, -2.0, 3.0], dtype=np.float32), requires_grad=True)
    wide = [_op((x,), lambda g: (g.astype(np.float64) * 0.5,)) for _ in range(2)]
    T.add(T.tsum(wide[0]), T.tsum(wide[1])).backward()  # a first and a later gradient
    assert x.grad.dtype == np.float32
    assert np.array_equal(x.grad, np.ones(3, dtype=np.float32))

    y = Tensor(np.array([1.0, -2.0], dtype=np.float32), requires_grad=True)
    T.tsum(_op((y,), lambda g: (g.astype(np.float64),))).backward()  # the only one
    assert y.grad.dtype == np.float32


def test_backward_frees_a_node_once_its_gradient_has_moved_on():
    # whether a matmul's and a relu's outputs, which the caller no longer
    # holds, are alive when backward reaches the node that feeds them
    rng = np.random.default_rng(18)
    x = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
    w = Tensor(rng.normal(size=(3, 5)), requires_grad=True)
    c = rng.normal(size=(4, 5))
    alive = []

    def probe_backward(g):
        alive.extend(ref() is not None for ref in refs)
        return (g,)

    h = T.matmul(_op((x,), probe_backward), w)
    r = T.relu(h)
    held = T.mul(r, c)
    refs = [weakref.ref(h.data), weakref.ref(r.data)]  # Tensor takes no weakref
    del h, r
    T.tsum(held).backward()
    assert alive == [False, False]
    assert np.array_equal(held.grad, np.ones_like(held.data))  # the caller holds it
    assert np.allclose(x.grad, ((x.data @ w.data > 0) * c) @ w.data.T, rtol=1e-12)


def _lstm_composed(x_gates, wh, last):
    """The recurrence as per-step graph nodes: the reference `T.lstm` must equal."""
    b, t1, w4 = x_gates.data.shape
    w = w4 // 4
    h_t = c_t = Tensor(np.zeros((b, w), dtype=x_gates.data.dtype))
    states = []
    for t in range(t1):
        gates = T.add(x_gates[:, t, :], T.matmul(h_t, wh))
        i_g = T.sigmoid(gates[:, 0 * w : 1 * w])
        f_g = T.sigmoid(gates[:, 1 * w : 2 * w])
        g_g = T.tanh(gates[:, 2 * w : 3 * w])
        o_g = T.sigmoid(gates[:, 3 * w : 4 * w])
        c_t = T.add(T.mul(f_g, c_t), T.mul(i_g, g_g))
        h_t = T.mul(o_g, T.tanh(c_t))
        states.append(h_t)
    # row t * b + i is sample i's state after step t
    return T.concat(states, axis=0)[np.asarray(last) * b + np.arange(b)]


def _lstm_inputs(seed, b, t1, w, dtype):
    rng = np.random.default_rng(seed)
    x = Tensor(rng.normal(size=(b, t1, 4 * w)).astype(dtype), requires_grad=True)
    wh = Tensor((0.5 * rng.normal(size=(w, 4 * w))).astype(dtype), requires_grad=True)
    return x, wh, rng.integers(0, t1, size=b)


def test_lstm_gradcheck_rows_of_different_length():
    x, wh, _ = _lstm_inputs(30, 3, 4, 2, np.float64)
    last = np.array([3, 0, 2])
    c = np.random.default_rng(31).normal(size=(3, 2))

    def loss_fn():
        return T.tsum(T.mul(T.lstm(x, wh, last), c))

    assert_grads_match(loss_fn, {"x_gates": x, "wh": wh})
    # a row's steps after its `last` are not read, so they get no gradient
    assert not x.grad[1, 1:].any() and not x.grad[2, 3:].any()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the composed sigmoid's exp overflows
@pytest.mark.parametrize("b, t1, w, scale", [
    (1, 30, 256, 1.0), (5, 7, 8, 1.0), (32, 27, 32, 1.0), (4, 6, 8, 60.0),
    # the beam's fanned rows at the default width: `h @ wh` runs as two column
    # halves, against the composed graph's one GEMM per step
    (5, 22, 256, 1.0),
    (32, 27, 256, 1.0),  # a training batch at the default width: one GEMM, every step kept
])
def test_lstm_forward_bitwise_equals_composed_graph(b, t1, w, scale):
    x, wh, last = _lstm_inputs(b + t1, b, t1, w, np.float32)
    x.data *= np.float32(scale)  # at 60, some gates saturate to exactly 0 and 1
    got = T.lstm(x, wh, last)
    assert got.data.tobytes() == _lstm_composed(x, wh, last).data.tobytes()
    with T.no_grad():
        assert T.lstm(x, wh, last).data.tobytes() == got.data.tobytes()


# In a fresh process, so that OpenBLAS reads its thread count: for b = 4 to 7
# at W = 256 the two [W, 2W] halves of `h @ wh` give one GEMM's bits, as raw
# products and inside `T.lstm` (a bound of 0 makes it run the one GEMM). At
# W = 512, b = 1 and W = 384, b = 2 the sizes alone would split, but no test
# checks the bits at K = 512 or 384, so `T.lstm` runs one GEMM there.
_LSTM_HALVES_CHECK = """
import numpy as np
from geoseq import tensor as T
for b, w in ((1, 512), (2, 384)):
    assert b * w * 4 * w > T._BLAS_SMALL_MNK >= b * w * 2 * w
    assert not T._column_halves(b, w), (b, w)
assert [b for b in range(1, 64) if T._column_halves(b, 256)] == [4, 5, 6, 7]
w = 256
rng = np.random.default_rng(7)
wh = (0.5 * rng.normal(size=(w, 4 * w))).astype(np.float32)
for b in range(4, 8):
    assert T._column_halves(b, w)
    h = np.tanh(rng.normal(size=(b, w))).astype(np.float32)
    halves = np.concatenate([h @ wh[:, : 2 * w], h @ wh[:, 2 * w :]], axis=1)
    assert halves.tobytes() == (h @ wh).tobytes(), b
    x = rng.normal(size=(b, 9, 4 * w)).astype(np.float32)
    last = rng.integers(0, 9, size=b)
    with T.no_grad():
        split = T.lstm(x, wh, last).data
        T._BLAS_SMALL_MNK = 0
        one = T.lstm(x, wh, last).data
        T._BLAS_SMALL_MNK = 1_000_000
    assert split.tobytes() == one.tobytes(), b
"""


@pytest.mark.parametrize("threads", ["1", "2"])
def test_lstm_column_halves_give_one_gemms_bits(threads):
    env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
           "PYTHONPATH": os.pathsep.join([str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])])}
    proc = subprocess.run([sys.executable, "-c", _LSTM_HALVES_CHECK], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr[-2000:]


@pytest.mark.parametrize("seed", range(3))
def test_lstm_gradients_match_composed_graph(seed):
    x, wh, last = _lstm_inputs(40 + seed, 4, 6, 5, np.float64)
    c = np.random.default_rng(seed).normal(size=(4, 5))
    grads = []
    for op in (T.lstm, _lstm_composed):
        x.grad = wh.grad = None
        T.tsum(T.mul(op(x, wh, last), c)).backward()
        grads.append((x.grad, wh.grad))
    for got, ref in zip(*grads):
        np.testing.assert_allclose(got, ref, rtol=1e-10, atol=1e-14)


def test_lstm_counts_the_macs_of_its_steps():
    x, wh, last = _lstm_inputs(50, 3, 5, 4, np.float64)
    counts = []
    for op in (T.lstm, _lstm_composed):
        with T.count_macs() as box:
            op(x, wh, last)
        counts.append(box.macs)
    assert counts[0] == counts[1] == 5 * 3 * 4 * 16


@pytest.mark.parametrize("args", [
    ((2, 3, 8), (3, 8), [0, 1]),   # wh not [W, 4W]
    ((2, 3, 12), (2, 8), [0, 1]),  # gates not 4W wide
    ((2, 3, 8), (2, 8), [0, 3]),   # a step past the end
    ((2, 3, 8), (2, 8), [0]),      # one `last` per row
])
def test_lstm_rejects_bad_shapes(args):
    xs, whs, last = args
    with pytest.raises(ShapeError):
        T.lstm(Tensor(np.zeros(xs)), Tensor(np.zeros(whs)), np.array(last))


@settings(max_examples=80, deadline=None)
@given(
    rank=st.sampled_from([2, 3]),
    per_sequence=st.booleans(),
    with_bias=st.booleans(),
    dims=st.tuples(*[st.integers(1, 5)] * 5),
    seed=st.integers(0, 2**16),
)
def test_concat_matmul_equals_matmul_of_the_concatenation(
    rank, per_sequence, with_bias, dims, seed
):
    b, t1, k, v, n = dims
    per_sequence = per_sequence and rank == 3  # a [B, V] one-hot shared by every step
    lead = (b, t1) if rank == 3 else (b,)
    rng = np.random.default_rng(seed)
    hot = np.eye(v)[rng.integers(0, v, size=lead[:1] if per_sequence else lead)]
    wide = np.broadcast_to(hot[:, None, :], lead + (v,)) if per_sequence else hot
    a, w, bias, c = (rng.normal(size=s) for s in (lead + (k,), (k + v, n), (n,), lead + (n,)))
    results = []
    for fused in (True, False):
        at, wt, bt = (Tensor(x.copy(), requires_grad=True) for x in (a, w, bias))
        bt = bt if with_bias else None
        if fused:
            out = T.matmul(at, wt, bt, extra=hot)
        else:
            out = T.matmul(T.concat([at, Tensor(wide)]), wt, bt)
        T.tsum(T.mul(out, c)).backward()
        results.append([out.data, at.grad, wt.grad] + ([bt.grad] if with_bias else []))
    for got, ref in zip(*results):
        np.testing.assert_allclose(got, ref, rtol=1e-12, atol=1e-12)


def test_concat_matmul_counts_both_gemms_and_checks_shapes():
    a, w = Tensor(np.zeros((2, 3, 4))), Tensor(np.zeros((4 + 5, 6)))
    with T.count_macs() as box:
        T.matmul(a, w, extra=np.zeros((2, 5)))  # per sequence
        T.matmul(a, w, extra=np.zeros((2, 3, 5)))  # per position
    assert box.macs == (2 * 3 * 4 + 2 * 5) * 6 + (2 * 3 * 4 + 2 * 3 * 5) * 6
    for extra, weight in ((np.zeros((3, 5)), w), (np.zeros((2, 3, 6)), w),
                          (np.zeros((2, 5)), Tensor(np.zeros((4, 6))))):
        with pytest.raises(ShapeError):
            T.matmul(a, weight, extra=extra)


def test_concat_matmul_gradcheck_with_all_zero_columns():
    # columns 1 and 3 of `extra` are zero in every row, and an all-zero
    # `extra` multiplies no column at all; float64 gradients either way
    rng = np.random.default_rng(21)
    a, w, bias = (Tensor(rng.normal(size=s), requires_grad=True)
                  for s in ((2, 3, 4), (4 + 5, 3), (3,)))
    extra = rng.normal(size=(2, 3, 5))
    extra[..., [1, 3]] = 0.0
    c = rng.normal(size=(2, 3, 3))
    for e in (extra, extra[:, 0], np.zeros_like(extra)):
        fn = lambda: T.tsum(T.mul(T.matmul(a, w, bias, extra=e), c))
        assert_grads_match(fn, {"a": a, "w": w, "bias": bias})
        for p in (a, w, bias):
            p.grad = None
        fn().backward()
        unused = 4 + np.flatnonzero(~e.reshape(-1, 5).any(axis=0))
        assert not w.grad[unused].any()
        for p in (a, w, bias):
            p.grad = None


@pytest.mark.parametrize("per_sequence", [False, True])
def test_concat_matmul_fans_one_row_of_a_over_the_rows_of_extra(per_sequence):
    # a [1, k] (or [1, T, k] with a per-sequence `extra`) meets n rows of
    # `extra` as if it were repeated n times; float64 gradients
    rng = np.random.default_rng(23)
    fan, k, v, n = 4, 3, 5, 2
    lead = (1, 3) if per_sequence else (1,)
    a, w, bias = (Tensor(rng.normal(size=s), requires_grad=True)
                  for s in (lead + (k,), (k + v, n), (n,)))
    extra = rng.normal(size=(fan, v))
    extra[:, 1] = 0.0
    c = rng.normal(size=(fan,) + lead[1:] + (n,))
    fn = lambda: T.tsum(T.mul(T.matmul(a, w, bias, extra=extra), c))
    assert_grads_match(fn, {"a": a, "w": w, "bias": bias})
    for p in (a, w, bias):
        p.grad = None
    with T.count_macs() as box:
        loss = fn()
    assert box.macs == (math.prod(lead) * k + fan * v) * n  # `a` runs once
    loss.backward()
    repeated = Tensor(np.repeat(a.data, fan, axis=0), requires_grad=True)
    wr, br = (Tensor(p.data.copy(), requires_grad=True) for p in (w, bias))
    out = T.matmul(repeated, wr, br, extra=extra)
    T.tsum(T.mul(out, c)).backward()
    np.testing.assert_allclose(fn().data, T.tsum(T.mul(out, c)).data, rtol=1e-12)
    np.testing.assert_allclose(a.grad, repeated.grad.sum(axis=0, keepdims=True), rtol=1e-12)
    np.testing.assert_allclose(w.grad, wr.grad, rtol=1e-12, atol=1e-15)
    np.testing.assert_allclose(bias.grad, br.grad, rtol=1e-12)


def test_a_fanned_one_hot_row_has_the_bits_of_its_own_call():
    # what keeps a beam's batched FFN logits bitwise those of one call per candidate
    rng = np.random.default_rng(24)
    k, v, n = 256, 300, 1024
    a = rng.normal(size=(1, k)).astype(np.float32)
    w = (0.02 * rng.normal(size=(k + v, n))).astype(np.float32)
    bias = rng.normal(size=n).astype(np.float32)
    hot = np.eye(v, dtype=np.float32)[[7, 299, 7, 0, 150]]
    out = T.matmul(Tensor(a), Tensor(w), Tensor(bias), extra=hot).data
    assert out.shape == (5, n)
    for i in range(len(hot)):
        one = T.matmul(Tensor(a), Tensor(w), Tensor(bias), extra=hot[i : i + 1]).data
        assert np.array_equal(out[i : i + 1], one)


@pytest.mark.parametrize("rows, k, v, n", [(7, 3, 9, 5), (40, 16, 300, 24), (300, 256, 600, 64)])
def test_one_hot_concat_matmul_forward_is_bitwise_the_full_width_product(rows, k, v, n):
    # skipping the zero columns of a one-hot leaves `a @ w[:k] + hot @ w[k:] + b`
    # bit for bit; the single GEMM of the concatenation accumulates the k
    # range in another order on some shapes, so it only agrees to rounding
    rng = np.random.default_rng(rows)
    a = rng.normal(size=(rows, k)).astype(np.float32)
    w = (0.02 * rng.normal(size=(k + v, n))).astype(np.float32)
    bias = rng.normal(size=n).astype(np.float32)
    hot = np.eye(v, dtype=np.float32)[rng.integers(0, v, size=rows)]
    out = T.matmul(Tensor(a), Tensor(w), Tensor(bias), extra=hot).data
    assert np.array_equal(out, a @ w[:k] + hot @ w[k:] + bias)
    np.testing.assert_allclose(out, np.concatenate([a, hot], -1) @ w + bias, rtol=1e-5, atol=1e-6)


def test_scatter_rows_places_rows_and_gathers_gradients():
    rng = np.random.default_rng(22)
    a = Tensor(rng.normal(size=(3, 2, 2)), requires_grad=True)
    rows = np.array([0, 2, 5])
    out = T.scatter_rows(a, rows, 6)
    assert np.array_equal(out.data[rows], a.data)
    assert not out.data[[1, 3, 4]].any()
    c = rng.normal(size=(6, 2, 2))
    assert_grads_match(lambda: T.tsum(T.mul(T.scatter_rows(a, rows, 6), c)), {"a": a})
    for bad_rows, n in (([0, 2], 6), ([2, 0, 5], 6), ([0, 2, 2], 6), ([-1, 2, 5], 6), ([0, 2, 6], 6)):
        with pytest.raises(ShapeError, match="scatter_rows"):
            T.scatter_rows(a, np.array(bad_rows), n)


def test_embedding_backward_of_distinct_ids_places_each_row_exactly():
    rng = np.random.default_rng(23)
    table = Tensor(rng.normal(size=(9, 3)).astype(np.float32), requires_grad=True)
    ids = np.array([[7, 0], [4, 2]])
    g = rng.normal(size=(2, 2, 3)).astype(np.float32)
    T.tsum(T.mul(T.embedding_lookup(table, ids), Tensor(g))).backward()
    want = np.zeros_like(table.data)
    want[ids] = g
    assert np.array_equal(table.grad, want)

"""Engine primitives: analytic values, gradient checks, masking, determinism."""

import math

import numpy as np
import pytest

from geoseq import tensor as T
from geoseq.tensor import ShapeError, Tensor

from gradcheck import assert_grads_match


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


def test_cross_entropy_ignore_matches_single_row():
    rng = np.random.default_rng(2)
    logits = rng.normal(size=(2, 6))
    single = T.cross_entropy(Tensor(logits[:1]), np.array([4]))
    masked = T.cross_entropy(Tensor(logits), np.array([4, 1]), ignore_id=1)
    assert float(single.data) == pytest.approx(float(masked.data), abs=1e-12)


def test_cross_entropy_all_ignored_raises():
    with pytest.raises(ShapeError):
        T.cross_entropy(Tensor(np.zeros((2, 3))), np.array([1, 1]), ignore_id=1)


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
        d = T.dropout(d, 0.25, rng=np.random.default_rng(7), training=True)
        total = T.tsum(T.mul(d, d))
        return T.mean(T.reshape(total, (1, 1)))

    assert_grads_match(loss_fn, {"a": a, "b": b})


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


def test_dropout_identity_in_eval():
    x = Tensor(np.ones((4, 4)))
    assert T.dropout(x, 0.5, training=False) is x


def test_dropout_scales_in_train():
    rng = np.random.default_rng(5)
    x = Tensor(np.ones((1000,)))
    out = T.dropout(x, 0.25, rng=rng, training=True).data
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
    r = T.reshape(x, (6,))  # its backward returns a view of r.grad
    T.add(T.tsum(T.mul(r, c1)), T.tsum(T.mul(x, c2))).backward()
    assert np.array_equal(x.grad, c1.reshape(2, 3) + c2)
    assert np.array_equal(r.grad, c1)


def test_retained_graph_backward_twice_doubles_leaf_gradients():
    rng = np.random.default_rng(16)
    x = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
    w = Tensor(rng.normal(size=(3, 2)), requires_grad=True)
    loss = T.mean(T.tanh(T.matmul(T.relu(x), w)))
    loss.backward(retain_graph=True)
    once = {"x": x.grad.copy(), "w": w.grad.copy()}
    loss.backward(retain_graph=True)
    assert np.array_equal(x.grad, 2 * once["x"])
    assert np.array_equal(w.grad, 2 * once["w"])


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
    """A node with a hand-written backward, for the engine's copy rule."""
    return T._make(sum(p.data for p in parents), parents, backward)


@pytest.mark.parametrize("op_first", [True, False])
def test_read_only_first_gradient_is_copied_before_accumulating(op_first):
    # a 0-d `mean` hands back a numpy scalar and a broadcast is a read-only
    # view; either may be a leaf's first gradient, and the next one is added in
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
def test_one_array_given_to_two_parents_is_not_shared(op_first):
    a = Tensor(np.ones(3), requires_grad=True)
    b = Tensor(np.ones(3), requires_grad=True)
    c = np.array([2.0, -1.0, 4.0])
    both = _op((a, b), lambda g: (g * 1.0,) * 2)  # one fresh array for both
    terms = [T.tsum(both), T.tsum(T.mul(a, c))]
    T.add(*(terms if op_first else terms[::-1])).backward()
    assert np.array_equal(a.grad, 1.0 + c)
    assert np.array_equal(b.grad, np.ones(3))

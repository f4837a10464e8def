"""Model forward pieces, causality, chaining, training loop, checkpoints."""

import json
import math
import struct
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from geoseq import tensor as T
from geoseq.model import (
    CheckpointError,
    ModelConfig,
    ModelState,
    TrainConfig,
    TrainingDiverged,
    Batch,
    decoder_forward,
    embed_sequence,
    fit,
    forward_loss,
    head_forward,
    load_checkpoint,
    load_tensors,
    make_batch,
    positional_encoding,
    prediction_logits,
    pretrain,
    save_checkpoint,
    save_tensors,
    sequence_loss,
    target_rows,
    temporal_encoding,
)
from geoseq.pipeline import Trajectory
from geoseq.tensor import Tensor
from geoseq.vocab import PAD_ID

from checkpoints import list_twice
from gradcheck import assert_grads_match


def micro_config(level_sizes=(6, 7), **kw):
    defaults = dict(hidden=8, layers=1, heads=2, attn_dropout=0.0, max_seq_len=16)
    defaults.update(kw)
    return ModelConfig(level_sizes=list(level_sizes), **defaults)


def random_batch(config, b=2, t1=5, seed=0, dtype=np.int64):
    rng = np.random.default_rng(seed)
    ids = np.zeros((b, t1, config.levels), dtype=dtype)
    for h, size in enumerate(config.level_sizes):
        ids[:, 1:, h] = rng.integers(2, size, size=(b, t1 - 1))
    ts = np.cumsum(rng.integers(30, 90, size=(b, t1)), axis=1).astype(np.float64) + 1e9
    ts[:, 0] = ts[:, 1]
    keep = np.ones((b, t1), dtype=bool)
    return Batch(ids=ids, timestamps=ts, keep=keep)


# -- temporal and positional encodings ----------------------------------------

def test_temporal_zero_params_gives_zeros():
    state = ModelState.init(micro_config(), seed=0)
    state["temporal.w"].data[:] = 0
    state["temporal.b"].data[:] = 0
    out = temporal_encoding(np.array([[1e9, 2e9]]), state)
    assert np.all(out.data == 0)


def test_temporal_unit_time_reduces_to_bias():
    state = ModelState.init(micro_config(), seed=0)
    state["temporal.b"].data[:] = np.linspace(-1, 1, 8, dtype=np.float32)
    out = temporal_encoding(np.array([[1.0]]), state)  # log 1 = 0
    assert np.allclose(out.data[0, 0], np.maximum(state["temporal.b"].data, 0))


def test_temporal_log_scaling():
    state = ModelState.init(micro_config(), seed=0)
    w = state["temporal.w"].data.copy()
    state["temporal.b"].data[:] = 0
    out = temporal_encoding(np.array([[math.e ** 2]]), state)
    assert np.allclose(out.data[0, 0], np.maximum(2.0 * w[0], 0), atol=1e-6)


def test_temporal_rejects_nonpositive():
    state = ModelState.init(micro_config(), seed=0)
    with pytest.raises(ValueError):
        temporal_encoding(np.array([[0.0]]), state)


def test_positional_first_row_alternates():
    pe = positional_encoding(3, 8)
    assert np.allclose(pe[0], [0, 1, 0, 1, 0, 1, 0, 1])


def test_positional_dim0_is_sin_t():
    pe = positional_encoding(4, 8, dtype=np.float64)
    assert pe[1, 0] == pytest.approx(math.sin(1.0))  # 0.841471
    assert pe[2, 0] == pytest.approx(math.sin(2.0))


def test_positional_is_input_independent():
    assert np.array_equal(positional_encoding(7, 16), positional_encoding(7, 16))


# -- embedding ----------------------------------------------------------------

def test_embed_zero_tables_reduces_to_pe_plus_time():
    config = micro_config()
    state = ModelState.init(config, seed=1)
    for h in (1, 2):
        state[f"embed.h{h}"].data[:] = 0
    batch = random_batch(config)
    out = embed_sequence(batch, state).data
    expected = positional_encoding(5, 8)[None] + temporal_encoding(batch.timestamps, state).data
    assert np.allclose(out, expected, atol=1e-7)


def test_embed_single_level_hierarchy():
    config = micro_config(level_sizes=(9,))
    state = ModelState.init(config, seed=2)
    batch = random_batch(config)
    out = embed_sequence(batch, state).data
    manual = (
        state["embed.h1"].data[batch.ids[:, :, 0]]
        + positional_encoding(5, 8)[None]
        + temporal_encoding(batch.timestamps, state).data
    )
    assert np.allclose(out, manual, atol=1e-7)


def test_forward_rejects_sequences_over_the_length_cap():
    config = micro_config(max_seq_len=4)
    state = ModelState.init(config, seed=4)
    embed_sequence(random_batch(config, t1=4), state)  # at the cap is fine
    with pytest.raises(ValueError, match="10 positions exceeds max_seq_len 4"):
        forward_loss(random_batch(config, t1=10), state)


def test_embed_changing_finest_id_shifts_by_table_rows():
    config = micro_config(level_sizes=(5, 6, 7))
    state = ModelState.init(config, seed=3, dtype=np.float64)
    batch = random_batch(config)
    a = embed_sequence(batch, state).data.copy()
    old, new = batch.ids[0, 2, 2], 2 if batch.ids[0, 2, 2] != 2 else 3
    batch.ids[0, 2, 2] = new
    b = embed_sequence(batch, state).data
    delta = b[0, 2] - a[0, 2]
    table = state["embed.h3"].data
    assert np.allclose(delta, table[new] - table[old], atol=1e-12)
    b[0, 2] = a[0, 2]
    assert np.allclose(a, b)  # nothing else moved


# -- decoder ------------------------------------------------------------------

def test_causality_future_perturbations_bit_exact():
    config = ModelConfig(level_sizes=[8, 9], hidden=32, layers=2, heads=4,
                         attn_dropout=0.0, max_seq_len=16)
    state = ModelState.init(config, seed=4)
    batch = random_batch(config, b=2, t1=12, seed=5)
    base = decoder_forward(embed_sequence(batch, state), batch.keep, state).data.copy()
    rng = np.random.default_rng(6)
    for _ in range(10):
        t = int(rng.integers(0, 11))
        mutated = Batch(batch.ids.copy(), batch.timestamps.copy(), batch.keep.copy())
        mutated.ids[:, t + 1 :, 0] = rng.integers(2, 8, size=mutated.ids[:, t + 1 :, 0].shape)
        mutated.timestamps[:, t + 1 :] += rng.integers(1, 1000)
        out = decoder_forward(embed_sequence(mutated, state), mutated.keep, state).data
        assert np.array_equal(base[:, : t + 1], out[:, : t + 1])


def test_zero_layer_stack_is_identity():
    config = micro_config(layers=0)
    state = ModelState.init(config, seed=7)
    batch = random_batch(config)
    x = embed_sequence(batch, state)
    out = decoder_forward(x, batch.keep, state)
    assert np.array_equal(out.data, x.data)


def test_single_position_forward_is_finite_and_deterministic():
    config = micro_config()
    state = ModelState.init(config, seed=8)
    batch = Batch(
        ids=np.zeros((1, 1, 2), dtype=np.int64),
        timestamps=np.array([[1e9]]),
        keep=np.ones((1, 1), dtype=bool),
    )
    run = lambda: decoder_forward(embed_sequence(batch, state), batch.keep, state).data
    first = run()
    assert np.all(np.isfinite(first))
    assert np.array_equal(first, run())


def test_pad_keys_do_not_affect_real_positions():
    config = micro_config()
    state = ModelState.init(config, seed=9)
    batch = random_batch(config, b=1, t1=4)
    out_short = decoder_forward(embed_sequence(batch, state), batch.keep, state).data
    padded = Batch(
        ids=np.concatenate([batch.ids, np.ones((1, 2, 2), dtype=np.int64)], axis=1),
        timestamps=np.concatenate([batch.timestamps, [[7.7, 7.7]]], axis=1),
        keep=np.concatenate([batch.keep, [[False, False]]], axis=1),
    )
    out_padded = decoder_forward(embed_sequence(padded, state), padded.keep, state).data
    assert np.array_equal(out_short, out_padded[:, :4])


# -- prediction heads ---------------------------------------------------------

def test_head_input_widths_follow_chain_law():
    config = ModelConfig(level_sizes=[11, 13, 17], hidden=32, layers=1, heads=2)
    state = ModelState.init(config, seed=10)
    assert state["head.h1.w1"].data.shape == (32, 32)
    assert state["head.h2.w1"].data.shape == (32 + 11, 32)
    assert state["head.h3.w1"].data.shape == (32 + 13, 32)


def test_single_level_has_single_plain_head():
    config = micro_config(level_sizes=(9,))
    state = ModelState.init(config, seed=11)
    assert state["head.h1.w1"].data.shape == (8, 8)
    batch = random_batch(config)
    logits = prediction_logits(decoder_forward(embed_sequence(batch, state), batch.keep, state), state)
    assert len(logits) == 1
    assert logits[0].data.shape == (2, 5, 9)


def test_independent_heads_skip_the_one_hot():
    config = micro_config(head_mode="independent")
    state = ModelState.init(config, seed=12)
    assert state["head.h2.w1"].data.shape == (8, 8)


def test_selector_head_reads_the_chained_one_hot():
    # level-2 head built to copy the one-hot block: its logits must equal the
    # one-hot of whatever level 1 argmaxes to, and follow when that flips
    config = micro_config(level_sizes=(6, 6), hidden=8)
    state = ModelState.init(config, seed=13)
    w1 = np.zeros((8 + 6, 8), dtype=np.float32)
    w1[8:, :6] = np.eye(6, dtype=np.float32)
    state["head.h2.w1"].data[:] = w1
    state["head.h2.b1"].data[:] = 0
    state["head.h2.w2"].data[:] = np.eye(8, dtype=np.float32)[:, :6]
    state["head.h2.b2"].data[:] = 0

    batch = random_batch(config)
    outputs = decoder_forward(embed_sequence(batch, state), batch.keep, state)
    for winner in (3, 5):
        state["head.h1.b2"].data[:] = 0
        state["head.h1.b2"].data[winner] = 100.0  # force the level-1 argmax
        logits = prediction_logits(outputs, state)
        expected = np.zeros(6, dtype=np.float32)
        expected[winner] = 1.0
        assert np.allclose(logits[1].data, expected[None, None, :])


def test_no_gradient_crosses_the_one_hot():
    # head.h1 gradients under the full loss equal those under a level-1-only
    # loss: the only route from level 2 back to head.h1 is the stopped one-hot
    config = micro_config()
    state = ModelState.init(config, seed=14, dtype=np.float64)
    batch = random_batch(config)

    def grads_for(level_1_only):
        for p in state.params.values():
            p.grad = None
        outputs = decoder_forward(embed_sequence(batch, state), batch.keep, state)
        features, targets = target_rows(outputs, batch.ids)
        logits = prediction_logits(features, state)
        if level_1_only:
            loss = sequence_loss(logits[:1], targets[:, :1])
        else:
            loss = sequence_loss(logits, targets)
        loss.backward()
        return {k: state[k].grad.copy() for k in state.params if k.startswith("head.h1.")}

    full = grads_for(level_1_only=False)
    only1 = grads_for(level_1_only=True)
    for name in full:
        assert np.array_equal(full[name], only1[name]), name


@pytest.mark.parametrize("level_sizes, hidden", [((6, 7, 5), 8), ((11, 3400, 102), 256)])
def test_head_with_one_hot_is_bitwise_the_wide_input_at_batch_one(level_sizes, hidden):
    # the comparison a reference beam makes when it feeds the heads
    # `[features || one_hot]` as one wide input; the second case is the
    # pre-training shape of the default vocabulary (a BLAS property at these
    # shapes, not a guarantee at every one)
    config = ModelConfig(level_sizes=list(level_sizes), hidden=hidden, layers=1, heads=2)
    state = ModelState.init(config, seed=15)
    rng = np.random.default_rng(16)
    for level in (2, 3):  # a trained head's bias, added after the one-hot's row
        b1 = state[f"head.h{level}.b1"].data
        b1[:] = rng.normal(0.0, 0.5, size=b1.shape)
    e_last = rng.normal(size=(1, hidden)).astype(np.float32)
    with T.no_grad():
        for level in (2, 3):
            for prev in rng.integers(0, level_sizes[level - 2], size=4):
                hot = np.eye(level_sizes[level - 2], dtype=np.float32)[[prev]]
                got = head_forward(state, level, Tensor(e_last), hot).data
                wide = head_forward(state, level, Tensor(np.concatenate([e_last, hot], axis=1)))
                assert got.tobytes() == wide.data.tobytes(), (level, prev)


# -- loss ---------------------------------------------------------------------

def test_loss_uniform_logits_is_sum_of_log_sizes():
    targets = np.full((3, 2), 2, dtype=np.int64)  # constant valid targets
    logits = [Tensor(np.zeros((3, 5))), Tensor(np.zeros((3, 9)))]
    loss = sequence_loss(logits, targets)
    assert float(loss.data) == pytest.approx(math.log(5) + math.log(9), abs=1e-9)


def test_loss_perfect_logits_is_tiny():
    targets = np.zeros((2, 2), dtype=np.int64)  # targets are class 0 everywhere
    sharp = np.zeros((2, 2))
    sharp[:, 0] = 10.0
    loss = sequence_loss([Tensor(sharp), Tensor(sharp.copy())], targets)
    assert float(loss.data) < 1e-4


def test_loss_duplicated_level_doubles_contribution():
    rng = np.random.default_rng(15)
    logits = rng.normal(size=(6, 6))
    targets1 = rng.integers(2, 6, size=(6, 1))
    single = sequence_loss([Tensor(logits)], targets1)
    targets2 = np.concatenate([targets1, targets1], axis=1)
    double = sequence_loss([Tensor(logits), Tensor(logits.copy())], targets2)
    assert float(double.data) == pytest.approx(2 * float(single.data), rel=1e-12)


def test_loss_ignores_pad_targets():
    ids = np.full((1, 4, 1), 1, dtype=np.int64)  # everything PAD ...
    ids[0, 0, 0] = 0
    ids[0, 1, 0] = 3  # ... except one real transition
    features, targets = target_rows(Tensor(np.arange(4.0).reshape(1, 4, 1)), ids)
    assert features.data.tolist() == [[0.0]] and targets.tolist() == [[3]]
    loss = sequence_loss([Tensor(np.zeros((1, 5)))], targets)
    assert float(loss.data) == pytest.approx(math.log(5), abs=1e-9)


def test_loss_all_pad_batch_raises():
    ids = np.full((1, 3, 1), 1, dtype=np.int64)
    with pytest.raises(T.ShapeError):
        target_rows(Tensor(np.zeros((1, 3, 5))), ids)
    with pytest.raises(T.ShapeError):
        sequence_loss([Tensor(np.zeros((0, 5)))], ids[0, :0])


def _padded_pair(config, seed):
    """A batch of two sequences, the second padded; and the second alone."""
    rng = np.random.default_rng(seed)
    trajs = []
    for n in (6, 3):
        ids = [(0,) * config.levels] + [
            tuple(int(rng.integers(2, size)) for size in config.level_sizes) for _ in range(n)
        ]
        ts = [int(1e9)] + [int(1e9) + 60 * j for j in range(n)]
        trajs.append(Trajectory("u", ids, ts, None))
    return make_batch(trajs, config.levels), make_batch(trajs[1:], config.levels)


def _masked_all_rows_loss(batch, state):
    """The loss as it was defined before the heads ran at target rows only:
    every level's head at every position, PAD targets masked out of each
    level's mean."""
    with T.no_grad():
        outputs = decoder_forward(embed_sequence(batch, state), batch.keep, state)
        logits = prediction_logits(outputs, state)
    total = 0.0
    for h, lg in enumerate(logits):
        z = lg.data[:, :-1]
        logp = z - z.max(-1, keepdims=True)
        logp = logp - np.log(np.exp(logp).sum(-1, keepdims=True))
        targets = batch.ids[:, 1:, h]
        valid = targets != PAD_ID
        picked = np.take_along_axis(logp, np.where(valid, targets, 0)[..., None], -1)[..., 0]
        total += -(picked * valid).sum() / valid.sum()
    return total


@pytest.mark.parametrize("level_sizes", [(6, 7), (5, 9, 4)])
@pytest.mark.parametrize("seed", range(3))
def test_forward_loss_equals_the_masked_all_rows_loss(level_sizes, seed):
    config = micro_config(level_sizes)
    state = ModelState.init(config, seed=seed, dtype=np.float64)
    for b in _padded_pair(config, seed):
        got = float(forward_loss(b, state).data)
        assert abs(got - _masked_all_rows_loss(b, state)) <= 1e-12


def test_forward_loss_excludes_pad_rows():
    # the padded sequence's PAD targets add nothing: the loss of the shorter
    # sequence alone equals the loss of the pair with the longer one's
    # contribution taken out level by level
    config = micro_config()
    state = ModelState.init(config, seed=4, dtype=np.float64)
    pair, short = _padded_pair(config, 4)
    with T.no_grad():
        outputs = decoder_forward(embed_sequence(pair, state), pair.keep, state)
        features, targets = target_rows(outputs, pair.ids)
    assert len(targets) == 6 + 3  # each sequence's transitions, no PAD and no last position
    alone = float(forward_loss(short, state).data)
    with T.no_grad():
        logits = prediction_logits(features, state)
        tail = sequence_loss([lg[6:] for lg in logits], targets[6:])
    assert float(tail.data) == pytest.approx(alone, abs=1e-12)


def test_forward_loss_all_pad_batch_raises():
    config = micro_config()
    state = ModelState.init(config, seed=0)
    batch = random_batch(config, b=2, t1=3)
    batch.ids[:, 1:, :] = PAD_ID
    batch.keep[:, 1:] = False
    with pytest.raises(T.ShapeError, match="no position of the batch has a next location"):
        forward_loss(batch, state)


def test_forward_loss_runs_the_heads_at_target_rows_only():
    config = micro_config()
    state = ModelState.init(config, seed=0)
    pair, _ = _padded_pair(config, 1)
    with T.no_grad(), T.count_macs() as backbone:
        decoder_forward(embed_sequence(pair, state), pair.keep, state)
    with T.no_grad(), T.count_macs() as step:
        forward_loss(pair, state)
    per_row = sum(config.head_input_width(h) * config.hidden + config.hidden * size
                  for h, size in enumerate(config.level_sizes, start=1))
    assert step.macs - backbone.macs == (6 + 3) * per_row  # not 2 * 7 rows


# -- full-model gradients and training ----------------------------------------

def test_full_model_gradients_match_finite_differences():
    config = micro_config()  # hidden 8, 1 layer, 2 heads, 2 levels
    state = ModelState.init(config, seed=16, dtype=np.float64)
    batch = random_batch(config, b=2, t1=4, seed=17)

    def loss_fn():
        return forward_loss(batch, state)

    assert_grads_match(loss_fn, state.params, rtol=1e-4, atol=1e-7)


def _walk_corpus(n=8, length=6):
    trajs = []
    for i in range(n):
        tuples = [((i + j) // 3 + 2, (i + j) % 3 + 2) for j in range(length)]
        ts = [1e9 + i * 1e4 + 60 * j for j in range(length)]
        trajs.append(Trajectory(f"u{i}", [(0, 0)] + tuples, [int(ts[0])] + [int(t) for t in ts], None))
    return trajs


@pytest.mark.parametrize("make, key", [
    (lambda: ModelConfig([5], heads=0), "'heads'"),
    (lambda: ModelConfig([5], hidden=0), "'hidden'"),
    (lambda: ModelConfig([5], attn_dropout=1.0), "'attn_dropout'"),
    (lambda: TrainConfig(batch_size=0), "'batch_size'"),
    (lambda: TrainConfig(epochs=0), "'epochs'"),
    (lambda: TrainConfig(betas=(0.9,)), "'betas'"),
], ids=["heads_0", "hidden_0", "attn_dropout_1", "batch_size_0", "epochs_0", "betas_one"])
def test_configs_reject_out_of_range_fields(make, key):
    with pytest.raises(ValueError, match=key):
        make()


def test_pretrain_same_seed_same_curve():
    trajs = _walk_corpus()
    sizes = [max(t[0] for tr in trajs for t in tr.ids) + 1,
             max(t[1] for tr in trajs for t in tr.ids) + 1]
    config = ModelConfig(level_sizes=sizes, hidden=16, layers=1, heads=2,
                         attn_dropout=0.1, max_seq_len=16)
    train = TrainConfig(epochs=3, batch_size=4, lr=1e-3, warmup_steps=0, seed=21)
    _, curve_a = pretrain(trajs, config, train)
    _, curve_b = pretrain(trajs, config, train)
    assert curve_a == curve_b


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_pretrain_divergence_is_reported():
    trajs = _walk_corpus()
    sizes = [8, 8]
    config = micro_config(level_sizes=sizes)
    train = TrainConfig(epochs=5, batch_size=8, lr=1e15, warmup_steps=0, seed=22)
    with pytest.raises(TrainingDiverged):
        pretrain(trajs, config, train)


def test_fit_visits_every_item_once_per_epoch_in_a_fresh_order():
    w = Tensor(np.ones(1, dtype=np.float32), requires_grad=True)
    chunks = []

    def loss_fn(chunk, rng):
        chunks.append(list(chunk))
        return T.tsum(T.mul(w, w))

    train = TrainConfig(epochs=3, batch_size=4, warmup_steps=0, seed=0)
    curve = fit({"w": w}, list(range(10)), loss_fn, train)
    assert len(curve) == 3
    assert [len(c) for c in chunks] == [4, 4, 2] * 3
    epochs = [sum(chunks[i : i + 3], []) for i in (0, 3, 6)]
    assert all(sorted(e) == list(range(10)) for e in epochs)
    assert len({tuple(e) for e in epochs}) == 3


def test_fit_stops_on_non_finite_loss_before_stepping():
    w = Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
    calls = []
    before_nan = {}

    def loss_fn(chunk, rng):
        calls.append(chunk)
        if len(calls) == 5:  # three steps per epoch: epoch 1, step 1
            before_nan["w"] = w.data.copy()
            return T.mul(T.tsum(w), Tensor(np.array(np.nan, dtype=np.float32)))
        return T.tsum(T.mul(w, w))

    train = TrainConfig(epochs=3, batch_size=2, lr=1e-1, warmup_steps=0, seed=0)
    with pytest.raises(TrainingDiverged, match="epoch 1, step 1$"):
        fit({"w": w}, list(range(6)), loss_fn, train)
    assert len(calls) == 5
    assert not np.array_equal(before_nan["w"], np.ones(3, dtype=np.float32))
    assert np.array_equal(w.data, before_nan["w"])


def test_fit_clears_gradients_before_each_forward():
    w = Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
    v = Tensor(np.ones(2, dtype=np.float32), requires_grad=True)
    seen = []

    def loss_fn(chunk, rng):
        seen.append([p.grad is None for p in (w, v)])
        return T.add(T.tsum(T.mul(w, w)), T.tsum(T.mul(v, v)))

    train = TrainConfig(epochs=2, batch_size=2, warmup_steps=0, seed=0)
    fit({"w": w, "v": v}, list(range(6)), loss_fn, train)
    assert seen == [[True, True]] * 6


def _graph_nodes(root):
    seen, stack, nodes = set(), [root], []
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            nodes.append(node)
            stack.extend(node._parents)
    return nodes


def test_backward_peaks_at_the_forward_plus_gradients_and_one_activation():
    # backward frees each node once its gradient has moved on, so it never
    # holds the whole graph's gradients on top of its activations
    config = micro_config(level_sizes=(11, 60, 30), hidden=32, layers=2, max_seq_len=32)
    state = ModelState.init(config, seed=0)
    batch = random_batch(config, b=8, t1=16, seed=1)
    tracemalloc.start()
    try:
        loss = forward_loss(batch, state)
        forward_end = tracemalloc.get_traced_memory()[0]
        largest = max(n.data.nbytes for n in _graph_nodes(loss) if n._backward is not None)
        tracemalloc.reset_peak()
        loss.backward()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    grad_bytes = sum(p.data.nbytes for p in state.params.values())
    assert all(p.grad is not None for p in state.params.values())
    assert peak - forward_end <= grad_bytes + largest


# -- checkpoints ---------------------------------------------------------------

def test_checkpoint_round_trip_bitwise(tmp_path):
    config = micro_config()
    state = ModelState.init(config, seed=23)
    path = tmp_path / "model.gsq"
    save_checkpoint(state, path)
    loaded = load_checkpoint(path)
    assert loaded.config.to_json() == config.to_json()
    for name, p in state.params.items():
        assert p.data.dtype == loaded[name].data.dtype
        assert np.array_equal(p.data, loaded[name].data), name


def test_checkpoint_header(tmp_path):
    config = micro_config()
    state = ModelState.init(config, seed=24)
    path = tmp_path / "model.gsq"
    save_checkpoint(state, path)
    head = path.read_bytes()[:8]
    assert head[:4] == b"GSQ1"
    assert int.from_bytes(head[4:8], "little") == 1


def test_checkpoint_truncation_rejected(tmp_path):
    config = micro_config()
    state = ModelState.init(config, seed=25)
    path = tmp_path / "model.gsq"
    save_checkpoint(state, path)
    raw = path.read_bytes()
    for cut in (2, 10, len(raw) // 2, len(raw) - 3):
        (tmp_path / "trunc.gsq").write_bytes(raw[:cut])
        with pytest.raises(CheckpointError):
            load_checkpoint(tmp_path / "trunc.gsq")


def test_checkpoint_bad_magic_rejected(tmp_path):
    path = tmp_path / "junk.gsq"
    path.write_bytes(b"NOPE" + b"\x00" * 64)
    with pytest.raises(CheckpointError, match="magic"):
        load_checkpoint(path)


def test_checkpoint_trailing_garbage_rejected(tmp_path):
    config = micro_config()
    state = ModelState.init(config, seed=26)
    path = tmp_path / "model.gsq"
    save_checkpoint(state, path)
    path.write_bytes(path.read_bytes() + b"xx")
    with pytest.raises(CheckpointError, match="trailing"):
        load_checkpoint(path)


def test_checkpoint_level_mismatch_names_tensor(tmp_path):
    state = ModelState.init(micro_config(level_sizes=(6, 7, 8)), seed=27)
    path = tmp_path / "h3.gsq"
    save_checkpoint(state, path)
    with pytest.raises(CheckpointError, match="embed|head"):
        load_checkpoint(path, config=micro_config(level_sizes=(6, 7)))
    with pytest.raises(CheckpointError, match="'embed.h1'"):
        load_checkpoint(path, config=micro_config(level_sizes=(5, 7, 8)))


def _raw_checkpoint(manifest) -> bytes:
    """A container holding `manifest` and 8 payload bytes (two float32 values)."""
    blob = json.dumps(manifest).encode("utf-8")
    return b"GSQ1" + struct.pack("<I", 1) + struct.pack("<Q", len(blob)) + blob + bytes(8)


def _entry(**kw):
    return {"meta": {}, "tensors": [{"name": "w", "shape": [2], "dtype": "<f4", **kw}]}


@pytest.mark.parametrize("manifest", [
    [],
    {"tensors": []},
    {"meta": {}},
    {"meta": [], "tensors": []},
    {"meta": {}, "tensors": {}},
    {"meta": {}, "tensors": ["w"]},
    _entry(name=5),
    _entry(shape="5"),
    _entry(shape=[-2]),
    _entry(shape=[2.0]),
    _entry(shape=[True, 2]),
    _entry(dtype=5),
    _entry(dtype="<i4"),
    _entry(dtype=["<f4"]),
], ids=[
    "manifest_list", "no_meta", "no_tensors", "meta_list", "tensors_object", "entry_string",
    "name_int", "shape_string", "shape_negative", "shape_float", "shape_bool", "dtype_int",
    "dtype_int32", "dtype_list",
])
def test_load_tensors_rejects_malformed_manifests(tmp_path, manifest):
    good = tmp_path / "good.gsq"
    good.write_bytes(_raw_checkpoint(_entry()))
    assert load_tensors(good)[1]["w"].data.shape == (2,)
    path = tmp_path / "bad.gsq"
    path.write_bytes(_raw_checkpoint(manifest))
    # the manifest itself is named, not a later symptom such as trailing bytes
    with pytest.raises(CheckpointError, match="manifest needs|string 'name'|shape|dtype"):
        load_tensors(path)


@pytest.mark.parametrize("config", [
    None,
    [8, 1],
    {"level_sizes": [6, 7], "wat": 1},
    {"hidden": 8},
    {"level_sizes": "67", "hidden": 8, "layers": 1, "heads": 2},
], ids=["no_config", "config_list", "config_unknown_key", "no_level_sizes", "level_sizes_str"])
def test_load_checkpoint_rejects_malformed_meta_config(tmp_path, config):
    state = ModelState.init(micro_config(), seed=0)
    meta = {"kind": "model"} if config is None else {"kind": "model", "config": config}
    path = tmp_path / "model.gsq"
    save_tensors(path, state.params, meta)
    with pytest.raises(CheckpointError, match="config"):
        load_checkpoint(path)


def test_load_checkpoint_rejects_a_tensor_listed_twice(tmp_path):
    # the later payload would otherwise replace the first without a word
    path = tmp_path / "model.gsq"
    save_checkpoint(ModelState.init(micro_config(), seed=0), path)
    list_twice(path, "temporal.b", 7.0)
    with pytest.raises(CheckpointError, match="tensor 'temporal.b' is listed twice"):
        load_checkpoint(path)


def _valid_checkpoint() -> tuple[bytes, int]:
    """A small model checkpoint's bytes and where its payloads start."""
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "model.gsq"
        save_checkpoint(ModelState.init(micro_config(), seed=3), path)
        raw = path.read_bytes()
    return raw, 16 + struct.unpack_from("<Q", raw, 8)[0]


_RAW, _PAYLOAD_START = _valid_checkpoint()


@settings(max_examples=300, deadline=None)
@given(cut=st.integers(0, len(_RAW) - 1))
def test_truncated_checkpoint_is_a_checkpoint_error(tmp_path_factory, cut):
    path = tmp_path_factory.getbasetemp() / "cut.gsq"
    path.write_bytes(_RAW[:cut])
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


@settings(max_examples=400, deadline=None)
@given(at=st.integers(0, _PAYLOAD_START - 1), byte=st.integers(0, 255))
def test_changed_header_or_manifest_byte_loads_or_is_a_checkpoint_error(
    tmp_path_factory, at, byte
):
    # v1 has no checksum, so a changed payload byte loads silently and is
    # outside this property; any exception but CheckpointError fails it
    raw = bytearray(_RAW)
    raw[at] = byte
    path = tmp_path_factory.getbasetemp() / "changed.gsq"
    path.write_bytes(bytes(raw))
    try:
        load_checkpoint(path)
    except CheckpointError:
        pass


def test_parameter_gradients_share_no_memory():
    # backward keeps first gradients uncopied, so a `.grad` may share memory
    # with another; the model's closures give each parameter its own array
    state = ModelState.init(micro_config(), seed=0)
    forward_loss(random_batch(state.config), state).backward()
    grads = [(name, p.grad) for name, p in state.params.items() if p.grad is not None]
    assert len(grads) == len(state.params)
    for i, (name, g) in enumerate(grads):
        for other, h in grads[i + 1:]:
            assert not np.shares_memory(g, h), (name, other)

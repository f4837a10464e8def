"""Heads, pooling, joint top-k beam, metrics, fine-tuning oracles."""

import importlib
import itertools
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from geoseq import downstream
from geoseq import tensor as T
from geoseq.downstream import (
    beam_topk,
    backbone_outputs,
    compute_metrics,
    finetune_classifier,
    finetune_next_location,
    load_head,
    make_head,
    masked_mean_pool,
    predict_topk,
    pretrained_predict_topk,
    save_head,
)
from geoseq.model import (
    Batch,
    CheckpointError,
    ModelConfig,
    ModelState,
    TrainConfig,
    chain_one_hot,
    chained_logits,
    head_forward,
    init_params,
    make_batch,
    save_tensors,
)
from geoseq.pipeline import Trajectory
from geoseq.tensor import Tensor

from gradcheck import assert_grads_match
from graphs import closure_tensors, graph_nodes

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def micro_config(level_sizes=(6, 7), **kw):
    defaults = dict(hidden=8, layers=1, heads=2, attn_dropout=0.0, max_seq_len=16)
    defaults.update(kw)
    return ModelConfig(level_sizes=list(level_sizes), **defaults)


def make_trajs(n, length, sizes, seed=0, label_from=None):
    rng = np.random.default_rng(seed)
    trajs = []
    for i in range(n):
        tuples = [tuple(int(rng.integers(2, s)) for s in sizes) for _ in range(length)]
        ts = [int(1e9 + i * 1e5 + 60 * j) for j in range(length)]
        label = label_from[i % len(label_from)] if label_from else None
        trajs.append(Trajectory(f"u{i}", [tuple(0 for _ in sizes)] + tuples, [ts[0]] + ts, label))
    return trajs


# -- metrics -------------------------------------------------------------------

def test_metrics_exact_match():
    report = compute_metrics([[("a", 1)]], [("a", 1)])
    assert report.acc1 == 1.0 and report.acc5 == 1.0 and report.n == 1


def test_metrics_confusion_matrix_arithmetic():
    # true/pred pairs realizing the matrix [[1, 1], [0, 2]]
    preds = [[0], [1], [1], [1]]
    targets = [0, 0, 1, 1]
    report = compute_metrics(preds, targets)
    assert report.macro_p == pytest.approx(5 / 6)
    assert report.macro_r == pytest.approx(0.75)
    assert report.acc1 == pytest.approx(0.75)


def test_metrics_all_wrong_is_zero():
    report = compute_metrics([[1], [0]], [0, 1])
    assert report.acc1 == 0.0 and report.macro_p == 0.0
    assert report.macro_r == 0.0 and report.macro_f1 == 0.0


def test_metrics_acc5_uses_prefix():
    report = compute_metrics([[9, 8, 7, 6, 5, 0]], [5])
    assert report.acc1 == 0.0 and report.acc5 == 1.0


def test_metrics_empty_rejected():
    with pytest.raises(ValueError):
        compute_metrics([], [])


def test_metrics_json_keys():
    doc = compute_metrics([[1]], [1]).to_json()
    assert set(doc) == {"acc1", "acc5", "macro_p", "macro_r", "macro_f1", "n"}


# -- pooling -------------------------------------------------------------------

def test_mean_pool_ignores_pad_positions():
    rng = np.random.default_rng(1)
    data = rng.normal(size=(2, 5, 4)).astype(np.float32)
    keep = np.array([[True, True, True, False, False], [True] * 5])
    pooled = masked_mean_pool(Tensor(data), keep).data
    assert np.allclose(pooled[0], data[0, :3].mean(axis=0), atol=1e-6)
    assert np.allclose(pooled[1], data[1].mean(axis=0), atol=1e-6)


def test_head_inputs_identical_after_appending_pad():
    config = micro_config()
    state = ModelState.init(config, seed=2)
    trajs = make_trajs(1, 4, config.level_sizes)
    batch = make_batch(trajs, config.levels)
    padded = Batch(
        ids=np.concatenate([batch.ids, np.ones((1, 3, 2), dtype=np.int64)], axis=1),
        timestamps=np.concatenate([batch.timestamps, np.ones((1, 3))], axis=1),
        keep=np.concatenate([batch.keep, np.zeros((1, 3), dtype=bool)], axis=1),
    )
    with T.no_grad():
        a = masked_mean_pool(backbone_outputs(state, batch), batch.keep).data
        b = masked_mean_pool(backbone_outputs(state, padded), padded.keep).data
    assert np.array_equal(a, b)


def test_batch_of_one_backbone_neither_gathers_nor_scatters_rows(monkeypatch):
    # a batch of one has no PAD: the decoder runs on its rows in place, so the
    # row gather (an embedding lookup on anything but a parameter table) and
    # scatter_rows are never reached, and the outputs are those of a padded batch
    config = micro_config(layers=2)
    state = ModelState.init(config, seed=3)
    batch = make_batch(make_trajs(1, 5, config.level_sizes, seed=4), config.levels)
    padded = Batch(
        ids=np.concatenate([batch.ids, np.ones((1, 2, 2), dtype=np.int64)], axis=1),
        timestamps=np.concatenate([batch.timestamps, np.ones((1, 2))], axis=1),
        keep=np.concatenate([batch.keep, np.zeros((1, 2), dtype=bool)], axis=1),
    )
    with T.no_grad():
        ref = backbone_outputs(state, padded).data[:, :6]
    tables = {id(p) for p in state.params.values()}
    lookup = T.embedding_lookup

    def gather_only_tables(table, ids):
        if id(table) not in tables:
            raise AssertionError("row gather on a batch without PAD")
        return lookup(table, ids)

    def no_scatter(*args):
        raise AssertionError("scatter_rows on a batch without PAD")

    monkeypatch.setattr(T, "embedding_lookup", gather_only_tables)
    monkeypatch.setattr(T, "scatter_rows", no_scatter)
    with T.no_grad():
        out = backbone_outputs(state, batch).data
    assert out.tobytes() == np.ascontiguousarray(ref).tobytes()
    with pytest.raises(AssertionError, match="row gather"):  # a padded batch reaches them
        backbone_outputs(state, padded)


# -- beam ----------------------------------------------------------------------

def _random_probs_fn(sizes, seed):
    """Random conditional-chain probabilities with a numpy oracle table."""
    rng = np.random.default_rng(seed)
    tables = {}
    first = rng.random(sizes[0])
    tables[(1, None)] = first / first.sum()
    for level in range(2, len(sizes) + 1):
        for prev in range(sizes[level - 2]):
            row = rng.random(sizes[level - 1])
            tables[(level, prev)] = row / row.sum()

    def probs(level, prev):
        return tables[(level, prev if level > 1 else None)]

    return probs


def _flat(per_prev):
    """`beam_topk`'s `level_probs` from a per-candidate `per_prev(level, prev_id)`.

    It asks `per_prev` once for each kept tuple's last id, in kept order, and
    joins the vectors into the flat, kept-major candidate list.
    """
    def level_probs(level, prev_ids):
        if prev_ids is None:
            return per_prev(level, None)
        return np.concatenate([per_prev(level, int(prev)) for prev in prev_ids])

    return level_probs


def _bruteforce(probs, sizes):
    ranked = []
    for tup in itertools.product(*[range(s) for s in sizes]):
        p = 1.0
        prev = None
        for level, cls in enumerate(tup, start=1):
            p = p * float(probs(level, prev)[cls])
            prev = cls
        ranked.append((tup, p))
    ranked.sort(key=lambda item: (-item[1], item[0]))
    return ranked


@pytest.mark.parametrize("sizes", [(3, 4), (5, 5), (2, 3, 4)])
def test_beam_full_width_equals_bruteforce(sizes):
    probs = _random_probs_fn(sizes, seed=sum(sizes))
    total = int(np.prod(sizes))
    assert beam_topk(_flat(probs), list(sizes), total) == _bruteforce(probs, list(sizes))


def test_beam_k1_is_greedy_chain():
    sizes = (4, 5)
    probs = _random_probs_fn(sizes, seed=3)
    (tup, p), = beam_topk(_flat(probs), list(sizes), 1)
    g1 = int(np.argmax(probs(1, None)))
    g2 = int(np.argmax(probs(2, g1)))
    assert tup == (g1, g2)


def test_beam_k5_matches_oracle_top5_when_level1_fits():
    # |L^1| = 3 <= k, so no pruning can lose the true top-5
    sizes = (3, 4)
    probs = _random_probs_fn(sizes, seed=4)
    top5 = beam_topk(_flat(probs), list(sizes), 5)
    oracle = _bruteforce(probs, list(sizes))[:5]
    assert top5 == oracle


def test_beam_clamps_oversized_k():
    sizes = (2, 2)
    probs = _random_probs_fn(sizes, seed=5)
    assert len(beam_topk(_flat(probs), list(sizes), 999)) == 4


def test_beam_breaks_ties_lexicographically():
    sizes = (2, 2)

    def uniform(level, prev):
        return np.full(2, 0.5)

    ranked = beam_topk(_flat(uniform), list(sizes), 4)
    assert [tup for tup, _ in ranked] == [(0, 0), (0, 1), (1, 0), (1, 1)]


def _loop_beam(level_probs, level_sizes, k):
    """The per-candidate Python beam `beam_topk` replaced, kept as its oracle."""
    total = int(np.prod(level_sizes))
    k = max(1, min(k, total))
    beams = [((), 1.0)]
    for level in range(1, len(level_sizes) + 1):
        expanded = []
        for tup, p in beams:
            probs = level_probs(level, tup[-1] if tup else None)
            for cls, q in enumerate(probs):
                expanded.append((tup + (cls,), p * float(q)))
        expanded.sort(key=lambda item: (-item[1], item[0]))
        beams = expanded[:k]
    return beams


def _bits(ranked):
    return [(tup, score.hex()) for tup, score in ranked]


# few distinct values, so equal products (and ties at the k-th place) are common
_PROB_GRID = [0.0, 0.1, 0.125, 0.25, 0.3, 0.5, 1.0]


@st.composite
def _beam_cases(draw):
    sizes = draw(st.lists(st.integers(1, 6), min_size=1, max_size=4))
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    tables = {}
    for level, size in enumerate(sizes, start=1):
        for prev in [None] if level == 1 else range(sizes[level - 2]):
            row = draw(st.lists(st.sampled_from(_PROB_GRID), min_size=size, max_size=size))
            tables[(level, prev)] = np.array(row, dtype=dtype)
    k = draw(st.integers(1, int(np.prod(sizes)) + 2))
    return sizes, tables, k


@settings(max_examples=300, deadline=None)
@given(case=_beam_cases())
def test_beam_matches_the_python_loop_bit_for_bit(case):
    sizes, tables, k = case

    def probs(level, prev):
        return tables[(level, prev)]

    assert _bits(beam_topk(_flat(probs), sizes, k)) == _bits(_loop_beam(probs, sizes, k))


@pytest.mark.parametrize("sizes", [(1,), (1, 4), (3, 1, 2), (2, 3, 1)])
def test_beam_with_a_level_of_size_one(sizes):
    probs = _random_probs_fn(sizes, seed=len(sizes) + sizes[0])
    total = int(np.prod(sizes))
    assert beam_topk(_flat(probs), list(sizes), total) == _bruteforce(probs, list(sizes))
    for k in range(1, total + 1):
        ranked = beam_topk(_flat(probs), list(sizes), k)
        assert _bits(ranked) == _bits(_loop_beam(probs, list(sizes), k))


@pytest.mark.parametrize("k", [4, 7, 11, 23])
def test_beam_with_k_between_a_level_size_and_the_total(k):
    sizes = (3, 4, 2)  # total 24; level 2 keeps k of its 12 candidates
    probs = _random_probs_fn(sizes, seed=9)
    ranked = beam_topk(_flat(probs), list(sizes), k)
    assert len(ranked) == k
    assert _bits(ranked) == _bits(_loop_beam(probs, list(sizes), k))


def test_beam_returns_python_ints_and_floats():
    sizes = (3, 4)
    probs = _random_probs_fn(sizes, seed=10)
    f32 = lambda level, prev: probs(level, prev).astype(np.float32)
    for level_probs in (probs, f32):
        for tup, score in beam_topk(_flat(level_probs), list(sizes), 5):
            assert type(tup) is tuple and all(type(i) is int for i in tup)
            assert type(score) is float


def test_beam_ranks_nan_scores_last():
    # a non-finite head (a corrupt checkpoint) must not push real scores out
    def probs(level, prev):
        return np.array([np.nan, 0.5, 0.2, np.nan])

    ranked = beam_topk(_flat(probs), [4], 3)
    assert [tup for tup, _ in ranked] == [(1,), (2,), (0,)]
    assert np.isnan(ranked[2][1])


def _rank_per_candidate(state, head, traj, k):
    """The beam over `head`, one batch-1 head call for every candidate it expands."""
    batch = make_batch([traj], state.config.levels)
    with T.no_grad():
        features = head.features(backbone_outputs(state, batch), batch.keep)

        def per_prev(level, prev_id):
            hot = chain_one_hot(state.config, level, [prev_id], state.dtype)
            return T.softmax(head.level_logits(level, features, hot)).data[0]

        return beam_topk(_flat(per_prev), state.config.level_sizes, k)


@pytest.mark.parametrize("head_mode", ["chained", "independent"])
@pytest.mark.parametrize("kind", ["own", "ffn", "lstm"])
def test_independent_heads_run_once_per_level(kind, head_mode, monkeypatch):
    # one head call per level in both modes; a chained level's call holds one
    # one-hot row per kept tuple, which at this width gives the same bits as
    # the per-candidate calls
    config = micro_config(level_sizes=(4, 5, 3), head_mode=head_mode)
    state = ModelState.init(config, seed=40)
    if kind == "own":
        head = downstream.PretrainingHeads(state)
        rank = lambda traj: pretrained_predict_topk(state, traj, 5)
    else:
        head = make_head(kind, config, seed=41, dtype=state.dtype)
        rank = lambda traj: predict_topk(state, head, traj, 5)
    calls = []
    level_logits = type(head).level_logits

    def counted(self, level, features, hot):
        calls.append((level, None if hot is None else len(hot)))
        return level_logits(self, level, features, hot)

    monkeypatch.setattr(type(head), "level_logits", counted)
    for traj in make_trajs(4, 5, config.level_sizes, seed=42):
        calls.clear()
        ranked = rank(traj)
        assert [level for level, _ in calls] == [1, 2, 3]
        # level 1 reads no one-hot; a chained level h reads one row per tuple kept at h - 1
        kept = [None, min(5, 4), min(5, 4 * 5)] if head_mode == "chained" else [None] * 3
        assert [rows for _, rows in calls] == kept
        assert _bits(ranked) == _bits(_rank_per_candidate(state, head, traj, 5))


@pytest.mark.parametrize("head_mode", ["chained", "independent"])
@pytest.mark.parametrize("kind", ["own", "ffn", "lstm"])
def test_default_width_rankings_match_one_call_per_candidate(
    kind, head_mode, record_property, monkeypatch
):
    # at W = 256 and the default layers an n-row GEMM need not give the bits
    # of n one-row calls: the own heads' second GEMM and the LSTM's recurrent
    # and output GEMMs run n rows. FFN and independent heads keep every bit.
    # The heads are at their initial scale, as in the benchmark's eval; the
    # deviation grows with the size of the logits. Lists that differ must
    # pass the benchmark's tie rule, `same_ranking`.
    monkeypatch.syspath_prepend(str(PERFBENCH))  # workloads imports the tracer by bare name
    same_ranking = importlib.import_module("workloads").same_ranking
    config = ModelConfig(level_sizes=[24, 300, 900], head_mode=head_mode, attn_dropout=0.0)
    state = ModelState.init(config, seed=50)
    if kind == "own":
        head = downstream.PretrainingHeads(state)
        rank = lambda traj: pretrained_predict_topk(state, traj, 5)
    else:
        head = make_head(kind, config, seed=51, dtype=state.dtype)
        rank = lambda traj: predict_topk(state, head, traj, 5)
    bitwise = kind == "ffn" or head_mode == "independent"
    worst = 0.0
    for traj in make_trajs(20, 20, config.level_sizes, seed=52):
        got, ref = rank(traj), _rank_per_candidate(state, head, traj, 5)
        worst = max([worst] + [abs(a - b) / abs(b) for (_, a), (_, b) in zip(got, ref)])
        if bitwise:
            assert _bits(got) == _bits(ref)
        else:
            assert same_ranking(got, ref), (got, ref)
    eps = worst / float(np.finfo(np.float32).eps)
    record_property("largest_score_deviation_f32_eps", eps)
    print(f"{kind} {head_mode}: largest relative score deviation {eps:.2f} float32 eps")
    # 1.67 for the chained own heads and 2.32 for the chained LSTM here: a
    # change that widens the gap fails before it reaches the tie rule's 16
    assert eps <= 4.0


def test_predict_topk_products_match_enumeration():
    config = micro_config(level_sizes=(3, 4))
    state = ModelState.init(config, seed=6)
    head = make_head("ffn", config, seed=7, dtype=state.dtype)
    traj = make_trajs(1, 3, config.level_sizes)[0]
    full = predict_topk(state, head, traj, k=12)
    assert len(full) == 12
    probs = [p for _, p in full]
    assert probs == sorted(probs, reverse=True)
    assert abs(sum(probs) - 1.0) < 1e-5  # argmax-conditioned chain normalizes


# -- fine-tuning ---------------------------------------------------------------

def test_freeze_backbone_leaves_backbone_untouched():
    config = micro_config()
    state = ModelState.init(config, seed=8)
    before = {k: p.data.copy() for k, p in state.params.items()}
    trajs = make_trajs(6, 4, config.level_sizes)
    finetune_next_location(state, "ffn", trajs, trajs,
                           TrainConfig(epochs=3, lr=1e-2, weight_decay=0.0, warmup_steps=0,
                                       seed=9),
                           freeze_backbone=True)
    for name, p in state.params.items():
        assert np.array_equal(before[name], p.data), name


def test_unfrozen_backbone_moves():
    config = micro_config()
    state = ModelState.init(config, seed=10)
    before = state["embed.h1"].data.copy()
    trajs = make_trajs(6, 4, config.level_sizes)
    finetune_next_location(state, "ffn", trajs, trajs,
                           TrainConfig(epochs=2, lr=1e-2, weight_decay=0.0, warmup_steps=0,
                                       seed=11),
                           freeze_backbone=False)
    assert not np.array_equal(before, state["embed.h1"].data)


def _finetune(task, state, trajs, eval_trajs, train, freeze_backbone):
    if task == "classifier":
        return finetune_classifier(state, trajs, eval_trajs, train,
                                   freeze_backbone=freeze_backbone)
    return finetune_next_location(state, task, trajs, eval_trajs, train,
                                  freeze_backbone=freeze_backbone)


@pytest.mark.parametrize("task", ["ffn", "lstm", "classifier"])
def test_no_backward_closure_of_a_finetune_loss_holds_a_tensor(task, monkeypatch):
    # the loss `fit` would step on, with the backbone unfrozen and dropout on
    config = micro_config(attn_dropout=0.1)
    trajs = make_trajs(6, 4, config.level_sizes, seed=42, label_from=["a", "b"])
    walked = []

    def one_step(params, items, loss_fn, train):
        loss = loss_fn(items[:4], np.random.default_rng(43))
        walked.append((sum(n.backward is not None for n in graph_nodes(loss)),
                       closure_tensors(loss)))
        return [float(loss.data)]

    monkeypatch.setattr(downstream, "fit", one_step)
    train = TrainConfig(epochs=1, batch_size=4, warmup_steps=0, seed=44)
    _finetune(task, ModelState.init(config, seed=45), trajs, trajs[:2], train,
              freeze_backbone=False)
    ((nodes, held),) = walked
    assert nodes > 20 and held == []


@pytest.mark.parametrize("freeze_backbone", [True, False])
@pytest.mark.parametrize("task", ["ffn", "lstm", "classifier"])
def test_finetune_same_seed_bitwise_equal(task, freeze_backbone):
    config = micro_config(attn_dropout=0.1)
    trajs = make_trajs(10, 4, config.level_sizes, seed=40, label_from=["a", "b"])
    train = TrainConfig(epochs=3, batch_size=4, lr=1e-2, warmup_steps=2, seed=41)
    runs = []
    for _ in range(2):
        state = ModelState.init(config, seed=42)
        head, _, curve = _finetune(task, state, trajs, trajs, train, freeze_backbone)
        runs.append((curve, {k: p.data.copy() for k, p in head.params.items()}))
    (curve_a, params_a), (curve_b, params_b) = runs
    assert curve_a == curve_b
    assert params_a.keys() == params_b.keys()
    for name in params_a:
        assert np.array_equal(params_a[name], params_b[name]), name


@pytest.mark.parametrize("task", ["ffn", "lstm", "classifier"])
def test_saved_head_loads_back_bitwise_equal(task, tmp_path):
    config = micro_config()
    state = ModelState.init(config, seed=50)
    trajs = make_trajs(6, 4, config.level_sizes, seed=51, label_from=["a", "b"])
    train = TrainConfig(epochs=1, batch_size=4, warmup_steps=0, seed=52)
    head, _, _ = _finetune(task, state, trajs, trajs, train, freeze_backbone=True)
    save_head(head, tmp_path / "head.gsq")
    loaded = load_head(tmp_path / "head.gsq", state)
    assert type(loaded) is type(head)
    assert getattr(loaded, "classes", None) == getattr(head, "classes", None)
    assert loaded.params.keys() == head.params.keys()
    for name, p in head.params.items():
        assert np.array_equal(loaded.params[name].data, p.data), name


@pytest.mark.parametrize("task", ["ffn", "lstm", "classifier"])
def test_frozen_backbone_runs_once_per_trajectory(task, monkeypatch):
    passes = []
    real = downstream.decoder_forward

    def counted(*args, **kwargs):
        passes.append(args[0].data.shape[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(downstream, "decoder_forward", counted)
    config = micro_config()
    trajs = make_trajs(10, 4, config.level_sizes, seed=43, label_from=["a", "b"])
    counts = []
    for epochs in (1, 3):
        passes.clear()
        state = ModelState.init(config, seed=44)
        train = TrainConfig(epochs=epochs, batch_size=4, warmup_steps=0, seed=45)
        _finetune(task, state, trajs, trajs[:1], train, freeze_backbone=True)
        counts.append(list(passes))
    # batches of 4, 4 and 2 trajectories before training, then one evaluation pass
    assert counts[0] == counts[1] == [4, 4, 2, 1]


def walk_trajs(n, length, q=4, levels=2):
    """Deterministic rightward walks; the next tuple follows from the last."""
    trajs = []
    for i in range(n):
        if levels == 2:
            tuples = [((i + j) // q + 2, (i + j) % q + 2) for j in range(length)]
        else:
            tuples = [((i + j) % 7 + 2,) for j in range(length)]
        ts = [int(1e9 + i * 1e5 + 60 * j) for j in range(length)]
        sos = tuple(0 for _ in range(levels))
        trajs.append(Trajectory(f"u{i}", [sos] + tuples, [ts[0]] + ts, None))
    return trajs


@pytest.mark.parametrize("head_kind", ["ffn", "lstm"])
def test_overfit_ten_trajectories(head_kind):
    trajs = walk_trajs(10, 4)
    config = ModelConfig(level_sizes=[6, 6], hidden=16, layers=1, heads=2,
                         attn_dropout=0.0, max_seq_len=16)
    state = ModelState.init(config, seed=12)
    _, report, curve = finetune_next_location(
        state, head_kind, trajs, trajs,
        TrainConfig(epochs=500, lr=1e-2, weight_decay=0.0, warmup_steps=0, seed=14),
        freeze_backbone=False,
    )
    assert report.acc1 == 1.0
    assert curve[-1] < 0.1


def test_single_level_reduces_to_plain_next_token():
    trajs = walk_trajs(8, 4, levels=1)
    config = micro_config(level_sizes=(9,))
    state = ModelState.init(config, seed=15)
    _, report, _ = finetune_next_location(state, "ffn", trajs, trajs,
                                          TrainConfig(epochs=300, lr=1e-2, weight_decay=0.0,
                                                      warmup_steps=0, seed=17),
                                          freeze_backbone=False)
    assert report.acc1 == 1.0  # plain single-vocabulary next-token prediction


def test_ffn_head_gradients():
    config = micro_config(level_sizes=(4, 5))
    state = ModelState.init(config, seed=18, dtype=np.float64)
    head = make_head("ffn", config, seed=19, dtype=np.float64)
    trajs = make_trajs(3, 3, config.level_sizes, seed=20)
    batch = make_batch(trajs, config.levels)
    targets = np.asarray([t.ids[-1] for t in trajs], dtype=np.int64)

    def loss_fn():
        outputs = backbone_outputs(state, batch)
        logits = chained_logits(config, head.level_logits, head.features(outputs, batch.keep))
        loss = None
        for h in range(config.levels):
            ce = T.cross_entropy(logits[h], targets[:, h])
            loss = ce if loss is None else T.add(loss, ce)
        return loss

    assert_grads_match(loss_fn, head.params, rtol=1e-5, atol=1e-8)


def test_lstm_head_gradients():
    config = micro_config(level_sizes=(4, 5))
    state = ModelState.init(config, seed=21, dtype=np.float64)
    head = make_head("lstm", config, seed=22, dtype=np.float64)
    trajs = make_trajs(2, 3, config.level_sizes, seed=23)
    batch = make_batch(trajs, config.levels)
    targets = np.asarray([t.ids[-1] for t in trajs], dtype=np.int64)

    def loss_fn():
        outputs = backbone_outputs(state, batch)
        logits = chained_logits(config, head.level_logits, head.features(outputs, batch.keep))
        loss = None
        for h in range(config.levels):
            ce = T.cross_entropy(logits[h], targets[:, h])
            loss = ce if loss is None else T.add(loss, ce)
        return loss

    assert_grads_match(loss_fn, head.params, rtol=1e-5, atol=1e-8)


def test_lstm_final_state_ignores_padding():
    config = micro_config(level_sizes=(4, 5))
    state = ModelState.init(config, seed=24)
    head = make_head("lstm", config, seed=25, dtype=state.dtype)
    trajs = make_trajs(1, 4, config.level_sizes, seed=26)
    batch = make_batch(trajs, config.levels)
    padded = Batch(
        ids=np.concatenate([batch.ids, np.ones((1, 2, 2), dtype=np.int64)], axis=1),
        timestamps=np.concatenate([batch.timestamps, np.ones((1, 2))], axis=1),
        keep=np.concatenate([batch.keep, np.zeros((1, 2), dtype=bool)], axis=1),
    )
    with T.no_grad():
        a = head.level_logits(1, head.features(backbone_outputs(state, batch), batch.keep), None)
        b = head.level_logits(1, head.features(backbone_outputs(state, padded), padded.keep), None)
    assert np.array_equal(a.data, b.data)


def test_lstm_batch_rows_equal_each_trajectory_alone():
    # two trajectories of different lengths, padded into one batch the way the
    # frozen-backbone fine-tune pads its cached decoder outputs
    config = micro_config(level_sizes=(4, 5))
    state = ModelState.init(config, seed=61)
    head = make_head("lstm", config, seed=62, dtype=state.dtype)
    trajs = [make_trajs(1, 5, config.level_sizes, seed=63)[0],
             make_trajs(1, 2, config.level_sizes, seed=64)[0]]
    with T.no_grad():
        alone = [backbone_outputs(state, make_batch([t], config.levels)).data[0] for t in trajs]
        padded = np.zeros((2, len(alone[0]), config.hidden), dtype=state.dtype)
        keep = np.zeros((2, len(alone[0])), dtype=bool)
        for i, out in enumerate(alone):
            padded[i, : len(out)] = out
            keep[i, : len(out)] = True
        both = chained_logits(config, head.level_logits, head.features(Tensor(padded), keep))
        for i, out in enumerate(alone):
            one = chained_logits(config, head.level_logits,
                                 head.features(Tensor(out[None]), keep[i : i + 1, : len(out)]))
            for level in range(config.levels):
                assert np.array_equal(both[level].data[i], one[level].data[0]), (i, level)


@pytest.mark.parametrize("fault", ["missing", "shape", "extra"])
@pytest.mark.parametrize("task", ["ffn", "lstm", "classifier"])
def test_head_that_does_not_fit_names_file_and_tensor(task, fault, tmp_path):
    config = micro_config()
    if task == "classifier":
        meta = {"kind": "classifier", "classes": ["a", "b"]}
        layout = downstream.TrajectoryClassifier.layout(config, meta["classes"])
    else:
        meta = {"kind": "head", "head_kind": task}
        layout = downstream.HEADS[task].layout(config)
    params = init_params(layout)
    name = layout[-1][0]
    if fault == "missing":
        del params[name]
    else:
        params[name if fault == "shape" else "stray"] = Tensor(np.zeros(3, dtype=np.float32))
    path = tmp_path / "head.gsq"
    save_tensors(path, params, {**meta, "config": config.to_json()})
    message = {
        "missing": f"missing tensor '{name}'",
        "shape": f"tensor '{name}' has shape (3,)",
        "extra": "unexpected tensors ['stray']",
    }[fault]
    with pytest.raises(CheckpointError) as err:
        load_head(path, ModelState.init(config, seed=65))
    assert str(err.value).startswith(f"{path}: ") and message in str(err.value)


@pytest.mark.parametrize("task", ["ffn", "lstm", "classifier"])
def test_head_from_another_backbone_config_names_file_and_field(task, tmp_path):
    # the layouts match: only `heads` and `attn_dropout` differ
    trained_on = micro_config(heads=4)
    if task == "classifier":
        meta = {"kind": "classifier", "classes": ["a", "b"]}
        layout = downstream.TrajectoryClassifier.layout(trained_on, meta["classes"])
    else:
        meta = {"kind": "head", "head_kind": task}
        layout = downstream.HEADS[task].layout(trained_on)
    path = tmp_path / "head.gsq"
    save_tensors(path, init_params(layout), {**meta, "config": trained_on.to_json()})
    state = ModelState.init(micro_config(heads=2, attn_dropout=0.3), seed=66)
    with pytest.raises(CheckpointError) as err:
        load_head(path, state)
    assert str(err.value).startswith(f"{path}: ") and "'heads' 4, not 2" in str(err.value)
    state.config.heads = 4  # now only `attn_dropout` differs
    with pytest.raises(CheckpointError, match="'attn_dropout' 0.0, not 0.3"):
        load_head(path, state)


# -- classification --------------------------------------------------------------

def test_classifier_single_class():
    config = micro_config()
    state = ModelState.init(config, seed=27)
    trajs = make_trajs(6, 4, config.level_sizes, seed=28, label_from=["only"])
    _, report, _ = finetune_classifier(state, trajs, trajs,
                                       TrainConfig(epochs=5, weight_decay=0.0, warmup_steps=0,
                                                   seed=29),
                                       freeze_backbone=True)
    assert report.acc1 == 1.0
    assert report.macro_p == 1.0 and len(report.per_class) == 1


def test_classifier_overfits_ten_labeled():
    config = micro_config(hidden=16, level_sizes=(6, 7))
    state = ModelState.init(config, seed=30)
    trajs = make_trajs(10, 4, config.level_sizes, seed=31, label_from=["a", "b"])
    _, report, _ = finetune_classifier(state, trajs, trajs,
                                       TrainConfig(epochs=300, lr=1e-2, weight_decay=0.0,
                                                   warmup_steps=0, seed=32),
                                       freeze_backbone=False)
    assert report.acc1 == 1.0


def test_classifier_chance_level_on_random_labels():
    # frozen random backbone, balanced random labels: accuracy near 1/2
    config = micro_config()
    accs = []
    for seed in range(5):
        rng = np.random.default_rng(100 + seed)
        state = ModelState.init(config, seed=seed)
        train = make_trajs(40, 4, config.level_sizes, seed=seed, label_from=["x", "y"])
        test = make_trajs(40, 4, config.level_sizes, seed=200 + seed)
        for t in test:
            t.label = ["x", "y"][int(rng.integers(2))]
        _, report, _ = finetune_classifier(state, train, test,
                                           TrainConfig(epochs=3, lr=1e-3, weight_decay=0.0,
                                                       warmup_steps=0, seed=seed),
                                           freeze_backbone=True)
        accs.append(report.acc1)
    assert abs(float(np.mean(accs)) - 0.5) < 0.15


def test_classifier_unseen_label_counts_as_error():
    config = micro_config()
    state = ModelState.init(config, seed=33)
    train = make_trajs(6, 4, config.level_sizes, seed=34, label_from=["a", "b"])
    test = make_trajs(4, 4, config.level_sizes, seed=35, label_from=["zzz"])
    _, report, _ = finetune_classifier(state, train, test,
                                       TrainConfig(epochs=2, weight_decay=0.0, warmup_steps=0,
                                                   seed=36),
                                       freeze_backbone=True)
    assert report.acc1 == 0.0
    assert "zzz" in report.per_class
    assert report.per_class["zzz"]["predicted"] == 0


# -- pre-trained-head prediction -------------------------------------------------

def test_pretrained_topk_ranks_all_tuples():
    # brute force: every tuple's product of per-level probabilities, read
    # straight from the pre-training heads, in both head modes
    for head_mode in ("chained", "independent"):
        config = micro_config(level_sizes=(3, 4), head_mode=head_mode)
        state = ModelState.init(config, seed=37)
        rng = np.random.default_rng(39)
        for name, p in state.params.items():  # spread the heads' probabilities apart
            if name.startswith("head."):
                p.data[...] = rng.normal(0.0, 0.5, size=p.data.shape)
        traj = make_trajs(1, 3, config.level_sizes, seed=38)[0]
        full = pretrained_predict_topk(state, traj, k=12)
        with T.no_grad():
            outputs = backbone_outputs(state, make_batch([traj], config.levels)).data
            e_last = outputs[0, len(traj.ids) - 1][None]

            def probs(level, x):
                return T.softmax(head_forward(state, level, Tensor(x))).data[0]

            p1 = probs(1, e_last)
            expected = []
            for a, b in itertools.product(range(3), range(4)):
                x2 = e_last
                if head_mode == "chained":
                    x2 = np.concatenate([e_last, np.eye(3, dtype=e_last.dtype)[a][None]], axis=1)
                expected.append(((a, b), float(p1[a]) * float(probs(2, x2)[b])))
        expected.sort(key=lambda item: (-item[1], item[0]))
        assert full == expected, head_mode

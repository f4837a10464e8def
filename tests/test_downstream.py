"""Heads, pooling, joint top-k beam, metrics, fine-tuning oracles."""

import itertools

import numpy as np
import pytest

from geoseq import downstream
from geoseq import tensor as T
from geoseq.downstream import (
    NextLocationHeadFFN,
    NextLocationHeadLSTM,
    beam_topk,
    backbone_outputs,
    compute_metrics,
    finetune_classifier,
    finetune_next_location,
    masked_mean_pool,
    predict_topk,
    pretrained_predict_topk,
)
from geoseq.model import (
    Batch,
    ModelConfig,
    ModelState,
    TrainConfig,
    chained_logits,
    head_forward,
    make_batch,
)
from geoseq.pipeline import Trajectory
from geoseq.tensor import Tensor

from gradcheck import assert_grads_match


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
    assert beam_topk(probs, list(sizes), total) == _bruteforce(probs, list(sizes))


def test_beam_k1_is_greedy_chain():
    sizes = (4, 5)
    probs = _random_probs_fn(sizes, seed=3)
    (tup, p), = beam_topk(probs, list(sizes), 1)
    g1 = int(np.argmax(probs(1, None)))
    g2 = int(np.argmax(probs(2, g1)))
    assert tup == (g1, g2)


def test_beam_k5_matches_oracle_top5_when_level1_fits():
    # |L^1| = 3 <= k, so no pruning can lose the true top-5
    sizes = (3, 4)
    probs = _random_probs_fn(sizes, seed=4)
    top5 = beam_topk(probs, list(sizes), 5)
    oracle = _bruteforce(probs, list(sizes))[:5]
    assert top5 == oracle


def test_beam_clamps_oversized_k():
    sizes = (2, 2)
    probs = _random_probs_fn(sizes, seed=5)
    assert len(beam_topk(probs, list(sizes), 999)) == 4


def test_beam_breaks_ties_lexicographically():
    sizes = (2, 2)

    def uniform(level, prev):
        return np.full(2, 0.5)

    ranked = beam_topk(uniform, list(sizes), 4)
    assert [tup for tup, _ in ranked] == [(0, 0), (0, 1), (1, 0), (1, 1)]


def test_predict_topk_products_match_enumeration():
    config = micro_config(level_sizes=(3, 4))
    state = ModelState.init(config, seed=6)
    head = NextLocationHeadFFN(config, seed=7, dtype=state.dtype)
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
    head = NextLocationHeadFFN(config, seed=19, dtype=np.float64)
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
    head = NextLocationHeadLSTM(config, seed=22, dtype=np.float64)
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
    head = NextLocationHeadLSTM(config, seed=25, dtype=state.dtype)
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

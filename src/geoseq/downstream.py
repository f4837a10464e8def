"""Fine-tuning heads and evaluation for next-location and classification.

Next-location heads predict the tuple after the final input position, one
hierarchy level at a time with the same gradient-stopped one-hot chaining the
pre-training heads use. The feed-forward head reads a masked mean pool of the
decoder outputs (SOS included, PAD excluded); the LSTM head consumes the
output sequence and predicts from the hidden state at the last real position.
A prediction counts as correct only when every level matches, and ranked
joint predictions come from a per-level beam over the conditional chain.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .model import (
    Batch,
    ModelConfig,
    ModelState,
    TrainConfig,
    chain_one_hot,
    chained_logits,
    decoder_forward,
    embed_sequence,
    fit,
    head_forward,
    make_batch,
)
from .pipeline import Trajectory
from .tensor import Tensor

HEAD_KINDS = ("ffn", "lstm")


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

@dataclass
class EvalReport:
    acc1: float
    acc5: float
    macro_p: float
    macro_r: float
    macro_f1: float
    n: int
    per_class: dict

    def to_json(self) -> dict:
        return {
            "acc1": self.acc1,
            "acc5": self.acc5,
            "macro_p": self.macro_p,
            "macro_r": self.macro_r,
            "macro_f1": self.macro_f1,
            "n": self.n,
        }


def compute_metrics(ranked_predictions: list[list], targets: list) -> EvalReport:
    """Ranked-list accuracy plus macro P/R/F1 over the top-1 predictions.

    Macro metrics average per-class values over classes that appear in the
    targets; a class never predicted gets precision 0 for the average.
    """
    if not targets or len(ranked_predictions) != len(targets):
        raise ValueError("need equal, non-empty prediction and target lists")
    hits1 = hits5 = 0
    support: dict = {}
    predicted: dict = {}
    true_pos: dict = {}
    for ranked, target in zip(ranked_predictions, targets):
        if not ranked:
            raise ValueError("empty ranked prediction list")
        top1 = ranked[0]
        hits1 += top1 == target
        hits5 += target in ranked[:5]
        support[target] = support.get(target, 0) + 1
        predicted[top1] = predicted.get(top1, 0) + 1
        if top1 == target:
            true_pos[target] = true_pos.get(target, 0) + 1

    precisions, recalls, f1s = [], [], []
    per_class = {}
    for cls, sup in support.items():
        tp = true_pos.get(cls, 0)
        pred = predicted.get(cls, 0)
        p = tp / pred if pred else 0.0
        r = tp / sup
        f1 = 2 * p * r / (p + r) if (p + r) else 0.0
        precisions.append(p)
        recalls.append(r)
        f1s.append(f1)
        per_class[cls] = {"support": sup, "predicted": pred, "tp": tp}
    n = len(targets)
    return EvalReport(
        acc1=hits1 / n,
        acc5=hits5 / n,
        macro_p=float(np.mean(precisions)),
        macro_r=float(np.mean(recalls)),
        macro_f1=float(np.mean(f1s)),
        n=n,
        per_class=per_class,
    )


# ---------------------------------------------------------------------------
# shared feature extraction
# ---------------------------------------------------------------------------

def masked_mean_pool(outputs: Tensor, keep: np.ndarray) -> Tensor:
    """Mean over kept positions only; PAD never contributes."""
    mask = Tensor(keep[..., None].astype(outputs.data.dtype))
    summed = T.tsum(T.mul(outputs, mask), axis=1)
    inv = (1.0 / keep.sum(axis=1))[:, None].astype(outputs.data.dtype)
    return T.mul(summed, Tensor(inv))


def backbone_outputs(
    state: ModelState,
    batch: Batch,
    rng: np.random.Generator | None = None,
    training: bool = False,
) -> Tensor:
    x = embed_sequence(batch, state)
    return decoder_forward(x, batch.keep, state, rng=rng, training=training)


def _init_affine(rng, n_in: int, n_out: int, dtype) -> tuple[Tensor, Tensor]:
    w = Tensor(rng.normal(0.0, 0.02, size=(n_in, n_out)).astype(dtype), requires_grad=True)
    b = Tensor(np.zeros(n_out, dtype=dtype), requires_grad=True)
    return w, b


# ---------------------------------------------------------------------------
# next-location heads
# ---------------------------------------------------------------------------

class NextLocationHeadFFN:
    """One affine layer per level over the pooled vector (plus chained one-hot)."""

    kind = "ffn"

    def __init__(self, config: ModelConfig, seed: int = 0, dtype=np.float32):
        self.config = config
        rng = np.random.default_rng(seed)
        self.params: dict[str, Tensor] = {}
        for h, size in enumerate(config.level_sizes, start=1):
            w, b = _init_affine(rng, config.head_input_width(h), size, dtype)
            self.params[f"g{h}.w"] = w
            self.params[f"g{h}.b"] = b

    def features(self, outputs: Tensor, keep: np.ndarray) -> Tensor:
        return masked_mean_pool(outputs, keep)

    def level_logits(self, level: int, pooled: Tensor, hot: np.ndarray | None) -> Tensor:
        x = pooled if hot is None else T.concat([pooled, Tensor(hot.astype(pooled.data.dtype))])
        return T.add(T.matmul(x, self.params[f"g{level}.w"]), self.params[f"g{level}.b"])


class NextLocationHeadLSTM:
    """One recurrent layer per level over [output_t || one-hot], last-state readout."""

    kind = "lstm"

    def __init__(self, config: ModelConfig, seed: int = 0, dtype=np.float32):
        self.config = config
        rng = np.random.default_rng(seed)
        w = config.hidden
        self.params: dict[str, Tensor] = {}
        for h, size in enumerate(config.level_sizes, start=1):
            n_in = config.head_input_width(h)
            wx, bg = _init_affine(rng, n_in, 4 * w, dtype)
            wh, _ = _init_affine(rng, w, 4 * w, dtype)
            ow, ob = _init_affine(rng, w, size, dtype)
            self.params[f"g{h}.wx"] = wx
            self.params[f"g{h}.wh"] = wh
            self.params[f"g{h}.b"] = bg
            self.params[f"g{h}.out_w"] = ow
            self.params[f"g{h}.out_b"] = ob

    def features(self, outputs: Tensor, keep: np.ndarray) -> tuple[Tensor, np.ndarray]:
        return outputs, keep

    def level_logits(self, level: int, features, hot: np.ndarray | None) -> Tensor:
        outputs, keep = features
        b, t1, w = outputs.data.shape
        dtype = outputs.data.dtype
        wx = self.params[f"g{level}.wx"]
        wh = self.params[f"g{level}.wh"]
        bias = self.params[f"g{level}.b"]
        h_t = Tensor(np.zeros((b, w), dtype=dtype))
        c_t = Tensor(np.zeros((b, w), dtype=dtype))
        for t in range(t1):
            x_t = outputs[:, t, :]
            if hot is not None:
                x_t = T.concat([x_t, Tensor(hot.astype(dtype))])
            gates = T.add(T.add(T.matmul(x_t, wx), T.matmul(h_t, wh)), bias)
            i_g = T.sigmoid(gates[:, 0 * w : 1 * w])
            f_g = T.sigmoid(gates[:, 1 * w : 2 * w])
            g_g = T.tanh(gates[:, 2 * w : 3 * w])
            o_g = T.sigmoid(gates[:, 3 * w : 4 * w])
            c_new = T.add(T.mul(f_g, c_t), T.mul(i_g, g_g))
            h_new = T.mul(o_g, T.tanh(c_new))
            # PAD steps hold the previous state, so the final state is the
            # one at each sample's last real position
            m = Tensor(keep[:, t : t + 1].astype(dtype))
            keep_inv = Tensor(1.0 - keep[:, t : t + 1].astype(dtype))
            c_t = T.add(T.mul(c_new, m), T.mul(c_t, keep_inv))
            h_t = T.add(T.mul(h_new, m), T.mul(h_t, keep_inv))
        return T.add(T.matmul(h_t, self.params[f"g{level}.out_w"]), self.params[f"g{level}.out_b"])


def make_head(kind: str, config: ModelConfig, seed: int = 0, dtype=np.float32):
    if kind == "ffn":
        return NextLocationHeadFFN(config, seed=seed, dtype=dtype)
    if kind == "lstm":
        return NextLocationHeadLSTM(config, seed=seed, dtype=dtype)
    raise ValueError(f"unknown head kind {kind!r}; expected one of {HEAD_KINDS}")


class PretrainingHeads:
    """The pre-training heads behind the same interface as the fine-tuned heads.

    They read the decoder output at each sequence's last real position, which
    is what the self-supervised objective trains to predict the next location from.
    """

    def __init__(self, state: ModelState):
        self.state = state
        self.config = state.config

    def features(self, outputs: Tensor, keep: np.ndarray) -> Tensor:
        last = keep.sum(axis=1) - 1
        return outputs[np.arange(len(last)), last]

    def level_logits(self, level: int, features: Tensor, hot: np.ndarray | None) -> Tensor:
        return head_forward(self.state, level, features, hot)


# ---------------------------------------------------------------------------
# joint top-k via per-level beam
# ---------------------------------------------------------------------------

def beam_topk(level_probs, level_sizes: list[int], k: int) -> list[tuple[tuple[int, ...], float]]:
    """Rank complete tuples by the product of per-level conditional probabilities.

    `level_probs(level, prev_id)` returns the probability vector of a level
    given the previous level's chosen id (`None` for level 1). Expands each
    kept candidate over the whole next level and keeps the k best running
    products; ties order lexicographically by tuple. With k equal to the
    number of complete tuples this is exhaustive enumeration.
    """
    total = int(np.prod(level_sizes))
    k = max(1, min(k, total))
    beams: list[tuple[tuple[int, ...], float]] = [((), 1.0)]
    for level in range(1, len(level_sizes) + 1):
        expanded = []
        for tup, p in beams:
            probs = level_probs(level, tup[-1] if tup else None)
            for cls, q in enumerate(probs):
                expanded.append((tup + (cls,), p * float(q)))
        expanded.sort(key=lambda item: (-item[1], item[0]))
        beams = expanded[:k]
    return beams


def _beam_rank(state: ModelState, head, traj: Trajectory, k: int):
    """One backbone pass over `traj`, then the beam over `head`'s conditional chain.

    Each distinct (level, previous id) the beam asks for costs one head call.
    """
    batch = make_batch([traj], state.config.levels)
    with T.no_grad():
        features = head.features(backbone_outputs(state, batch), batch.keep)
        cache: dict = {}

        def level_probs(level: int, prev_id: int | None) -> np.ndarray:
            key = (level, prev_id)
            if key not in cache:
                hot = chain_one_hot(state.config, level, [prev_id], state.dtype)
                cache[key] = T.softmax(head.level_logits(level, features, hot)).data[0]
            return cache[key]

        return beam_topk(level_probs, state.config.level_sizes, k)


def predict_topk(
    state: ModelState, head, traj: Trajectory, k: int
) -> list[tuple[tuple[int, ...], float]]:
    """Top-k full hierarchical locations following the trajectory, with scores."""
    return _beam_rank(state, head, traj, k)


def pretrained_predict_topk(
    state: ModelState, traj: Trajectory, k: int
) -> list[tuple[tuple[int, ...], float]]:
    """Top-k next locations straight from the pre-training heads."""
    return _beam_rank(state, PretrainingHeads(state), traj, k)


# ---------------------------------------------------------------------------
# fine-tuning loops
# ---------------------------------------------------------------------------

def _prefix_and_target(traj: Trajectory) -> tuple[Trajectory, tuple[int, ...]]:
    """Input is everything up to the last real location, target the last one."""
    if traj.length < 2:
        raise ValueError("next-location fine-tuning needs >= 2 real locations")
    prefix = Trajectory(
        user=traj.user,
        ids=traj.ids[:-1],
        timestamps=traj.timestamps[:-1],
        label=traj.label,
    )
    return prefix, traj.ids[-1]


def _fit_head(
    state: ModelState,
    head_params: dict[str, Tensor],
    pairs: list[tuple[Trajectory, object]],
    head_loss,
    train: TrainConfig,
    freeze_backbone: bool,
) -> list[float]:
    """Fit a head on (trajectory, target) pairs through `fit`; returns the curve.

    `head_loss(outputs, keep, targets)` scores one minibatch of decoder
    outputs. With the backbone frozen its tensors are never touched and its
    outputs are computed once per trajectory, in batches of up to
    `train.batch_size`, before the first epoch; each step re-pads the cached
    rows of its shuffled minibatch. Both heads mask PAD positions, so the
    zero padding never reaches the loss.
    """
    levels = state.config.levels
    params = dict(head_params)
    if freeze_backbone:
        rows = []
        with T.no_grad():
            for start in range(0, len(pairs), train.batch_size):
                chunk = [traj for traj, _ in pairs[start : start + train.batch_size]]
                out = backbone_outputs(state, make_batch(chunk, levels)).data
                rows += [out[i, : len(traj.ids)] for i, traj in enumerate(chunk)]
        items = list(zip(rows, (target for _, target in pairs)))

        def outputs_of(sources, rng):
            t1 = max(len(r) for r in sources)
            padded = np.zeros((len(sources), t1, sources[0].shape[1]), dtype=sources[0].dtype)
            keep = np.zeros((len(sources), t1), dtype=bool)
            for i, r in enumerate(sources):
                padded[i, : len(r)] = r
                keep[i, : len(r)] = True
            return Tensor(padded), keep
    else:
        params.update(state.params)
        items = pairs

        def outputs_of(sources, rng):
            batch = make_batch(sources, levels)
            return backbone_outputs(state, batch, rng=rng, training=True), batch.keep

    def loss_fn(chunk, rng):
        outputs, keep = outputs_of([source for source, _ in chunk], rng)
        return head_loss(outputs, keep, np.asarray([t for _, t in chunk], dtype=np.int64))

    return fit(params, items, loss_fn, train)


def finetune_next_location(
    state: ModelState,
    head_kind: str,
    train_trajs: list[Trajectory],
    eval_trajs: list[Trajectory],
    train: TrainConfig,
    freeze_backbone: bool = False,
    eval_k: int = 5,
):
    """Train a next-location head (optionally updating the backbone) and evaluate.

    Returns (head, EvalReport, per-epoch mean loss).
    """
    cfg = state.config
    pairs = [_prefix_and_target(t) for t in train_trajs if t.length >= 2]
    if not pairs:
        raise ValueError("no trainable trajectories (need length >= 2)")
    head = make_head(head_kind, cfg, seed=train.seed, dtype=state.dtype)

    def head_loss(outputs, keep, targets):
        logits = chained_logits(cfg, head.level_logits, head.features(outputs, keep))
        loss = None
        for h in range(cfg.levels):
            ce = T.cross_entropy(logits[h], targets[:, h])
            loss = ce if loss is None else T.add(loss, ce)
        return loss

    curve = _fit_head(state, head.params, pairs, head_loss, train, freeze_backbone)
    report = evaluate_next_location(state, head, eval_trajs, k=eval_k)
    return head, report, curve


def evaluate_next_location(
    state: ModelState, head, trajs: list[Trajectory], k: int = 5
) -> EvalReport:
    """Joint all-levels-correct accuracy over ranked beam predictions.

    Each trajectory's last location is the target and everything before it
    the input. `head` None scores the pre-training heads' own predictions.
    """
    ranked, targets = [], []
    for traj in trajs:
        if traj.length < 2:
            continue
        prefix, target = _prefix_and_target(traj)
        if head is None:
            top = pretrained_predict_topk(state, prefix, k)
        else:
            top = predict_topk(state, head, prefix, k)
        ranked.append([tup for tup, _ in top])
        targets.append(target)
    if not targets:
        raise ValueError("no evaluable trajectories (need length >= 2)")
    return compute_metrics(ranked, targets)


# ---------------------------------------------------------------------------
# trajectory classification
# ---------------------------------------------------------------------------

class TrajectoryClassifier:
    """Single affine layer over the pooled trajectory vector."""

    def __init__(self, config: ModelConfig, classes: list[str], seed: int = 0, dtype=np.float32):
        self.config = config
        self.classes = list(classes)
        rng = np.random.default_rng(seed)
        w, b = _init_affine(rng, config.hidden, len(self.classes), dtype)
        self.params = {"w": w, "b": b}

    def logits(self, pooled: Tensor) -> Tensor:
        return T.add(T.matmul(pooled, self.params["w"]), self.params["b"])


def finetune_classifier(
    state: ModelState,
    train_trajs: list[Trajectory],
    eval_trajs: list[Trajectory],
    train: TrainConfig,
    classes: list[str] | None = None,
    freeze_backbone: bool = False,
):
    """Train the classifier head on labeled trajectories and evaluate it.

    Labels unseen at training time are scored as a reported error class the
    model can never predict.
    """
    labeled = [t for t in train_trajs if t.label is not None]
    if not labeled:
        raise ValueError("no labeled trajectories to train on")
    if classes is None:
        classes = sorted({t.label for t in labeled})
    index = {c: i for i, c in enumerate(classes)}
    clf = TrajectoryClassifier(state.config, classes, seed=train.seed, dtype=state.dtype)
    pairs = [(t, index[t.label]) for t in labeled]

    def head_loss(outputs, keep, targets):
        return T.cross_entropy(clf.logits(masked_mean_pool(outputs, keep)), targets)

    curve = _fit_head(state, clf.params, pairs, head_loss, train, freeze_backbone)
    report = evaluate_classifier(state, clf, eval_trajs)
    return clf, report, curve


def evaluate_classifier(
    state: ModelState, clf: TrajectoryClassifier, trajs: list[Trajectory]
) -> EvalReport:
    labeled = [t for t in trajs if t.label is not None]
    if not labeled:
        raise ValueError("no labeled trajectories to evaluate")
    ranked, targets = [], []
    with T.no_grad():
        for start in range(0, len(labeled), 64):
            chunk = labeled[start : start + 64]
            batch = make_batch(chunk, state.config.levels)
            outputs = backbone_outputs(state, batch)
            probs = T.softmax(clf.logits(masked_mean_pool(outputs, batch.keep))).data
            order = np.argsort(-probs, axis=-1, kind="stable")
            for row, traj in zip(order, chunk):
                ranked.append([clf.classes[i] for i in row[:5]])
                targets.append(traj.label)  # unseen labels stay as-is: error class
    return compute_metrics(ranked, targets)

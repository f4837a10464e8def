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

from dataclasses import asdict, dataclass

import numpy as np

from . import tensor as T
from .model import (
    HEAD_CHAINED,
    Batch,
    CheckpointError,
    ModelConfig,
    ModelState,
    TrainConfig,
    chain_one_hot,
    chained_logits,
    check_layout,
    decoder_forward,
    embed_sequence,
    fit,
    head_forward,
    init_params,
    load_tensors,
    make_batch,
    meta_config,
    save_tensors,
    sequence_loss,
)
from .pipeline import Trajectory
from .tensor import Tensor


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
        doc = asdict(self)
        del doc["per_class"]
        return doc


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


# ---------------------------------------------------------------------------
# next-location heads
# ---------------------------------------------------------------------------

# Each head is built from `(config, params)`; its `layout` is what `init_params`
# draws and `check_layout` checks.

class NextLocationHeadFFN:
    """One affine layer per level over the pooled vector (plus chained one-hot)."""

    kind = "ffn"

    def __init__(self, config: ModelConfig, params: dict[str, Tensor]):
        self.config = config
        self.params = params

    @staticmethod
    def layout(config: ModelConfig) -> list[tuple[str, tuple[int, ...]]]:
        return [
            pair
            for h, size in enumerate(config.level_sizes, start=1)
            for pair in ((f"g{h}.w", (config.head_input_width(h), size)), (f"g{h}.b", (size,)))
        ]

    def features(self, outputs: Tensor, keep: np.ndarray) -> Tensor:
        return masked_mean_pool(outputs, keep)

    def level_logits(self, level: int, pooled: Tensor, hot: np.ndarray | None) -> Tensor:
        return T.concat_matmul(pooled, hot, self.params[f"g{level}.w"], self.params[f"g{level}.b"])


class NextLocationHeadLSTM:
    """One recurrent layer per level over [output_t || one-hot], last-state readout."""

    kind = "lstm"

    def __init__(self, config: ModelConfig, params: dict[str, Tensor]):
        self.config = config
        self.params = params

    @staticmethod
    def layout(config: ModelConfig) -> list[tuple[str, tuple[int, ...]]]:
        w = config.hidden
        return [
            pair
            for h, size in enumerate(config.level_sizes, start=1)
            for pair in (
                (f"g{h}.wx", (config.head_input_width(h), 4 * w)), (f"g{h}.wh", (w, 4 * w)),
                (f"g{h}.b", (4 * w,)), (f"g{h}.out_w", (w, size)), (f"g{h}.out_b", (size,)),
            )
        ]

    def features(self, outputs: Tensor, keep: np.ndarray) -> tuple[Tensor, np.ndarray]:
        return outputs, keep

    def level_logits(self, level: int, features, hot: np.ndarray | None) -> Tensor:
        outputs, keep = features
        p = lambda name: self.params[f"g{level}.{name}"]
        # the input side of every step at once; a one-hot meets `wx` once per row
        x_gates = T.concat_matmul(outputs, hot, p("wx"), p("b"))
        last = T.lstm(x_gates, p("wh"), keep.sum(axis=1) - 1)
        return T.matmul(last, p("out_w"), p("out_b"))


HEADS = {"ffn": NextLocationHeadFFN, "lstm": NextLocationHeadLSTM}
HEAD_KINDS = tuple(HEADS)


def make_head(kind: str, config: ModelConfig, seed: int = 0, dtype=np.float32):
    """A freshly initialised next-location head of `kind`, one of `HEAD_KINDS`."""
    if kind not in HEADS:
        raise ValueError(f"unknown head kind {kind!r}; expected one of {HEAD_KINDS}")
    return HEADS[kind](config, init_params(HEADS[kind].layout(config), seed, dtype))


def save_head(head, path):
    """Write a next-location head or a `TrajectoryClassifier` for `load_head`."""
    if isinstance(head, TrajectoryClassifier):
        meta = {"kind": "classifier", "classes": head.classes}
    else:
        meta = {"kind": "head", "head_kind": head.kind}
    save_tensors(path, head.params, {**meta, "config": head.config.to_json()})


def load_head(path, state: ModelState):
    """A head written by `save_head`, rebuilt on `state`; `CheckpointError` if it does not fit."""
    meta, tensors = load_tensors(path)
    if meta.get("kind") == "head":
        if meta.get("head_kind") not in HEAD_KINDS:
            raise CheckpointError(
                f"{path}: 'head_kind' must be one of {HEAD_KINDS}, got {meta.get('head_kind')!r}"
            )
        cls, extra = HEADS[meta["head_kind"]], ()
    elif meta.get("kind") == "classifier":
        classes = meta.get("classes")
        if not isinstance(classes, list) or not all(isinstance(c, str) for c in classes):
            raise CheckpointError(f"{path}: 'classes' must be a list of strings, got {classes!r}")
        cls, extra = TrajectoryClassifier, (classes,)
    else:
        raise CheckpointError(f"{path}: not a head checkpoint")
    meta_config(meta, path)  # checked only: the head is rebuilt on `state`'s config
    params = check_layout(path, tensors, cls.layout(state.config, *extra))
    return cls(state.config, params, *extra)


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
    given the previous level's chosen id (`None` for level 1); it is called
    once per kept candidate per level. Each level stacks those vectors into
    a [candidates, V] matrix of float64 running products, finds the k-th
    best with `np.partition` and orders the candidates at least that good
    with one `np.lexsort`; ties order lexicographically by tuple, and none
    is dropped at the k-th place. With k equal to the number of complete
    tuples this is exhaustive enumeration.
    """
    total = int(np.prod(level_sizes))
    k = max(1, min(k, total))
    tuples = np.zeros((1, 0), dtype=np.int64)  # kept candidates, one row each
    # each kept tuple as a mixed-radix number, which orders as the tuple does
    codes = np.zeros(1, dtype=np.int64)
    scores = np.ones(1)
    for level in range(1, len(level_sizes) + 1):
        prev_ids = [None] if level == 1 else tuples[:, -1].tolist()
        probs = np.stack([level_probs(level, prev) for prev in prev_ids])
        size = probs.shape[1]
        neg = -(scores[:, None] * probs).ravel()
        cand_codes = (codes[:, None] * size + np.arange(size)).ravel()
        # only candidates no worse than the n-th best can be kept, so only they
        # are sorted; every tie at the cut stays in (partition orders NaN last,
        # as lexsort does, and `~(>)` keeps it)
        n = min(k, neg.size)
        top = np.flatnonzero(~(neg > np.partition(neg, n - 1)[n - 1]))
        pick = top[np.lexsort((cand_codes[top], neg[top]))][:k]
        row, cls = np.divmod(pick, size)
        tuples = np.column_stack([tuples[row], cls])
        codes, scores = cand_codes[pick], -neg[pick]
    return [(tuple(tup), score) for tup, score in zip(tuples.tolist(), scores.tolist())]


def _beam_rank(state: ModelState, head, traj: Trajectory, k: int):
    """One backbone pass over `traj`, then the beam over `head`'s conditional chain.

    Each distinct (level, input) the beam asks for costs one head call. The
    input is the previous id in chained mode; independent heads read the
    features alone, so one call per level serves every kept candidate.
    """
    batch = make_batch([traj], state.config.levels)
    with T.no_grad():
        features = head.features(backbone_outputs(state, batch), batch.keep)
        chained = state.config.head_mode == HEAD_CHAINED
        cache: dict = {}

        def level_probs(level: int, prev_id: int | None) -> np.ndarray:
            read = prev_id if chained else None
            key = (level, read)
            if key not in cache:
                hot = chain_one_hot(state.config, level, [read], state.dtype)
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
        features = head.features(outputs, keep)
        return sequence_loss(chained_logits(cfg, head.level_logits, features), targets)

    curve = _fit_head(state, head.params, pairs, head_loss, train, freeze_backbone)
    report = evaluate_next_location(state, head, eval_trajs, k=5)
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

    def __init__(self, config: ModelConfig, params: dict[str, Tensor], classes: list[str]):
        self.config = config
        self.params = params
        self.classes = list(classes)

    @staticmethod
    def layout(config: ModelConfig, classes: list[str]) -> list[tuple[str, tuple[int, ...]]]:
        return [("w", (config.hidden, len(classes))), ("b", (len(classes),))]

    def logits(self, pooled: Tensor) -> Tensor:
        return T.matmul(pooled, self.params["w"], self.params["b"])


def finetune_classifier(
    state: ModelState,
    train_trajs: list[Trajectory],
    eval_trajs: list[Trajectory],
    train: TrainConfig,
    freeze_backbone: bool = False,
):
    """Train the classifier head on labeled trajectories and evaluate it.

    Labels unseen at training time are scored as a reported error class the
    model can never predict.
    """
    labeled = [t for t in train_trajs if t.label is not None]
    if not labeled:
        raise ValueError("no labeled trajectories to train on")
    classes = sorted({t.label for t in labeled})
    index = {c: i for i, c in enumerate(classes)}
    layout = TrajectoryClassifier.layout(state.config, classes)
    clf = TrajectoryClassifier(state.config, init_params(layout, train.seed, state.dtype), classes)
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

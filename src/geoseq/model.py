"""Causal location embedding model over hierarchical tokens.

The input embedding sums one table per hierarchy level with a fixed sinusoidal
positional table and a learned transform of log absolute time. A stack of
pre-norm masked decoder blocks produces, at each position t, a vector that
depends only on positions <= t. Per-level prediction heads map that vector to
next-location logits; in "chained" mode each level past the first also sees a
gradient-stopped one-hot of the previous level's own argmax prediction, so
coarse predictions steer fine ones without leaking gradients backwards.
"""

from __future__ import annotations

import functools
import json
import math
import os
import struct
from dataclasses import asdict, dataclass

import numpy as np

from . import tensor as T
from .optim import Adam
from .pipeline import MAX_SEQ_LEN, Trajectory, _at_least
from .tensor import Tensor
from .vocab import PAD_ID

CHECKPOINT_MAGIC = b"GSQ1"
CHECKPOINT_VERSION = 1

HEAD_CHAINED = "chained"
HEAD_INDEPENDENT = "independent"


class CheckpointError(ValueError):
    """Corrupt, truncated, or layout-incompatible checkpoint file."""


class TrainingDiverged(RuntimeError):
    """Loss went non-finite; carries the epoch/step where it happened."""


@dataclass
class ModelConfig:
    level_sizes: list[int]  # tokens per level, specials included
    hidden: int = 256
    layers: int = 6
    heads: int = 8
    attn_dropout: float = 0.1
    max_seq_len: int = MAX_SEQ_LEN
    head_mode: str = HEAD_CHAINED

    def __post_init__(self):
        if not self.level_sizes or any(s < 1 for s in self.level_sizes):
            raise ValueError(f"'level_sizes' must be positive, got {self.level_sizes}")
        _at_least(self, 1, "hidden", "heads")
        _at_least(self, 0, "layers")
        if self.hidden % self.heads != 0:
            raise ValueError(f"'hidden' {self.hidden} is not divisible by 'heads' {self.heads}")
        if not 0 <= self.attn_dropout < 1:
            raise ValueError(f"'attn_dropout' must lie in [0, 1), got {self.attn_dropout}")
        if self.head_mode not in (HEAD_CHAINED, HEAD_INDEPENDENT):
            raise ValueError(
                f"'head_mode' must be one of {(HEAD_CHAINED, HEAD_INDEPENDENT)}, "
                f"got {self.head_mode!r}"
            )

    @property
    def levels(self) -> int:
        return len(self.level_sizes)

    def head_input_width(self, level: int) -> int:
        """W for level 1, W + |L^{h-1}| above it when heads are chained."""
        if level > 1 and self.head_mode == HEAD_CHAINED:
            return self.hidden + self.level_sizes[level - 2]
        return self.hidden

    def to_json(self) -> dict:
        return {**asdict(self), "level_sizes": list(self.level_sizes)}

    @classmethod
    def from_json(cls, doc: dict) -> "ModelConfig":
        return cls(**doc)


@dataclass
class TrainConfig:
    epochs: int = 10
    batch_size: int = 32
    lr: float = 1e-3
    betas: tuple[float, float] = (0.9, 0.999)
    eps: float = 1e-8
    weight_decay: float = 1e-2
    warmup_steps: int = 10000
    seed: int = 0

    def __post_init__(self):
        _at_least(self, 1, "epochs", "batch_size")
        _at_least(self, 0, "lr", "eps", strict=True)
        _at_least(self, 0, "weight_decay", "warmup_steps")
        if len(self.betas) != 2 or not all(0 <= beta < 1 for beta in self.betas):
            raise ValueError(f"'betas' needs two values in [0, 1), got {self.betas!r}")


def _param_layout(config: ModelConfig) -> list[tuple[str, tuple[int, ...]]]:
    """Ordered (name, shape) pairs; checkpoint payloads follow this order."""
    w = config.hidden
    layout: list[tuple[str, tuple[int, ...]]] = []
    for h, size in enumerate(config.level_sizes, start=1):
        layout.append((f"embed.h{h}", (size, w)))
    layout.append(("temporal.w", (1, w)))
    layout.append(("temporal.b", (w,)))
    for i in range(config.layers):
        for proj in ("wq", "wk", "wv", "wo"):
            layout.append((f"layer{i}.attn.{proj}", (w, w)))
        for proj in ("bq", "bk", "bv", "bo"):
            layout.append((f"layer{i}.attn.{proj}", (w,)))
        layout.append((f"layer{i}.ln1.g", (w,)))
        layout.append((f"layer{i}.ln1.b", (w,)))
        layout.append((f"layer{i}.ff.w1", (w, 4 * w)))
        layout.append((f"layer{i}.ff.b1", (4 * w,)))
        layout.append((f"layer{i}.ff.w2", (4 * w, w)))
        layout.append((f"layer{i}.ff.b2", (w,)))
        layout.append((f"layer{i}.ln2.g", (w,)))
        layout.append((f"layer{i}.ln2.b", (w,)))
    if config.layers > 0:
        # pre-norm stacks need a closing norm to bound the residual stream
        layout.append(("final_ln.g", (w,)))
        layout.append(("final_ln.b", (w,)))
    for h, size in enumerate(config.level_sizes, start=1):
        layout.append((f"head.h{h}.w1", (config.head_input_width(h), w)))
        layout.append((f"head.h{h}.b1", (w,)))
        layout.append((f"head.h{h}.w2", (w, size)))
        layout.append((f"head.h{h}.b2", (size,)))
    return layout


def init_params(layout, seed: int = 0, dtype=np.float32) -> dict[str, Tensor]:
    """Trainable tensors for `layout`: matrices ~ N(0, 0.02) drawn in layout
    order, 1-D tensors zero, norm gains (`.g`) one."""
    rng = np.random.default_rng(seed)
    params: dict[str, Tensor] = {}
    for name, shape in layout:
        if name.endswith(".g"):
            data = np.ones(shape, dtype=dtype)
        elif len(shape) == 1:
            data = np.zeros(shape, dtype=dtype)
        else:
            data = rng.normal(0.0, 0.02, size=shape).astype(dtype)
        params[name] = Tensor(data, requires_grad=True)
    return params


class ModelState:
    """Named trainable tensors plus the config that shaped them."""

    def __init__(self, config: ModelConfig, params: dict[str, Tensor]):
        self.config = config
        self.params = params

    @classmethod
    def init(cls, config: ModelConfig, seed: int = 0, dtype=np.float32) -> "ModelState":
        return cls(config, init_params(_param_layout(config), seed, dtype))

    def __getitem__(self, name: str) -> Tensor:
        return self.params[name]

    def param_count(self) -> int:
        return sum(int(p.data.size) for p in self.params.values())

    @property
    def dtype(self):
        return self.params["temporal.w"].data.dtype


# ---------------------------------------------------------------------------
# batching
# ---------------------------------------------------------------------------

@dataclass
class Batch:
    ids: np.ndarray        # [B, T1, H] int64, SOS at 0, PAD-right
    timestamps: np.ndarray  # [B, T1] float64, PAD positions hold 1
    keep: np.ndarray       # [B, T1] bool, True at SOS and real positions


def make_batch(trajs: list[Trajectory], levels: int) -> Batch:
    lengths = [len(t.ids) for t in trajs]
    t1 = max(lengths)
    b = len(trajs)
    ids = np.full((b, t1, levels), PAD_ID, dtype=np.int64)
    ts = np.ones((b, t1), dtype=np.float64)
    keep = np.zeros((b, t1), dtype=bool)
    for i, traj in enumerate(trajs):
        n = len(traj.ids)
        ids[i, :n] = np.asarray(traj.ids, dtype=np.int64)
        ts[i, :n] = np.asarray(traj.timestamps, dtype=np.float64)
        keep[i, :n] = True
    return Batch(ids=ids, timestamps=ts, keep=keep)


# ---------------------------------------------------------------------------
# forward pieces
# ---------------------------------------------------------------------------

@functools.cache
def positional_encoding(n_positions: int, width: int, dtype=np.float32) -> np.ndarray:
    """Fixed sinusoidal table: sin on even dims, cos on odd, base 10000.

    Computed once per `(n_positions, width, dtype)` and returned read-only;
    `embed_sequence` caps `n_positions` at `max_seq_len` before asking.
    """
    pos = np.arange(n_positions, dtype=np.float64)[:, None]
    dim = np.arange(width, dtype=np.float64)[None, :]
    angle = pos / np.power(10000.0, (dim - dim % 2) / width)
    table = np.where(dim % 2 == 0, np.sin(angle), np.cos(angle)).astype(dtype)
    table.flags.writeable = False
    return table


def temporal_encoding(timestamps: np.ndarray, state: ModelState) -> Tensor:
    """ReLU-affine transform of log absolute time, one vector per position."""
    if np.any(timestamps <= 0):
        raise ValueError("timestamps must be positive for the log transform")
    logt = np.log(timestamps.astype(np.float64)).astype(state.dtype)[..., None]
    return T.relu(T.matmul(Tensor(logt), state["temporal.w"], state["temporal.b"]))


def embed_sequence(batch: Batch, state: ModelState) -> Tensor:
    """Sum of per-level token embeddings + positional table + time transform.

    Every forward pass starts here, so this is where the length cap is enforced.
    """
    cfg = state.config
    if batch.ids.shape[1] > cfg.max_seq_len:
        raise ValueError(
            f"sequence of {batch.ids.shape[1]} positions exceeds max_seq_len {cfg.max_seq_len}"
        )
    x = T.embedding_lookup(state["embed.h1"], batch.ids[:, :, 0])
    for h in range(2, cfg.levels + 1):
        x = T.add(x, T.embedding_lookup(state[f"embed.h{h}"], batch.ids[:, :, h - 1]))
    pe = positional_encoding(batch.ids.shape[1], cfg.hidden, dtype=state.dtype)
    x = T.add(x, Tensor(pe))
    return T.add(x, temporal_encoding(batch.timestamps, state))


def decoder_forward(
    x: Tensor,
    keep: np.ndarray,
    state: ModelState,
    rng: np.random.Generator | None = None,
) -> Tensor:
    """Pre-norm masked self-attention blocks; output t sees inputs <= t only.

    Given an `rng`, the attention weights go through dropout (`attn_dropout`).
    The blocks run on the real positions of `x` [B, T1, W] alone (the True
    entries of `keep`, gathered once into [n, W]): the norms, projections,
    FFN and residual adds skip the PAD rows. Q, K and V are scattered back
    into the padded [B, heads, T1, hd] layout for the attention node only,
    so its masking and dropout draw do not change. Returns [B, T1, W] with
    every PAD row zero; with no layers, `x` itself.

    A batch without PAD (every `keep` True, as a batch of one always is)
    takes the dense path: the gather and the scatters would be identity maps,
    so they are skipped and the blocks read `x`'s rows in place. Both paths
    copy the same values into the same row order, forward and backward, so
    they give the same bits.
    """
    cfg = state.config
    if cfg.layers == 0:
        return x
    b, t1, w = x.data.shape
    hd = w // cfg.heads
    causal = np.tril(np.ones((t1, t1), dtype=bool))
    attend = causal[None, None, :, :] & keep[:, None, None, :]
    real = None if keep.all() else np.flatnonzero(keep)

    def real_rows(t: Tensor) -> Tensor:
        """[B, T1, ...] activations as [n, W] rows, the real ones alone."""
        rows = T.reshape(t, (b * t1, w))
        return rows if real is None else T.embedding_lookup(rows, real)

    def padded(t: Tensor) -> Tensor:
        """[n, W] rows back in the [B * T1, W] layout, zero at PAD."""
        return t if real is None else T.scatter_rows(t, real, b * t1)

    def split_heads(t: Tensor) -> Tensor:
        return T.swapaxes(T.reshape(padded(t), (b, t1, cfg.heads, hd)), 1, 2)

    x = real_rows(x)
    for i in range(cfg.layers):
        pre = lambda s: state[f"layer{i}.{s}"]
        h = T.layer_norm(x, pre("ln1.g"), pre("ln1.b"))
        q = split_heads(T.matmul(h, pre("attn.wq"), pre("attn.bq")))
        k = split_heads(T.matmul(h, pre("attn.wk"), pre("attn.bk")))
        v = split_heads(T.matmul(h, pre("attn.wv"), pre("attn.bv")))
        ctx = T.scaled_dot_product_attention(
            q, k, v, attend, dropout_p=cfg.attn_dropout, rng=rng
        )
        ctx = real_rows(T.swapaxes(ctx, 1, 2))
        x = T.add(x, T.matmul(ctx, pre("attn.wo"), pre("attn.bo")))
        h2 = T.layer_norm(x, pre("ln2.g"), pre("ln2.b"))
        f = T.relu(T.matmul(h2, pre("ff.w1"), pre("ff.b1")))
        x = T.add(x, T.matmul(f, pre("ff.w2"), pre("ff.b2")))
    x = T.layer_norm(x, state["final_ln.g"], state["final_ln.b"])
    return T.reshape(padded(x), (b, t1, w))


def one_hot(indices: np.ndarray, depth: int, dtype) -> np.ndarray:
    out = np.zeros(indices.shape + (depth,), dtype=dtype)
    np.put_along_axis(out, indices[..., None], 1.0, axis=-1)
    return out


def chain_one_hot(config: ModelConfig, level: int, prev_ids, dtype) -> np.ndarray | None:
    """The extra input of a chained level: a one-hot of the previous level's ids.

    None at level 1 and in independent mode, where a head reads its features alone.
    """
    if level == 1 or config.head_mode != HEAD_CHAINED:
        return None
    return one_hot(np.asarray(prev_ids), config.level_sizes[level - 2], dtype)


def chained_logits(config: ModelConfig, level_logits, features) -> list[Tensor]:
    """Logits of every level, each fed the previous level's own prediction.

    `level_logits(level, features, hot)` is one level's head. Level h > 1 gets
    `chain_one_hot` of level h-1's argmax (lowest index on ties), built outside
    the graph so no gradient crosses levels through it.
    """
    logits = [level_logits(1, features, None)]
    for h in range(2, config.levels + 1):
        prev = np.argmax(logits[-1].data, axis=-1)
        hot = chain_one_hot(config, h, prev, logits[-1].data.dtype)
        logits.append(level_logits(h, features, hot))
    return logits


def head_forward(
    state: ModelState, level: int, features: Tensor, hot: np.ndarray | None = None
) -> Tensor:
    """Two affine layers with a ReLU between them, over `features` plus the one-hot `hot`."""
    w1, b1 = state[f"head.h{level}.w1"], state[f"head.h{level}.b1"]
    z = T.relu(T.concat_matmul(features, hot, w1, b1))
    return T.matmul(z, state[f"head.h{level}.w2"], state[f"head.h{level}.b2"])


def prediction_logits(outputs: Tensor, state: ModelState) -> list[Tensor]:
    """Per-level next-location logits of the pre-training heads at every row of `outputs`."""
    return chained_logits(
        state.config, lambda level, x, hot: head_forward(state, level, x, hot), outputs
    )


def target_rows(outputs: Tensor, ids: np.ndarray) -> tuple[Tensor, np.ndarray]:
    """The decoder outputs at the positions that have a next location, and its ids.

    `outputs` is [B, T1, W] and `ids` [B, T1, H]. Position t of a sequence is
    a target row when position t+1 holds a real location (no level PAD),
    which leaves out each sequence's last position and its padding. Returns
    the [N, W] rows, gathered in order from the flattened positions, and
    their [N, H] targets; a batch with no target row raises `ShapeError`.
    """
    b, t1, w = outputs.data.shape
    nxt = ids[:, 1:, :]
    seq, pos = np.nonzero((nxt != PAD_ID).all(axis=-1))
    if not len(seq):
        raise T.ShapeError("no position of the batch has a next location")
    rows = T.embedding_lookup(T.reshape(outputs, (b * t1, w)), seq * t1 + pos)
    return rows, nxt[seq, pos]


def sequence_loss(level_logits: list[Tensor], targets: np.ndarray) -> Tensor:
    """Sum over levels of the mean next-location cross-entropy (the HALM objective).

    `level_logits[h-1]` is level h's [N, V_h] logits at N target rows and
    `targets` their [N, H] next-location ids.
    """
    if targets.ndim != 2 or targets.shape[1] != len(level_logits):
        raise T.ShapeError(
            f"sequence_loss needs [N, {len(level_logits)}] targets, got {targets.shape}"
        )
    total = None
    for h, lg in enumerate(level_logits):
        ce = T.cross_entropy(lg, targets[:, h])
        total = ce if total is None else T.add(total, ce)
    return total


def forward_loss(
    batch: Batch,
    state: ModelState,
    rng: np.random.Generator | None = None,
) -> Tensor:
    """The pre-training loss of a batch, heads at its target rows; dropout given an `rng`."""
    x = embed_sequence(batch, state)
    out = decoder_forward(x, batch.keep, state, rng=rng)
    features, targets = target_rows(out, batch.ids)
    return sequence_loss(prediction_logits(features, state), targets)


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------

def fit(params: dict[str, Tensor], items: list, loss_fn, train: TrainConfig) -> list[float]:
    """The one training loop: shuffled minibatches, Adam, per-epoch mean loss.

    Each epoch shuffles `items` and calls `loss_fn(chunk, rng)` on consecutive
    chunks of up to `train.batch_size`, then steps Adam (built from every
    `TrainConfig` field) over `params`. `rng` is the run's single generator,
    seeded by `train.seed`; it shuffles first and is then free for dropout.
    A non-finite loss raises `TrainingDiverged` before its step moves a parameter.

    Gradients are cleared before each forward, so the previous step's
    parameter gradients are gone while this step's activations are built;
    with `Tensor.backward` freeing each node once its gradient has moved on,
    a step peaks at the parameters, the Adam moments and one forward's
    activations.
    """
    if not items:
        raise ValueError("empty training set")
    opt = Adam(params, train)
    rng = np.random.default_rng(train.seed)
    order = np.arange(len(items))
    curve = []
    for epoch in range(train.epochs):
        rng.shuffle(order)
        epoch_losses = []
        for step, start in enumerate(range(0, len(order), train.batch_size)):
            opt.zero_grad()
            loss = loss_fn([items[i] for i in order[start : start + train.batch_size]], rng)
            if not np.isfinite(loss.data):
                raise TrainingDiverged(f"non-finite loss at epoch {epoch}, step {step}")
            loss.backward()
            opt.step()
            epoch_losses.append(float(loss.data))
        curve.append(float(np.mean(epoch_losses)))
    return curve


def pretrain(
    trajs: list[Trajectory], config: ModelConfig, train: TrainConfig
) -> tuple[ModelState, list[float]]:
    """Self-supervised next-location training; returns per-epoch mean loss."""
    state = ModelState.init(config, seed=train.seed)

    def loss_fn(chunk, rng):
        return forward_loss(make_batch(chunk, config.levels), state, rng=rng)

    return state, fit(state.params, trajs, loss_fn, train)


# ---------------------------------------------------------------------------
# checkpoint container
# ---------------------------------------------------------------------------

_DTYPE_CODES = {np.dtype(np.float32): "<f4", np.dtype(np.float64): "<f8"}


def save_tensors(path, tensors: dict[str, Tensor], meta: dict):
    """Binary container: magic, version, manifest JSON, then raw payloads."""
    manifest = {
        "meta": meta,
        "tensors": [
            {"name": k, "shape": list(t.data.shape), "dtype": _DTYPE_CODES[t.data.dtype]}
            for k, t in tensors.items()
        ],
    }
    blob = json.dumps(manifest).encode("utf-8")
    with open(path, "wb") as f:
        f.write(CHECKPOINT_MAGIC)
        f.write(struct.pack("<I", CHECKPOINT_VERSION))
        f.write(struct.pack("<Q", len(blob)))
        f.write(blob)
        for t in tensors.values():
            f.write(np.ascontiguousarray(t.data, dtype=t.data.dtype.newbyteorder("<")))


def load_tensors(path) -> tuple[dict, dict[str, Tensor]]:
    """Read `save_tensors`'s file: the header and manifest, then each payload
    straight into its own array, so no buffer holds the whole file. Sizes are
    checked against the file's length before each payload is read."""
    with open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size
        head = f.read(16)
        if len(head) < 16 or head[:4] != CHECKPOINT_MAGIC:
            raise CheckpointError(f"{path}: not a checkpoint (bad magic)")
        (version,) = struct.unpack_from("<I", head, 4)
        if version != CHECKPOINT_VERSION:
            raise CheckpointError(f"{path}: unsupported version {version}")
        (mlen,) = struct.unpack_from("<Q", head, 8)
        if 16 + mlen > size:
            raise CheckpointError(f"{path}: truncated manifest")
        try:
            manifest = json.loads(f.read(mlen).decode("utf-8"))
        except ValueError as e:  # not UTF-8, not JSON, or an int past Python's digit limit
            raise CheckpointError(f"{path}: corrupt manifest: {e}") from None
        if not (
            isinstance(manifest, dict)
            and isinstance(manifest.get("meta"), dict)
            and isinstance(manifest.get("tensors"), list)
        ):
            raise CheckpointError(f"{path}: manifest needs an object 'meta' and a list 'tensors'")
        offset = 16 + mlen
        tensors: dict[str, Tensor] = {}
        for entry in manifest["tensors"]:
            if not isinstance(entry, dict) or not isinstance(entry.get("name"), str):
                raise CheckpointError(f"{path}: tensor entry without a string 'name'")
            name, shape, code = entry["name"], entry.get("shape"), entry.get("dtype")
            if name in tensors:
                raise CheckpointError(f"{path}: tensor '{name}' is listed twice")
            if not isinstance(shape, list) or not all(type(n) is int and n >= 0 for n in shape):
                raise CheckpointError(f"{path}: tensor '{name}' has bad shape {shape!r}")
            if not isinstance(code, str) or code not in _DTYPE_CODES.values():
                raise CheckpointError(f"{path}: tensor '{name}' has unsupported dtype {code!r}")
            nbytes = np.dtype(code).itemsize * math.prod(shape)
            if offset + nbytes > size:
                raise CheckpointError(f"{path}: truncated payload for tensor '{name}'")
            data = np.empty(shape, dtype=code)
            if f.readinto(data) != nbytes:  # the file shrank since fstat
                raise CheckpointError(f"{path}: truncated payload for tensor '{name}'")
            tensors[name] = Tensor(data, requires_grad=True)
            offset += nbytes
    if offset != size:
        raise CheckpointError(f"{path}: {size - offset} trailing bytes after payloads")
    return manifest["meta"], tensors


def save_checkpoint(state: ModelState, path):
    save_tensors(path, state.params, {"kind": "model", "config": state.config.to_json()})


def meta_config(meta: dict, path) -> ModelConfig:
    """The `ModelConfig` a checkpoint's `meta` records, or `CheckpointError`."""
    doc = meta.get("config")
    if not isinstance(doc, dict):
        raise CheckpointError(f"{path}: meta needs an object 'config', got {doc!r}")
    try:
        return ModelConfig.from_json(doc)
    except (TypeError, ValueError) as e:
        raise CheckpointError(f"{path}: bad model config in meta: {e}") from None


def check_layout(path, tensors: dict[str, Tensor], layout) -> dict[str, Tensor]:
    """`tensors` in `layout` order, or `CheckpointError` naming one that does not fit."""
    for name, shape in layout:
        if name not in tensors:
            raise CheckpointError(f"{path}: missing tensor '{name}' for target config")
        if tuple(tensors[name].data.shape) != shape:
            raise CheckpointError(
                f"{path}: tensor '{name}' has shape {tuple(tensors[name].data.shape)}, "
                f"config wants {shape}"
            )
    extra = set(tensors) - {name for name, _ in layout}
    if extra:
        raise CheckpointError(f"{path}: unexpected tensors {sorted(extra)}")
    return {name: tensors[name] for name, _ in layout}


def load_checkpoint(path) -> ModelState:
    """Load a model under the config it was saved with; its tensors must fit that config."""
    meta, tensors = load_tensors(path)
    if meta.get("kind") != "model":
        raise CheckpointError(f"{path}: not a model checkpoint")
    config = meta_config(meta, path)
    return ModelState(config, check_layout(path, tensors, _param_layout(config)))

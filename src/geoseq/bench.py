"""Parameter/FLOP accounting and the component-ablation harness.

Parameter counts are closed-form over the config and must equal the number
of trainable scalars in an instantiated model exactly. FLOPs are counted as
2x the matmul multiply-accumulates of one forward pass through the decoder
blocks and prediction heads; norms, activations, and embedding-side work are
excluded (documented convention, validated against the engine's runtime MAC
counter).

The ablation trains three variants under one budget and seed: a flat-vocab
single-head model, hierarchical tokens with independent per-level heads, and
hierarchical tokens with chained heads. Results are reported, not ranked.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .downstream import evaluate_next_location
from .model import ModelConfig, TrainConfig, TrainingDiverged, pretrain
from .optim import NonFiniteGradientError
from .pipeline import Trajectory, split
from .vocab import SOS_ID

VARIANTS = ("baseline_flat_alm", "gt_independent_alm", "gt_halm")


# ---------------------------------------------------------------------------
# closed-form accounting
# ---------------------------------------------------------------------------

def count_params(config: ModelConfig) -> dict:
    """Per-component trainable-scalar counts for a model of this shape."""
    w = config.hidden
    embeddings = w * sum(config.level_sizes)
    temporal = 2 * w
    per_layer = (4 * w * w + 4 * w) + (8 * w * w + 5 * w) + 4 * w
    heads = 0
    for h, size in enumerate(config.level_sizes, start=1):
        n_in = config.head_input_width(h)
        heads += n_in * w + w + w * size + size
    decoder = config.layers * per_layer
    if config.layers > 0:
        decoder += 2 * w  # closing norm of the pre-norm stack
    return {
        "embeddings": embeddings,
        "temporal": temporal,
        "decoder": decoder,
        "heads": heads,
        "total": embeddings + temporal + decoder + heads,
    }


def flat_embedding_params(flat_vocab: int, hidden: int) -> int:
    """What a non-hierarchical embedding table of the full vocabulary costs."""
    return hidden * flat_vocab


def estimate_flops(config: ModelConfig, seq_len: int) -> dict:
    """Forward-pass matmul MACs by term, plus FLOPs at 2 per MAC."""
    t, w = seq_len, config.hidden
    attn_linear = config.layers * 4 * t * w * w
    attn_scores = config.layers * t * t * w
    attn_context = config.layers * t * t * w
    ffn = config.layers * 8 * t * w * w
    heads = 0
    for h, size in enumerate(config.level_sizes, start=1):
        heads += t * (config.head_input_width(h) * w + w * size)
    macs = attn_linear + attn_scores + attn_context + ffn + heads
    return {
        "attn_linear": attn_linear,
        "attn_scores": attn_scores,
        "attn_context": attn_context,
        "ffn": ffn,
        "heads": heads,
        "total_macs": macs,
        "total_flops": 2 * macs,
    }


# ---------------------------------------------------------------------------
# ablation harness
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AblationSpec:
    """What the ablation compares; the model shape and training budget come
    from the `ModelConfig` and `TrainConfig` passed beside it."""

    variants: tuple[str, ...] = VARIANTS
    eval_k: int = 5

    def __post_init__(self):
        unknown = set(self.variants) - set(VARIANTS)
        if unknown:
            raise ValueError(f"unknown variants {sorted(unknown)}")


def flatten_trajectories(trajs: list[Trajectory]) -> tuple[list[Trajectory], int]:
    """Re-express tuple sequences over a flat vocabulary of full tuples.

    The SOS tuple keeps id 0 and id 1 stays reserved for padding; distinct
    real tuples get dense ids from 2 in first-seen order. Returns the flat
    trajectories and the flat vocabulary size (specials included).
    """
    mapping: dict = {}
    flat: list[Trajectory] = []
    sos = None
    for traj in trajs:
        if sos is None:
            sos = traj.ids[0]
        ids = [(SOS_ID,)]
        for tup in traj.ids[1:]:
            if tup not in mapping:
                mapping[tup] = 2 + len(mapping)
            ids.append((mapping[tup],))
        flat.append(Trajectory(traj.user, ids, list(traj.timestamps), traj.label))
    return flat, len(mapping) + 2


def _variant_config(variant: str, config: ModelConfig, flat_size: int) -> ModelConfig:
    if variant == "baseline_flat_alm":
        return replace(config, level_sizes=[flat_size], head_mode="independent")
    mode = "independent" if variant == "gt_independent_alm" else "chained"
    return replace(config, head_mode=mode)


def run_ablation(
    trajs: list[Trajectory],
    config: ModelConfig,
    train: TrainConfig,
    spec: AblationSpec = AblationSpec(),
) -> list[dict]:
    """Train every variant with one budget/seed and report the comparison.

    `config` gives the hierarchical level sizes and the shape every variant
    shares; each variant sets its own vocabulary and head mode.

    Training uses the shuffled 80% share; accuracy is the model's own
    next-location prediction on the held-out test share, with correctness
    meaning the full finest-resolution location (all levels at once for the
    hierarchical variants, the flat token for the baseline). A diverging
    variant is recorded and the run continues.
    """
    flat_trajs, flat_size = flatten_trajectories(trajs)
    parts = split(len(trajs), train.seed)
    rows = []
    for variant in spec.variants:
        data = flat_trajs if variant == "baseline_flat_alm" else trajs
        variant_config = _variant_config(variant, config, flat_size)
        train_set = [data[i] for i in parts.pretrain]
        eval_set = [data[i] for i in parts.finetune_test]
        row = {
            "variant": variant,
            "halm_loss": None,
            "acc1": None,
            "acc5": None,
            "params": count_params(variant_config)["total"],
            "flops": estimate_flops(variant_config, config.max_seq_len)["total_flops"],
            "embedding_params": count_params(variant_config)["embeddings"],
            "divergent": False,
        }
        try:
            state, curve = pretrain(train_set, variant_config, train)
            report = evaluate_next_location(state, None, eval_set, k=spec.eval_k)
            row["halm_loss"] = curve[-1]
            row["acc1"] = report.acc1
            row["acc5"] = report.acc5
        except (TrainingDiverged, NonFiniteGradientError):
            row["divergent"] = True
        rows.append(row)
    return rows


def render_table(rows: list[dict]) -> str:
    """Aligned plain-text rendering of the ablation comparison."""
    cols = ("variant", "halm_loss", "acc1", "acc5", "params", "flops")

    def fmt(row, col):
        v = row[col]
        if v is None:
            return "divergent" if row.get("divergent") else "-"
        if isinstance(v, float):
            return f"{v:.4f}"
        return str(v)

    cells = [cols] + [tuple(fmt(r, c) for c in cols) for r in rows]
    widths = [max(len(row[i]) for row in cells) for i in range(len(cols))]
    lines = []
    for i, row in enumerate(cells):
        lines.append("  ".join(cell.ljust(widths[j]) for j, cell in enumerate(row)).rstrip())
        if i == 0:
            lines.append("  ".join("-" * widths[j] for j in range(len(cols))))
    return "\n".join(lines) + "\n"

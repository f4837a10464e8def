"""Command-line entry point wiring tokenizer, pipeline, training, and eval.

Subcommands: synth, vocab, preprocess, pretrain, finetune, eval, ablate.
Model and pipeline hyperparameters live in a JSON config (unknown keys are
rejected); flags carry only paths, the seed, and the subcommand. Every
command writes its artifacts plus a manifest.json (resolved config, config
hash, seed, input hashes, versions) into --out. Exit codes: 0 success,
2 bad config/usage, 3 missing file, 1 anything else. Logs go to stderr.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import platform
import sys
from dataclasses import MISSING, fields
from pathlib import Path

import numpy as np

from . import __version__
from .bench import AblationSpec, render_table, run_ablation
from .downstream import (
    evaluate_classifier,
    evaluate_next_location,
    finetune_classifier,
    finetune_next_location,
    make_head,
    pretrained_predict_topk,
    compute_metrics,
)
from .grid import GridError, GridSpec
from .model import (
    ModelConfig,
    TrainConfig,
    load_checkpoint,
    load_tensors,
    pretrain,
    save_checkpoint,
    save_tensors,
)
from .pipeline import (
    PipelineConfig,
    Trajectory,
    iter_csv_points,
    preprocess,
    read_csv,
    read_trajectories,
    split,
    split_from_json,
    split_to_json,
    write_trajectories,
)
from .synth import SynthConfig, generate_records, write_csv
from .vocab import Vocabulary, build_vocab


class ConfigError(ValueError):
    """Bad or missing configuration; maps to exit code 2."""


def _defaults(cls, skip=()) -> dict:
    """A dataclass's field defaults as config values (tuples become lists)."""
    return {
        f.name: list(f.default) if isinstance(f.default, tuple) else f.default
        for f in fields(cls)
        if f.default is not MISSING and f.name not in skip
    }


def _from_cfg(cls, cfg: dict, **given):
    """Build a dataclass from config values (lists back to tuples) plus `given`."""
    kwargs = {
        f.name: tuple(cfg[f.name]) if isinstance(f.default, tuple) else cfg[f.name]
        for f in fields(cls)
        if f.name not in given
    }
    return cls(**kwargs, **given)


DEFAULTS = {
    "h_levels": 3,
    "scales": [100_000.0, 1_000.0, 100.0],
    "origin": [0.0, 0.0],
    **_defaults(ModelConfig),
    **_defaults(TrainConfig),
    "seed": None,  # required: set it in the config or pass --seed
    "task": "next_location",
    "head": "ffn",
    "freeze_backbone": False,
    **_defaults(PipelineConfig),
    "split_fractions": [0.8, 0.8, 0.1],
    "synth": _defaults(SynthConfig, skip=("seed", "scales", "ref_lat")),
    "ablation": _defaults(AblationSpec),
}

_CHOICES = {
    "profile": ("gps", "signal"),
    "task": ("next_location", "classification"),
    "head": ("ffn", "lstm"),
    "head_mode": ("chained", "independent"),
}


def load_config(path: str | None) -> dict:
    doc = {}
    if path is not None:
        p = Path(path)
        if not p.is_file():
            raise FileNotFoundError(path)
        try:
            doc = json.loads(p.read_text(encoding="utf-8"))
        except json.JSONDecodeError as e:
            raise ConfigError(f"config is not valid JSON: {e}") from None
        if not isinstance(doc, dict):
            raise ConfigError("config must be a JSON object")
    return resolve_config(doc)


def resolve_config(doc: dict) -> dict:
    cfg = {}
    for key, value in doc.items():
        if key not in DEFAULTS:
            raise ConfigError(f"unknown key '{key}'")
        cfg[key] = value
    for section in ("synth", "ablation"):
        defaults = DEFAULTS[section]
        sub = cfg.get(section, {})
        if not isinstance(sub, dict):
            raise ConfigError(f"'{section}' must be a JSON object")
        for key in sub:
            if key not in defaults:
                raise ConfigError(f"unknown key '{section}.{key}'")
        cfg[section] = {**defaults, **sub}
    out = {**DEFAULTS, **cfg}
    if len(out["scales"]) != out["h_levels"]:
        raise ConfigError(
            f"'scales' has {len(out['scales'])} entries but 'h_levels' is {out['h_levels']}"
        )
    for key, choices in _CHOICES.items():
        if out[key] not in choices:
            raise ConfigError(f"'{key}' must be one of {choices}, got {out[key]!r}")
    if len(out["betas"]) != 2:
        raise ConfigError(f"'betas' needs two values, got {out['betas']!r}")
    try:
        GridSpec(tuple(out["scales"]), tuple(out["origin"]))
    except (GridError, TypeError) as e:
        raise ConfigError(f"'scales'/'origin': {e}") from None
    return out


def _require_seed(cfg: dict, args) -> int:
    seed = args.seed if args.seed is not None else cfg.get("seed")
    if seed is None:
        raise ConfigError("'seed' is required (set it in the config or pass --seed)")
    return int(seed)


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    h.update(path.read_bytes())
    return h.hexdigest()


def _write_manifest(out_dir: Path, command: str, cfg: dict, seed, inputs: list, outputs: list):
    canon = json.dumps(cfg, sort_keys=True).encode("utf-8")
    manifest = {
        "command": command,
        "config": cfg,
        "config_hash": hashlib.sha256(canon).hexdigest(),
        "seed": seed,
        "inputs": {str(p): _sha256(Path(p)) for p in inputs},
        "outputs": outputs,
        "versions": {
            "geoseq": __version__,
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
    }
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2), encoding="utf-8")


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _check_inputs(*paths):
    for p in paths:
        if p is not None and not Path(p).is_file():
            raise FileNotFoundError(p)


def _log(msg: str):
    print(msg, file=sys.stderr)


def _grid_spec(cfg: dict) -> GridSpec:
    return GridSpec(tuple(cfg["scales"]), tuple(cfg["origin"]))


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------

def cmd_synth(cfg: dict, args) -> int:
    seed = _require_seed(cfg, args)
    out = _out_dir(args)
    s = cfg["synth"]
    synth_cfg = _from_cfg(
        SynthConfig, s, seed=seed, scales=tuple(cfg["scales"]), ref_lat=cfg["ref_lat"]
    )
    records = generate_records(synth_cfg)
    write_csv(records, out / "synth.csv")
    _log(f"synth: wrote {len(records)} records for {s['users']} users")
    _write_manifest(out, "synth", cfg, seed, [], ["synth.csv"])
    return 0


def cmd_vocab(cfg: dict, args) -> int:
    _check_inputs(args.input)
    out = _out_dir(args)
    vocab = build_vocab(iter_csv_points(args.input, cfg["ref_lat"]), _grid_spec(cfg))
    vocab.save(out / "vocab.json")
    sizes = vocab.sizes()
    _log(
        f"vocab: per-level sizes {sizes} (specials included), "
        f"hierarchical total {vocab.total_size()} vs flat {vocab.flat_count}"
    )
    _write_manifest(out, "vocab", cfg, cfg.get("seed"), [args.input], ["vocab.json"])
    return 0


def cmd_preprocess(cfg: dict, args) -> int:
    _check_inputs(args.input, args.vocab)
    seed = _require_seed(cfg, args)
    out = _out_dir(args)
    vocab = Vocabulary.load(args.vocab)
    trajs = preprocess(read_csv(args.input), vocab, _from_cfg(PipelineConfig, cfg))
    write_trajectories(trajs, out / "trajectories.ndjson")
    parts = split(len(trajs), seed, tuple(cfg["split_fractions"]))
    (out / "splits.json").write_text(json.dumps(split_to_json(parts)), encoding="utf-8")
    _log(
        f"preprocess: {len(trajs)} trajectories "
        f"(pretrain {len(parts.pretrain)}, finetune {len(parts.finetune_train)}/"
        f"{len(parts.finetune_val)}/{len(parts.finetune_test)})"
    )
    _write_manifest(
        out, "preprocess", cfg, seed, [args.input, args.vocab],
        ["trajectories.ndjson", "splits.json"],
    )
    return 0


def cmd_pretrain(cfg: dict, args) -> int:
    _check_inputs(args.data, args.splits, args.vocab)
    seed = _require_seed(cfg, args)
    out = _out_dir(args)
    trajs = read_trajectories(args.data)
    parts = split_from_json(json.loads(Path(args.splits).read_text(encoding="utf-8")))
    vocab = Vocabulary.load(args.vocab)
    config = _from_cfg(ModelConfig, cfg, level_sizes=vocab.sizes())
    train = _from_cfg(TrainConfig, cfg, seed=seed)
    state, curve = pretrain([trajs[i] for i in parts.pretrain], config, train)
    save_checkpoint(state, out / "checkpoint.gsq")
    (out / "losses.json").write_text(json.dumps({"epoch_loss": curve}), encoding="utf-8")
    _log(f"pretrain: {cfg['epochs']} epochs, final loss {curve[-1]:.4f}")
    _write_manifest(
        out, "pretrain", cfg, seed, [args.data, args.splits, args.vocab],
        ["checkpoint.gsq", "losses.json"],
    )
    return 0


def cmd_finetune(cfg: dict, args) -> int:
    _check_inputs(args.data, args.splits, args.checkpoint)
    seed = _require_seed(cfg, args)
    out = _out_dir(args)
    trajs = read_trajectories(args.data)
    parts = split_from_json(json.loads(Path(args.splits).read_text(encoding="utf-8")))
    state = load_checkpoint(args.checkpoint)
    train_set = [trajs[i] for i in parts.finetune_train]
    test_set = [trajs[i] for i in parts.finetune_test]
    train = _from_cfg(TrainConfig, cfg, seed=seed)
    if cfg["task"] == "next_location":
        head, report, curve = finetune_next_location(
            state, cfg["head"], train_set, test_set, train, freeze_backbone=cfg["freeze_backbone"]
        )
        meta = {"kind": "head", "head_kind": cfg["head"], "config": state.config.to_json()}
        save_tensors(out / "head.gsq", head.params, meta)
    else:
        clf, report, curve = finetune_classifier(
            state, train_set, test_set, train, freeze_backbone=cfg["freeze_backbone"]
        )
        meta = {
            "kind": "classifier",
            "classes": clf.classes,
            "config": state.config.to_json(),
        }
        save_tensors(out / "head.gsq", clf.params, meta)
    if not cfg["freeze_backbone"]:
        save_checkpoint(state, out / "checkpoint.gsq")
    (out / "report.json").write_text(json.dumps(report.to_json()), encoding="utf-8")
    (out / "losses.json").write_text(json.dumps({"epoch_loss": curve}), encoding="utf-8")
    _log(f"finetune[{cfg['task']}]: acc@1 {report.acc1:.4f} acc@5 {report.acc5:.4f}")
    _write_manifest(
        out, "finetune", cfg, seed, [args.data, args.splits, args.checkpoint],
        ["head.gsq", "report.json", "losses.json"],
    )
    return 0


def _load_head(path, state):
    meta, tensors = load_tensors(path)
    if meta.get("kind") == "head":
        head = make_head(meta["head_kind"], state.config, dtype=state.dtype)
        _swap_params(head.params, tensors, path)
        return "head", head
    if meta.get("kind") == "classifier":
        from .downstream import TrajectoryClassifier

        clf = TrajectoryClassifier(state.config, meta["classes"], dtype=state.dtype)
        _swap_params(clf.params, tensors, path)
        return "classifier", clf
    raise ConfigError(f"{path} is not a head checkpoint")


def _swap_params(params: dict, tensors: dict, path):
    if set(params) != set(tensors):
        raise ConfigError(f"{path}: head tensors do not match the expected layout")
    for name in params:
        if params[name].data.shape != tensors[name].data.shape:
            raise ConfigError(f"{path}: tensor '{name}' has the wrong shape")
        params[name] = tensors[name]


def cmd_eval(cfg: dict, args) -> int:
    _check_inputs(args.data, args.splits, args.checkpoint, args.head_checkpoint)
    out = _out_dir(args)
    trajs = read_trajectories(args.data)
    parts = split_from_json(json.loads(Path(args.splits).read_text(encoding="utf-8")))
    state = load_checkpoint(args.checkpoint)
    test_set = [trajs[i] for i in parts.finetune_test]
    inputs = [args.data, args.splits, args.checkpoint]
    if args.head_checkpoint is not None:
        kind, head = _load_head(args.head_checkpoint, state)
        inputs.append(args.head_checkpoint)
        if kind == "head":
            report = evaluate_next_location(state, head, test_set)
        else:
            report = evaluate_classifier(state, head, test_set)
    else:
        # no fine-tuned head: score the pre-training heads' own predictions
        ranked, targets = [], []
        for traj in test_set:
            if traj.length < 2:
                continue
            prefix = Trajectory(traj.user, traj.ids[:-1], traj.timestamps[:-1], traj.label)
            top = pretrained_predict_topk(state, prefix, 5)
            ranked.append([tup for tup, _ in top])
            targets.append(traj.ids[-1])
        report = compute_metrics(ranked, targets)
    (out / "report.json").write_text(json.dumps(report.to_json()), encoding="utf-8")
    _log(f"eval: acc@1 {report.acc1:.4f} acc@5 {report.acc5:.4f} on {report.n} samples")
    _write_manifest(out, "eval", cfg, cfg.get("seed"), inputs, ["report.json"])
    return 0


def cmd_ablate(cfg: dict, args) -> int:
    _check_inputs(args.data, args.vocab)
    seed = _require_seed(cfg, args)
    out = _out_dir(args)
    trajs = read_trajectories(args.data)
    if args.vocab is not None:
        level_sizes = Vocabulary.load(args.vocab).sizes()
    else:
        levels = len(trajs[0].ids[0])
        level_sizes = [
            max(tup[h] for t in trajs for tup in t.ids) + 1 for h in range(levels)
        ]
    rows = run_ablation(
        trajs,
        _from_cfg(ModelConfig, cfg, level_sizes=level_sizes),
        _from_cfg(TrainConfig, cfg, seed=seed),
        _from_cfg(AblationSpec, cfg["ablation"]),
    )
    (out / "ablation.json").write_text(json.dumps(rows, indent=2), encoding="utf-8")
    table = render_table(rows)
    (out / "ablation.txt").write_text(table, encoding="utf-8")
    _log(table.rstrip())
    inputs = [args.data] + ([args.vocab] if args.vocab else [])
    _write_manifest(out, "ablate", cfg, seed, inputs, ["ablation.json", "ablation.txt"])
    return 0


# ---------------------------------------------------------------------------
# argument parsing / dispatch
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="geoseq",
        description="Hierarchical location tokenization and causal trajectory models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, *, config_required=False):
        p.add_argument("--config", required=config_required, help="JSON config file")
        p.add_argument("--seed", type=int, default=None, help="overrides the config seed")
        p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("synth", help="generate a synthetic GPS CSV")
    common(p)
    p.set_defaults(handler=cmd_synth)

    p = sub.add_parser("vocab", help="build the hierarchical vocabulary from a CSV")
    common(p)
    p.add_argument("--input", required=True, help="raw CSV (user_id,timestamp,lat,lon[,label])")
    p.set_defaults(handler=cmd_vocab)

    p = sub.add_parser("preprocess", help="filter, segment, tokenize, window, split")
    common(p)
    p.add_argument("--input", required=True)
    p.add_argument("--vocab", required=True)
    p.set_defaults(handler=cmd_preprocess)

    p = sub.add_parser("pretrain", help="self-supervised training of the location model")
    common(p)
    p.add_argument("--data", required=True, help="trajectories.ndjson")
    p.add_argument("--splits", required=True, help="splits.json")
    p.add_argument("--vocab", required=True)
    p.set_defaults(handler=cmd_pretrain)

    p = sub.add_parser("finetune", help="train a downstream head on a checkpoint")
    common(p)
    p.add_argument("--data", required=True)
    p.add_argument("--splits", required=True)
    p.add_argument("--checkpoint", required=True)
    p.set_defaults(handler=cmd_finetune)

    p = sub.add_parser("eval", help="evaluate a checkpoint (with or without a head)")
    common(p)
    p.add_argument("--data", required=True)
    p.add_argument("--splits", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--head-checkpoint", default=None)
    p.set_defaults(handler=cmd_eval)

    p = sub.add_parser("ablate", help="train and compare the model variants")
    common(p)
    p.add_argument("--data", required=True)
    p.add_argument("--vocab", default=None)
    p.set_defaults(handler=cmd_ablate)

    return parser


def dispatch(argv: list[str]) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config)
        return args.handler(cfg, args)
    except ConfigError as e:
        print(f"error: config: {e}", file=sys.stderr)
        return 2
    except FileNotFoundError as e:
        missing = getattr(e, "filename", None) or str(e)
        print(f"error: missing-file: {missing}", file=sys.stderr)
        return 3
    except Exception as e:  # one-line machine-parsable failure
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 1


def main():
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()

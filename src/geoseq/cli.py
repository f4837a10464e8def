"""Command-line entry point wiring tokenizer, pipeline, training, and eval.

Subcommands: synth, vocab, preprocess, pretrain, finetune, eval, ablate.
Model and pipeline hyperparameters live in a JSON config (unknown keys are
rejected); flags carry only paths, the seed, and the subcommand. `COMMANDS`
declares each subcommand's input flags and whether it needs a seed, once;
`dispatch` checks them and writes a manifest.json (resolved config, config
hash, effective seed, input hashes, the files the command wrote, versions)
into --out. Exit codes: 0 success, 2 bad config/usage, 3 missing file,
1 anything else. Logs go to stderr.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import platform
import sys
from dataclasses import MISSING, fields
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from .bench import render_table, run_ablation
from .downstream import (
    HEAD_KINDS,
    TrajectoryClassifier,
    evaluate_classifier,
    evaluate_next_location,
    finetune_classifier,
    finetune_next_location,
    load_head,
    # unused here, but bound on purpose: perfbench/tracer.py checks that this
    # name (and downstream.head_forward) is replaced by its timing wrapper
    pretrained_predict_topk,
    save_head,
)
from .grid import GridSpec
from .model import (
    ModelConfig,
    TrainConfig,
    load_checkpoint,
    pretrain,
    save_checkpoint,
)
from .pipeline import (
    PipelineConfig,
    iter_csv_points,
    preprocess,
    read_csv,
    read_trajectories,
    split,
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
        if f.init and f.name not in given
    }
    return cls(**kwargs, **given)


DEFAULTS = {
    **_defaults(GridSpec),
    **_defaults(ModelConfig),
    **_defaults(TrainConfig),
    "seed": None,  # required: set it in the config or pass --seed
    "task": "next_location",
    "head": "ffn",
    "freeze_backbone": False,
    **_defaults(PipelineConfig),
    "synth": _defaults(SynthConfig, skip=("seed",)),
}

_CHOICES = {
    "task": ("next_location", "classification"),
    "head": HEAD_KINDS,
}


def load_config(path: str | None) -> dict:
    doc = {}
    if path is not None:
        p = Path(path)
        if not p.is_file():
            raise FileNotFoundError(path)
        try:
            doc = json.loads(p.read_text(encoding="utf-8"))
        except ValueError as e:  # not UTF-8 (UnicodeDecodeError) or not JSON
            raise ConfigError(f"{path}: config is not valid UTF-8 JSON: {e}") from None
        if not isinstance(doc, dict):
            raise ConfigError("config must be a JSON object")
    return resolve_config(doc)


def resolve_config(doc: dict) -> dict:
    cfg = {}
    for key, value in doc.items():
        if key not in DEFAULTS:
            raise ConfigError(f"unknown key '{key}'")
        cfg[key] = value
    sub = cfg.get("synth", {})
    if not isinstance(sub, dict):
        raise ConfigError("'synth' must be a JSON object")
    for key in sub:
        if key not in DEFAULTS["synth"]:
            raise ConfigError(f"unknown key 'synth.{key}'")
    cfg["synth"] = {**DEFAULTS["synth"], **sub}
    out = {**DEFAULTS, **cfg}
    _check_number_types(out, DEFAULTS)
    for key, choices in _CHOICES.items():
        if out[key] not in choices:
            raise ConfigError(f"'{key}' must be one of {choices}, got {out[key]!r}")
    if out["seed"] is not None and type(out["seed"]) is not int:
        raise ConfigError(f"'seed' must be int, got {out['seed']!r}")
    # build each config dataclass once, so every rule it owns runs before any work:
    # a rule's message opens with its field, quoted, and the prefix makes that the key
    def build(prefix, cls, values, **given):
        try:
            return _from_cfg(cls, values, **given)
        except ValueError as e:  # GridError included
            raise ConfigError(str(e).replace("'", f"'{prefix}", 1)) from None

    grid = build("", GridSpec, out)
    build("", ModelConfig, out, level_sizes=[1] * grid.levels)  # real sizes come later
    build("", TrainConfig, out)
    build("", PipelineConfig, out)
    build("synth.", SynthConfig, out["synth"], seed=out["seed"], grid=grid)
    return out


def _check_number_types(value, default, name: str = ""):
    """An int, float or bool must have its default's type (an int may stand for a
    float), in sections key by key and in lists element by element."""
    if isinstance(default, dict):
        for key in default:
            _check_number_types(value[key], default[key], f"{name}.{key}" if name else key)
    elif isinstance(default, list):
        if not isinstance(value, list):
            raise ConfigError(f"'{name}' must be a list, got {value!r}")
        for i, item in enumerate(value):
            _check_number_types(item, default[min(i, len(default) - 1)], f"{name}[{i}]")
    elif type(default) in (int, float, bool):
        allowed = (int, float) if type(default) is float else (type(default),)
        if type(value) not in allowed:
            raise ConfigError(f"'{name}' must be {type(default).__name__}, got {value!r}")


def _file_sha256(path) -> str:
    """The sha256 of a file, read 1 MB at a time."""
    digest = hashlib.sha256()
    with open(path, "rb") as f:
        while block := f.read(1 << 20):
            digest.update(block)
    return digest.hexdigest()


def _write_manifest(out_dir: Path, command: str, cfg: dict, seed, inputs: dict, outputs: list):
    """`inputs` maps each input path to its sha256, taken before the command ran."""
    canon = json.dumps(cfg, sort_keys=True).encode("utf-8")
    manifest = {
        "command": command,
        "config": cfg,
        "config_hash": hashlib.sha256(canon).hexdigest(),
        "seed": seed,
        "inputs": inputs,
        "outputs": outputs,
        "versions": {
            "geoseq": __version__,
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
    }
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2), encoding="utf-8")


def _log(msg: str):
    print(msg, file=sys.stderr)


def _subset(args, config: ModelConfig, *parts: str) -> list[list]:
    """The trajectories of `--data` that `--splits` lists under each of `parts`;
    every id must lie inside the model's level sizes, and no trajectory may be
    longer than its `max_seq_len`."""
    trajs = read_trajectories(args.data, config.level_sizes, config.max_seq_len)
    try:
        doc = json.loads(Path(args.splits).read_text(encoding="utf-8"))
    except ValueError as e:  # not UTF-8 (UnicodeDecodeError) or not JSON
        raise ValueError(f"{args.splits}: not valid UTF-8 JSON: {e}") from None
    subsets = []
    for part in parts:
        index = doc.get(part) if isinstance(doc, dict) else None
        if not isinstance(index, list):
            raise ValueError(f"{args.splits}: '{part}' must be a list of trajectory indices")
        bad = [i for i in index if type(i) is not int or not 0 <= i < len(trajs)]
        if bad:
            raise ValueError(
                f"{args.splits}: '{part}' holds {bad[0]!r}, not an index below {len(trajs)}"
            )
        subsets.append([trajs[i] for i in index])
    return subsets


# ---------------------------------------------------------------------------
# subcommand handlers: each gets the resolved config, the parsed flags, the
# effective seed and the output directory, and returns the files it wrote
# ---------------------------------------------------------------------------

def cmd_synth(cfg: dict, args, seed, out: Path) -> list[str]:
    s = cfg["synth"]
    synth_cfg = _from_cfg(SynthConfig, s, seed=seed, grid=_from_cfg(GridSpec, cfg))
    records = generate_records(synth_cfg)
    write_csv(records, out / "synth.csv")
    _log(f"synth: wrote {len(records)} records for {s['users']} users")
    return ["synth.csv"]


def cmd_vocab(cfg: dict, args, seed, out: Path) -> list[str]:
    grid = _from_cfg(GridSpec, cfg)
    vocab = build_vocab(iter_csv_points(args.input, grid.ref_lat), grid)
    vocab.save(out / "vocab.json")
    sizes = vocab.sizes()
    _log(
        f"vocab: per-level sizes {sizes} (specials included), "
        f"hierarchical total {vocab.total_size()} vs flat {vocab.flat_count}"
    )
    return ["vocab.json"]


def cmd_preprocess(cfg: dict, args, seed, out: Path) -> list[str]:
    vocab = Vocabulary.load(args.vocab)
    grid = _from_cfg(GridSpec, cfg)
    # the vocabulary's cells and projection make the tokens: another grid is an error
    for key in ("scales", "origin", "ref_lat"):
        if getattr(grid, key) != getattr(vocab.spec, key):
            raise ConfigError(
                f"'{key}' is {getattr(grid, key)} but {args.vocab} was built with "
                f"{getattr(vocab.spec, key)}"
            )
    pipeline = _from_cfg(PipelineConfig, cfg)
    trajs = preprocess(read_csv(args.input), vocab, pipeline)
    parts = split(len(trajs), seed, pipeline.split_fractions)
    for name in ("finetune_train", "finetune_test"):  # an empty finetune_val is allowed
        if not getattr(parts, name):
            raise ValueError(
                f"split '{name}' is empty: {len(trajs)} trajectories at split_fractions "
                f"{list(pipeline.split_fractions)}"
            )
    write_trajectories(trajs, out / "trajectories.ndjson")
    (out / "splits.json").write_text(json.dumps(split_to_json(parts)), encoding="utf-8")
    _log(
        f"preprocess: {len(trajs)} trajectories "
        f"(pretrain {len(parts.pretrain)}, finetune {len(parts.finetune_train)}/"
        f"{len(parts.finetune_val)}/{len(parts.finetune_test)})"
    )
    return ["trajectories.ndjson", "splits.json"]


def cmd_pretrain(cfg: dict, args, seed, out: Path) -> list[str]:
    vocab = Vocabulary.load(args.vocab)
    config = _from_cfg(ModelConfig, cfg, level_sizes=vocab.sizes())
    (pretrain_set,) = _subset(args, config, "pretrain")
    train = _from_cfg(TrainConfig, cfg, seed=seed)
    state, curve = pretrain(pretrain_set, config, train)
    save_checkpoint(state, out / "checkpoint.gsq")
    (out / "losses.json").write_text(json.dumps({"epoch_loss": curve}), encoding="utf-8")
    _log(f"pretrain: {cfg['epochs']} epochs, final loss {curve[-1]:.4f}")
    return ["checkpoint.gsq", "losses.json"]


def cmd_finetune(cfg: dict, args, seed, out: Path) -> list[str]:
    state = load_checkpoint(args.checkpoint)
    train_set, test_set = _subset(args, state.config, "finetune_train", "finetune_test")
    train = _from_cfg(TrainConfig, cfg, seed=seed)
    frozen = cfg["freeze_backbone"]
    if cfg["task"] == "next_location":
        head, report, curve = finetune_next_location(
            state, cfg["head"], train_set, test_set, train, freeze_backbone=frozen
        )
    else:
        head, report, curve = finetune_classifier(
            state, train_set, test_set, train, freeze_backbone=frozen
        )
    save_head(head, out / "head.gsq")
    written = ["head.gsq"]
    if not frozen:
        save_checkpoint(state, out / "checkpoint.gsq")
        written.append("checkpoint.gsq")
    (out / "report.json").write_text(json.dumps(report.to_json()), encoding="utf-8")
    (out / "losses.json").write_text(json.dumps({"epoch_loss": curve}), encoding="utf-8")
    _log(f"finetune[{cfg['task']}]: acc@1 {report.acc1:.4f} acc@5 {report.acc5:.4f}")
    return written + ["report.json", "losses.json"]


def cmd_eval(cfg: dict, args, seed, out: Path) -> list[str]:
    state = load_checkpoint(args.checkpoint)
    (test_set,) = _subset(args, state.config, "finetune_test")
    head = None if args.head_checkpoint is None else load_head(args.head_checkpoint, state)
    if isinstance(head, TrajectoryClassifier):
        report = evaluate_classifier(state, head, test_set)
    else:  # a next-location head, or None for the pre-training heads' own predictions
        report = evaluate_next_location(state, head, test_set)
    (out / "report.json").write_text(json.dumps(report.to_json()), encoding="utf-8")
    _log(f"eval: acc@1 {report.acc1:.4f} acc@5 {report.acc5:.4f} on {report.n} samples")
    return ["report.json"]


def cmd_ablate(cfg: dict, args, seed, out: Path) -> list[str]:
    level_sizes = Vocabulary.load(args.vocab).sizes()
    trajs = read_trajectories(args.data, level_sizes, cfg["max_seq_len"])
    if not trajs:
        raise ValueError(f"{args.data}: no trajectories")
    rows = run_ablation(
        trajs,
        _from_cfg(ModelConfig, cfg, level_sizes=level_sizes),
        _from_cfg(TrainConfig, cfg, seed=seed),
        tuple(cfg["split_fractions"]),
    )
    (out / "ablation.json").write_text(json.dumps(rows, indent=2), encoding="utf-8")
    table = render_table(rows)
    (out / "ablation.txt").write_text(table, encoding="utf-8")
    _log(table.rstrip())
    return ["ablation.json", "ablation.txt"]


# ---------------------------------------------------------------------------
# the subcommand table, argument parsing and dispatch
# ---------------------------------------------------------------------------

class Command(NamedTuple):
    handler: Callable  # (cfg, args, seed, out) -> names of the files written in out
    help: str
    required: tuple[str, ...] = ()  # input file flags
    optional: tuple[str, ...] = ()
    seeded: bool = True  # the command needs a seed


COMMANDS = {
    "synth": Command(cmd_synth, "generate a synthetic GPS CSV"),
    "vocab": Command(
        cmd_vocab, "build the hierarchical vocabulary from a CSV", ("--input",), seeded=False
    ),
    "preprocess": Command(
        cmd_preprocess, "filter, segment, tokenize, window, split", ("--input", "--vocab")
    ),
    "pretrain": Command(
        cmd_pretrain, "self-supervised training of the location model",
        ("--data", "--splits", "--vocab"),
    ),
    "finetune": Command(
        cmd_finetune, "train a downstream head on a checkpoint",
        ("--data", "--splits", "--checkpoint"),
    ),
    "eval": Command(
        cmd_eval, "evaluate a checkpoint (with or without a head)",
        ("--data", "--splits", "--checkpoint"), ("--head-checkpoint",), seeded=False,
    ),
    "ablate": Command(
        cmd_ablate, "train and compare the model variants", ("--data", "--vocab")
    ),
}

_INPUT_HELP = {
    "--input": "raw CSV (user_id,timestamp,lat,lon[,label])",
    "--vocab": "vocab.json",
    "--data": "trajectories.ndjson",
    "--splits": "splits.json",
    "--checkpoint": "model checkpoint.gsq",
    "--head-checkpoint": "fine-tuned head.gsq",
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="geoseq",
        description="Hierarchical location tokenization and causal trajectory models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--seed", type=int, default=None, help="overrides the config seed")
        p.add_argument("--out", required=True, help="output directory")
        for flag in command.required + command.optional:
            p.add_argument(flag, required=flag in command.required, help=_INPUT_HELP[flag])
    return parser


def dispatch(argv: list[str]) -> int:
    """Resolve the config (exit 2), check the given inputs exist (3), resolve the
    seed (2), digest the inputs, run the handler, then write the manifest of what
    it read and wrote. The digests come first because a command may overwrite an
    input (`finetune --out` in the checkpoint's directory)."""
    args = build_parser().parse_args(argv)
    command = COMMANDS[args.command]
    try:
        cfg = load_config(args.config)
        flags = command.required + command.optional
        given = (getattr(args, flag[2:].replace("-", "_")) for flag in flags)
        inputs = [path for path in given if path is not None]
        for path in inputs:
            if not Path(path).is_file():
                raise FileNotFoundError(path)
        seed = cfg["seed"] if args.seed is None else args.seed
        if seed is None and command.seeded:
            raise ConfigError("'seed' is required (set it in the config or pass --seed)")
        digests = {str(path): _file_sha256(path) for path in inputs}
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        outputs = command.handler(cfg, args, seed, out)
        _write_manifest(out, args.command, cfg, seed, digests, outputs)
        return 0
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

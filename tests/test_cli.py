"""Subcommand round trips, exit codes, manifests, determinism."""

import hashlib
import json
import math
import re
from dataclasses import MISSING, fields
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from geoseq import bench
from geoseq.cli import DEFAULTS, dispatch, resolve_config, ConfigError
from geoseq.downstream import make_head
from geoseq.grid import GridSpec, decode_keys, encode_points, project
from geoseq.model import (
    ModelConfig, ModelState, TrainConfig, make_batch, save_checkpoint, save_tensors,
)
from geoseq.pipeline import PipelineConfig, read_csv, read_trajectories
from geoseq.synth import SynthConfig
from geoseq.vocab import Vocabulary

from checkpoints import list_twice


TINY = {
    "hidden": 16,
    "layers": 1,
    "heads": 2,
    "epochs": 1,
    "batch_size": 16,
    "warmup_steps": 0,
    "attn_dropout": 0.0,
    "seed": 11,
    "synth": {"users": 8, "extent_m": 250_000.0},
}


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """synth -> vocab -> preprocess artifacts shared across CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    cfg = root / "cfg.json"
    cfg.write_text(json.dumps(TINY), encoding="utf-8")
    assert dispatch(["synth", "--config", str(cfg), "--out", str(root / "d")]) == 0
    assert dispatch([
        "vocab", "--config", str(cfg), "--input", str(root / "d" / "synth.csv"),
        "--out", str(root / "v"),
    ]) == 0
    assert dispatch([
        "preprocess", "--config", str(cfg), "--input", str(root / "d" / "synth.csv"),
        "--vocab", str(root / "v" / "vocab.json"), "--out", str(root / "p"),
    ]) == 0
    return root, cfg


def test_synth_is_deterministic(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(TINY), encoding="utf-8")
    assert dispatch(["synth", "--config", str(cfg), "--seed", "7", "--out", str(tmp_path / "a")]) == 0
    assert dispatch(["synth", "--config", str(cfg), "--seed", "7", "--out", str(tmp_path / "b")]) == 0
    a = (tmp_path / "a" / "synth.csv").read_bytes()
    b = (tmp_path / "b" / "synth.csv").read_bytes()
    assert a == b


def test_pretrain_then_eval_smoke(workspace, tmp_path):
    root, cfg = workspace
    assert dispatch([
        "pretrain", "--config", str(cfg),
        "--data", str(root / "p" / "trajectories.ndjson"),
        "--splits", str(root / "p" / "splits.json"),
        "--vocab", str(root / "v" / "vocab.json"),
        "--out", str(tmp_path / "t"),
    ]) == 0
    assert (tmp_path / "t" / "checkpoint.gsq").is_file()
    losses = json.loads((tmp_path / "t" / "losses.json").read_text())
    assert len(losses["epoch_loss"]) == 1
    assert dispatch([
        "eval", "--config", str(cfg),
        "--data", str(root / "p" / "trajectories.ndjson"),
        "--splits", str(root / "p" / "splits.json"),
        "--checkpoint", str(tmp_path / "t" / "checkpoint.gsq"),
        "--out", str(tmp_path / "e"),
    ]) == 0
    report = json.loads((tmp_path / "e" / "report.json").read_text())
    assert set(report) == {"acc1", "acc5", "macro_p", "macro_r", "macro_f1", "n"}


def test_finetune_and_head_eval_smoke(workspace, tmp_path):
    root, cfg = workspace
    assert dispatch([
        "pretrain", "--config", str(cfg),
        "--data", str(root / "p" / "trajectories.ndjson"),
        "--splits", str(root / "p" / "splits.json"),
        "--vocab", str(root / "v" / "vocab.json"),
        "--out", str(tmp_path / "t"),
    ]) == 0
    assert dispatch([
        "finetune", "--config", str(cfg),
        "--data", str(root / "p" / "trajectories.ndjson"),
        "--splits", str(root / "p" / "splits.json"),
        "--checkpoint", str(tmp_path / "t" / "checkpoint.gsq"),
        "--out", str(tmp_path / "f"),
    ]) == 0
    assert dispatch([
        "eval", "--config", str(cfg),
        "--data", str(root / "p" / "trajectories.ndjson"),
        "--splits", str(root / "p" / "splits.json"),
        "--checkpoint", str(tmp_path / "t" / "checkpoint.gsq"),
        "--head-checkpoint", str(tmp_path / "f" / "head.gsq"),
        "--out", str(tmp_path / "e2"),
    ]) == 0
    assert (tmp_path / "e2" / "report.json").is_file()


def test_ablate_smoke(workspace, tmp_path):
    root, cfg = workspace
    assert dispatch([
        "ablate", "--config", str(cfg),
        "--data", str(root / "p" / "trajectories.ndjson"),
        "--vocab", str(root / "v" / "vocab.json"),
        "--out", str(tmp_path / "a"),
    ]) == 0
    rows = json.loads((tmp_path / "a" / "ablation.json").read_text())
    assert [r["variant"] for r in rows] == [
        "baseline_flat_alm", "gt_independent_alm", "gt_halm",
    ]
    assert (tmp_path / "a" / "ablation.txt").read_text().startswith("variant")


def test_optimizer_keys_reach_finetune_and_ablate(workspace, tmp_path):
    """A key the config accepts must change what the command writes."""
    root, cfg = workspace
    data = ["--data", str(root / "p" / "trajectories.ndjson")]
    splits = ["--splits", str(root / "p" / "splits.json")]
    vocab = ["--vocab", str(root / "v" / "vocab.json")]
    assert dispatch(["pretrain", "--config", str(cfg), *data, *splits, *vocab,
                     "--out", str(tmp_path / "t")]) == 0
    ckpt = ["--checkpoint", str(tmp_path / "t" / "checkpoint.gsq")]

    def written(command, args, artifact, **overrides):
        # two epochs, so Adam takes more than the one step that cancels its betas
        name = "-".join([command, *overrides])
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({**TINY, "epochs": 2, **overrides}), encoding="utf-8")
        assert dispatch([command, "--config", str(path), *args,
                         "--out", str(tmp_path / name)]) == 0
        return (tmp_path / name / artifact).read_bytes()

    head = written("finetune", data + splits + ckpt, "head.gsq")
    for key, value in (("warmup_steps", 5), ("betas", [0.5, 0.9]), ("eps", 1e-2)):
        assert written("finetune", data + splits + ckpt, "head.gsq", **{key: value}) != head, key
    table = written("ablate", data + vocab, "ablation.json")
    for key, value in (("betas", [0.5, 0.9]), ("eps", 1e-2), ("split_fractions", [0.6, 0.5, 0.2])):
        assert written("ablate", data + vocab, "ablation.json", **{key: value}) != table, key


@pytest.mark.parametrize("shares, message", [
    ([0.8, 1.0, 0.0], "no evaluable trajectories"),
    ([0.0, 0.8, 0.1], "no trainable trajectories"),
])
def test_ablate_rejects_an_empty_share_before_training(
    workspace, tmp_path, monkeypatch, capsys, shares, message
):
    root, _ = workspace
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**TINY, "split_fractions": shares}), encoding="utf-8")
    calls = []
    monkeypatch.setattr(bench, "pretrain", lambda *args: calls.append(args))
    code = dispatch(["ablate", "--config", str(cfg),
                     "--data", str(root / "p" / "trajectories.ndjson"),
                     "--vocab", str(root / "v" / "vocab.json"), "--out", str(tmp_path / "a")])
    assert calls == []
    assert code == 1
    assert capsys.readouterr().err.startswith(f"error: ValueError: {message}")


def test_shared_config_fields_have_one_default():
    """A field name two config dataclasses share gets one default value."""
    defaults = {}
    for cls in (GridSpec, ModelConfig, TrainConfig, PipelineConfig, SynthConfig):
        for f in fields(cls):
            if f.default is not MISSING:
                defaults.setdefault(f.name, []).append((cls.__name__, f.default))
    shared = {name: owners for name, owners in defaults.items() if len(owners) > 1}
    assert sorted(shared) == ["max_seq_len", "seed"]
    for name, owners in shared.items():
        assert len({value for _, value in owners}) == 1, (name, owners)


def test_manifest_accompanies_artifacts(workspace):
    root, _ = workspace
    manifest = json.loads((root / "p" / "manifest.json").read_text())
    assert manifest["command"] == "preprocess"
    assert manifest["seed"] == 11
    assert len(manifest["config_hash"]) == 64
    assert all(len(h) == 64 for h in manifest["inputs"].values())
    assert "geoseq" in manifest["versions"]


def test_manifests_list_what_each_command_read_and_wrote(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(TINY), encoding="utf-8")
    csv, vocab = tmp_path / "synth" / "synth.csv", tmp_path / "vocab" / "vocab.json"
    data = {
        "--data": tmp_path / "preprocess" / "trajectories.ndjson",
        "--splits": tmp_path / "preprocess" / "splits.json",
    }
    ckpt = tmp_path / "pretrain" / "checkpoint.gsq"
    runs = [  # (command, input flags given, --seed given); finetune keeps the backbone unfrozen
        ("synth", {}, None),
        ("vocab", {"--input": csv}, 5),
        ("preprocess", {"--input": csv, "--vocab": vocab}, None),
        ("pretrain", {**data, "--vocab": vocab}, None),
        ("finetune", {**data, "--checkpoint": ckpt}, None),
        ("eval", {**data, "--checkpoint": ckpt,
                  "--head-checkpoint": tmp_path / "finetune" / "head.gsq"}, 5),
        ("ablate", {"--data": data["--data"], "--vocab": vocab}, None),
    ]
    seeds = {}
    for command, inputs, seed in runs:
        out = tmp_path / command
        argv = [command, "--config", cfg, "--out", out, *sum(inputs.items(), ())]
        if seed is not None:
            argv += ["--seed", seed]
        assert dispatch([str(a) for a in argv]) == 0, command
        manifest = json.loads((out / "manifest.json").read_text())
        written = {p.name for p in out.iterdir()} - {"manifest.json"}
        assert sorted(manifest["outputs"]) == sorted(written), command
        assert set(manifest["inputs"]) == {str(p) for p in inputs.values()}, command
        seeds[command] = manifest["seed"]
    # the effective seed: --seed over the config's
    assert seeds == {command: seed or TINY["seed"] for command, _, seed in runs}


def test_manifest_digests_an_input_the_command_overwrites_as_it_was_read(workspace, tmp_path):
    # an unfrozen finetune writing into its checkpoint's directory replaces the
    # checkpoint it read; the manifest records the bytes it read
    root, cfg = workspace
    d = tmp_path / "d"
    assert dispatch([
        "pretrain", "--config", str(cfg), "--data", str(root / "p" / "trajectories.ndjson"),
        "--splits", str(root / "p" / "splits.json"), "--vocab", str(root / "v" / "vocab.json"),
        "--out", str(d),
    ]) == 0
    ckpt = d / "checkpoint.gsq"
    read = hashlib.sha256(ckpt.read_bytes()).hexdigest()
    assert dispatch([
        "finetune", "--config", str(cfg), "--data", str(root / "p" / "trajectories.ndjson"),
        "--splits", str(root / "p" / "splits.json"), "--checkpoint", str(ckpt), "--out", str(d),
    ]) == 0
    written = hashlib.sha256(ckpt.read_bytes()).hexdigest()
    assert written != read  # the command did overwrite its input
    manifest = json.loads((d / "manifest.json").read_text())
    assert manifest["inputs"][str(ckpt)] == read


def test_unknown_config_key_exits_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"wat": 1}), encoding="utf-8")
    code = dispatch(["synth", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == 2
    assert "'wat'" in capsys.readouterr().err


def test_unknown_flag_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        dispatch(["synth", "--wat", "--out", "x"])
    assert exc.value.code == 2
    assert "usage" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["pretrain", "ablate"])
def test_model_sizing_commands_require_vocab(capsys, command):
    # the level sizes come from the vocabulary, never from the data
    splits = ["--splits", "s.json"] if command == "pretrain" else []
    with pytest.raises(SystemExit) as exc:
        dispatch([command, "--data", "t.ndjson", *splits, "--out", "x"])
    assert exc.value.code == 2
    assert "--vocab" in capsys.readouterr().err


def test_missing_input_exits_3(workspace, tmp_path, capsys):
    root, cfg = workspace
    code = dispatch([
        "vocab", "--config", str(cfg), "--input", str(tmp_path / "nope.csv"),
        "--out", str(tmp_path / "o"),
    ])
    assert code == 3
    assert "missing-file" in capsys.readouterr().err


def test_missing_seed_exits_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    body = {k: v for k, v in TINY.items() if k != "seed"}
    cfg.write_text(json.dumps(body), encoding="utf-8")
    code = dispatch(["synth", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == 2
    assert "seed" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["synth", "preprocess"])
@pytest.mark.parametrize("config_seed, flag_seed", [(-2, None), (11, "-1"), (None, "-3")],
                         ids=["config", "flag", "flag_only"])
def test_negative_seed_exits_2_naming_seed(workspace, tmp_path, capsys, command,
                                           config_seed, flag_seed):
    # the effective seed is checked, whether the config or --seed gave it
    root, _ = workspace
    body = {k: v for k, v in TINY.items() if k != "seed"}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(body if config_seed is None else {**body, "seed": config_seed}),
                   encoding="utf-8")
    inputs = {"synth": [], "preprocess": ["--input", str(root / "d" / "synth.csv"),
                                          "--vocab", str(root / "v" / "vocab.json")]}
    flag = [] if flag_seed is None else ["--seed", flag_seed]
    code = dispatch([command, "--config", str(cfg), *flag, *inputs[command],
                     "--out", str(tmp_path / "o")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: config:") and "'seed'" in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("doc", [
    {"synth": {"extent_m": 12_000_000.0}},  # latitudes reached 97.7
    {"ref_lat": 89.0, "synth": {"extent_m": 400_000.0}},  # longitudes past 180
], ids=["extent_12000km", "extent_400km_at_lat89"])
def test_synth_extent_past_the_projection_exits_2(tmp_path, capsys, doc):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc), encoding="utf-8")
    assert dispatch(["synth", "--config", str(cfg), "--seed", "1",
                     "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: config: 'synth.extent_m'")
    assert not (tmp_path / "o" / "synth.csv").exists()


def test_check_order_config_then_inputs_then_seed(tmp_path, capsys):
    missing = ["--data", str(tmp_path / "nope.ndjson"), "--splits", str(tmp_path / "nope.json"),
               "--vocab", str(tmp_path / "nope_vocab.json"), "--out", str(tmp_path / "o")]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**TINY, "wat": 1}), encoding="utf-8")
    assert dispatch(["pretrain", "--config", str(cfg), *missing]) == 2
    assert "'wat'" in capsys.readouterr().err
    cfg.write_text(json.dumps({k: v for k, v in TINY.items() if k != "seed"}), encoding="utf-8")
    assert dispatch(["pretrain", "--config", str(cfg), *missing]) == 3
    assert "missing-file" in capsys.readouterr().err


@pytest.mark.parametrize("pretrain", [None, [0, 10**6], ["0"]],
                         ids=["missing_key", "out_of_range", "string_index"])
def test_malformed_splits_exit_1_naming_file_and_key(workspace, tmp_path, capsys, pretrain):
    root, cfg = workspace
    doc = json.loads((root / "p" / "splits.json").read_text())
    if pretrain is None:
        del doc["pretrain"]
    else:
        doc["pretrain"] = pretrain
    splits = tmp_path / "splits.json"
    splits.write_text(json.dumps(doc), encoding="utf-8")
    code = dispatch([
        "pretrain", "--config", str(cfg),
        "--data", str(root / "p" / "trajectories.ndjson"), "--splits", str(splits),
        "--vocab", str(root / "v" / "vocab.json"), "--out", str(tmp_path / "t"),
    ])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ValueError:") and str(splits) in err and "'pretrain'" in err


@pytest.mark.parametrize("flag, bad", [
    ("--config", "not_utf8"),
    ("--splits", "not_utf8"),
    ("--splits", "not_json"),
    ("--data", "not_utf8"),
    ("--input", "not_utf8"),
])
def test_undecodable_inputs_name_their_file(workspace, tmp_path, capsys, flag, bad):
    # the config exits 2 as a bad config; every other input exits 1; a
    # line-oriented input (NDJSON, CSV) also names the line of the bad byte
    root, cfg = workspace
    given = {
        "--config": cfg,
        "--splits": root / "p" / "splits.json",
        "--data": root / "p" / "trajectories.ndjson",
        "--input": root / "d" / "synth.csv",
    }
    lines = given[flag].read_bytes().split(b"\n")
    if bad == "not_json":
        lines = [b"{'pretrain': [0]}"]
    else:
        lines[2 if len(lines) > 3 else 0] += b"\xff"
    path = given[flag] = tmp_path / given[flag].name
    path.write_bytes(b"\n".join(lines))
    if flag == "--input":
        argv = ["vocab", "--input", str(path)]
    else:
        argv = ["pretrain", "--data", str(given["--data"]), "--splits", str(given["--splits"]),
                "--vocab", str(root / "v" / "vocab.json")]
    code = dispatch([*argv, "--config", str(given["--config"]), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    if flag == "--config":
        assert code == 2 and err.startswith(f"error: config: {path}:"), err
    else:
        line = ", line 3:" if flag in ("--data", "--input") else ":"
        assert code == 1 and err.startswith(f"error: ValueError: {path}{line}"), err


@pytest.mark.parametrize("override", [
    {"head_kind": None},
    {"head_kind": "gru"},
    {"config": None},
    {"config": [1, 2]},
    {"config": {"level_sizes": [5], "wat": 1}},
    {"head_kind": "lstm"},  # FFN tensors under an LSTM label
    {"kind": "model"},
    {"kind": "classifier", "head_kind": None},
    {"kind": "classifier", "head_kind": None, "classes": [1]},
], ids=["no_head_kind", "unknown_head_kind", "no_config", "config_list", "config_unknown_key",
        "layout_mismatch", "not_a_head", "no_classes", "classes_int"])
def test_malformed_head_checkpoint_exits_1(workspace, tmp_path, capsys, override):
    root, cfg = workspace
    sizes = Vocabulary.load(root / "v" / "vocab.json").sizes()
    config = ModelConfig(sizes, hidden=16, layers=1, heads=2)
    ckpt = tmp_path / "checkpoint.gsq"
    save_checkpoint(ModelState.init(config, seed=0), ckpt)
    good = {"kind": "head", "head_kind": "ffn", "config": config.to_json()}
    meta = {k: v for k, v in {**good, **override}.items() if v is not None}
    head = tmp_path / "head.gsq"
    save_tensors(head, make_head("ffn", config).params, meta)
    argv = [
        "eval", "--config", str(cfg),
        "--data", str(root / "p" / "trajectories.ndjson"),
        "--splits", str(root / "p" / "splits.json"),
        "--checkpoint", str(ckpt), "--head-checkpoint", str(head), "--out", str(tmp_path / "e"),
    ]
    assert dispatch(argv) == 1
    assert capsys.readouterr().err.startswith(f"error: CheckpointError: {head}:")
    save_tensors(head, make_head("ffn", config).params, good)
    assert dispatch(argv) == 0  # the same files with a well-formed head load and evaluate


@pytest.mark.parametrize("which", ["checkpoint", "head"])
def test_tensor_listed_twice_exits_1(workspace, tmp_path, capsys, which):
    root, cfg = workspace
    sizes = Vocabulary.load(root / "v" / "vocab.json").sizes()
    config = ModelConfig(sizes, hidden=16, layers=1, heads=2)
    ckpt, head = tmp_path / "checkpoint.gsq", tmp_path / "head.gsq"
    save_checkpoint(ModelState.init(config, seed=0), ckpt)
    save_tensors(head, make_head("ffn", config).params,
                 {"kind": "head", "head_kind": "ffn", "config": config.to_json()})
    path, name = (ckpt, "temporal.b") if which == "checkpoint" else (head, "g1.b")
    list_twice(path, name, 7.0)
    assert dispatch([
        "eval", "--config", str(cfg),
        "--data", str(root / "p" / "trajectories.ndjson"),
        "--splits", str(root / "p" / "splits.json"),
        "--checkpoint", str(ckpt), "--head-checkpoint", str(head), "--out", str(tmp_path / "e"),
    ]) == 1
    assert capsys.readouterr().err.startswith(
        f"error: CheckpointError: {path}: tensor '{name}' is listed twice")


@pytest.mark.parametrize("key, value", [
    ("heads", 2.0), ("layers", 1.0), ("max_seq_len", "x"), ("max_seq_len", 1),
], ids=["heads_float", "layers_float", "max_seq_len_str", "max_seq_len_1"])
def test_bad_checkpoint_config_value_exits_1_naming_the_key(
    workspace, tmp_path, capsys, key, value
):
    # the checkpoint's own config, not the trajectories it is evaluated on, is at fault
    root, cfg = workspace
    sizes = Vocabulary.load(root / "v" / "vocab.json").sizes()
    config = ModelConfig(sizes, hidden=16, layers=1, heads=2)
    ckpt = tmp_path / "checkpoint.gsq"
    save_tensors(ckpt, ModelState.init(config, seed=0).params,
                 {"kind": "model", "config": {**config.to_json(), key: value}})
    assert dispatch([
        "eval", "--config", str(cfg),
        "--data", str(root / "p" / "trajectories.ndjson"),
        "--splits", str(root / "p" / "splits.json"),
        "--checkpoint", str(ckpt), "--out", str(tmp_path / "e"),
    ]) == 1
    assert capsys.readouterr().err.startswith(
        f"error: CheckpointError: {ckpt}: bad model config in meta: '{key}' must be ")


def test_config_defaults_and_validation():
    cfg = resolve_config({})
    assert cfg["hidden"] == 256 and cfg["layers"] == 6 and cfg["heads"] == 8
    assert cfg["max_seq_len"] == 32 and cfg["batch_size"] == 32
    assert cfg["warmup_steps"] == 10000 and cfg["weight_decay"] == 1e-2
    with pytest.raises(ConfigError):
        resolve_config({"profile": "bogus"})
    with pytest.raises(ConfigError):
        resolve_config({"synth": {"wat": 1}})


@pytest.mark.parametrize("bad, key", [
    ({"epochs": 0}, "'epochs'"),
    ({"batch_size": 0}, "'batch_size'"),
    ({"epochs": "2"}, "'epochs'"),
    ({"heads": 3}, "'heads'"),  # TINY's hidden is 16
    ({"betas": ["x", 0.999]}, "'betas[0]'"),
    ({"split_fractions": [1.5, 0.8, 0.1]}, "'split_fractions'"),
    ({"hidden": 0}, "'hidden'"),
    ({"heads": 0}, "'heads'"),
    ({"betas": [0.9]}, "'betas'"),
], ids=["epochs_0", "batch_size_0", "epochs_str", "heads_3", "betas_str", "split_over_1",
        "hidden_0", "heads_0", "betas_one"])
def test_bad_numbers_exit_2(workspace, tmp_path, capsys, bad, key):
    root, _ = workspace
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**TINY, **bad}), encoding="utf-8")
    code = dispatch([
        "pretrain", "--config", str(cfg),
        "--data", str(root / "p" / "trajectories.ndjson"),
        "--splits", str(root / "p" / "splits.json"),
        "--vocab", str(root / "v" / "vocab.json"),
        "--out", str(tmp_path / "t"),
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: config:") and key in err


@pytest.mark.parametrize("bad, key", [
    ({"synth": {"extent_m": 50_000.0}}, "'synth.extent_m'"),
    ({"synth": {"users": 0}}, "'synth.users'"),
    ({"synth": {"burst_len": [5]}}, "unknown key 'synth.burst_len'"),
    ({"synth": {"dwell_minutes": [9, 3]}}, "unknown key 'synth.dwell_minutes'"),
    ({"synth": {"burst_len": [-3, 2]}}, "unknown key 'synth.burst_len'"),
    ({"synth": {"dwell_minutes": [-2, -1]}}, "unknown key 'synth.dwell_minutes'"),
    ({"synth": {"jitter_m": -1.0}}, "unknown key 'synth.jitter_m'"),
    ({"synth": {"heading_noise": -0.1}}, "unknown key 'synth.heading_noise'"),
    ({"synth": {"bursts_per_user": -1}}, "unknown key 'synth.bursts_per_user'"),
    ({"max_seq_len": 1}, "'max_seq_len'"),
    ({"resample_interval": 0}, "'resample_interval'"),
    ({"attn_dropout": 1.0}, "'attn_dropout'"),
    ({"ablation": {"variants": ["bogus"]}}, "unknown key 'ablation'"),
    ({"ablation": {"eval_k": 5}}, "unknown key 'ablation'"),
    ({"origin": [0.0]}, "'origin'"),
    ({"layers": -1}, "'layers'"),
    ({"lr": -1.0}, "'lr'"),
    ({"eps": 0.0}, "'eps'"),
    ({"weight_decay": -1.0}, "'weight_decay'"),
    ({"warmup_steps": -3}, "'warmup_steps'"),
    ({"betas": [1.5, 0.999]}, "'betas'"),
    ({"stop_speed_kmh": -1.0}, "'stop_speed_kmh'"),
    ({"min_trajectory_records": -5}, "'min_trajectory_records'"),
    ({"split_fractions": [1.0, 0.8, 0.1]}, "'split_fractions'"),
    ({"split_fractions": [0.8, 0.0, 0.1]}, "'split_fractions'"),
    ({"ref_lat": float("nan")}, "'ref_lat'"),
    ({"ref_lat": 95.0}, "'ref_lat'"),
    ({"synth": {"extent_m": float("nan")}}, "'synth.extent_m'"),
    ({"synth": {"extent_m": float("inf")}}, "'synth.extent_m'"),
    ({"origin": [float("nan"), 0.0]}, "'origin'"),
    ({"scales": [float("nan"), 100.0]}, "'scales'"),
    ({"min_stay_seconds": -5}, "'min_stay_seconds'"),
    ({"synth": {"anchors_per_user": 1}}, "unknown key 'synth.anchors_per_user'"),
    ({"lr": float("inf")}, "'lr'"),
    ({"eps": float("inf")}, "'eps'"),
    ({"weight_decay": float("inf")}, "'weight_decay'"),
    ({"stop_speed_kmh": float("inf")}, "'stop_speed_kmh'"),
    ({"resample_interval": 2**63}, "'resample_interval'"),
], ids=["extent_m", "users_0", "burst_len_one", "dwell_minutes_reversed",
        "burst_len_negative", "dwell_minutes_negative", "jitter_negative",
        "heading_noise_negative", "bursts_negative", "max_seq_len_1",
        "resample_interval_0", "attn_dropout_1", "variant_bogus", "eval_k_unknown",
        "origin_one", "layers_negative", "lr_negative", "eps_0", "weight_decay_negative",
        "warmup_steps_negative", "beta_1_5", "stop_speed_negative",
        "min_trajectory_records_negative", "split_pretrain_1", "split_train_0",
        "ref_lat_nan", "ref_lat_95", "extent_m_nan", "extent_m_inf", "origin_nan",
        "scales_nan", "min_stay_seconds_negative", "anchors_per_user_1", "lr_inf", "eps_inf",
        "weight_decay_inf", "stop_speed_inf", "resample_interval_2_63"])
@pytest.mark.parametrize("command", ["synth", "preprocess"])
def test_dataclass_rules_exit_2_naming_the_key(tmp_path, capsys, bad, key, command):
    # every subcommand checks the whole config before it looks at its inputs
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(bad), encoding="utf-8")
    inputs = {"synth": [], "preprocess": ["--input", "in.csv", "--vocab", "vocab.json"]}
    code = dispatch([command, "--config", str(cfg), "--seed", "1", *inputs[command],
                     "--out", str(tmp_path / "o")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: config:") and key in err


def _float_settings() -> list[tuple[str, int | None]]:
    """(key, list index or None) of every float in the defaults, sections included."""
    out = []
    for key, value in DEFAULTS.items():
        for inner, v in (value.items() if isinstance(value, dict) else [(None, value)]):
            name = key if inner is None else f"{key}.{inner}"
            if type(v) is float:
                out.append((name, None))
            elif isinstance(v, list) and v and type(v[0]) is float:
                out += [(name, i) for i in range(len(v))]
    return out


@settings(max_examples=300, deadline=None)
@given(
    setting=st.sampled_from(_float_settings()),
    x=st.one_of(st.sampled_from([math.nan, math.inf, -math.inf]), st.floats()),
)
def test_any_float_key_resolves_or_names_itself(setting, x):
    name, index = setting
    key, _, inner = name.partition(".")
    value = x
    if index is not None:
        value = list(DEFAULTS[key][inner] if inner else DEFAULTS[key])
        value[index] = x
    doc = {key: {inner: value}} if inner else {key: value}
    try:
        resolve_config(doc)
    except ConfigError as e:
        assert f"'{name}" in str(e), (doc, str(e))
    else:
        assert math.isfinite(x), f"{doc} resolved"


def _preprocess(root, cfg_doc, tmp_path) -> int:
    """`geoseq preprocess` of the workspace corpus under `cfg_doc` into tmp_path/p."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(cfg_doc), encoding="utf-8")
    return dispatch([
        "preprocess", "--config", str(cfg), "--input", str(root / "d" / "synth.csv"),
        "--vocab", str(root / "v" / "vocab.json"), "--out", str(tmp_path / "p"),
    ])


@pytest.mark.parametrize("overrides, message", [
    # TINY gives 24 trajectories: 19 pretrain, then a pool of 5 split 3 + 2 + 0
    ({"split_fractions": [0.8, 0.6, 0.4]}, "split 'finetune_test' is empty"),
    # 23 pretrain, then a pool of 1 whose train share rounds to 0
    ({"split_fractions": [0.99, 0.8, 0.1]}, "split 'finetune_train' is empty"),
    ({"profile": "signal"}, "need at least 10 trajectories to split, got 0"),
], ids=["test_empty", "train_empty", "too_few"])
def test_preprocess_rejects_an_empty_split_before_writing(
    workspace, tmp_path, capsys, overrides, message
):
    root, _ = workspace
    assert _preprocess(root, {**TINY, **overrides}, tmp_path) == 1
    assert capsys.readouterr().err.startswith(f"error: ValueError: {message}")
    assert list((tmp_path / "p").iterdir()) == []


@pytest.mark.parametrize("overrides, key, ours, theirs", [
    ({"ref_lat": 0.5}, "ref_lat", "0.5", "0.0"),
    ({"scales": [100_000, 1_000]}, "scales", "(100000.0, 1000.0)", "(100000.0, 1000.0, 100.0)"),
    ({"origin": [5.0, 0.0]}, "origin", "(5.0, 0.0)", "(0.0, 0.0)"),
], ids=["ref_lat", "scales", "origin"])
def test_preprocess_rejects_a_grid_other_than_the_vocabs(
    workspace, tmp_path, capsys, overrides, key, ours, theirs
):
    # the vocabulary's cells and projection decide the tokens, so a config that
    # sets another grid is not ignored: it exits 2 before the CSV is read
    root, _ = workspace
    assert _preprocess(root, {**TINY, **overrides}, tmp_path) == 2
    vocab = root / "v" / "vocab.json"
    assert capsys.readouterr().err == (
        f"error: config: '{key}' is {ours} but {vocab} was built with {theirs}\n")
    assert not (tmp_path / "p" / "trajectories.ndjson").exists()


def test_preprocess_names_the_csv_and_vocab_of_an_unseen_cell(workspace, tmp_path, capsys):
    # another seed's corpus reaches a coarse cell that the workspace vocabulary never saw
    root, cfg = workspace
    assert dispatch(["synth", "--config", str(cfg), "--seed", "12",
                     "--out", str(tmp_path / "d")]) == 0
    csv, vocab = tmp_path / "d" / "synth.csv", root / "v" / "vocab.json"
    capsys.readouterr()
    assert dispatch(["preprocess", "--config", str(cfg), "--input", str(csv),
                     "--vocab", str(vocab), "--out", str(tmp_path / "p")]) == 1
    assert capsys.readouterr().err == (
        f"error: ValueError: {csv}: key (0, 2) at level 1 is not in {vocab}\n")
    assert not (tmp_path / "p" / "trajectories.ndjson").exists()


def test_chain_at_a_nonzero_ref_lat_tokenizes_with_its_projection(tmp_path):
    # Beijing's latitude, where a projection at another ref_lat moves x by a
    # factor of cos(39.9°) and lands points in other cells
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**TINY, "ref_lat": 39.9}), encoding="utf-8")
    csv, vocab_path = tmp_path / "d" / "synth.csv", tmp_path / "v" / "vocab.json"
    assert dispatch(["synth", "--config", str(cfg), "--out", str(tmp_path / "d")]) == 0
    assert dispatch(["vocab", "--config", str(cfg), "--input", str(csv),
                     "--out", str(tmp_path / "v")]) == 0
    assert json.loads(vocab_path.read_text(encoding="utf-8"))["ref_lat"] == 39.9
    assert dispatch(["preprocess", "--config", str(cfg), "--input", str(csv),
                     "--vocab", str(vocab_path), "--out", str(tmp_path / "p")]) == 0
    vocab = Vocabulary.load(vocab_path)
    trajs = read_trajectories(tmp_path / "p" / "trajectories.ndjson", vocab.sizes())
    assert trajs
    # every CSV row's tokens decode to within half a finest cell of the row
    # projected at 39.9, and every window holds only those rows' token tuples
    rows = read_csv(csv)
    x, y = project(rows.lat, rows.lon, 39.9)
    ids = vocab.ids_for(encode_points(x, y, vocab.spec))
    inverse = [{tid: tuple(key) if isinstance(key, list) else key for key, tid in lev["entries"]}
               for lev in vocab.to_json()["levels"]]
    half = vocab.spec.scales[-1] / 2.0
    for a, b, row in zip(x.tolist(), y.tolist(), ids.tolist()):
        cx, cy, _ = decode_keys([inverse[h][tid] for h, tid in enumerate(row)], vocab.spec)
        # a point on a cell edge may sit half a cell away up to float rounding
        assert abs(cx - a) <= half * (1 + 1e-9) and abs(cy - b) <= half * (1 + 1e-9)
    tuples = set(map(tuple, ids.tolist()))
    assert all(set(t.ids[1:]) <= tuples for t in trajs)


def test_signal_profile_end_to_end(workspace, tmp_path):
    root, _ = workspace
    assert _preprocess(root, {**TINY, "profile": "signal", "min_stay_seconds": 0}, tmp_path) == 0
    vocab = Vocabulary.load(root / "v" / "vocab.json")
    trajs = read_trajectories(tmp_path / "p" / "trajectories.ndjson", vocab.sizes())
    assert len(trajs) == 17
    sos = vocab.sos_tuple()
    for t in trajs:
        assert t.ids[0] == sos and sos not in t.ids[1:]
        assert 3 <= len(t.ids) <= DEFAULTS["max_seq_len"]
        assert t.timestamps == sorted(t.timestamps)
    splits = json.loads((tmp_path / "p" / "splits.json").read_text(encoding="utf-8"))
    parts = [splits[k] for k in ("pretrain", "finetune_train", "finetune_val", "finetune_test")]
    assert splits["pretrain"] and splits["finetune_train"] and splits["finetune_test"]
    assert sorted(i for part in parts for i in part) == list(range(17))


@pytest.mark.parametrize("row, fault", [
    ("u1,1000,1.5", "no 'lon' field (the row has 3 fields)"),
    ("u1,1.5e9,1.5,2.5", "'timestamp' '1.5e9' is not an integer in (0, 2^63)"),
    ("u1,0,1.5,2.5", "'timestamp' '0' is not an integer in (0, 2^63)"),
    ("u1,9223372036854775808,1.5,2.5",
     "'timestamp' '9223372036854775808' is not an integer in (0, 2^63)"),
    ("u1,1000,north,2.5", "'lat' 'north' is not a number in [-90, 90]"),
    ("u1,1000,NaN,2.5", "'lat' 'NaN' is not a number in [-90, 90]"),
    ("u1,1000,95.0,2.5", "'lat' '95.0' is not a number in [-90, 90]"),
    ("u1,1000,1.5,-180.5", "'lon' '-180.5' is not a number in [-180, 180]"),
], ids=["three_fields", "ts_float", "ts_0", "ts_2_63", "lat_word", "lat_nan", "lat_95",
        "lon_range"])
@pytest.mark.parametrize("command", ["vocab", "preprocess"])
def test_malformed_csv_rows_exit_1_naming_file_and_line(
    workspace, tmp_path, capsys, row, fault, command
):
    root, cfg = workspace
    path = tmp_path / "in.csv"
    path.write_text(f"user_id,timestamp,lat,lon,label\nu1,900,1.5,2.5,walk\n\n{row}\n",
                    encoding="utf-8")
    inputs = {"vocab": [], "preprocess": ["--vocab", str(root / "v" / "vocab.json")]}
    code = dispatch([command, "--config", str(cfg), "--input", str(path), *inputs[command],
                     "--out", str(tmp_path / "o")])
    assert code == 1
    assert capsys.readouterr().err == f"error: ValueError: {path}, line 4: {fault}\n"
    assert list((tmp_path / "o").iterdir()) == []


def test_hierarchy_depth_is_the_number_of_scales(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**TINY, "h_levels": 2}), encoding="utf-8")
    assert dispatch(["synth", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert "unknown key 'h_levels'" in capsys.readouterr().err
    cfg.write_text(json.dumps({**TINY, "scales": [10_000.0, 100.0]}), encoding="utf-8")
    assert dispatch(["synth", "--config", str(cfg), "--out", str(tmp_path / "d")]) == 0
    assert dispatch(["vocab", "--config", str(cfg), "--input", str(tmp_path / "d" / "synth.csv"),
                     "--out", str(tmp_path / "v")]) == 0
    assert len(Vocabulary.load(tmp_path / "v" / "vocab.json").sizes()) == 2


def test_readme_config_table_names_every_key():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    table = readme.split("### Config keys and defaults", 1)[1].split("\n\n| key |", 1)[1]
    rows = [line for line in table.split("\n\n", 1)[0].splitlines() if line.startswith("| `")]
    named = sorted(key for row in rows for key in re.findall(r"`([^`]+)`", row.split("|")[1]))
    expected = [key for key, value in DEFAULTS.items() if not isinstance(value, dict)]
    expected += ["synth.*"]
    assert named == sorted(expected)


def test_resolved_defaults_are_pinned():
    # deriving the defaults from the config dataclasses must move no default
    # and no manifest config_hash (this one is without the `ablation` section
    # and the six `synth` shape keys that are now constants, and equals the
    # earlier defaults' hash with those dropped)
    cfg = resolve_config({})
    canon = json.dumps(cfg, sort_keys=True).encode("utf-8")
    assert hashlib.sha256(canon).hexdigest() == (
        "b06c5b891d6b346cd8cf6bf7c3859b991d69ffc1a590e39e32c7c18416d3fb90"
    )
    assert cfg["seed"] is None  # the CLI requires one


def _ndjson_faults(sizes):
    """Each fault as a function editing one decoded trajectory line in place."""
    def drop(key):
        return lambda doc: doc.pop(key)

    def set_id(level, value):
        return lambda doc: doc["ids"][2].__setitem__(level, value)

    def set_ts(value):
        return lambda doc: doc["ts"].__setitem__(2, value)

    return {
        "no_user": drop("user"),
        "no_ids": drop("ids"),
        "no_ts": drop("ts"),
        "ragged_tuple": lambda doc: doc["ids"][2].pop(),
        "ts_shorter": lambda doc: doc["ts"].pop(),
        "id_float": set_id(0, 2.5),
        "id_at_size": set_id(1, sizes[1]),
        "id_negative": set_id(2, -1),
        "ts_str": set_ts("noon"),
        "ts_zero": set_ts(0),
        "ts_negative": set_ts(-60),
        "ts_nan": set_ts(float("nan")),
        "ts_bool": set_ts(True),
        "id_bool": set_id(0, True),
        "label_int": lambda doc: doc.__setitem__("label", 3),
        "label_list": lambda doc: doc.__setitem__("label", ["walk"]),
        "ids_empty": lambda doc: doc.update(ids=[], ts=[]),
        "sos_only": lambda doc: doc.update(ids=doc["ids"][:1], ts=doc["ts"][:1]),
        "first_not_sos": lambda doc: doc["ids"].__setitem__(0, doc["ids"][1]),
        "first_part_sos": lambda doc: doc["ids"][0].__setitem__(2, 2),
        "pad_after_first": lambda doc: doc["ids"].__setitem__(3, [1, 1, 1]),
        "sos_after_first": set_id(1, 0),
        "pad_level_after_first": set_id(2, 1),
    }


@pytest.mark.parametrize("fault", [
    "no_user", "no_ids", "no_ts", "ragged_tuple", "ts_shorter", "id_float", "id_at_size",
    "id_negative", "ts_str", "ts_zero", "ts_negative", "ts_nan", "ts_bool", "id_bool",
    "label_int", "label_list", "ids_empty", "sos_only", "first_not_sos", "first_part_sos",
    "pad_after_first", "sos_after_first", "pad_level_after_first",
])
@pytest.mark.parametrize("command", ["pretrain", "eval"])
def test_malformed_trajectories_exit_1_naming_file_and_line(
    workspace, tmp_path, capsys, fault, command
):
    root, cfg = workspace
    sizes = Vocabulary.load(root / "v" / "vocab.json").sizes()
    lines = (root / "p" / "trajectories.ndjson").read_text().splitlines()
    doc = json.loads(lines[2])
    _ndjson_faults(sizes)[fault](doc)
    lines[2] = json.dumps(doc)
    data = tmp_path / "trajectories.ndjson"
    data.write_text("\n".join(lines) + "\n", encoding="utf-8")
    inputs = ["--data", str(data), "--splits", str(root / "p" / "splits.json")]
    if command == "pretrain":
        inputs += ["--vocab", str(root / "v" / "vocab.json")]
    else:  # the range check reads the level sizes from the checkpoint
        ckpt = tmp_path / "checkpoint.gsq"
        save_checkpoint(ModelState.init(ModelConfig(sizes, hidden=16, layers=1, heads=2)), ckpt)
        inputs += ["--checkpoint", str(ckpt)]
    code = dispatch([command, "--config", str(cfg), *inputs, "--out", str(tmp_path / "o")])
    assert code == 1
    assert capsys.readouterr().err.startswith(f"error: ValueError: {data}, line 3:")


def _json_paths(node, prefix=()):
    """The path of every value inside a decoded JSON document, the root excluded."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield prefix + (key,)
        if isinstance(value, (dict, list)):
            yield from _json_paths(value, prefix + (key,))


_json_values = st.recursive(
    st.none() | st.booleans() | st.text(max_size=4)
    | st.integers() | st.sampled_from([2**63, 2**64, -(2**63) - 1, 10**400])
    | st.floats(allow_nan=True, allow_infinity=True),
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.text(max_size=3), inner, max_size=3)),
    max_leaves=6,
)


@pytest.fixture(scope="module")
def mutation_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("ndjson_mutations")


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_single_line_ndjson_mutation_loads_or_names_file_and_line(workspace, mutation_dir, data):
    # a value replaced, a key or element deleted, or the line truncated: the
    # file either loads into well-typed trajectories the model can batch, or
    # its ValueError names the file and the mutated line
    root, _ = workspace
    sizes = Vocabulary.load(root / "v" / "vocab.json").sizes()
    lines = (root / "p" / "trajectories.ndjson").read_text().splitlines()
    at = data.draw(st.integers(0, len(lines) - 1), label="line index")
    kind = data.draw(st.sampled_from(["replace", "delete", "truncate"]), label="kind")
    if kind == "truncate":
        lines[at] = lines[at][: data.draw(st.integers(0, len(lines[at]) - 1), label="keep")]
    else:
        doc = json.loads(lines[at])
        path = data.draw(st.sampled_from(list(_json_paths(doc))), label="path")
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if kind == "replace":
            parent[path[-1]] = data.draw(_json_values, label="value")
        else:
            del parent[path[-1]]
        lines[at] = json.dumps(doc)
    mutated = mutation_dir / "trajectories.ndjson"
    mutated.write_text("\n".join(lines) + "\n", encoding="utf-8")
    try:
        trajs = read_trajectories(mutated, sizes, DEFAULTS["max_seq_len"])
    except ValueError as e:
        assert str(e).startswith(f"{mutated}, line {at + 1}:"), str(e)
    else:
        assert all(isinstance(t.user, str) and isinstance(t.label, (str, type(None)))
                   for t in trajs)
        batch = make_batch(trajs, len(sizes))
        assert batch.ids.shape[0] == len(lines) - (not lines[at].strip())


@pytest.mark.parametrize("command", ["pretrain", "eval", "ablate"])
def test_trajectory_over_max_seq_len_exits_1_naming_file_and_line(
    workspace, tmp_path, capsys, command
):
    # pretrain and ablate read the cap from the config, eval from the checkpoint
    root, cfg = workspace
    data = root / "p" / "trajectories.ndjson"
    lengths = [len(json.loads(line)["ids"]) for line in data.read_text().splitlines()]
    lineno, n = next((i, n) for i, n in enumerate(lengths, start=1) if n > 16)
    splits = ["--splits", str(root / "p" / "splits.json")]
    if command == "eval":
        sizes = Vocabulary.load(root / "v" / "vocab.json").sizes()
        config = ModelConfig(sizes, hidden=16, layers=1, heads=2, max_seq_len=16)
        ckpt = tmp_path / "checkpoint.gsq"
        save_checkpoint(ModelState.init(config), ckpt)
        inputs = splits + ["--checkpoint", str(ckpt)]
    else:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**TINY, "max_seq_len": 16}), encoding="utf-8")
        inputs = ["--vocab", str(root / "v" / "vocab.json")]
        inputs += splits if command == "pretrain" else []
    inputs += ["--data", str(data)]
    code = dispatch([command, "--config", str(cfg), *inputs, "--out", str(tmp_path / "o")])
    assert code == 1
    assert capsys.readouterr().err.startswith(
        f"error: ValueError: {data}, line {lineno}: {n} positions exceed max_seq_len 16"
    )


def test_integer_labels_fail_classification_finetune(workspace, tmp_path, capsys):
    # a classifier saved with integer classes could never be loaded again
    root, _ = workspace
    sizes = Vocabulary.load(root / "v" / "vocab.json").sizes()
    lines = (root / "p" / "trajectories.ndjson").read_text().splitlines()
    docs = [json.loads(line) for line in lines]
    for i, doc in enumerate(docs):
        doc["label"] = i % 2
    data = tmp_path / "trajectories.ndjson"
    data.write_text("".join(json.dumps(doc) + "\n" for doc in docs), encoding="utf-8")
    ckpt = tmp_path / "checkpoint.gsq"
    save_checkpoint(ModelState.init(ModelConfig(sizes, hidden=16, layers=1, heads=2)), ckpt)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**TINY, "task": "classification"}), encoding="utf-8")
    code = dispatch(["finetune", "--config", str(cfg), "--data", str(data),
                     "--splits", str(root / "p" / "splits.json"), "--checkpoint", str(ckpt),
                     "--out", str(tmp_path / "f")])
    assert code == 1
    assert capsys.readouterr().err.startswith(f"error: ValueError: {data}, line 1:")
    assert not (tmp_path / "f" / "head.gsq").exists()


@pytest.mark.parametrize("key, value", [
    ("scales", None), ("origin", None), ("levels", None), ("flat_count", None),
    ("scales", "100"), ("origin", [0.0]), ("levels", {}), ("flat_count", "3"),
    ("entries", None), ("entries", [[[0, 0], "2"]]), ("ref_lat", None), ("ref_lat", "x"),
], ids=["no_scales", "no_origin", "no_levels", "no_flat_count", "scales_str", "origin_short",
        "levels_object", "flat_count_str", "no_entries", "entry_id_str", "no_ref_lat",
        "ref_lat_str"])
def test_malformed_vocab_exits_1_naming_file_and_key(workspace, tmp_path, capsys, key, value):
    root, cfg = workspace
    doc = json.loads((root / "v" / "vocab.json").read_text())
    target = doc["levels"][0] if key == "entries" else doc
    if value is None:
        del target[key]
    else:
        target[key] = value
    vocab = tmp_path / "vocab.json"
    vocab.write_text(json.dumps(doc), encoding="utf-8")
    code = dispatch([
        "preprocess", "--config", str(cfg), "--input", str(root / "d" / "synth.csv"),
        "--vocab", str(vocab), "--out", str(tmp_path / "o"),
    ])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: ValueError: {vocab}:") and f"'{key}'" in err


def test_ablate_rejects_negative_ids_and_empty_data(workspace, tmp_path, capsys):
    root, cfg = workspace
    lines = (root / "p" / "trajectories.ndjson").read_text().splitlines()
    doc = json.loads(lines[2])
    doc["ids"][2][0] = -1
    lines[2] = json.dumps(doc)
    data = tmp_path / "negative.ndjson"
    data.write_text("\n".join(lines) + "\n", encoding="utf-8")
    empty = tmp_path / "empty.ndjson"
    empty.write_text("", encoding="utf-8")
    for path, message in ((data, f"{data}, line 3:"), (empty, f"{empty}: no trajectories")):
        code = dispatch(["ablate", "--config", str(cfg), "--data", str(path),
                         "--vocab", str(root / "v" / "vocab.json"), "--out", str(tmp_path / "o")])
        assert code == 1
        assert capsys.readouterr().err.startswith(f"error: ValueError: {message}")

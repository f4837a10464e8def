"""Subcommand round trips, exit codes, manifests, determinism."""

import hashlib
import json

import pytest

from geoseq.cli import dispatch, resolve_config, ConfigError


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
    for key, value in (("betas", [0.5, 0.9]), ("eps", 1e-2)):
        assert written("ablate", data + vocab, "ablation.json", **{key: value}) != table, key


def test_manifest_accompanies_artifacts(workspace):
    root, _ = workspace
    manifest = json.loads((root / "p" / "manifest.json").read_text())
    assert manifest["command"] == "preprocess"
    assert manifest["seed"] == 11
    assert len(manifest["config_hash"]) == 64
    assert all(len(h) == 64 for h in manifest["inputs"].values())
    assert "geoseq" in manifest["versions"]


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


def test_config_defaults_and_validation():
    cfg = resolve_config({})
    assert cfg["hidden"] == 256 and cfg["layers"] == 6 and cfg["heads"] == 8
    assert cfg["max_seq_len"] == 32 and cfg["batch_size"] == 32
    assert cfg["warmup_steps"] == 10000 and cfg["weight_decay"] == 1e-2
    with pytest.raises(ConfigError):
        resolve_config({"profile": "bogus"})
    with pytest.raises(ConfigError):
        resolve_config({"scales": [1000.0, 100.0]})  # h_levels says 3
    with pytest.raises(ConfigError):
        resolve_config({"synth": {"wat": 1}})


@pytest.mark.parametrize("bad, key", [
    ({"epochs": 0}, "'epochs'"),
    ({"batch_size": 0}, "'batch_size'"),
    ({"epochs": "2"}, "'epochs'"),
    ({"heads": 3}, "'heads'"),  # TINY's hidden is 16
], ids=["epochs_0", "batch_size_0", "epochs_str", "heads_3"])
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


def test_scales_must_match_levels():
    cfg = resolve_config({"h_levels": 2, "scales": [10_000.0, 100.0]})
    assert cfg["h_levels"] == 2


def test_resolved_defaults_are_pinned():
    # deriving the defaults from the config dataclasses must move no default
    # and no manifest config_hash
    cfg = resolve_config({})
    canon = json.dumps(cfg, sort_keys=True).encode("utf-8")
    assert hashlib.sha256(canon).hexdigest() == (
        "dc1f3608e707a33cd0cdc40ea98937b4bdb3d6162b72b336f1ab350ba6a4a31d"
    )
    assert cfg["seed"] is None  # the CLI requires one

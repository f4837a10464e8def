"""scripts/artifact_hashes.py: the comparison of two runs' artifact hashes."""

import importlib.util
import json
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
sys.path.insert(0, str(SCRIPTS))  # the script imports bench_pairs, as it does when run
SCRIPT = SCRIPTS / "artifact_hashes.py"
spec = importlib.util.spec_from_file_location("artifact_hashes", SCRIPT)
artifact_hashes = importlib.util.module_from_spec(spec)
spec.loader.exec_module(artifact_hashes)
compare = artifact_hashes.compare


def test_equal_runs_are_ok():
    run = {"synth/synth.csv": "a", "synth/manifest.json": "m"}
    assert compare(run, dict(run)) == {
        "same": ["synth/synth.csv", "synth/manifest.json"],
        "differ": [], "only_parent": [], "only_change": [], "ok": True,
    }


def test_a_manifest_may_differ_but_no_other_artifact():
    parent = {"pretrain/checkpoint.gsq": "c", "pretrain/manifest.json": "m1"}
    report = compare(parent, {**parent, "pretrain/manifest.json": "m2"})
    assert report["differ"] == ["pretrain/manifest.json"] and report["ok"]
    report = compare(parent, {**parent, "pretrain/checkpoint.gsq": "d"})
    assert report["differ"] == ["pretrain/checkpoint.gsq"] and not report["ok"]


def test_an_artifact_on_one_side_only_fails():
    parent = {"ablate/ablation.json": "j", "ablate/ablation.txt": "t"}
    report = compare(parent, {"ablate/ablation.json": "j", "ablate/extra.json": "x"})
    assert report["same"] == ["ablate/ablation.json"]
    assert report["only_parent"] == ["ablate/ablation.txt"]
    assert report["only_change"] == ["ablate/extra.json"]
    assert not report["ok"]
    # a manifest missing on one side is a missing artifact, not a tolerated difference
    assert not compare({"eval/manifest.json": "m"}, {})["ok"]


def test_a_second_chain_runs_the_benchmark_corpus_at_the_default_config():
    steps = artifact_hashes._steps(Path("work"))
    names = [name for name, _, _ in steps]
    assert names[-4:] == ["synth_corpus", "vocab_corpus", "preprocess_corpus",
                          "preprocess_signal_corpus"]
    corpus = {"synth": {"users": artifact_hashes.CORPUS_USERS}}
    for _, config, _ in steps[-4:-1]:
        assert config == corpus
    # the stay filter at corpus size: at the default min_stay_seconds it keeps nothing
    assert steps[-1][1] == {**corpus, "profile": "signal", "min_stay_seconds": 0}
    assert all(config["hidden"] == 16 for _, config, _ in steps[:-4])  # the tiny chain


def test_the_ranking_chain_ranks_at_least_thirty_test_trajectories(tmp_path):
    steps = [s for s in artifact_hashes._steps(tmp_path) if s[0].endswith("_ranking")]
    assert [name for name, _, _ in steps] == [
        "synth_ranking", "vocab_ranking", "preprocess_ranking", "pretrain_ranking",
        "finetune_ffn_ranking", "finetune_lstm_ranking", "eval_own_heads_ranking"]
    artifact_hashes.run_chain(tmp_path, steps[:3])
    splits = json.loads((tmp_path / "preprocess_ranking" / "splits.json").read_text())
    assert len(splits["finetune_test"]) >= 30


def test_the_stay_chain_keeps_stays_of_exactly_the_threshold(tmp_path):
    steps = [s for s in artifact_hashes._steps(tmp_path) if s[0].endswith("_stays")]
    assert [name for name, _, _ in steps] == ["vocab_stays", "preprocess_stays"]
    threshold = artifact_hashes.STAY_SECONDS
    assert steps[1][1]["profile"] == "signal" and steps[1][1]["min_stay_seconds"] == threshold > 0
    durations = [d for _, d in artifact_hashes.STAYS]
    assert threshold in durations and threshold - 1 in durations
    artifact_hashes.run_chain(tmp_path, steps)
    lines = (tmp_path / "preprocess_stays" / "trajectories.ndjson").read_text().splitlines()
    assert len(lines) == artifact_hashes.STAY_USERS
    # every stay that lasts the threshold is kept, and none shorter; the
    # first stay lies before the first stop, so no trajectory holds it
    kept = sum(d >= threshold for d in durations) - 1
    assert all(len(json.loads(line)["ids"]) == 1 + kept for line in lines)


def test_the_dialect_chain_reads_a_csv_only_the_row_scan_reads(tmp_path):
    from geoseq import pipeline
    from geoseq.synth import SynthConfig, generate_records

    steps = [s for s in artifact_hashes._steps(tmp_path) if s[0].endswith("_dialect")]
    assert [name for name, _, _ in steps] == ["vocab_dialect", "preprocess_dialect"]
    artifact_hashes.run_chain(tmp_path, steps)
    data = (tmp_path / "dialect.csv").read_bytes()
    assert b'"' in data and b"\r\n\r\n" in data and pipeline._parse_columns(data) is None
    lines = data.decode("utf-8").split("\r\n")
    assert lines[0] == "lon,user_id,source,timestamp,lat,label"
    fields = [line.count(",") for line in lines if line]  # the comma inside the quotes counts
    assert set(fields) == {5, 6} and fields.count(5) > 1  # rows without their label field
    tiny = SynthConfig(**artifact_hashes.TINY["synth"], seed=artifact_hashes.SEED)
    records = generate_records(tiny)
    assert list(pipeline.read_csv(tmp_path / "dialect.csv")) == [
        pipeline.RawRecord(artifact_hashes.dialect_user(r.user_id), r.timestamp,
                           float(f"{r.lat:.7f}"), float(f"{r.lon:.7f}"), r.label)
        for r in records]
    trajs = pipeline.read_trajectories(tmp_path / "preprocess_dialect" / "trajectories.ndjson")
    assert len(trajs) >= 10 and all("," in t.user for t in trajs)
    assert any(t.label for t in trajs)


def test_the_batch_of_one_chain_trains_on_windows_of_nine_positions_or_more(tmp_path):
    steps = artifact_hashes._steps(tmp_path)
    batch1 = [s for s in steps if s[0].endswith("_batch1")]
    assert [name for name, _, _ in batch1] == [
        "pretrain_batch1", "finetune_ffn_batch1", "finetune_lstm_batch1"]
    assert all(config["batch_size"] == 1 for _, config, _ in batch1)
    assert [config.get("freeze_backbone") for _, config, _ in batch1[1:]] == [False, False]
    data = tmp_path / "preprocess" / "trajectories.ndjson"
    assert all(inputs["--data"] == data for _, _, inputs in batch1)
    # below 9 positions numpy sums a batch-1 gradient in the same order in
    # either layout, so only longer windows show a change to it
    artifact_hashes.run_chain(tmp_path, steps[:3])
    splits = json.loads((tmp_path / "preprocess" / "splits.json").read_text())
    windows = [len(json.loads(line)["ids"]) for line in data.read_text().splitlines()]
    for part in ("pretrain", "finetune_train"):
        assert splits[part] and all(windows[i] >= 9 for i in splits[part])

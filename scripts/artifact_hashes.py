"""The sha256 of every artifact of a small end-to-end CLI run, optionally against a parent.

Usage, from the root of a geoseq checkout:

    python3 scripts/artifact_hashes.py [--parent REV]

Runs six CLI chains through `geoseq.cli.dispatch`, with seed `SEED`, in a
temporary directory, in a fresh process that imports `geoseq` from a
checkout's `src/`. The first is the whole chain on a tiny config (with the
default attention dropout): synth, vocab, preprocess (the `gps` profile, and
`signal` with `min_stay_seconds` 0), pretrain, finetune (FFN, LSTM and
classifier heads, each with a frozen and an unfrozen backbone), eval (the
pre-training heads, then the frozen FFN, LSTM and classifier heads) and
ablate with `--vocab`. The second trains on batches of one: pretrain, then
unfrozen FFN and LSTM finetunes, with `batch_size` 1 on the first chain's
windows (18 to 28 positions), so that how a batch-1 gradient is laid out or
summed shows in the checkpoints; its steps end in `_batch1`. The first
corpus has one `finetune_test` trajectory, so the third chain is sized for
rankings: the same tiny model on the `RANKING` corpus, split so that 36
trajectories are ranked, through synth, vocab, preprocess, pretrain, the
frozen FFN and LSTM finetunes (each reports its rankings) and eval with the
pre-training heads; its steps end in `_ranking`. The fourth runs vocab and
preprocess, with the `signal` profile at `min_stay_seconds` `STAY_SECONDS`,
on `stays.csv`, which the script writes itself: stays lasting exactly that
long and one second less, so the stay filter's duration test decides what
is kept (the synth corpora keep no trajectory at such a threshold); its
steps end in `_stays`. The fifth runs vocab and preprocess on `dialect.csv`,
which the script also writes: the first chain's synth records in a CSV
dialect that only `read_csv`'s row scan reads (quoted user ids that hold a
comma, CRLF line ends, blank lines, rows without their trailing label, an
extra column and a reordered header); its steps end in `_dialect`. The
sixth is synth, vocab and preprocess on the benchmark's
corpus, `CORPUS_USERS` users at the default config, so the tokenizer and
the stages are checked at that size too, then `preprocess_signal_corpus`:
the `signal` profile with `min_stay_seconds` 0 on that corpus (at the
default 300 s it keeps no trajectory, and the step would exit 1); its steps
end in `_corpus`. It prints one JSON
object mapping each artifact, as `<step>/<file>`, to its sha256. A
`manifest.json` is hashed without its `config` and `config_hash`, and with
its input paths made relative to the run directory, so it compares across
checkouts and runs.

Without `--parent` that checkout is this one. With `--parent`, commit REV is
unpacked with `git archive` (by `bench_pairs.export`) into a temporary
directory, leaving the repository's `.git` as it was, and the chains run once
on each side, the change side from this checkout as it stands, uncommitted
edits included. It then prints which artifacts are the same, which differ
and which only one side wrote, and exits 1 if any artifact other than the
manifests differs or is missing on one side.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from bench_pairs import export

SCRIPTS = Path(__file__).resolve().parent
ROOT = SCRIPTS.parent
SEED = 11

TINY = {
    "hidden": 16,
    "layers": 1,
    "heads": 2,
    "epochs": 1,
    "batch_size": 16,
    "warmup_steps": 0,
    "synth": {"users": 8, "extent_m": 250_000.0},
}
# The ranking chain's corpus: 40 users in a 5 km square on a grid of 4, 2 and
# 1 km cells, so that the models of one tiny epoch rank some targets right
# (a report of all zeros would not move when a ranking does); pretrain gets
# half the trajectories, and of the rest 40% train the heads and 36 are ranked.
RANKING = {"synth": {**TINY["synth"], "users": 40, "extent_m": 5_000.0},
           "scales": [4_000.0, 2_000.0, 1_000.0], "split_fractions": [0.5, 0.4, 0.0]}
CORPUS_USERS = 200  # perfbench's corpus
# The stay chain: a CSV written here whose stays last exactly `STAY_SECONDS`
# or one second less, preprocessed with the `signal` profile at that
# `min_stay_seconds`, so that how a stay's duration is measured shows in its
# trajectories. Each of `STAY_USERS` users walks east through the stays
# `STAYS`, (step east in meters, duration in seconds), with a minute of travel
# between them: it stops at the second and the last (100 m in five minutes)
# and moves between them at 12-20 km/h. Stays of five records a minute apart
# last 240 s; the exact ones are at 0, 60 and 120 s, the short ones at 0, 60
# and 119 s.
STAY_SECONDS = 120
STAY_USERS = 12
STAYS = [(0, 240), (100, 240), (1000, 120), (1000, 119), (1000, 240), (1000, 120),
         (1000, 119), (1000, 120), (1000, 240), (1000, 240), (100, 240)]


def _steps(work: Path) -> list[tuple[str, dict, dict]]:
    """(step name, config, input flags) in run order; a step writes to work/<name>."""
    data = {"--data": work / "preprocess" / "trajectories.ndjson",
            "--splits": work / "preprocess" / "splits.json"}
    ckpt = {"--checkpoint": work / "pretrain" / "checkpoint.gsq"}
    csv, vocab = work / "synth" / "synth.csv", work / "vocab" / "vocab.json"
    steps = [
        ("synth", {}, {}),
        ("vocab", {}, {"--input": csv}),
        ("preprocess", {}, {"--input": csv, "--vocab": vocab}),
        ("preprocess_signal", {"profile": "signal", "min_stay_seconds": 0},
         {"--input": csv, "--vocab": vocab}),
        ("pretrain", {}, {**data, "--vocab": vocab}),
    ]
    heads = {"ffn": {"head": "ffn"}, "lstm": {"head": "lstm"},
             "classifier": {"task": "classification"}}
    for name, cfg in heads.items():
        for frozen in (True, False):
            step = f"finetune_{name}_{'frozen' if frozen else 'unfrozen'}"
            steps.append((step, {**cfg, "freeze_backbone": frozen}, {**data, **ckpt}))
    steps.append(("eval_own_heads", {}, {**data, **ckpt}))
    for name in heads:
        head = work / f"finetune_{name}_frozen" / "head.gsq"
        steps.append((f"eval_{name}", {}, {**data, **ckpt, "--head-checkpoint": head}))
    steps.append(("ablate", {}, {"--data": data["--data"], "--vocab": vocab}))
    one = {"batch_size": 1}
    ckpt = {"--checkpoint": work / "pretrain_batch1" / "checkpoint.gsq"}
    steps += [
        ("pretrain_batch1", one, {**data, "--vocab": vocab}),
        ("finetune_ffn_batch1", {**heads["ffn"], **one, "freeze_backbone": False},
         {**data, **ckpt}),
        ("finetune_lstm_batch1", {**heads["lstm"], **one, "freeze_backbone": False},
         {**data, **ckpt}),
    ]
    steps = [(name, {**TINY, **overrides}, inputs) for name, overrides, inputs in steps]
    steps += _ranking_steps(work) + _stay_steps(work) + _dialect_steps(work)
    corpus = {"synth": {"users": CORPUS_USERS}}
    csv, vocab = work / "synth_corpus" / "synth.csv", work / "vocab_corpus" / "vocab.json"
    return steps + [
        ("synth_corpus", corpus, {}),
        ("vocab_corpus", corpus, {"--input": csv}),
        ("preprocess_corpus", corpus, {"--input": csv, "--vocab": vocab}),
        ("preprocess_signal_corpus", {**corpus, "profile": "signal", "min_stay_seconds": 0},
         {"--input": csv, "--vocab": vocab}),
    ]


def _ranking_steps(work: Path) -> list[tuple[str, dict, dict]]:
    """The tiny chain again on a corpus with enough `finetune_test` trajectories to rank."""
    at = lambda step, name: work / f"{step}_ranking" / name
    data = {"--data": at("preprocess", "trajectories.ndjson"),
            "--splits": at("preprocess", "splits.json")}
    ckpt = {"--checkpoint": at("pretrain", "checkpoint.gsq")}
    csv, vocab = at("synth", "synth.csv"), at("vocab", "vocab.json")
    config = {**TINY, **RANKING}
    steps = [
        ("synth", {}, {}),
        ("vocab", {}, {"--input": csv}),
        ("preprocess", {}, {"--input": csv, "--vocab": vocab}),
        ("pretrain", {}, {**data, "--vocab": vocab}),
        ("finetune_ffn", {"head": "ffn", "freeze_backbone": True}, {**data, **ckpt}),
        ("finetune_lstm", {"head": "lstm", "freeze_backbone": True}, {**data, **ckpt}),
        ("eval_own_heads", {}, {**data, **ckpt}),
    ]
    return [(f"{name}_ranking", {**config, **overrides}, inputs)
            for name, overrides, inputs in steps]


def _stay_steps(work: Path) -> list[tuple[str, dict, dict]]:
    """The `signal` profile's stay filter at a nonzero `min_stay_seconds`, on `stays.csv`."""
    csv, vocab = work / "stays.csv", work / "vocab_stays" / "vocab.json"
    signal = {"profile": "signal", "min_stay_seconds": STAY_SECONDS, "min_trajectory_records": 3}
    return [("vocab_stays", TINY, {"--input": csv}),
            ("preprocess_stays", {**TINY, **signal}, {"--input": csv, "--vocab": vocab})]


def write_stays_csv(path: Path) -> None:
    """The stay chain's input: `STAYS` for each of `STAY_USERS` users, at cell centers."""
    from geoseq.grid import unproject

    rows = ["user_id,timestamp,lat,lon"]
    for u in range(STAY_USERS):
        x, t = 50.0, 1_600_000_000 + 100_000 * u
        for step, duration in STAYS:
            x += step
            lat, lon = unproject(x, 50.0 + 5_000.0 * u, 0.0)
            offsets = range(0, duration + 1, 60) if duration % 60 == 0 else (0, 60, duration)
            rows += [f"u{u:02d},{t + dt},{lat:.7f},{lon:.7f}" for dt in offsets]
            t += duration + 60
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")


def _dialect_steps(work: Path) -> list[tuple[str, dict, dict]]:
    """vocab and preprocess on `dialect.csv`, which only the CSV row scan reads."""
    csv, vocab = work / "dialect.csv", work / "vocab_dialect" / "vocab.json"
    return [("vocab_dialect", TINY, {"--input": csv}),
            ("preprocess_dialect", TINY, {"--input": csv, "--vocab": vocab})]


def dialect_user(user_id: str) -> str:
    """The user id that `dialect.csv` writes, quoted, for a synth user id: it holds a comma."""
    return user_id.replace("u", "u,", 1)


def write_dialect_csv(path: Path) -> None:
    """The dialect chain's input: the first chain's synth records under the
    header `lon,user_id,source,timestamp,lat,label`, with CRLF line ends, a
    blank line after the header and after every 100th row, quoted user ids
    (`dialect_user`), and no label field on every other unlabelled row."""
    from geoseq.synth import SynthConfig, generate_records

    records = generate_records(SynthConfig(**TINY["synth"], seed=SEED))
    rows = ["lon,user_id,source,timestamp,lat,label", ""]
    for i, r in enumerate(records):
        row = f'{r.lon:.7f},"{dialect_user(r.user_id)}",s{i % 3},{r.timestamp},{r.lat:.7f}'
        rows.append(row + (f",{r.label}" if r.label else "," if i % 2 else ""))
        if i % 100 == 99:
            rows.append("")
    path.write_bytes("\r\n".join(rows).encode("utf-8") + b"\r\n")


def _manifest_digest(path: Path, work: Path) -> str:
    doc = json.loads(path.read_text(encoding="utf-8"))
    doc.pop("config", None)
    doc.pop("config_hash", None)
    doc["inputs"] = {str(Path(p).relative_to(work)): h for p, h in doc.get("inputs", {}).items()}
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode("utf-8")).hexdigest()


def run_chain(work: Path, steps=None) -> dict[str, str]:
    """Write `stays.csv` and `dialect.csv`, run `steps` (every step by
    default) in `work` and hash what each wrote.

    A failing step raises.
    """
    from geoseq.cli import dispatch

    write_stays_csv(work / "stays.csv")
    write_dialect_csv(work / "dialect.csv")
    hashes = {}
    for step, config, inputs in _steps(work) if steps is None else steps:
        cfg = work / f"{step}.json"
        cfg.write_text(json.dumps({**config, "seed": SEED}), encoding="utf-8")
        out = work / step
        argv = [step.split("_")[0], "--config", str(cfg), "--out", str(out)]
        argv += [str(a) for flag_path in inputs.items() for a in flag_path]
        code = dispatch(argv)
        if code != 0:
            raise RuntimeError(f"step {step} ({' '.join(argv)}) exited {code}")
        for path in sorted(out.iterdir()):
            key = f"{step}/{path.name}"
            if path.name == "manifest.json":
                hashes[key] = _manifest_digest(path, work)
            else:
                hashes[key] = hashlib.sha256(path.read_bytes()).hexdigest()
    return hashes


def compare(parent: dict[str, str], change: dict[str, str]) -> dict:
    """Sort the artifacts of two runs into same, differ, only_parent and only_change.

    `ok` is True when no artifact other than a `manifest.json` differs and
    both sides wrote the same artifacts.
    """
    both = [k for k in parent if k in change]
    report = {
        "same": [k for k in both if parent[k] == change[k]],
        "differ": [k for k in both if parent[k] != change[k]],
        "only_parent": [k for k in parent if k not in change],
        "only_change": [k for k in change if k not in parent],
    }
    report["ok"] = not (report["only_parent"] or report["only_change"]
                        or any(Path(k).name != "manifest.json" for k in report["differ"]))
    return report


def print_hashes() -> None:
    """Run the chain in a temporary directory and print its hashes as JSON."""
    with tempfile.TemporaryDirectory(prefix="artifact_hashes_") as work:
        print(json.dumps(run_chain(Path(work)), indent=1))


def hashes_of(src: Path) -> dict[str, str]:
    """The chain's hashes with `geoseq` imported from `src`, in a fresh process."""
    path = [str(src), str(SCRIPTS), *filter(None, [os.environ.get("PYTHONPATH")])]
    cmd = [sys.executable, "-c", "import artifact_hashes; artifact_hashes.print_hashes()"]
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": os.pathsep.join(path)})
    if proc.returncode != 0:
        raise RuntimeError(f"the chain on {src} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout)


def main(argv) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", help="git revision to compare against")
    args = p.parse_args(argv)
    if args.parent is None:
        print(json.dumps(hashes_of(ROOT / "src"), indent=1))
        return 0
    parent_dir = Path(tempfile.mkdtemp(prefix="artifact_hashes_parent_"))
    try:
        export(args.parent, parent_dir)
        report = compare(hashes_of(parent_dir / "src"), hashes_of(ROOT / "src"))
    finally:
        shutil.rmtree(parent_dir, ignore_errors=True)
    print(json.dumps(report, indent=1))
    return 0 if report["ok"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

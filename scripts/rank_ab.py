"""Batch-1 rankings of a parent commit and this checkout, interleaved in one process.

Usage, from the root of a geoseq checkout:

    python3 scripts/rank_ab.py --parent REV [--users 200] [--seed 1] [--trajs 80]
        [--rounds 3] [--hidden 256] [--layers 6] [--heads 8]

Commit REV is unpacked with `git archive` (by `bench_pairs.export`) into a
temporary directory. Its `src/geoseq` and this checkout's, as it stands, are
imported side by side as the packages `geoseq_parent` and `geoseq_change`
(the package uses relative imports only). The change side builds a corpus
through its CLI (synth, vocab and preprocess on `--users` users), a freshly
initialised model of the given width and an FFN and an LSTM head, and
writes them as checkpoints; each side loads them with its own code. Then
`--rounds` times over `--trajs` held-out prefixes (a seeded choice of the
trajectories with a next location), each scorer (the pre-training heads,
then the FFN and LSTM heads) ranks the prefix's `TOP_K` next locations on
both sides back to back, the side that runs first alternating from one
prefix to the next. Because both sides share one process and every
trajectory, drift of the host between runs cancels out of each pair.

It prints one JSON object: the number of trios ranked per side (a trio is
the three scorers' rankings of one prefix), per scorer and for the trio
each side's median ms and the ratio of the medians, the median over trios
of the change/parent ratio, and whether every ranking of the change side
equals the parent's bit for bit. It exits 1 if one does not.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import json
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from bench_pairs import export

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
SCORERS = ("own_heads", "ffn", "lstm")


def load_package(src: Path, name: str) -> dict:
    """`src/geoseq` imported as the package `name`; its modules by short name."""
    init = src / "geoseq" / "__init__.py"
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return {m: importlib.import_module(f"{name}.{m}")
            for m in ("cli", "model", "downstream", "pipeline", "vocab")}


def build_inputs(pkg: dict, work: Path, args) -> dict:
    """Corpus, model and head checkpoints, written with the change side's code."""
    work.mkdir()
    cfg = work / "config.json"
    cfg.write_text(json.dumps({"synth": {"users": args.users}}), encoding="utf-8")
    csv, vocab = work / "synth" / "synth.csv", work / "vocab" / "vocab.json"
    for argv in (["synth", "--seed", args.seed, "--out", work / "synth"],
                 ["vocab", "--input", csv, "--out", work / "vocab"],
                 ["preprocess", "--seed", args.seed, "--input", csv, "--vocab", vocab,
                  "--out", work / "prep"]):
        code = pkg["cli"].dispatch([str(a) for a in [argv[0], "--config", cfg, *argv[1:]]])
        if code != 0:
            raise RuntimeError(f"geoseq {argv[0]} exited {code}")
    model, downstream = pkg["model"], pkg["downstream"]
    config = model.ModelConfig(pkg["vocab"].Vocabulary.load(vocab).sizes(), hidden=args.hidden,
                               layers=args.layers, heads=args.heads)
    paths = {"data": work / "prep" / "trajectories.ndjson", "ckpt": work / "model.gsq"}
    model.save_checkpoint(model.ModelState.init(config, seed=args.seed), paths["ckpt"])
    for i, kind in enumerate(("ffn", "lstm"), start=1):
        paths[kind] = work / f"{kind}.gsq"
        downstream.save_head(downstream.make_head(kind, config, seed=args.seed + i), paths[kind])
    return paths


def rankers(pkg: dict, paths: dict, args) -> tuple[dict, list]:
    """One side's scorers, each `prefix -> ranking`, and its held-out prefixes."""
    downstream = pkg["downstream"]
    state = pkg["model"].load_checkpoint(paths["ckpt"])
    heads = {kind: downstream.load_head(paths[kind], state) for kind in ("ffn", "lstm")}
    k = downstream.TOP_K
    scorers = {"own_heads": lambda traj: downstream.pretrained_predict_topk(state, traj, k)}
    for kind, head in heads.items():
        scorers[kind] = lambda traj, head=head: downstream.predict_topk(state, head, traj, k)
    trajs = pkg["pipeline"].read_trajectories(paths["data"])
    order = np.random.default_rng(args.seed).permutation(len(trajs))
    held_out = [trajs[i] for i in order if trajs[i].length >= 2][: args.trajs]
    return scorers, [downstream._prefix_and_target(t)[0] for t in held_out]


def summary(times: dict, same: bool) -> dict:
    """Per scorer and trio: each side's median ms and the ratio of the medians."""
    trio = {s: [sum(t) for t in zip(*(times[c][s] for c in SCORERS))] for s in SIDES}
    out = {}
    for name, per_side in [*((c, times[c]) for c in SCORERS), ("trio", trio)]:
        med = {s: statistics.median(per_side[s]) for s in SIDES}
        out[name] = {"parent_ms": med["parent"], "change_ms": med["change"],
                     "change_over_parent": med["change"] / med["parent"]}
    out["median_trio_ratio"] = statistics.median(
        c / p for p, c in zip(trio["parent"], trio["change"]))
    out["rankings_identical"] = same
    return out


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", required=True, help="git revision of the parent side")
    p.add_argument("--users", type=int, default=200, help="synthetic corpus users")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--trajs", type=int, default=80, help="held-out prefixes per round")
    p.add_argument("--rounds", type=int, default=3)
    p.add_argument("--hidden", type=int, default=256)
    p.add_argument("--layers", type=int, default=6)
    p.add_argument("--heads", type=int, default=8)
    return p.parse_args(argv)


def main(argv) -> int:
    args = parse_args(argv)
    work = Path(tempfile.mkdtemp(prefix="rank_ab_"))
    try:
        parent = work / "parent"
        short = export(args.parent, parent)
        pkgs = {"parent": load_package(parent / "src", "geoseq_parent"),
                "change": load_package(ROOT / "src", "geoseq_change")}
        paths = build_inputs(pkgs["change"], work / "inputs", args)
        sides = {s: rankers(pkgs[s], paths, args) for s in SIDES}
        times = {c: {s: [] for s in SIDES} for c in SCORERS}
        same = True
        for c in SCORERS:  # warm-up
            for s in SIDES:
                sides[s][0][c](sides[s][1][0])
        n = len(sides["change"][1])
        for step in range(args.rounds * n):
            i, order = step % n, SIDES if step % 2 == 0 else SIDES[::-1]
            for c in SCORERS:
                ranked = {}
                for s in order:
                    scorer, prefix = sides[s][0][c], sides[s][1][i]
                    start = time.perf_counter()
                    ranked[s] = scorer(prefix)
                    times[c][s].append(1e3 * (time.perf_counter() - start))
                same &= [(t, x.hex()) for t, x in ranked["parent"]] == [
                    (t, x.hex()) for t, x in ranked["change"]]
    finally:
        shutil.rmtree(work, ignore_errors=True)
    doc = {"parent": short, "trios": len(times["ffn"]["change"]), **summary(times, same)}
    print(json.dumps(doc, indent=1))
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

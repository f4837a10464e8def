"""Alternating parent/change runs of perfbench, summarized as a `BENCH_*.json` file.

Usage, from the root of a geoseq checkout (the change side is this checkout
as it stands: its tracked files, uncommitted edits and staged new files
included, untracked files not):

    python3 scripts/bench_pairs.py --parent REV --out BENCH_<n>_<slug>.json \\
        [--seed 19000] [--traced-seed N] [--claim TEXT] [--host TEXT]

Both sides run from a snapshot unpacked with `git archive` into a temporary
directory of its own, so the two sides run from equal directories and the
repository's `.git`, working tree and index are left as they were: the
parent side is commit REV, the change side the commit `git stash create`
makes of the checkout (HEAD when nothing is uncommitted). The directories
are removed at the end. Each workload of `BENCHMARK.json` gets ten pairs.
Pair i runs `perfbench/run.py --trace 0` for the benchmark's `run_seconds`
with the same seed on both sides, one after the other, and the side that
runs first alternates from pair to pair, starting with the parent. Each
run's last output line (its JSON result) is kept. Per workload and
end-to-end metric of `BENCHMARK.json` the file gets each side's median and
quartiles, how many pairs the change led, the difference of the medians,
the parent's interquartile range and the ratio of the medians. With
`--traced-seed`, one `--trace 1` run per side and workload (10 s each) adds
every per-layer metric of both sides, under `traced_pair` by workload.
"""

from __future__ import annotations

import argparse
import io
import json
import shutil
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
PAIRS = 10
TRACED_SECONDS = 10


def quartiles(values: list[float]) -> dict:
    """Median and quartiles, interpolated linearly between samples."""
    q1, median, q3 = (float(q) for q in np.percentile(values, [25, 50, 75]))
    return {"median": median, "q1": q1, "q3": q3}


def summarize(runs: list[dict], better: dict[str, str]) -> dict:
    """Per workload: pair count, correctness, operation counts and per-metric statistics.

    `runs` holds records {"workload", "seed", "side", "first", "result"}, where
    `result` is a run's last line; the two runs of a pair share workload and
    seed. `better` maps each metric to "higher" or "lower". A pair whose two
    values are equal counts for neither side.
    """
    out = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        mine = [r for r in runs if r["workload"] == workload]
        pairs = {}
        for r in mine:
            pairs.setdefault(r["seed"], {})[r["side"]] = r["result"]
        pairs = [p for p in pairs.values() if set(p) == set(SIDES)]
        summary = {}
        for name, direction in better.items():
            values = {s: [p[s]["metrics"][name]["value"] for p in pairs] for s in SIDES}
            sign = 1 if direction == "higher" else -1
            wins = sum(sign * (c - p) > 0 for p, c in zip(values["parent"], values["change"]))
            stats = {s: quartiles(values[s]) for s in SIDES}
            summary[name] = {
                **stats,
                "change_better_in": f"{wins}/{len(pairs)}",
                "median_diff": stats["change"]["median"] - stats["parent"]["median"],
                "parent_iqr": stats["parent"]["q3"] - stats["parent"]["q1"],
                "change_over_parent": stats["change"]["median"] / stats["parent"]["median"],
            }
        out[workload] = {
            "pairs": len(pairs),
            "all_correct": all(p[s]["correct"] for p in pairs for s in SIDES),
            "failed": {s: sum(p[s]["failed"] for p in pairs) for s in SIDES},
            "attempted": {s: sum(p[s]["attempted"] for p in pairs) for s in SIDES},
            "summary": summary,
        }
    return out


def traced_pair(workload: str, seed: int, traced: dict[str, dict]) -> dict:
    """One workload's traced pair: both sides' correctness and every per-layer metric.

    `traced` maps each side to the result of its `--trace 1` run.
    """
    return {
        "command": f"python3 perfbench/run.py --workload {workload} --seed {seed} "
                   f"--seconds {TRACED_SECONDS} --trace 1 "
                   f"(one run per side; per-layer, not a claim)",
        "correct": {s: traced[s]["correct"] for s in SIDES},
        "metrics": {name: {s: traced[s]["metrics"][name]["value"] for s in SIDES}
                    for name in traced["change"]["metrics"]},
    }


def run_perfbench(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """The JSON result on the last output line of one perfbench run in `checkout`."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} in {checkout} exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def export(rev: str, dest: Path, repo: Path = ROOT) -> str:
    """Unpack commit `rev` of `repo` into `dest`; returns its short hash."""
    short = subprocess.run(["git", "rev-parse", "--short", rev], cwd=repo, check=True,
                           capture_output=True, text=True).stdout.strip()
    tar = subprocess.run(["git", "archive", "--format=tar", rev], cwd=repo, check=True,
                         capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest, filter="data")
    return short


def snapshot(repo: Path = ROOT) -> str:
    """A commit of `repo`'s checkout as it stands, made without touching its
    working tree, index or refs: `git stash create`, or HEAD when it is clean."""
    made = subprocess.run(["git", "stash", "create"], cwd=repo, check=True,
                          capture_output=True, text=True).stdout.strip()
    return made or "HEAD"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", required=True, help="git revision of the parent side")
    p.add_argument("--out", required=True, type=Path)
    p.add_argument("--seed", type=int, default=19000,
                   help="workload w, pair i runs seed + 100 * w + i + 1")
    p.add_argument("--traced-seed", type=int, help="also run one traced pair per workload")
    p.add_argument("--claim", default="")
    p.add_argument("--host", default="")
    return p.parse_args(argv)


def main(argv) -> int:
    args = parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    checkouts = {s: Path(tempfile.mkdtemp(prefix=f"bench_pairs_{s}_")) for s in SIDES}
    try:
        short = export(args.parent, checkouts["parent"])
        export(snapshot(), checkouts["change"])
        runs = []
        for w, workload in enumerate(workloads):
            for i in range(PAIRS):
                seed = args.seed + 100 * w + i + 1
                first = SIDES[i % 2]
                for side in (first, SIDES[1 - i % 2]):
                    result = run_perfbench(checkouts[side], workload, seed, seconds, 0)
                    runs.append({"workload": workload, "seed": seed, "side": side,
                                 "first": first, "result": result})
                    print(f"{workload} seed {seed} {side}: " + " ".join(
                        f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
                        file=sys.stderr)
        doc = {
            "command": f"python3 perfbench/run.py --workload W --seed S "
                       f"--seconds {seconds:g} --trace 0",
            "host": args.host,
            "parent": short,
            "pairs": "alternating parent/change order from pair to pair; "
                     "each run's `first` says which side ran first",
            "seeds": ", ".join(f"{w} {args.seed + 100 * i + 1}-{args.seed + 100 * i + PAIRS}"
                               for i, w in enumerate(workloads)),
            "claim": args.claim,
            "workloads": summarize(runs, better),
        }
        if args.traced_seed is not None:
            doc["traced_pair"] = {
                workload: traced_pair(workload, args.traced_seed, {
                    s: run_perfbench(checkouts[s], workload, args.traced_seed,
                                     TRACED_SECONDS, 1) for s in SIDES})
                for workload in workloads
            }
        doc["runs"] = runs
    finally:
        for path in checkouts.values():
            shutil.rmtree(path, ignore_errors=True)
    args.out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

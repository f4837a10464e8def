"""geoseq benchmark: one workload per run, end-to-end or traced per layer.

Usage, from the root of a geoseq checkout:

    python3 perfbench/run.py --workload {pretrain,eval} --seed N \\
        --seconds S --trace {0,1}

Imports geoseq from the checkout's own `src/` (nothing needs installing),
caps BLAS threads at the number of usable cores, works in
`.perfbench_work/` under the checkout and removes it afterwards. Prints the
environment, the named metrics and the correctness checks, and as its last
line one JSON object with `correct`, `attempted`, `failed` and `metrics`:
the end-to-end metrics of BENCHMARK.json with `--trace 0`, its per-layer
metrics with `--trace 1`. Exits non-zero, without a result, when the
checkout has no geoseq sources or a workload cannot run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("pretrain", "eval"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def git_commit() -> str:
    """HEAD of the checkout, or "unknown" outside a git repository."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30,
                             env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def host_probe_ms() -> float:
    """Median ms of a fixed pure-Python loop.

    Printed before and after the workload, never folded into a metric: on a
    shared host it shows how fast the machine was during the run, which
    tells host drift from a change in geoseq when two runs disagree.
    """
    times = []
    for _ in range(9):
        start = perf_counter()
        sum(i * i for i in range(200_000))
        times.append(perf_counter() - start)
    return 1000.0 * statistics.median(times)


def environment(args, nproc: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_cap": nproc,
        "nproc": nproc,
        "machine": platform.machine(),
        "git_commit": git_commit(),
        "host_probe_ms": round(host_probe_ms(), 3),
    }


def main(argv) -> int:
    args = parse_args(argv)
    if not (SRC / "geoseq" / "__init__.py").is_file():
        print(f"error: no geoseq sources under {SRC}", file=sys.stderr)
        return 2
    # BLAS reads its thread count when numpy loads it, so cap it before any import
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(nproc)
    sys.path.insert(0, str(SRC))
    import geoseq

    if Path(geoseq.__file__).resolve().parent != (SRC / "geoseq").resolve():
        print(f"error: imported geoseq from {geoseq.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    env = environment(args, nproc)
    print("env " + json.dumps(env))

    workdir = ROOT / ".perfbench_work" / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    workdir.mkdir(parents=True)
    run = workloads.Run(workdir, args.seed, args.seconds, bool(args.trace))
    try:
        workloads.WORKLOADS[args.workload](run)
        if run.trace:
            workloads.tracer_layer_metrics(run)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if not any(workdir.parent.iterdir()):
            workdir.parent.rmdir()

    for name, (value, unit, better) in run.report.items():
        print(f"metric {name} = {value:.6g} {unit} ({better} is better)")
    for name, ok, detail in run.checks:
        print(f"check {'PASS' if ok else 'FAIL'}: {name} [{detail}]")
    print(f"operations attempted={run.attempted} failed={run.failed}")
    print(f"host probe after the workload: {host_probe_ms():.3f} ms")

    if run.trace:
        wanted, have = spec["per_layer"], run.layer
        # a layer the workload does not exercise reports 0
        have = {m["name"]: have.get(m["name"], (0.0, m["unit"])) for m in wanted}
        print(f"trace overhead {run.overhead_pct:.1f}% over {run.units} units of work")
        for m in wanted:
            label = " (computed)" if m["name"] in workloads.COMPUTED else ""
            print(f"layer {m['name']} = {have[m['name']][0]:.6g} {m['unit']}{label}")
    else:
        wanted = spec["end_to_end"]
        have = {m["name"]: (run.e2e[m["name"]], m["unit"]) for m in wanted}
    extra = set(run.layer if run.trace else run.e2e) - {m["name"] for m in wanted}
    bad_units = [m["name"] for m in wanted if have[m["name"]][1] != m["unit"]]
    if extra or bad_units:
        raise RuntimeError(f"metrics not in BENCHMARK.json: {sorted(extra)}; "
                           f"unit mismatch: {bad_units}")
    checks_ok = all(ok for _, ok, _ in run.checks)
    result = {
        "correct": checks_ok and run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in have.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""scripts/bench_pairs.py: the summary of alternating parent/change runs."""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)


def _run(workload, seed, side, first, rate, ms, correct=True, attempted=10, failed=0):
    metrics = {"items_per_s": {"value": rate, "unit": "1/s"},
               "op_ms_p50": {"value": ms, "unit": "ms"}}
    return {"workload": workload, "seed": seed, "side": side, "first": first,
            "result": {"correct": correct, "attempted": attempted, "failed": failed,
                       "metrics": metrics}}


def test_summary_of_canned_runs():
    # pretrain: parent rates 100, 110, 120, 130; change 120, 110 (a tie), 150, 140
    rates = [(100, 120), (110, 110), (120, 150), (130, 140)]
    runs = []
    for i, (p, c) in enumerate(rates):
        first = ("parent", "change")[i % 2]
        pair = [_run("pretrain", 1 + i, "parent", first, p, 1000 / p, attempted=5),
                _run("pretrain", 1 + i, "change", first, c, 1000 / c, failed=i == 3)]
        runs += pair if first == "parent" else pair[::-1]
    runs += [_run("eval", 9, "parent", "parent", 50, 20),
             _run("eval", 9, "change", "parent", 40, 25, correct=False)]
    out = bench_pairs.summarize(runs, {"items_per_s": "higher", "op_ms_p50": "lower"})

    pre = out["pretrain"]
    assert (pre["pairs"], pre["all_correct"]) == (4, True)
    assert pre["attempted"] == {"parent": 20, "change": 40}
    assert pre["failed"] == {"parent": 0, "change": 1}
    rate = pre["summary"]["items_per_s"]
    assert rate["parent"] == {"median": 115, "q1": 107.5, "q3": 122.5}
    assert rate["change"] == {"median": 130, "q1": 117.5, "q3": 142.5}
    assert rate["change_better_in"] == "3/4"  # the tie counts for neither side
    assert rate["median_diff"] == 15 and rate["parent_iqr"] == 15
    assert rate["change_over_parent"] == pytest.approx(130 / 115)
    assert pre["summary"]["op_ms_p50"]["change_better_in"] == "3/4"  # lower is better

    ev = out["eval"]
    assert (ev["pairs"], ev["all_correct"]) == (1, False)
    assert ev["summary"]["items_per_s"]["change_better_in"] == "0/1"
    assert ev["summary"]["op_ms_p50"]["median_diff"] == 5


def _git(repo, *args):
    return subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t", *args],
                          cwd=repo, check=True, capture_output=True, text=True).stdout


def test_the_change_side_is_exported_with_its_uncommitted_edits(tmp_path):
    repo = tmp_path / "repo"
    repo.mkdir()
    _git(repo, "init", "-q")
    (repo / "a.py").write_text("x = 1\n")
    _git(repo, "add", "a.py")
    _git(repo, "commit", "-qm", "one")
    assert bench_pairs.snapshot(repo) == "HEAD"  # nothing uncommitted
    (repo / "a.py").write_text("x = 2\n")  # an unstaged edit
    (repo / "b.py").write_text("y = 3\n")
    _git(repo, "add", "b.py")  # a staged new file
    state = lambda: (_git(repo, "status", "--porcelain"), _git(repo, "diff"),
                     _git(repo, "diff", "--cached"), _git(repo, "stash", "list"),
                     (repo / "a.py").read_text())
    before = state()
    dest = tmp_path / "change"
    bench_pairs.export(bench_pairs.snapshot(repo), dest, repo)
    assert (dest / "a.py").read_text() == "x = 2\n"
    assert (dest / "b.py").read_text() == "y = 3\n"
    assert state() == before


def test_each_side_runs_from_an_export_and_each_workload_gets_a_traced_pair(
    tmp_path, monkeypatch
):
    exported, ran = {}, []

    def export(rev, dest, repo=bench_pairs.ROOT):
        exported[rev] = dest
        return rev[:7]

    def run_perfbench(checkout, workload, seed, seconds, trace):
        side = "parent" if checkout == exported["PARENT"] else "change"
        ran.append((side, workload, trace))
        metrics = {name: {"value": 1.0 + (side == "change"), "unit": ""}
                   for name in ("items_per_s", "op_ms_p50", "setup_s", "peak_rss_mb",
                                f"{workload}.layer_ms")}
        return {"correct": True, "attempted": 3, "failed": 0, "metrics": metrics}

    monkeypatch.setattr(bench_pairs, "export", export)
    monkeypatch.setattr(bench_pairs, "snapshot", lambda: "SNAPSHOT")
    monkeypatch.setattr(bench_pairs, "run_perfbench", run_perfbench)
    out = tmp_path / "bench.json"
    assert bench_pairs.main(["--parent", "PARENT", "--out", str(out), "--traced-seed", "5"]) == 0
    doc = json.loads(out.read_text())

    assert set(exported) == {"PARENT", "SNAPSHOT"}  # the checkout itself never runs
    assert exported["PARENT"] != exported["SNAPSHOT"]
    assert not any(path.exists() for path in exported.values())  # removed at the end
    spec = json.loads((bench_pairs.ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    assert list(doc["traced_pair"]) == workloads
    for workload in workloads:
        traced = doc["traced_pair"][workload]
        assert f"--workload {workload} --seed 5" in traced["command"]
        assert traced["correct"] == {"parent": True, "change": True}
        assert traced["metrics"][f"{workload}.layer_ms"] == {"parent": 1.0, "change": 2.0}
        assert sorted(side for side, w, trace in ran if w == workload and trace == 1) == [
            "change", "parent"]
        assert len([r for r in ran if r[1] == workload and r[2] == 0]) == 2 * bench_pairs.PAIRS

"""scripts/bench_pairs.py: the summary of alternating parent/change runs."""

import importlib.util
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

"""perfbench/tracer.py wraps geoseq functions by name and must unwrap them all."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from geoseq import cli, downstream, model

ROOT = Path(__file__).resolve().parent.parent
TRACER = ROOT / "perfbench" / "tracer.py"

# module attributes the benchmark wraps or checks by name
RANKING = [
    (downstream, "predict_topk"),
    (downstream, "pretrained_predict_topk"),
    (downstream, "beam_topk"),
    (downstream, "head_forward"),
    (cli, "pretrained_predict_topk"),
    (model, "head_forward"),
]
HEAD_CLASSES = tuple(downstream.HEADS.values())  # every head in the table is traced


def _bound():
    return [getattr(m, name) for m, name in RANKING] + [
        cls.__dict__["level_logits"] for cls in HEAD_CLASSES
    ]


def _tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer_module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer_module)
    return tracer_module


def test_tracer_installs_and_unwraps_the_ranking_functions():
    tracer_module = _tracer_module()
    before = _bound()
    tracer = tracer_module.Tracer()
    try:
        tracer.install()
        assert all(hasattr(fn, "__wrapped__") for fn in _bound())
    finally:
        tracer.uninstall()
    after = _bound()
    assert all(a is b for a, b in zip(after, before))
    assert not any(hasattr(fn, "__wrapped__") for fn in after)


def test_tracer_times_matmul_forward_and_backward():
    # every matmul node of one forward/backward is timed in both directions:
    # one input projection, six products per decoder layer and two per head
    # level, the chained levels' first (with its one-hot) included; so is
    # attention, one node with its own backward since its score and context
    # products left `matmul`
    config = model.ModelConfig([6, 7], hidden=16, layers=1, heads=2, attn_dropout=0.0)
    state = model.ModelState.init(config, seed=0)
    batch = model.Batch(
        ids=np.full((2, 5, 2), 3, dtype=np.int64),
        timestamps=np.full((2, 5), 1e9),
        keep=np.ones((2, 5), dtype=bool),
    )
    tracer = _tracer_module().Tracer()
    try:
        tracer.install()
        tracer.phase = "run"
        model.forward_loss(batch, state).backward()
    finally:
        tracer.phase = None
        tracer.uninstall()
    fwd = tracer.stat("run", "tensor.matmul.fwd")
    bwd = tracer.stat("run", "tensor.matmul.bwd")
    assert fwd.calls == bwd.calls == 1 + 6 * config.layers + 2 * config.levels
    assert bwd.total > 0
    attn_fwd = tracer.stat("run", "tensor.scaled_dot_product_attention.fwd")
    attn_bwd = tracer.stat("run", "tensor.scaled_dot_product_attention.bwd")
    assert attn_fwd.calls == attn_bwd.calls == config.layers
    assert attn_fwd.total > 0 and attn_bwd.total > 0


def test_beam_asks_level_probs_once_per_level():
    # the benchmark's "beam" probe wraps level_probs(level, prev_ids) and adds
    # len(probs) to downstream.beam_candidates_per_traj; one call per level
    # returns the flat list of the level's candidates, so the sum still counts
    # the candidates expanded
    sizes, k = [4, 6, 3, 5], 5
    rng = np.random.default_rng(0)
    tables = {(1, None): rng.random(sizes[0])}
    for level in range(2, len(sizes) + 1):
        for prev in range(sizes[level - 2]):
            tables[(level, prev)] = rng.random(sizes[level - 1]).astype(np.float32)

    def lookup(level, prev_ids):
        if prev_ids is None:
            return tables[(level, None)]
        return np.concatenate([tables[(level, int(prev))] for prev in prev_ids])

    calls, returned = [], []

    def level_probs(level, prev_ids):
        calls.append((level, prev_ids))
        returned.append(lookup(level, prev_ids))
        return returned[-1]

    downstream.beam_topk(level_probs, sizes, k)
    assert [level for level, _ in calls] == list(range(1, len(sizes) + 1))
    assert calls[0] == (1, None)
    for level in range(2, len(sizes) + 1):
        kept = downstream.beam_topk(lookup, sizes[:level - 1], k)
        asked = calls[level - 1][1]
        assert isinstance(asked, np.ndarray) and asked.dtype == np.int64
        assert asked.tolist() == [tup[-1] for tup, _ in kept]
    candidates = sum(len(probs) for probs in returned)
    assert candidates == sizes[0] + sum(min(k, int(np.prod(sizes[:h]))) * sizes[h]
                                        for h in range(1, len(sizes)))


@pytest.mark.parametrize("workload", ["pretrain", "eval"])
def test_traced_benchmark_run_is_correct_and_reports_every_layer_metric(workload):
    # one short traced run of each workload, as the benchmark runs it: a run
    # that fails, an incorrect output or a tracer that cannot pin its names
    # shows here before the benchmark sees it
    run = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert run.returncode == 0, run.stderr[-2000:]
    result = json.loads(run.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["per_layer"]
    assert {m["name"] for m in declared} <= set(result["metrics"])

"""perfbench/tracer.py wraps geoseq functions by name and must unwrap them all."""

import importlib.util
from pathlib import Path

import numpy as np

from geoseq import cli, downstream, model

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"

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
    # every matmul node of one forward/backward is timed in both directions,
    # and so is attention, one node with its own backward since its score
    # and context products left `matmul`
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
    assert fwd.calls > 0 and bwd.calls == fwd.calls
    assert bwd.total > 0
    attn_fwd = tracer.stat("run", "tensor.scaled_dot_product_attention.fwd")
    attn_bwd = tracer.stat("run", "tensor.scaled_dot_product_attention.bwd")
    assert attn_fwd.calls == attn_bwd.calls == config.layers
    assert attn_fwd.total > 0 and attn_bwd.total > 0


def test_beam_asks_level_probs_once_per_kept_candidate():
    # the benchmark's "beam" probe wraps level_probs(level, prev_id) and adds
    # len(probs) to downstream.beam_candidates_per_traj; that count means
    # "candidates expanded" only while each kept candidate is one call
    sizes, k = [4, 6, 3, 5], 5
    rng = np.random.default_rng(0)
    tables = {(1, None): rng.random(sizes[0])}
    for level in range(2, len(sizes) + 1):
        for prev in range(sizes[level - 2]):
            tables[(level, prev)] = rng.random(sizes[level - 1]).astype(np.float32)
    calls = []

    def level_probs(level, prev_id):
        calls.append((level, prev_id))
        return tables[(level, prev_id)]

    downstream.beam_topk(level_probs, sizes, k)
    assert calls[0] == (1, None)
    for level in range(2, len(sizes) + 1):
        kept = downstream.beam_topk(lambda h, p: tables[(h, p)], sizes[:level - 1], k)
        asked = [prev for h, prev in calls if h == level]
        assert asked == [tup[-1] for tup, _ in kept]
        assert all(isinstance(prev, (int, np.integer)) for prev in asked)
    candidates = sum(len(tables[call]) for call in calls)
    assert candidates == sizes[0] + sum(min(k, int(np.prod(sizes[:h]))) * sizes[h]
                                        for h in range(1, len(sizes)))

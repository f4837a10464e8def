"""perfbench/tracer.py wraps geoseq functions by name and must unwrap them all."""

import importlib.util
from pathlib import Path

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
HEAD_CLASSES = (downstream.NextLocationHeadFFN, downstream.NextLocationHeadLSTM)


def _bound():
    return [getattr(m, name) for m, name in RANKING] + [
        cls.__dict__["level_logits"] for cls in HEAD_CLASSES
    ]


def test_tracer_installs_and_unwraps_the_ranking_functions():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer_module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer_module)
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

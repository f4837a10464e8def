"""Hierarchical location tokenization and causal sequence models for trajectories.

A location becomes a tuple of tokens: one absolute coarse grid cell plus a
shared relative offset at each finer scale, shrinking the vocabulary an
embedding layer must cover. A masked transformer decoder over those tuples
learns next-location prediction level by level, each finer level conditioned
on the coarser level's own prediction, and the resulting embeddings feed
next-location and trajectory-classification heads.
"""

__version__ = "0.1.0"

from .grid import GridSpec, decode_keys, encode_point, project, unproject
from .vocab import TokenizedLocation, Vocabulary, build_vocab, tokenize
from .pipeline import (
    DatasetSplit,
    PipelineConfig,
    RawRecord,
    RecordColumns,
    Trajectory,
    preprocess,
    read_csv,
    read_trajectories,
    split,
    write_trajectories,
)
from .model import (
    ModelConfig,
    ModelState,
    TrainConfig,
    load_checkpoint,
    pretrain,
    save_checkpoint,
)
from .downstream import (
    EvalReport,
    compute_metrics,
    finetune_classifier,
    finetune_next_location,
    predict_topk,
    pretrained_predict_topk,
)
from .bench import count_params, estimate_flops, run_ablation
from .synth import SynthConfig, generate_records

__all__ = [
    "GridSpec",
    "project",
    "unproject",
    "encode_point",
    "decode_keys",
    "Vocabulary",
    "TokenizedLocation",
    "build_vocab",
    "tokenize",
    "RawRecord",
    "RecordColumns",
    "Trajectory",
    "DatasetSplit",
    "PipelineConfig",
    "preprocess",
    "read_csv",
    "read_trajectories",
    "write_trajectories",
    "split",
    "ModelConfig",
    "ModelState",
    "TrainConfig",
    "pretrain",
    "save_checkpoint",
    "load_checkpoint",
    "EvalReport",
    "compute_metrics",
    "finetune_next_location",
    "finetune_classifier",
    "predict_topk",
    "pretrained_predict_topk",
    "count_params",
    "estimate_flops",
    "run_ablation",
    "SynthConfig",
    "generate_records",
]

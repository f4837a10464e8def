"""Compare model variants under one budget, with parameter/FLOP accounting.

Three variants: a flat-vocabulary single-head baseline, hierarchical tokens
with independent per-level heads, and hierarchical tokens with chained heads.
Parameter counts are closed-form and exact; FLOPs count matmul work in the
decoder blocks and heads at 2 per multiply-accumulate.
"""

import numpy as np

from geoseq import (
    ModelConfig,
    PipelineConfig,
    TrainConfig,
    build_vocab,
    count_params,
    estimate_flops,
    preprocess,
    project,
    run_ablation,
)
from geoseq.bench import flat_embedding_params, render_table
from geoseq.synth import SynthConfig, generate_records

cfg = SynthConfig(users=14, seed=7)
records = generate_records(cfg)
xy = np.column_stack(project(records.lat, records.lon, cfg.grid.ref_lat))
vocab = build_vocab(xy, cfg.grid)
trajs = preprocess(records, vocab, PipelineConfig(profile="gps"))

# closed-form accounting for the full-size model of this vocabulary
full = ModelConfig(level_sizes=vocab.sizes(), hidden=256, layers=6, heads=8)
counts = count_params(full)
print("parameter counts at W=256, N=6:")
for k, v in counts.items():
    print(f"  {k:>11}: {v:,}")
flat_cost = flat_embedding_params(vocab.flat_count, 256)
print(f"  a flat embedding of all {vocab.flat_count} cells would need {flat_cost:,} "
      f"({flat_cost - counts['embeddings']:,} more)")

flops = estimate_flops(full, seq_len=32)
print(f"\nforward FLOPs at T=32: {flops['total_flops']:,} "
      f"(scores term {flops['attn_scores']:,} grows with T^2)")

print(f"\nablation over {len(trajs)} trajectories (1 epoch each, shared seed):")
rows = run_ablation(
    trajs,
    ModelConfig(level_sizes=vocab.sizes(), hidden=64, layers=2, heads=4),
    TrainConfig(epochs=1, batch_size=16, warmup_steps=0, seed=0),
)
print(render_table(rows))

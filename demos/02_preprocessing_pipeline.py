"""From raw GPS records to tokenized, windowed, split training sequences.

Generates a synthetic corpus of dwell/travel patterns, then walks it through
the preprocessing stages: resample to 1-minute increments, flag stops under
4 km/h, cut trajectories between successive stops, keep only those with more
than ten records, tokenize, and window to the model's max sequence length.
"""

from geoseq import PipelineConfig, build_vocab, preprocess, project, split
from geoseq.synth import SynthConfig, generate_records

cfg = SynthConfig(users=10, seed=42)
records = generate_records(cfg)
print(f"synthetic corpus: {len(records)} records from {cfg.users} users")
print("first record:", records[0])

spec = cfg.grid  # the grid the corpus was unprojected with, ref_lat included
vocab = build_vocab([project(r.lat, r.lon, spec.ref_lat) for r in records], spec)
print("\nvocabulary per level:", vocab.sizes(), "| flat:", vocab.flat_count)

trajs = preprocess(records, vocab, PipelineConfig(profile="gps"))
print(f"\n{len(trajs)} trajectories after segmentation and windowing")
t = trajs[0]
print("example trajectory:")
print("  user:", t.user, "| length:", t.length, "| label:", t.label)
print("  first tuples:", t.ids[:4], "(index 0 is the start-of-sequence tuple)")
print("  first timestamps:", t.timestamps[:4])

parts = split(len(trajs), seed=0)
print(
    f"\nsplit: {len(parts.pretrain)} pretrain, {len(parts.finetune_train)} finetune-train, "
    f"{len(parts.finetune_val)} val, {len(parts.finetune_test)} test"
)

"""Pre-train the causal location model and rank next-location predictions.

The objective predicts the next location's tokens level by level, each finer
level conditioned on a one-hot of the coarser level's own prediction. After
training, the same heads rank complete location tuples for any prefix via a
per-level beam over the conditional chain.
"""

from geoseq import ModelConfig, PipelineConfig, TrainConfig, build_vocab
from geoseq import preprocess, pretrain, pretrained_predict_topk, project, split
from geoseq.pipeline import Trajectory
from geoseq.synth import SynthConfig, generate_records

cfg = SynthConfig(users=12, seed=1)
records = generate_records(cfg)
vocab = build_vocab([project(r.lat, r.lon) for r in records], cfg.grid)
trajs = preprocess(records, vocab, PipelineConfig(profile="gps"))
parts = split(len(trajs), seed=0)
train_set = [trajs[i] for i in parts.pretrain]
print(f"pre-training on {len(train_set)} trajectories, vocab {vocab.sizes()}")

config = ModelConfig(
    level_sizes=vocab.sizes(), hidden=64, layers=2, heads=4,
    attn_dropout=0.1, max_seq_len=32,
)
train = TrainConfig(epochs=40, batch_size=32, lr=3e-3, warmup_steps=10, seed=0)
state, curve = pretrain(train_set, config, train)
print("epoch losses:", [round(v, 2) for v in curve[::8]], "->", round(curve[-1], 2))

held_out = trajs[parts.finetune_test[0]]
prefix = Trajectory(held_out.user, held_out.ids[:-1], held_out.timestamps[:-1], held_out.label)
top = pretrained_predict_topk(state, prefix, k=5)
print(f"\ntop-5 next locations after {prefix.length} steps of user {prefix.user}:")
for tup, score in top:
    marker = "  <- actual" if tup == held_out.ids[-1] else ""
    print(f"  {tup}  joint prob {score:.2e}{marker}")
print("actual next location:", held_out.ids[-1])

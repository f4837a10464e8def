"""Fine-tune next-location heads (FFN and LSTM) and a trajectory classifier.

The FFN head reads the mean-pooled decoder outputs; the LSTM head re-reads
the output sequence and predicts from its final state. Both chain levels
through one-hots of their own coarse predictions. A prediction only counts
as correct when every hierarchy level matches at once.
"""

from geoseq import (
    ModelConfig,
    PipelineConfig,
    TrainConfig,
    build_vocab,
    finetune_classifier,
    finetune_next_location,
    preprocess,
    pretrain,
    project,
    split,
)
from geoseq.synth import SynthConfig, generate_records

cfg = SynthConfig(users=12, seed=5)
records = generate_records(cfg)
vocab = build_vocab([project(r.lat, r.lon) for r in records], cfg.grid)
trajs = preprocess(records, vocab, PipelineConfig(profile="gps"))
parts = split(len(trajs), seed=0)

config = ModelConfig(level_sizes=vocab.sizes(), hidden=64, layers=2, heads=4,
                     attn_dropout=0.1, max_seq_len=32)
state, _ = pretrain(
    [trajs[i] for i in parts.pretrain], config,
    TrainConfig(epochs=30, batch_size=32, lr=3e-3, warmup_steps=10, seed=0),
)

train_set = [trajs[i] for i in parts.finetune_train]
test_set = [trajs[i] for i in parts.finetune_test]
print(f"fine-tuning on {len(train_set)} trajectories, evaluating on {len(test_set)}")

for kind in ("ffn", "lstm"):
    _, train_report, curve = finetune_next_location(
        state, kind, train_set, train_set,
        TrainConfig(epochs=150, lr=3e-3, weight_decay=0.0, warmup_steps=0, seed=0),
        freeze_backbone=True,
    )
    print(f"\n{kind} head: loss {curve[0]:.3f} -> {curve[-1]:.3f}")
    print(f"  train acc@1 {train_report.acc1:.3f}, acc@5 {train_report.acc5:.3f} "
          f"on {train_report.n} samples (all levels must match at once)")

# movement-mode classification over the pooled trajectory vector; the tiny
# corpus is there to show the mechanics, not generalization
_, report, _ = finetune_classifier(
    state, train_set + test_set, train_set + test_set,
    TrainConfig(epochs=100, lr=1e-2, weight_decay=0.0, warmup_steps=0, seed=0),
    freeze_backbone=True,
)
print(f"\nclassifier: accuracy {report.acc1:.3f}, macro F1 {report.macro_f1:.3f}")
print("per class:", {k: v["support"] for k, v in report.per_class.items()})

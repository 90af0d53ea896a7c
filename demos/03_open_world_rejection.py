"""End-to-end open-world classification on a synthetic topic corpus.

Trains the one-vs-rest CNN on a subset of classes, calibrates per-class
thresholds, and shows that held-out classes the model never saw are
rejected while seen classes are still recognized.
"""

from opentc.calibration import fit_thresholds, fixed_thresholds
from opentc.encoder import ModelSpec, batched_logits
from opentc.evaluation import evaluate, macro_f1
from opentc.synthetic import generate_synthetic_dataset
from opentc.trainer import TrainConfig, train

docs = generate_synthetic_dataset(num_classes=6, docs_per_class=150, seed=0)
spec = ModelSpec(
    vocab_size=500, doc_len=80, embed_dim=24, filter_widths=(3, 4), filters_per_width=20, hidden_dim=40
)
enc, vocab, cfg = spec.prepare(docs, seen_fraction=0.5, seed=0)
print(f"seen classes:   {enc.seen_classes}")
print(f"unseen classes: {enc.unseen_classes} (test-time only)")

params, report = train(enc, cfg, TrainConfig(epochs=30), seed=0)
print(f"trained {len(report.train_losses)} epochs, best epoch {report.best_epoch}")

thresholds = fit_thresholds(batched_logits(params, enc.train.ids), enc.train.labels, alpha=3.0)
for name, t in zip(enc.seen_classes, thresholds.t):
    print(f"  threshold[{name}] = {t:.4f}")

test_logits = batched_logits(params, enc.test.ids)  # one forward, scored under both threshold sets
for label, tv in [("calibrated", thresholds), ("fixed t=0.5", fixed_thresholds(cfg.num_classes))]:
    cm = evaluate(test_logits, tv, enc.test.labels)
    m = cfg.num_classes
    unseen_total = cm[m].sum()
    rejected = cm[m, m]
    print(
        f"{label:<12} macro-F1 {macro_f1(cm):.4f}   "
        f"unseen docs rejected: {rejected}/{unseen_total}"
    )

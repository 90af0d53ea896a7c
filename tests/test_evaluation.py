import hashlib
import os

import numpy as np
import pytest

from opentc import encoder, evaluation
from opentc.calibration import CalibrationError, fixed_thresholds
from opentc.data import EncodedDocs, build_vocab_from_split, make_open_split
from opentc.encoder import EncoderConfig, ModelSpec, batched_logits, init_params
from opentc.evaluation import (
    ConfusionMatrix,
    ExperimentResult,
    ExperimentSpec,
    _derive_seed,
    evaluate,
    evaluate_closed,
    macro_f1,
    run_experiment,
    run_single,
)
from opentc.synthetic import generate_synthetic_dataset
from opentc.trainer import HEAD_ONE_VS_REST, TrainConfig


def oracle_macro_f1(gold, pred, classes):
    """Independent oracle built from raw pairwise counts, not the matrix."""
    scores = []
    for c in classes:
        tp = sum(1 for g, p in zip(gold, pred) if g == c and p == c)
        fp = sum(1 for g, p in zip(gold, pred) if g != c and p == c)
        fn = sum(1 for g, p in zip(gold, pred) if g == c and p != c)
        prec = tp / (tp + fp) if tp + fp else 0.0
        rec = tp / (tp + fn) if tp + fn else 0.0
        scores.append(2 * prec * rec / (prec + rec) if prec + rec else 0.0)
    return sum(scores) / len(scores)


def test_macro_f1_matches_pairwise_oracle():
    rng = np.random.default_rng(0)
    for _ in range(200):
        m = int(rng.integers(2, 6))
        n = int(rng.integers(5, 60))
        gold = rng.integers(0, m + 1, size=n).tolist()
        pred = rng.integers(0, m + 1, size=n).tolist()
        if not any(g == m for g in gold) and not any(p == m for p in pred):
            gold[0] = m  # keep the reject class active in this fuzz case
        got = macro_f1(ConfusionMatrix.from_pairs(gold, pred, m))
        want = oracle_macro_f1(gold, pred, list(range(m + 1)))
        assert abs(got - want) < 1e-12


def test_macro_f1_hand_worked_example():
    # 2 seen classes + reject; documented worked example, expected 0.8333...
    gold = [0, 0, 0, 1, 1, 2, 2, 2, 2, 2]
    pred = [0, 0, 1, 1, 1, 2, 2, 2, 2, 0]
    # class 0: tp=2 fp=1 fn=1 -> F1 2/3; class 1: tp=2 fp=1 fn=0 -> 0.8
    # reject: tp=4 fp=0 fn=1 -> 8/9; mean = (2/3 + 4/5 + 8/9)/3
    want = (2 / 3 + 4 / 5 + 8 / 9) / 3
    got = macro_f1(ConfusionMatrix.from_pairs(gold, pred, 2))
    assert abs(got - want) < 1e-12


def test_macro_f1_simple_expected_value():
    gold = [0, 0, 1, 1, 2, 2]
    pred = [0, 0, 1, 2, 2, 2]
    # class0 F1=1; class1: tp=1 fp=0 fn=1 -> 2/3; reject: tp=2 fp=1 fn=0 -> 0.8
    want = (1.0 + 2 / 3 + 0.8) / 3
    assert abs(macro_f1(ConfusionMatrix.from_pairs(gold, pred, 2)) - want) < 1e-12
    assert abs(want - 0.822222222222222) < 1e-12


def test_macro_f1_zero_over_zero_class_scores_zero():
    # class 1 never gold and never predicted -> F1 0, still averaged in
    gold = [0, 0, 2]
    pred = [0, 0, 2]
    got = macro_f1(ConfusionMatrix.from_pairs(gold, pred, 2))
    assert abs(got - (1.0 + 0.0 + 1.0) / 3) < 1e-12


def test_macro_f1_excludes_reject_only_in_closed_world():
    # no gold rejects and no predicted rejects -> averaged over m classes only
    gold = [0, 1, 0, 1]
    pred = [0, 1, 1, 1]
    got = macro_f1(ConfusionMatrix.from_pairs(gold, pred, 2))
    want = oracle_macro_f1(gold, pred, [0, 1])
    assert abs(got - want) < 1e-12
    # one predicted reject reactivates the class even without gold rejects
    gold = [0, 1, 0, 1]
    pred = [0, 1, 2, 1]
    got = macro_f1(ConfusionMatrix.from_pairs(gold, pred, 2))
    want = oracle_macro_f1(gold, pred, [0, 1, 2])
    assert abs(got - want) < 1e-12


def test_confusion_matrix_from_pairs_counts_each_pair():
    cm = ConfusionMatrix.from_pairs([0, 0, 2, 1, 2], [0, 2, 2, 1, 2], 2)
    np.testing.assert_array_equal(cm.counts, [[1, 0, 1], [0, 1, 0], [0, 0, 2]])
    assert ConfusionMatrix.from_pairs([], [], 2).counts.sum() == 0
    with pytest.raises(ValueError):
        ConfusionMatrix.from_pairs([0, 3], [0, 0], 2)


def test_perfect_and_worst_scores():
    gold = [0, 1, 2, 2]
    assert macro_f1(ConfusionMatrix.from_pairs(gold, gold, 2)) == 1.0
    pred = [1, 0, 0, 1]
    assert macro_f1(ConfusionMatrix.from_pairs(gold, pred, 2)) == 0.0


CFG = EncoderConfig(
    vocab_size=30, embed_dim=4, num_classes=2, doc_len=8, filter_widths=(2,), filters_per_width=4, hidden_dim=5
)


def _docs(rng, labels):
    ids = np.stack([rng.integers(0, 30, size=8) for _ in labels])
    return EncodedDocs(ids=ids, labels=np.array(labels, dtype=np.int64))


def test_evaluate_tallies_every_document():
    rng = np.random.default_rng(1)
    params = init_params(CFG, rng)
    docs = _docs(rng, [0, 1, -1, 0, -1])
    cm = evaluate(batched_logits(params, docs.ids), fixed_thresholds(2), docs.labels)
    assert cm.counts.sum() == 5
    assert cm.counts[2, :].sum() == 2  # both unseen docs land in the reject row
    assert cm.counts.shape == (3, 3)


def test_evaluate_closed_never_rejects():
    rng = np.random.default_rng(2)
    params = init_params(CFG, rng)
    docs = _docs(rng, [0, 1, -1, -1])
    cm = evaluate_closed(batched_logits(params, docs.ids), docs.labels)
    assert cm.counts[:, 2].sum() == 0
    assert cm.counts.sum() == 4


def test_evaluate_closed_ties_go_to_the_lowest_index():
    logits = np.array([[0.1, 0.9, 0.3], [2.0, 2.0, 1.0], [0.0, 5.0, 5.0], [-1.0, -1.0, -1.0]])
    cm = evaluate_closed(logits, [1, 0, 1, -1])
    # predictions 1, 0, 1, 0; the unseen gold label lands in the reject row
    assert np.array_equal(cm.counts, ConfusionMatrix.from_pairs([1, 0, 1, 3], [1, 0, 1, 0], 3).counts)
    with pytest.raises(ValueError):
        evaluate_closed(np.empty((1, 0)), [0])


@pytest.mark.parametrize(
    "logit_shape, labels",
    [((4,), [0, 1, 0, 1]), ((4, 2), [0, 1, 0]), ((4, 2), [[0, 1, 0, 1]]), ((2, 2, 2), [0, 1])],
    ids=["1-d-logits", "short-labels", "2-d-labels", "3-d-logits"],
)
def test_scorers_refuse_mismatched_shapes(logit_shape, labels):
    with pytest.raises(ValueError, match="logit matrix"):
        evaluate(np.zeros(logit_shape), fixed_thresholds(2), labels)
    with pytest.raises(ValueError, match="logit matrix"):
        evaluate_closed(np.zeros(logit_shape), labels)


def test_evaluate_batch_size_invariant(monkeypatch):
    rng = np.random.default_rng(3)
    params = init_params(CFG, rng)
    docs = _docs(rng, [0, 1] * 15)
    monkeypatch.setattr(encoder, "INFERENCE_CHUNK", 4)
    a = evaluate(batched_logits(params, docs.ids), fixed_thresholds(2), docs.labels)
    monkeypatch.setattr(encoder, "INFERENCE_CHUNK", 256)
    b = evaluate(batched_logits(params, docs.ids), fixed_thresholds(2), docs.labels)
    assert np.array_equal(a.counts, b.counts)


def test_experiment_spec_validation():
    with pytest.raises(ValueError):
        ExperimentSpec(repetitions=0)
    with pytest.raises(ValueError):
        ExperimentSpec(seen_fractions=(0.0,))
    with pytest.raises(ValueError, match="distinct"):
        ExperimentSpec(seen_fractions=(0.5, 0.25, 0.5))
    for alpha in (0.0, -1.0, np.nan, np.inf):
        with pytest.raises(CalibrationError):
            ExperimentSpec(alpha=alpha)
    spec = ExperimentSpec(seen_fractions=[0.5], repetitions=1)
    assert spec.seen_fractions == (0.5,)


def test_run_single_sizes_the_embedding_by_the_vocabulary(monkeypatch):
    docs = generate_synthetic_dataset(num_classes=3, docs_per_class=20, seed=0)
    model = ModelSpec(
        vocab_size=100_000, doc_len=12, embed_dim=4, filter_widths=(2,), filters_per_width=3, hidden_dim=4
    )
    spec = ExperimentSpec(
        seen_fractions=(1.0,), repetitions=1, model=model, train_config=TrainConfig(epochs=1)
    )
    trained = []

    def capture(split, enc_cfg, cfg, **kwargs):
        params, report = real_train(split, enc_cfg, cfg, **kwargs)
        trained.append(params)
        return params, report

    real_train = evaluation.train
    monkeypatch.setattr(evaluation, "train", capture)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})  # both trainings in this process
    run_single(spec, docs, 1.0, 0, 0)
    split = make_open_split(docs, 1.0, _derive_seed(spec.base_seed, 0, 0, 0))
    vocab_len = len(build_vocab_from_split(split, model.vocab_size))
    assert vocab_len < model.vocab_size
    assert len(trained) == 2  # the one-vs-rest and the softmax model
    for params in trained:
        assert params.config.vocab_size == vocab_len
        assert params.embedding.data.shape == (vocab_len, model.embed_dim)


def test_run_single_forwards_each_model_and_split_once(monkeypatch):
    docs = generate_synthetic_dataset(num_classes=4, docs_per_class=20, seed=0)
    model = ModelSpec(vocab_size=200, doc_len=12, embed_dim=4, filter_widths=(2,), filters_per_width=3, hidden_dim=4)
    spec = ExperimentSpec(
        seen_fractions=(0.5,), repetitions=1, model=model, train_config=TrainConfig(epochs=2)
    )
    forwarded = []

    def record(params, ids, tape=None):
        # batched_logits looks forward up in the encoder module; training steps do not
        state = b"".join(t.data.tobytes() for t in params.all_tensors())
        forwarded.append((hashlib.sha256(state).digest(), ids.shape, hashlib.sha256(ids.tobytes()).digest()))
        return real_forward(params, ids, tape)

    real_forward = encoder.forward
    monkeypatch.setattr(encoder, "forward", record)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})  # every forward in this process
    run_single(spec, docs, 0.5, 0, 0)
    # two validation losses per model, then DOC on train and test, softmax on test
    assert len(forwarded) == 2 * 2 + 3
    assert len(set(forwarded)) == len(forwarded)


TOY_MODEL = ModelSpec(vocab_size=200, doc_len=12, embed_dim=4, filter_widths=(2,), filters_per_width=3, hidden_dim=4)


def test_run_experiment_gives_the_same_result_forked_and_serial(forks, monkeypatch):
    docs = generate_synthetic_dataset(num_classes=4, docs_per_class=20, seed=3)
    spec = ExperimentSpec(
        seen_fractions=(0.5, 1.0), repetitions=2, model=TOY_MODEL, train_config=TrainConfig(epochs=2)
    )
    forked = run_experiment(spec, docs).to_json()
    assert len(forks) == 4  # one softmax head per run
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert run_experiment(spec, docs).to_json() == forked
    assert len(forks) == 4


def test_no_child_outlives_a_run_whose_parent_head_raises(forks, monkeypatch):
    docs = generate_synthetic_dataset(num_classes=4, docs_per_class=20, seed=3)
    spec = ExperimentSpec(seen_fractions=(0.5,), repetitions=1, model=TOY_MODEL, train_config=TrainConfig(epochs=2))

    def one_vs_rest_fails(split, enc_cfg, cfg, *, seed, head=HEAD_ONE_VS_REST):
        if head == HEAD_ONE_VS_REST:
            raise MemoryError("one-vs-rest head")
        return real_train(split, enc_cfg, cfg, seed=seed, head=head)

    real_train = evaluation.train
    monkeypatch.setattr(evaluation, "train", one_vs_rest_fails)
    with pytest.raises(MemoryError, match="one-vs-rest head"):
        run_single(spec, docs, 0.5, 0, 0)
    assert len(forks) == 1  # and the fixture checks that it was reaped


def test_derive_seed_is_deterministic_and_distinct():
    a = _derive_seed(0, 1, 2, 3)
    assert a == _derive_seed(0, 1, 2, 3)
    assert a != _derive_seed(0, 1, 2, 4)
    assert a != _derive_seed(1, 1, 2, 3)


def test_experiment_result_serialization():
    runs = {("doc", 0.5): [0.8, 0.9], ("softmax", 0.5): [0.7, 0.7]}
    summary = {k: (float(np.mean(v)), float(np.std(v))) for k, v in runs.items()}
    res = ExperimentResult(fractions=[0.5], methods=["doc", "softmax"], runs=runs, summary=summary)
    import json

    d = json.loads(res.to_json())
    assert d["summary"]["doc@0.5"]["mean"] == pytest.approx(0.85)
    text = res.to_text()
    assert "50%" in text and "doc" in text and "softmax" in text

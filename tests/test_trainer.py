import pickle

import numpy as np
import pytest

import opentc.trainer
from opentc.data import EncodedDocs, OpenSplit
from opentc.encoder import EncoderConfig, init_params
from opentc.trainer import (
    ADAM_EPS,
    HEAD_ONE_VS_REST,
    AdamState,
    TrainConfig,
    TrainingDivergedError,
    evaluate_loss,
    train,
    training_step,
)
from opentc.tensor import Tensor


CFG = EncoderConfig(
    vocab_size=30, embed_dim=4, num_classes=2, doc_len=8, filter_widths=(2,), filters_per_width=4, hidden_dim=5
)


def _docs(rng, labels, cfg=CFG):
    # class signal: tokens 2-9 for class 0, tokens 10-17 for class 1
    ids = [rng.integers(2 + 8 * label, 10 + 8 * label, size=cfg.doc_len) for label in labels]
    return EncodedDocs(ids=np.stack(ids), labels=np.array(labels, dtype=np.int64))


def _split(rng, n_per_class=30, cfg=CFG):
    train_docs = _docs(rng, [l for l in (0, 1) for _ in range(n_per_class)], cfg)
    val_docs = _docs(rng, [l for l in (0, 1) for _ in range(5)], cfg)
    return OpenSplit(
        train=train_docs, validation=val_docs, test=[], seen_classes=["0", "1"], unseen_classes=[]
    )


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(batch_size=0)
    for lr in (-1e-3, np.nan, np.inf):
        with pytest.raises(ValueError):
            TrainConfig(lr=lr)
    TrainConfig(lr=0.0)  # allowed: a no-op optimizer is legal


def test_unknown_head_is_refused_before_any_work():
    empty = OpenSplit(train=[], validation=[], test=[], seen_classes=[], unseen_classes=[])
    with pytest.raises(ValueError, match="unknown head 'nope'"):  # not the empty split's error
        train(empty, CFG, TrainConfig(), head="nope")


def test_zero_learning_rate_leaves_params_unchanged():
    rng = np.random.default_rng(0)
    split = _split(rng)
    params, _ = train(split, CFG, TrainConfig(lr=0.0, epochs=2), seed=1)
    fresh = init_params(CFG, 1)
    for a, b in zip(params.all_tensors(), fresh.all_tensors()):
        assert np.array_equal(a.data, b.data)


def test_training_reduces_loss():
    rng = np.random.default_rng(1)
    split = _split(rng)
    params, report = train(split, CFG, TrainConfig(epochs=30, batch_size=16), seed=0)
    assert report.train_losses[-1] < report.train_losses[0] - 0.1
    # 2-class OVR chance level is 2*log(2) per example
    assert evaluate_loss(params, split.validation, HEAD_ONE_VS_REST) < np.log(2) * 2


def test_training_deterministic():
    rng = np.random.default_rng(2)
    split = _split(rng)
    a, ra = train(split, CFG, TrainConfig(epochs=3), seed=5)
    b, rb = train(split, CFG, TrainConfig(epochs=3), seed=5)
    for ta, tb in zip(a.all_tensors(), b.all_tensors()):
        assert np.array_equal(ta.data, tb.data)
    assert ra.to_json() == rb.to_json()


def test_different_seed_different_params():
    rng = np.random.default_rng(3)
    split = _split(rng)
    a, _ = train(split, CFG, TrainConfig(epochs=2), seed=0)
    b, _ = train(split, CFG, TrainConfig(epochs=2), seed=1)
    assert any(not np.array_equal(ta.data, tb.data) for ta, tb in zip(a.all_tensors(), b.all_tensors()))


def test_softmax_head_trains():
    rng = np.random.default_rng(4)
    split = _split(rng)
    params, report = train(split, CFG, TrainConfig(epochs=8), seed=0, head="softmax")
    assert report.train_losses[-1] < report.train_losses[0]


def test_early_stopping_reports():
    rng = np.random.default_rng(5)
    split = _split(rng, n_per_class=10)
    # lr=0 means validation never improves after epoch 0 -> stop at patience
    _, report = train(split, CFG, TrainConfig(lr=0.0, epochs=50, patience=2), seed=0)
    assert report.stopped_early
    assert len(report.train_losses) == 3  # epoch 0 best, two bad epochs
    assert report.best_epoch == 0


def test_best_epoch_params_returned():
    # the returned parameters correspond to the epoch with the lowest val loss
    rng = np.random.default_rng(6)
    split = _split(rng)
    params, report = train(split, CFG, TrainConfig(epochs=6), seed=0)
    best = min(range(len(report.val_losses)), key=report.val_losses.__getitem__)
    assert report.best_epoch == best
    got = evaluate_loss(params, split.validation, HEAD_ONE_VS_REST)
    assert abs(got - report.val_losses[best]) < 1e-9


def test_empty_validation_falls_back_to_train_loss():
    rng = np.random.default_rng(7)
    split = _split(rng)
    split.validation = EncodedDocs(
        ids=np.empty((0, CFG.doc_len), dtype=np.int64), labels=np.empty(0, dtype=np.int64)
    )
    params, report = train(split, CFG, TrainConfig(epochs=3), seed=0)
    assert params is not None
    assert report.val_losses == report.train_losses


def test_unseen_label_in_training_batch_rejected():
    rng = np.random.default_rng(8)
    bad = EncodedDocs(ids=_docs(rng, [0]).ids, labels=np.array([-1]))
    params = init_params(CFG, 0)
    cfg = TrainConfig()
    opt = AdamState(params.all_tensors())
    with pytest.raises(ValueError):
        training_step(params, bad, cfg, opt, HEAD_ONE_VS_REST)


def test_missing_class_in_train_split_rejected():
    rng = np.random.default_rng(9)
    split = _split(rng)
    keep = split.train.labels == 0
    split.train = EncodedDocs(ids=split.train.ids[keep], labels=split.train.labels[keep])
    with pytest.raises(ValueError):
        train(split, CFG, TrainConfig(epochs=1))


def test_divergence_raises():
    rng = np.random.default_rng(10)
    split = _split(rng)
    init = init_params(CFG, 0)
    init.w_out.data[:] = 1e308  # first forward pass overflows to inf
    init.embedding.data[1:] = 1e30
    with pytest.raises(TrainingDivergedError) as exc_info, np.errstate(over="ignore", invalid="ignore"):
        train(split, CFG, TrainConfig(epochs=2), initial_params=init, seed=0)
    assert exc_info.value.epoch == 0


def test_divergence_error_survives_pickling():
    error = pickle.loads(pickle.dumps(TrainingDivergedError(1, 2)))  # a forked child sends it this way
    assert (error.epoch, error.batch, str(error)) == (1, 2, "non-finite loss at epoch 1, batch 2")


def test_initial_params_used_and_not_mutated():
    rng = np.random.default_rng(11)
    split = _split(rng)
    init = init_params(CFG, 42)
    snapshot = [t.data.copy() for t in init.all_tensors()]
    train(split, CFG, TrainConfig(epochs=1), initial_params=init, seed=0)
    for s, t in zip(snapshot, init.all_tensors()):
        assert np.array_equal(s, t.data)


def test_adam_single_step_matches_hand_computation():
    # one Adam step on a single scalar-ish parameter with known gradient
    t = Tensor(np.array([1.0]))
    cfg = TrainConfig(lr=0.1)
    opt = AdamState([t])
    t.grad = np.array([2.0])
    opt.apply(cfg)
    # bias-corrected m_hat = g, v_hat = g^2 -> step = lr * g / (|g| + eps)
    expected = 1.0 - 0.1 * 2.0 / (2.0 + ADAM_EPS)
    np.testing.assert_allclose(t.data, [expected], atol=1e-12)


def test_pad_row_stays_zero_through_training():
    rng = np.random.default_rng(13)
    split = _split(rng)
    params, _ = train(split, CFG, TrainConfig(epochs=3), seed=0)
    np.testing.assert_array_equal(params.embedding.data[0], np.zeros(CFG.embed_dim))


def test_training_step_drops_the_previous_gradients_before_its_forward(monkeypatch):
    params = init_params(CFG, 0)
    opt = AdamState(params.all_tensors())
    forward = opentc.trainer.forward
    forwards = []

    def checked_forward(p, ids, tape):
        forwards.append([t.grad is None for t in p.all_tensors()])
        return forward(p, ids, tape)

    monkeypatch.setattr(opentc.trainer, "forward", checked_forward)
    batch = _docs(np.random.default_rng(14), [0, 1, 1, 0])
    for _ in range(2):
        training_step(params, batch, TrainConfig(), opt, HEAD_ONE_VS_REST)
        assert all(t.grad is not None for t in params.all_tensors())  # every parameter is on the loss path
    assert forwards == [[True] * len(params.all_tensors())] * 2

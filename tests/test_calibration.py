import math

import numpy as np
import pytest

from opentc.calibration import (
    CalibrationError,
    ThresholdVector,
    fit_sigma,
    fit_thresholds,
    fixed_thresholds,
)
from opentc import encoder
from opentc.data import EncodedDocs
from opentc.encoder import EncoderConfig, batched_logits, init_params


def oracle_sigma(points):
    """Literal mirrored-population-std transcription, no numpy."""
    pts = list(points) + [2.0 - p for p in points]
    mean = sum(pts) / len(pts)
    return math.sqrt(sum((x - mean) ** 2 for x in pts) / len(pts))


def test_fit_sigma_matches_literal_oracle():
    rng = np.random.default_rng(0)
    for n in (1, 2, 3, 10, 100):
        for _ in range(20):
            pts = rng.uniform(1e-6, 1.0, size=n)
            assert abs(fit_sigma(pts) - oracle_sigma(pts)) < 1e-12


def test_fit_sigma_closed_form():
    # mirror mean is exactly 1, so sigma^2 = mean((1-p)^2)
    rng = np.random.default_rng(1)
    pts = rng.uniform(0.2, 1.0, size=50)
    expected = math.sqrt(np.mean((1.0 - pts) ** 2))
    assert abs(fit_sigma(pts) - expected) < 1e-12


def test_fit_sigma_worked_examples():
    assert abs(fit_sigma([0.9, 1.0]) - 0.07071067811865475) < 1e-12
    assert abs(fit_sigma([0.5]) - 0.5) < 1e-12
    assert fit_sigma([1.0, 1.0, 1.0]) == 0.0


def test_fit_sigma_input_validation():
    with pytest.raises(CalibrationError):
        fit_sigma([])
    with pytest.raises(CalibrationError):
        fit_sigma([0.0, 0.5])
    with pytest.raises(CalibrationError):
        fit_sigma([1.1])


def test_fixed_thresholds():
    tv = fixed_thresholds(4)
    np.testing.assert_array_equal(tv.t, np.full(4, 0.5))
    tv = fixed_thresholds(2, value=0.9)
    np.testing.assert_array_equal(tv.t, [0.9, 0.9])
    assert fixed_thresholds(3, 0.0).t[0] == 0.0 and fixed_thresholds(3, 1.0).t[0] == 1.0


@pytest.mark.parametrize("value", [np.nan, -0.1, 1.5, np.inf])
def test_fixed_thresholds_rejects_values_outside_unit_interval(value):
    with pytest.raises(CalibrationError):
        fixed_thresholds(3, value)


def test_threshold_vector_len_and_dtype():
    tv = ThresholdVector(t=[0.5, 0.8], alpha=3.0, sigma=[0.2, 0.05])
    assert tv.t.size == 2
    assert tv.t.dtype == np.float64 and tv.sigma.dtype == np.float64


def _make_docs(cfg, labels, rng):
    ids = np.stack([rng.integers(0, cfg.vocab_size, size=cfg.doc_len) for _ in labels])
    return EncodedDocs(ids=ids, labels=np.array(labels, dtype=np.int64))


CFG = EncoderConfig(
    vocab_size=40, embed_dim=4, num_classes=3, doc_len=10, filter_widths=(2,), filters_per_width=4, hidden_dim=5
)


def test_fit_thresholds_matches_manual_computation():
    rng = np.random.default_rng(2)
    params = init_params(CFG, rng)
    docs = _make_docs(CFG, [0, 1, 2, 0, 1, 2, 0], rng)

    from opentc.encoder import forward
    from opentc.head import class_probabilities

    per_class = [[], [], []]
    for ids, label in zip(docs.ids, docs.labels):
        p = class_probabilities(forward(params, ids).data)
        per_class[label].append(float(p[label]))

    tv = fit_thresholds(batched_logits(params, docs.ids), docs.labels, alpha=3.0)
    for i in range(3):
        sig = oracle_sigma(per_class[i])
        assert abs(tv.sigma[i] - sig) < 1e-12
        assert abs(tv.t[i] - max(0.5, 1.0 - 3.0 * sig)) < 1e-12


def test_fit_thresholds_floor_at_half():
    rng = np.random.default_rng(3)
    params = init_params(CFG, rng)
    docs = _make_docs(CFG, [0, 1, 2] * 4, rng)
    # a huge alpha drives every unclamped threshold below 0.5
    tv = fit_thresholds(batched_logits(params, docs.ids), docs.labels, alpha=1e9)
    np.testing.assert_array_equal(tv.t, np.full(3, 0.5))


def test_fit_thresholds_alpha_shrinks_thresholds():
    rng = np.random.default_rng(4)
    params = init_params(CFG, rng)
    docs = _make_docs(CFG, [0, 1, 2] * 10, rng)
    logits = batched_logits(params, docs.ids)
    t1 = fit_thresholds(logits, docs.labels, alpha=0.01).t
    t2 = fit_thresholds(logits, docs.labels, alpha=0.5).t
    assert (t2 <= t1 + 1e-15).all()


def test_fit_thresholds_requires_every_class():
    rng = np.random.default_rng(5)
    params = init_params(CFG, rng)
    docs = _make_docs(CFG, [0, 1, 0, 1], rng)  # class 2 missing
    with pytest.raises(CalibrationError):
        fit_thresholds(batched_logits(params, docs.ids), docs.labels)


def test_fit_thresholds_rejects_unseen_labels():
    rng = np.random.default_rng(6)
    params = init_params(CFG, rng)
    docs = _make_docs(CFG, [0, 1, 2], rng)
    with pytest.raises(CalibrationError):
        fit_thresholds(batched_logits(params, docs.ids), np.array([-1, 1, 2]))


def test_fit_thresholds_rejects_bad_alpha():
    rng = np.random.default_rng(7)
    params = init_params(CFG, rng)
    docs = _make_docs(CFG, [0, 1, 2], rng)
    logits = batched_logits(params, docs.ids)
    for alpha in (0.0, -1.0, np.nan, np.inf):
        with pytest.raises(CalibrationError):
            fit_thresholds(logits, docs.labels, alpha=alpha)


def test_fit_thresholds_does_not_modify_its_inputs():
    rng = np.random.default_rng(8)
    logits, labels = rng.normal(size=(9, 3)), np.array([0, 1, 2] * 3)
    before = logits.copy(), labels.copy()
    fit_thresholds(logits, labels)
    assert np.array_equal(before[0], logits) and np.array_equal(before[1], labels)


@pytest.mark.parametrize(
    "logit_shape, labels",
    [((6,), [0, 1, 2, 0, 1, 2]), ((6, 3), [0, 1, 2, 0, 1]), ((6, 3), [[0, 1, 2, 0, 1, 2]]), ((2, 3, 3), [0, 1])],
    ids=["1-d-logits", "short-labels", "2-d-labels", "3-d-logits"],
)
def test_fit_thresholds_refuses_mismatched_shapes(logit_shape, labels):
    with pytest.raises(CalibrationError, match="logit matrix"):
        fit_thresholds(np.zeros(logit_shape), labels)


def test_fit_thresholds_batch_size_invariant(monkeypatch):
    rng = np.random.default_rng(9)
    params = init_params(CFG, rng)
    docs = _make_docs(CFG, [0, 1, 2] * 20, rng)
    monkeypatch.setattr(encoder, "INFERENCE_CHUNK", 7)
    a = fit_thresholds(batched_logits(params, docs.ids), docs.labels)
    monkeypatch.setattr(encoder, "INFERENCE_CHUNK", 256)
    b = fit_thresholds(batched_logits(params, docs.ids), docs.labels)
    np.testing.assert_allclose(a.t, b.t, atol=1e-15)


def test_fit_thresholds_survives_sigmoid_underflow():
    # sigmoid(-800) is exactly 0.0, outside fit_sigma's (0, 1]
    rng = np.random.default_rng(9)
    params = init_params(CFG, rng)
    params.b_out.data[:] = -800.0
    docs = _make_docs(CFG, [0, 1, 2] * 4, rng)
    tv = fit_thresholds(batched_logits(params, docs.ids), docs.labels)
    np.testing.assert_array_equal(tv.t, np.full(3, 0.5))
    assert np.isfinite(tv.sigma).all()

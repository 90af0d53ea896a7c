import numpy as np
import pytest

from opentc.calibration import fixed_thresholds
from opentc.head import (
    REJECT,
    OpenPrediction,
    class_probabilities,
    open_predictions,
    ovr_loss,
    predict_open,
    softmax_loss,
)
from opentc.tensor import Tape, Tensor, grad_check


def brute_force_predict_open(probs, thresholds):
    """Independent oracle: literal transcription of the rejection rule."""
    reject = True
    for p, t in zip(probs, thresholds):
        if p >= t:
            reject = False
    if reject:
        return None
    best, best_p = 0, probs[0]
    for i, p in enumerate(probs):
        if p > best_p:
            best, best_p = i, p
    return best


def test_predict_open_against_brute_force_oracle():
    rng = np.random.default_rng(0)
    for _ in range(10_000):
        m = int(rng.integers(1, 6))
        probs = rng.uniform(0, 1, size=m)
        thresholds = rng.uniform(0.3, 1.0, size=m)
        want = brute_force_predict_open(probs, thresholds)
        got = predict_open(probs, thresholds)
        assert got.class_index == want


def test_predict_open_boundary_probability_accepts():
    # p == t clears the threshold
    got = predict_open([0.5, 0.1], [0.5, 0.9])
    assert got.class_index == 0


def test_predict_open_rejects_when_all_below():
    got = predict_open([0.49, 0.89], [0.5, 0.9])
    assert got.is_reject and got.class_index is None


def test_predict_open_argmax_over_all_classes():
    # class 1 clears its threshold but class 0 has the higher probability
    got = predict_open([0.8, 0.6], [0.95, 0.5])
    assert got.class_index == 0


def test_predict_open_tie_goes_to_lowest_index():
    got = predict_open([0.7, 0.7], [0.5, 0.5])
    assert got.class_index == 0


def test_predict_open_length_mismatch():
    with pytest.raises(ValueError):
        predict_open([0.5, 0.5], [0.5])


# On this grid ties, p == t and all-below rows are all common.
GRID = np.array([0.2, 0.5, 0.7, 0.9])


@pytest.mark.parametrize("on_grid", [False, True], ids=["uniform", "grid"])
def test_open_predictions_against_brute_force_oracle(on_grid):
    rng = np.random.default_rng(6)
    for _ in range(1_000):
        n, m = int(rng.integers(0, 12)), int(rng.integers(1, 6))
        if on_grid:
            probs, thresholds = rng.choice(GRID, size=(n, m)), rng.choice(GRID, size=m)
        else:
            probs, thresholds = rng.uniform(0, 1, size=(n, m)), rng.uniform(0.3, 1.0, size=m)
        want = [brute_force_predict_open(row, thresholds) for row in probs]
        got = open_predictions(probs, thresholds)
        assert got.shape == (n,)
        assert got.tolist() == [m if k is None else k for k in want]


def test_open_predictions_corners_in_one_matrix():
    probs = [
        [0.7, 0.7, 0.1],  # a tie goes to the lowest index
        [0.5, 0.1, 0.1],  # p == t clears the threshold
        [0.49, 0.89, 0.0],  # every class below its threshold
        [0.8, 0.9, 0.6],  # the argmax class sits below its own threshold
        [0.5, 0.9, 0.3],  # every p == t
    ]
    thresholds = [0.5, 0.9, 0.3]
    assert open_predictions(probs, thresholds).tolist() == [0, 0, 3, 1, 1]
    assert open_predictions(probs, fixed_thresholds(3, 0.9)).tolist() == [3, 3, 3, 1, 1]


@pytest.mark.parametrize(
    "shape, m", [((3, 2), 1), ((3, 2), 3), ((0, 2), 1), ((2,), 2)], ids=["short", "long", "no-rows", "one-row-vector"]
)
def test_open_predictions_length_mismatch(shape, m):
    with pytest.raises(ValueError, match="same length"):
        open_predictions(np.zeros(shape), np.full(m, 0.5))


def test_predict_open_agrees_with_open_predictions_row_by_row():
    # perfbench's predict reference reads predict_open's class_index and
    # is_reject, so the one-row form must give the matrix rule's answers.
    rng = np.random.default_rng(7)
    probs, thresholds = rng.choice(GRID, size=(400, 4)), GRID[[1, 2, 3, 3]]
    predicted = open_predictions(probs, thresholds)
    assert set(predicted.tolist()) == {0, 1, 2, 3, 4}
    for row, k in zip(probs, predicted.tolist()):
        want = REJECT if k == 4 else OpenPrediction(class_index=k, probability=row[k])
        assert predict_open(row, thresholds) == want


def test_class_probabilities_matches_sigmoid():
    z = np.array([-2.0, 0.0, 3.0])
    np.testing.assert_allclose(class_probabilities(z), 1.0 / (1.0 + np.exp(-z)), atol=1e-15)


def test_class_probabilities_half_at_zero():
    assert class_probabilities(np.array([0.0]))[0] == 0.5


def test_class_probabilities_extreme_inputs_stay_finite():
    out = class_probabilities(np.array([-1000.0, 1000.0]))
    assert np.isfinite(out).all()  # saturates to 0/1 instead of NaN/Inf
    assert out[0] == 0.0 and out[1] == 1.0


def test_class_probabilities_strictly_inside_unit_interval_for_moderate_inputs():
    rng = np.random.default_rng(5)
    z = rng.uniform(-30, 30, size=1000)
    out = class_probabilities(z)
    assert (out > 0).all() and (out < 1).all()


def oracle_ovr_loss(logits, labels, m):
    """Independent oracle: summed per-class BCE over the whole batch."""
    total = 0.0
    for z, y in zip(np.atleast_2d(logits), np.atleast_1d(labels)):
        for i in range(m):
            p = 1.0 / (1.0 + np.exp(-z[i]))
            t = 1.0 if i == y else 0.0
            total += -(t * np.log(p) + (1 - t) * np.log(1 - p))
    return total


def oracle_softmax_loss(logits, labels):
    total = 0.0
    for z, y in zip(np.atleast_2d(logits), np.atleast_1d(labels)):
        e = np.exp(z - z.max())
        total += -np.log(e[y] / e.sum())
    return total


def test_ovr_loss_matches_oracle():
    rng = np.random.default_rng(1)
    logits = rng.normal(size=(5, 4))
    labels = rng.integers(0, 4, size=5)
    got = ovr_loss(Tape(record=False), Tensor(logits), labels).data
    np.testing.assert_allclose(float(got), oracle_ovr_loss(logits, labels, 4), atol=1e-12)


def test_softmax_loss_matches_oracle():
    rng = np.random.default_rng(2)
    logits = rng.normal(size=(5, 4))
    labels = rng.integers(0, 4, size=5)
    got = softmax_loss(Tape(record=False), Tensor(logits), labels).data
    np.testing.assert_allclose(float(got), oracle_softmax_loss(logits, labels), atol=1e-12)


def test_ovr_loss_stable_at_extreme_logits():
    logits = np.array([[800.0, -800.0]])
    val = ovr_loss(Tape(record=False), Tensor(logits), [0]).data
    assert np.isfinite(val)
    np.testing.assert_allclose(float(val), 0.0, atol=1e-12)
    val = ovr_loss(Tape(record=False), Tensor(logits), [1]).data
    assert np.isfinite(val)
    np.testing.assert_allclose(float(val), 1600.0, rtol=1e-12)


def test_softmax_loss_stable_at_extreme_logits():
    val = softmax_loss(Tape(record=False), Tensor(np.array([[1000.0, 0.0]])), [0]).data
    assert np.isfinite(val) and float(val) < 1e-12


def test_loss_gradients_match_finite_differences():
    rng = np.random.default_rng(3)
    logits = Tensor(rng.normal(size=(3, 4)))
    labels = rng.integers(0, 4, size=3)
    assert grad_check(lambda tape: ovr_loss(tape, logits, labels), [logits]) < 1e-6
    assert grad_check(lambda tape: softmax_loss(tape, logits, labels), [logits]) < 1e-6


def test_ovr_gradient_identity():
    # d(loss)/dz = sigmoid(z) - target
    rng = np.random.default_rng(4)
    z = rng.normal(size=(2, 3))
    logits = Tensor(z)
    labels = np.array([0, 2])
    tape = Tape()
    loss = ovr_loss(tape, logits, labels)
    tape.backward(loss)
    target = np.zeros((2, 3))
    target[0, 0] = 1.0
    target[1, 2] = 1.0
    expected = 1.0 / (1.0 + np.exp(-z)) - target
    np.testing.assert_allclose(logits.grad, expected, atol=1e-12)


def test_loss_label_out_of_range():
    logits = Tensor(np.zeros((1, 3)))
    with pytest.raises(ValueError):
        ovr_loss(Tape(), logits, [3])
    with pytest.raises(ValueError):
        softmax_loss(Tape(), logits, [-1])


def test_open_prediction_repr_fields():
    p = OpenPrediction(class_index=2, probability=0.75)
    assert not p.is_reject
    assert p.probability == 0.75

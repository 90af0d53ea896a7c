"""One-vs-rest sigmoid output layer with a rejection option, plus the
closed-world softmax baseline head.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor import Tape, Tensor, node


@dataclass(frozen=True)
class OpenPrediction:
    """One row's open prediction: a rejection or an accepted (class_index, probability) pair."""

    class_index: int | None  # None means reject
    probability: float | None

    @property
    def is_reject(self) -> bool:
        return self.class_index is None


REJECT = OpenPrediction(class_index=None, probability=None)


def _stable_sigmoid(z: np.ndarray) -> np.ndarray:
    """Elementwise logistic function; exp never overflows, large |z| saturate to 0 or 1."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _check_labels(labels: np.ndarray, m: int) -> None:
    if labels.size and (labels.min() < 0 or labels.max() >= m):
        raise ValueError(f"label out of range [0, {m})")


def _one_hot(labels: np.ndarray, m: int) -> np.ndarray:
    out = np.zeros((labels.size, m))
    out[np.arange(labels.size), labels] = 1.0
    return out


def ovr_loss(tape: Tape, logits: Tensor, labels) -> Tensor:
    """Summed one-vs-rest log loss over the batch, from logits.

    Each of the m per-class sigmoids treats its own class as positive and
    every other label as negative. Computed in softplus form, never via
    log(sigmoid(x)), so saturated logits stay finite. Total, unaveraged.
    """
    labels = np.atleast_1d(np.asarray(labels, dtype=np.int64))
    z = logits.data.reshape(labels.size, -1)
    m = z.shape[1]
    _check_labels(labels, m)
    targets = _one_hot(labels, m)
    # softplus identity: max(z,0) - z*t + log(1 + exp(-|z|))
    per_elem = np.maximum(z, 0.0) - z * targets + np.log1p(np.exp(-np.abs(z)))

    def back(g: np.ndarray) -> None:
        logits.accumulate(((_stable_sigmoid(z) - targets) * g).reshape(logits.shape))

    return node(tape, per_elem.sum(), back)


def softmax_loss(tape: Tape, logits: Tensor, labels) -> Tensor:
    """Summed negative log-likelihood under softmax, log-sum-exp stabilized."""
    labels = np.atleast_1d(np.asarray(labels, dtype=np.int64))
    z = logits.data.reshape(labels.size, -1)
    m = z.shape[1]
    _check_labels(labels, m)
    zmax = z.max(axis=1, keepdims=True)
    shifted = z - zmax
    lse = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    softmax = np.exp(shifted - lse)

    def back(g: np.ndarray) -> None:
        logits.accumulate(((softmax - _one_hot(labels, m)) * g).reshape(logits.shape))

    return node(tape, (lse.ravel() + zmax.ravel() - z[np.arange(labels.size), labels]).sum(), back)


def class_probabilities(logits: np.ndarray) -> np.ndarray:
    """Per-class sigmoid probabilities; each in (0,1), not normalized."""
    return _stable_sigmoid(np.asarray(logits, dtype=np.float64))


def open_predictions(probs, thresholds) -> np.ndarray:
    """Each row's class under the open-world rule, for an (N, m) probability matrix:
    m (reject) iff every probability is below its class threshold, else the
    argmax over all classes (ties to the lowest index), even one below its own
    threshold. ``thresholds`` is a ``ThresholdVector`` or a plain vector."""
    probs = np.asarray(probs, dtype=np.float64)
    thresholds = np.asarray(getattr(thresholds, "t", thresholds), dtype=np.float64)
    if probs.ndim != 2 or probs.shape[1:] != thresholds.shape:
        raise ValueError("probs and thresholds must have the same length")
    return np.where((probs >= thresholds).any(axis=1), probs.argmax(axis=1), probs.shape[1])


def predict_open(probs, thresholds) -> OpenPrediction:
    """``open_predictions`` for one document's m probabilities."""
    probs = np.asarray(probs, dtype=np.float64)
    idx = int(open_predictions(probs[None], thresholds)[0])
    return REJECT if idx == len(probs) else OpenPrediction(class_index=idx, probability=float(probs[idx]))

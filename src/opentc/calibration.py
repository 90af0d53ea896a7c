"""Per-class rejection thresholds fitted by mirrored Gaussian estimation.

For each seen class, the predicted probabilities of its own training examples
are treated as one half of a Gaussian centred at 1. Each point p gets a mirror
point 1 + (1 - p); the standard deviation of the combined set gives the class
threshold t = max(0.5, 1 - alpha * sigma).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .head import class_probabilities


DEFAULT_ALPHA = 3.0  # the paper's alpha


class CalibrationError(ValueError):
    pass


@dataclass(frozen=True)
class ThresholdVector:
    t: np.ndarray  # per-class thresholds, each in [0.5, 1.0]
    alpha: float
    sigma: np.ndarray  # fitted per-class std, kept for inspection

    def __post_init__(self) -> None:
        object.__setattr__(self, "t", np.asarray(self.t, dtype=np.float64))
        object.__setattr__(self, "sigma", np.asarray(self.sigma, dtype=np.float64))


def fixed_thresholds(num_classes: int, value: float = 0.5) -> ThresholdVector:
    """Uniform thresholds, e.g. the default-0.5 ablation without fitting."""
    if not 0.0 <= value <= 1.0:  # also false for NaN
        raise CalibrationError(f"threshold must lie in [0, 1], got {value}")
    return ThresholdVector(
        t=np.full(num_classes, value),
        alpha=0.0,
        sigma=np.zeros(num_classes),
    )


def fit_sigma(class_probs) -> float:
    """Population std of the probabilities combined with their mirror points."""
    p = np.asarray(class_probs, dtype=np.float64)
    if p.size == 0:
        raise CalibrationError("no probabilities to fit")
    if (p <= 0).any() or (p > 1).any():
        raise CalibrationError("probabilities must lie in (0, 1]")
    mirrored = np.concatenate([p, 2.0 - p])
    return float(np.std(mirrored))


def check_alpha(alpha: float) -> None:
    """Refuse an alpha that is not positive and finite."""
    if not 0.0 < alpha < np.inf:  # also false for NaN
        raise CalibrationError(f"alpha must be positive and finite, got {alpha}")


def check_logit_matrix(logits: np.ndarray, labels: np.ndarray) -> None:
    """Refuse anything but an (N, m) logit matrix and its N labels."""
    if logits.ndim != 2 or labels.shape != (len(logits),):
        raise CalibrationError(f"need an (N, m) logit matrix and N labels, got {logits.shape}, {labels.shape}")


def fit_thresholds(logits, labels, alpha: float = DEFAULT_ALPHA) -> ThresholdVector:
    """Fit one threshold per seen class from an (N, m) training logit matrix.

    For class i, collect sigmoid(d_i) over every row whose gold label is i
    (regardless of where the model ranks class i), fit sigma and set
    t_i = max(0.5, 1 - alpha * sigma_i). Probabilities that underflow to 0
    count as the smallest positive float.
    """
    check_alpha(alpha)
    logits, labels = np.asarray(logits), np.asarray(labels)
    check_logit_matrix(logits, labels)
    m = logits.shape[1]
    if ((labels < 0) | (labels >= m)).any():
        raise CalibrationError("calibration data must carry seen-class labels")
    probs = class_probabilities(logits)
    own = np.maximum(probs[np.arange(len(labels)), labels], np.finfo(np.float64).tiny)

    sigma = np.zeros(m)
    for i in range(m):
        mine = own[labels == i]
        if not mine.size:
            raise CalibrationError(f"class index {i} has no training examples")
        sigma[i] = fit_sigma(mine)
    t = np.maximum(0.5, 1.0 - alpha * sigma)
    return ThresholdVector(t=t, alpha=alpha, sigma=sigma)

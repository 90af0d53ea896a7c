"""Mini-batch gradient training of a prepared split (``ModelSpec.prepare``)
with validation-based early stopping.

The objective is the summed one-vs-rest log loss (or the softmax baseline
loss); each optimizer step divides by the batch size so the learning rate is
independent of batch size. The optimizer is the standard adaptive-moment
method (beta1=0.9, beta2=0.999, eps=1e-8: the ADAM_* module constants), and
it updates every parameter tensor, the embedding included.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field

import numpy as np

from .data import EncodedDocs, OpenSplit
from .encoder import EncoderConfig, ModelParams, batched_logits, forward, init_params
from .head import ovr_loss, softmax_loss
from .tensor import Tape, Tensor

HEAD_ONE_VS_REST = "one_vs_rest"
HEAD_SOFTMAX = "softmax"
_LOSS_FNS = {HEAD_ONE_VS_REST: ovr_loss, HEAD_SOFTMAX: softmax_loss}
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class TrainingDivergedError(RuntimeError):
    def __init__(self, epoch: int, batch: int) -> None:
        super().__init__(f"non-finite loss at epoch {epoch}, batch {batch}")
        self.epoch = epoch
        self.batch = batch


@dataclass(frozen=True)
class TrainConfig:
    """The training recipe, shared by every run; each field is the CLI flag of its name."""

    epochs: int = 20
    batch_size: int = 64
    lr: float = 1e-3
    patience: int = 3

    def __post_init__(self) -> None:
        if self.batch_size < 1 or self.patience < 1 or self.epochs < 1:
            raise ValueError("batch_size, patience and epochs must be >= 1")
        if not 0 <= self.lr < np.inf:  # also false for NaN
            raise ValueError(f"lr must be non-negative and finite, got {self.lr}")


@dataclass
class TrainReport:
    train_losses: list[float] = field(default_factory=list)  # per-epoch mean per example
    val_losses: list[float] = field(default_factory=list)
    best_epoch: int = 0
    stopped_early: bool = False

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)


class AdamState:
    """The tensors it updates, with their first/second moment buffers."""

    def __init__(self, tensors: list[Tensor]) -> None:
        self.tensors = tensors
        self.m = [np.zeros_like(t.data) for t in tensors]
        self.v = [np.zeros_like(t.data) for t in tensors]
        self.step_count = 0

    def apply(self, cfg: TrainConfig) -> None:
        self.step_count += 1
        t = self.step_count
        bias1 = 1.0 - ADAM_BETA1**t
        bias2 = 1.0 - ADAM_BETA2**t
        for tensor, m, v in zip(self.tensors, self.m, self.v):
            g = tensor.grad
            if g is None:
                continue
            m *= ADAM_BETA1
            m += (1.0 - ADAM_BETA1) * g
            v *= ADAM_BETA2
            v += (1.0 - ADAM_BETA2) * g * g
            tensor.data -= cfg.lr * (m / bias1) / (np.sqrt(v / bias2) + ADAM_EPS)


def training_step(params: ModelParams, batch: EncodedDocs, cfg: TrainConfig, opt: AdamState, head: str) -> float:
    """One forward/backward/update cycle; returns pre-update loss / batch size.

    The previous step's gradients are dropped first, so they are not held
    alongside the forward's temporaries."""
    if not batch:
        raise ValueError("empty batch")
    if (batch.labels < 0).any():
        raise ValueError("unseen-class document in a training batch")
    for p in params.all_tensors():
        p.zero_grad()
    tape = Tape()
    logits = forward(params, batch.ids, tape)
    loss = _LOSS_FNS[head](tape, logits, batch.labels)
    tape.backward(loss)
    opt.apply(cfg)
    return float(loss.data) / len(batch)


def evaluate_loss(params: ModelParams, docs: EncodedDocs, head: str) -> float:
    """Mean per-example loss in inference mode."""
    logits = Tensor(batched_logits(params, docs.ids))
    return float(_LOSS_FNS[head](Tape(record=False), logits, docs.labels).data) / len(docs)


def train(
    split: OpenSplit,
    enc_config: EncoderConfig,
    cfg: TrainConfig,
    initial_params: ModelParams | None = None,
    *,
    seed: int = 0,
    head: str = HEAD_ONE_VS_REST,
) -> tuple[ModelParams, TrainReport]:
    """Train ``head`` on the encoded split; returns the best-validation-epoch parameters.

    Deterministic given the seed: one full permutation per epoch drawn from a
    seed derived as (seed, epoch), fixed batch boundaries. Early-stops after
    ``patience`` epochs without validation improvement. When the validation
    split is empty the training loss drives model selection instead.
    """
    if head not in _LOSS_FNS:
        raise ValueError(f"unknown head {head!r}")
    train_docs = split.train
    if not train_docs:
        raise ValueError("empty training split")
    missing = set(range(enc_config.num_classes)) - set(train_docs.labels.tolist())
    if missing:
        raise ValueError(f"seen classes absent from training split: {sorted(missing)}")

    params = init_params(enc_config, seed) if initial_params is None else initial_params.copy()
    opt = AdamState(params.all_tensors())

    report = TrainReport()
    best: ModelParams | None = None

    for epoch in range(cfg.epochs):
        perm = np.random.default_rng((seed, epoch)).permutation(len(train_docs))
        epoch_total = 0.0
        for bi, start in enumerate(range(0, len(train_docs), cfg.batch_size)):
            rows = perm[start : start + cfg.batch_size]
            batch = EncodedDocs(train_docs.ids[rows], train_docs.labels[rows])
            loss = training_step(params, batch, cfg, opt, head)
            if not np.isfinite(loss):
                raise TrainingDivergedError(epoch, bi)
            epoch_total += loss * len(batch)
        report.train_losses.append(epoch_total / len(train_docs))

        if split.validation:
            val = evaluate_loss(params, split.validation, head)
        else:
            val = report.train_losses[-1]
        if not np.isfinite(val):
            raise TrainingDivergedError(epoch, -1)
        report.val_losses.append(val)

        report.best_epoch = int(np.argmin(report.val_losses))  # the first of equal minima
        if report.best_epoch == epoch:
            best = params.copy()
        elif epoch - report.best_epoch >= cfg.patience:
            report.stopped_early = True
            break

    return best, report

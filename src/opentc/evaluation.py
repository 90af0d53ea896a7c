"""Open-world evaluation: macro-F1 over m+1 classes (rejection counts as one
class) and the seen-fraction sweep with repeated random class choices.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .calibration import DEFAULT_ALPHA, ThresholdVector, check_alpha, check_logit_matrix, fit_thresholds, fixed_thresholds
from .data import Document, check_fraction, check_seed
from .encoder import ModelSpec, batched_logits
from .head import class_probabilities, open_predictions
from .parallel import worker
from .trainer import HEAD_SOFTMAX, TrainConfig, train

METHOD_DOC = "doc"
METHOD_DOC_T05 = "doc_t0.5"
METHOD_SOFTMAX = "softmax"


def confusion_matrix(gold, predicted, num_seen: int) -> np.ndarray:
    """(m+1) x (m+1) int64 counts of (gold, predicted) index pairs, each index
    in [0, m] with m = ``num_seen``; row = gold, column = predicted, index m =
    reject. All unseen gold classes collapse into the single rejection row."""
    n = num_seen + 1
    pairs = np.array([gold, predicted], dtype=np.int64)
    if ((pairs < 0) | (pairs >= n)).any():
        raise ValueError(f"class index out of range [0, {n})")
    return np.bincount(pairs[0] * n + pairs[1], minlength=n * n).reshape(n, n)


def _f1(tp: int, fp: int, fn: int) -> float:
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    return 2 * precision * recall / (precision + recall) if precision + recall else 0.0


def macro_f1(c: np.ndarray) -> float:
    """Unweighted mean of per-class F1 of a ``confusion_matrix``, rejection
    included as one class.

    0/0 is scored as 0. The rejection class is excluded from the mean only
    when it is structurally absent (never gold and never predicted), which is
    the closed-world 100%-seen setting.
    """
    n = c.shape[0]
    reject = n - 1
    classes = list(range(n))
    if c[reject, :].sum() == 0 and c[:, reject].sum() == 0:
        classes.remove(reject)
    scores = []
    for i in classes:
        tp = int(c[i, i])
        fp = int(c[:, i].sum() - tp)
        fn = int(c[i, :].sum() - tp)
        scores.append(_f1(tp, fp, fn))
    return float(np.mean(scores))


def _gold(logits: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Gold indices of an (N, m) logit matrix's N labels, every unseen class
    collapsed into the reject index m."""
    check_logit_matrix(logits, labels)
    return np.where(labels >= 0, labels, logits.shape[1])


def evaluate(logits, thresholds: ThresholdVector, labels) -> np.ndarray:
    """Open-world prediction for each row of an (N, m) logit matrix, tallied
    against its label into a ``confusion_matrix``."""
    logits, labels = np.asarray(logits), np.asarray(labels)
    gold, m = _gold(logits, labels), logits.shape[1]
    return confusion_matrix(gold, open_predictions(class_probabilities(logits), thresholds), m)


def evaluate_closed(logits, labels) -> np.ndarray:
    """Forced-accept baseline: each row's argmax class, ties to the lowest index; never rejects."""
    logits, labels = np.asarray(logits), np.asarray(labels)
    return confusion_matrix(_gold(logits, labels), logits.argmax(axis=1), logits.shape[1])


@dataclass(frozen=True)
class ExperimentSpec:
    """The sweep: per seen fraction, ``reps`` runs, each preparing its own split
    with ``model`` and training both heads under ``train_config`` with a seed
    derived from ``seed``. Each field gives ``experiment`` its flags."""

    fractions: tuple[float, ...] = (0.25, 0.5, 0.75, 1.0)
    reps: int = 10
    seed: int = 0
    alpha: float = DEFAULT_ALPHA
    model: ModelSpec = field(default_factory=ModelSpec)
    train_config: TrainConfig = field(default_factory=TrainConfig)

    def __post_init__(self) -> None:
        object.__setattr__(self, "fractions", tuple(self.fractions))
        if self.reps < 1:
            raise ValueError("reps must be >= 1")
        for f in self.fractions:
            check_fraction(f)
        if len(set(self.fractions)) != len(self.fractions):
            raise ValueError(f"seen fractions must be distinct, got {list(self.fractions)}")
        check_seed(self.seed)
        check_alpha(self.alpha)


@dataclass
class ExperimentResult:
    """Every run's macro-F1 per (method, fraction), and their means and stds."""

    fractions: list[float]
    methods: list[str]
    runs: dict  # (method, fraction) -> list of per-repetition macro-F1

    @property
    def summary(self) -> dict:
        """(method, fraction) -> (mean, std) of its runs."""
        return {key: (float(np.mean(vals)), float(np.std(vals))) for key, vals in self.runs.items()}

    def to_json(self) -> str:
        return json.dumps({
            "fractions": self.fractions,
            "methods": self.methods,
            "runs": {
                f"{meth}@{frac}": vals for (meth, frac), vals in sorted(self.runs.items())
            },
            "summary": {
                f"{meth}@{frac}": {"mean": mean, "std": std}
                for (meth, frac), (mean, std) in sorted(self.summary.items())
            },
        }, sort_keys=True)

    def to_text(self) -> str:
        """Aligned table: rows = methods, columns = seen fractions."""
        header = ["method"] + [f"{int(round(f * 100))}%" for f in self.fractions]
        rows, summary = [header], self.summary
        for meth in self.methods:
            row = [meth]
            for frac in self.fractions:
                mean, std = summary[(meth, frac)]
                row.append(f"{mean:.4f}±{std:.4f}")
            rows.append(row)
        widths = [max(len(r[i]) for r in rows) for i in range(len(header))]
        return "\n".join(
            "  ".join(cell.ljust(w) for cell, w in zip(row, widths)) for row in rows
        )


def _derive_seed(base_seed: int, *parts: int) -> int:
    return int(np.random.SeedSequence([base_seed, *parts]).generate_state(1)[0])


def run_single(spec: ExperimentSpec, docs: list[Document], fraction_index: int, rep: int) -> dict:
    """One repetition at ``spec.fractions[fraction_index]``: split, train both
    heads, calibrate, score all methods.

    Every method within a repetition shares the same class subset and data
    split, so the comparison is paired. Both heads train inside ``worker``, at
    one BLAS thread, so the scores are the same at any caller's thread count;
    the softmax head trains beside the DOC head, in a child where one forks.
    """
    split_seed = _derive_seed(spec.seed, fraction_index, rep, 0)
    train_seed = _derive_seed(spec.seed, fraction_index, rep, 1)

    enc_split, _, enc_cfg = spec.model.prepare(docs, spec.fractions[fraction_index], split_seed)
    train_docs, test_docs = enc_split.train, enc_split.test

    def test_logits(head: str) -> np.ndarray:
        params, _ = train(enc_split, enc_cfg, spec.train_config, seed=train_seed, head=head)
        return batched_logits(params, test_docs.ids)

    def doc_head() -> tuple[ThresholdVector, np.ndarray]:
        doc_params, _ = train(enc_split, enc_cfg, spec.train_config, seed=train_seed)
        # one forward per (model, split); both DOC methods score the same test logits
        thresholds = fit_thresholds(batched_logits(doc_params, train_docs.ids), train_docs.labels, spec.alpha)
        return thresholds, batched_logits(doc_params, test_docs.ids)

    with worker(test_logits) as alongside:
        (thresholds, doc_test), sm_test = alongside(HEAD_SOFTMAX, doc_head)
    return {
        METHOD_DOC: macro_f1(evaluate(doc_test, thresholds, test_docs.labels)),
        METHOD_DOC_T05: macro_f1(evaluate(doc_test, fixed_thresholds(enc_cfg.num_classes), test_docs.labels)),
        METHOD_SOFTMAX: macro_f1(evaluate_closed(sm_test, test_docs.labels)),
    }


def run_experiment(spec: ExperimentSpec, docs: list[Document]) -> ExperimentResult:
    methods = [METHOD_DOC, METHOD_DOC_T05, METHOD_SOFTMAX]
    runs = {(meth, frac): [] for meth in methods for frac in spec.fractions}
    for fi, frac in enumerate(spec.fractions):
        for rep in range(spec.reps):
            scores = run_single(spec, docs, fi, rep)
            for meth in methods:
                runs[(meth, frac)].append(scores[meth])
    return ExperimentResult(fractions=list(spec.fractions), methods=methods, runs=runs)

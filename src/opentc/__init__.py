"""Open-world text classification with a rejection option.

A CNN document encoder feeds a one-vs-rest sigmoid output layer; documents
whose every class probability falls below its per-class threshold are
rejected as belonging to no training class. Thresholds are fitted from
training probabilities by mirrored Gaussian estimation.
"""

from .calibration import ThresholdVector, fit_sigma, fit_thresholds, fixed_thresholds
from .data import (
    Document,
    EncodedDocs,
    OpenSplit,
    Vocabulary,
    build_vocab_from_split,
    encode,
    encode_open_split,
    load_jsonl,
    make_open_split,
    save_jsonl,
    tokenize,
)
from .encoder import EncoderConfig, ModelParams, ModelSpec, batched_logits, forward, init_params
from .evaluation import (
    ConfusionMatrix,
    ExperimentSpec,
    evaluate,
    evaluate_closed,
    macro_f1,
    run_experiment,
)
from .head import OpenPrediction, class_probabilities, open_predictions, predict_open
from .model_io import TrainedModel, load_model, save_model
from .synthetic import generate_synthetic_dataset
from .tensor import Tape, Tensor, grad_check
from .trainer import TrainConfig, TrainReport, train

__all__ = [
    "ConfusionMatrix",
    "Document",
    "EncodedDocs",
    "EncoderConfig",
    "ExperimentSpec",
    "ModelParams",
    "ModelSpec",
    "OpenPrediction",
    "OpenSplit",
    "Tape",
    "Tensor",
    "ThresholdVector",
    "TrainConfig",
    "TrainReport",
    "TrainedModel",
    "Vocabulary",
    "batched_logits",
    "build_vocab_from_split",
    "class_probabilities",
    "encode",
    "encode_open_split",
    "evaluate",
    "evaluate_closed",
    "fit_sigma",
    "fit_thresholds",
    "fixed_thresholds",
    "forward",
    "generate_synthetic_dataset",
    "grad_check",
    "init_params",
    "load_jsonl",
    "load_model",
    "macro_f1",
    "make_open_split",
    "open_predictions",
    "predict_open",
    "run_experiment",
    "save_jsonl",
    "save_model",
    "tokenize",
    "train",
]

"""Versioned binary model container.

Layout: magic "DOCM", u32 version, then length-prefixed sections (u64 little
endian byte counts): header JSON (encoder config, head kind, class names,
optional threshold block), vocabulary JSON (tokens in id order), and one raw
float64 little-endian block per parameter tensor in ``ModelParams.all_tensors``
order. Round trips are byte-identical, and a save replaces the file atomically.

A version-1 file loads if its head is ``"one_vs_rest"`` (the only head a
save writes) and its config, if it still carries ``relu_after_conv``, has it
true; any other file describes a model this code no longer has and is
refused. Any missing or mistyped header field, any non-finite parameter,
threshold or sigma, a threshold outside [0, 1], a negative sigma or alpha, a
vocabulary with more ids than embedding rows, a repeated vocabulary token and
a section length that runs past the end of the file raise
``ModelFormatError``; a save refuses the same values before it writes
anything.
"""

from __future__ import annotations

import json
import os
import stat
import struct
from dataclasses import dataclass

import numpy as np

from .calibration import ThresholdVector
from .data import Vocabulary
from .encoder import EncoderConfig, ModelParams, param_shapes
from .tensor import Tensor
from .trainer import HEAD_ONE_VS_REST

MAGIC = b"DOCM"
VERSION = 1


class ModelFormatError(ValueError):
    pass


@dataclass
class TrainedModel:
    params: ModelParams
    vocab: Vocabulary
    class_names: list[str]  # order defines class indices
    thresholds: ThresholdVector | None = None

    @property
    def config(self) -> EncoderConfig:
        return self.params.config


def _write_section(fh, payload: bytes) -> None:
    fh.write(struct.pack("<Q", len(payload)))
    fh.write(payload)


def _read_section(fh) -> bytes:
    raw = fh.read(8)
    if len(raw) != 8:
        raise ModelFormatError("truncated model file")
    (size,) = struct.unpack("<Q", raw)
    info = os.fstat(fh.fileno())  # read() allocates ``size`` bytes before it reads any
    if stat.S_ISREG(info.st_mode) and size > info.st_size - fh.tell():
        raise ModelFormatError("truncated model file")
    payload = fh.read(size)
    if len(payload) != size:
        raise ModelFormatError("truncated model file")
    return payload


def _require_finite(values, what: str) -> np.ndarray:
    out = np.asarray(values, dtype=np.float64)
    if not np.isfinite(out).all():
        raise ModelFormatError(f"{what} must be finite")
    return out


def _check_thresholds(tv: ThresholdVector) -> None:
    """Refuse a non-finite value, a threshold outside [0, 1] and a negative sigma or alpha."""
    for name in ("t", "sigma", "alpha"):
        _require_finite(getattr(tv, name), f"thresholds {name}")
    if ((tv.t < 0) | (tv.t > 1)).any():
        raise ModelFormatError("thresholds t must lie in [0, 1]")
    if (tv.sigma < 0).any() or tv.alpha < 0:
        raise ModelFormatError("thresholds sigma and alpha must be non-negative")


def _check_vocab(vocab: Vocabulary, config: EncoderConfig) -> None:
    """Refuse a vocabulary with more ids than embedding rows, or with a repeated token."""
    if len(vocab) > config.vocab_size:
        raise ModelFormatError(f"{len(vocab)} vocabulary ids exceed {config.vocab_size} embedding rows")
    if len(set(vocab.tokens)) != len(vocab.tokens):
        raise ModelFormatError("vocabulary repeats a token")


def save_model(path, model: TrainedModel) -> None:
    """Write ``model`` atomically, after the value, vocabulary and threshold checks of ``load_model``."""
    for t in model.params.all_tensors():
        _require_finite(t.data, "parameter blocks")
    _check_vocab(model.vocab, model.config)
    if model.thresholds is not None:
        _check_thresholds(model.thresholds)
    header = {
        "config": model.config.to_dict(),
        "head": HEAD_ONE_VS_REST,
        "class_names": list(model.class_names),
        "thresholds": None
        if model.thresholds is None
        else {
            "alpha": model.thresholds.alpha,
            "sigma": model.thresholds.sigma.tolist(),
            "t": model.thresholds.t.tolist(),
        },
    }
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(MAGIC)
            fh.write(struct.pack("<I", VERSION))
            _write_section(fh, json.dumps(header, sort_keys=True).encode("utf-8"))
            _write_section(fh, json.dumps(model.vocab.tokens).encode("utf-8"))
            for t in model.params.all_tensors():
                _write_section(fh, np.ascontiguousarray(t.data, dtype="<f8").tobytes())
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):  # the write failed before the rename
            os.remove(tmp)


def _field(record, key: str, kind: type):
    value = record.get(key) if isinstance(record, dict) else None
    if not isinstance(value, kind):
        raise ModelFormatError(f"model header field {key!r} is missing or not a {kind.__name__}")
    return value


def _numbers(values, what: str, size: int) -> np.ndarray:
    if not isinstance(values, list) or len(values) != size:
        raise ModelFormatError(f"{what} must be a list of {size} numbers")
    if not all(type(v) in (int, float) for v in values):
        raise ModelFormatError(f"{what} must be numbers")
    try:
        return np.asarray(values, dtype=np.float64)
    except OverflowError as exc:  # an integer beyond float range
        raise ModelFormatError(f"{what} must be finite") from exc


def load_model(path) -> TrainedModel:
    with open(path, "rb") as fh:
        if fh.read(4) != MAGIC:
            raise ModelFormatError("not a model file (bad magic)")
        raw = fh.read(4)
        if len(raw) != 4:
            raise ModelFormatError("truncated model file")
        (version,) = struct.unpack("<I", raw)
        if version != VERSION:
            raise ModelFormatError(f"unsupported model file version {version}")
        try:
            header = json.loads(_read_section(fh).decode("utf-8"))
            tokens = json.loads(_read_section(fh).decode("utf-8"))
            cfg = EncoderConfig.from_dict(_field(header, "config", dict))
        except (KeyError, ValueError, TypeError) as exc:
            raise ModelFormatError(f"corrupt model header: {exc}") from exc

        tensors = []
        for shape in param_shapes(cfg):
            payload = _read_section(fh)
            expected = int(np.prod(shape)) * 8
            if len(payload) != expected:
                raise ModelFormatError(
                    f"parameter block of {len(payload)} bytes, expected {expected}"
                )
            data = np.frombuffer(payload, dtype="<f8").reshape(shape).copy()
            tensors.append(Tensor(_require_finite(data, "parameter blocks")))
        if fh.read(1):
            raise ModelFormatError("trailing bytes after model payload")

    if _field(header, "head", str) != HEAD_ONE_VS_REST:
        raise ModelFormatError(f"only {HEAD_ONE_VS_REST!r} models are supported")
    class_names = _field(header, "class_names", list)
    if not all(isinstance(c, str) for c in class_names):
        raise ModelFormatError("class names must be strings")
    if len(class_names) != cfg.num_classes:
        raise ModelFormatError("class name list does not match num_classes")
    if not isinstance(tokens, list) or not all(isinstance(t, str) for t in tokens):
        raise ModelFormatError("vocabulary must be a list of strings")
    vocab = Vocabulary(tokens)
    _check_vocab(vocab, cfg)

    if "thresholds" not in header:
        raise ModelFormatError("model header field 'thresholds' is missing")
    thresholds = None
    if header["thresholds"] is not None:
        tb = _field(header, "thresholds", dict)
        m = cfg.num_classes
        thresholds = ThresholdVector(
            t=_numbers(tb.get("t"), "thresholds t", m),
            alpha=float(_numbers([tb.get("alpha")], "thresholds alpha", 1)[0]),
            sigma=_numbers(tb.get("sigma"), "thresholds sigma", m),
        )
        _check_thresholds(thresholds)

    return TrainedModel(
        params=ModelParams.from_tensors(cfg, tensors),
        vocab=vocab,
        class_names=class_names,
        thresholds=thresholds,
    )

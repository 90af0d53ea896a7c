"""Versioned binary model container.

Layout: magic "DOCM", u32 version, then length-prefixed sections (u64 little
endian byte counts): header JSON (encoder config, head kind, class names,
optional threshold block), vocabulary JSON (tokens in id order), and one raw
float64 little-endian block per parameter tensor in ``ModelParams.all_tensors``
order. Round trips are byte-identical, and a save replaces the file atomically.

A version-1 file loads if its head is ``"one_vs_rest"`` (the only head a
save writes) and its config, if it still carries ``relu_after_conv``, has it
true; any other file describes a model this code no longer has and is
refused. Sections are read in bounded chunks from files and pipes alike, so
a length that runs past the end of the stream raises ``ModelFormatError``
before a buffer of that size exists, as does any missing or mistyped header
field. ``_check_model`` holds every rule about values: parameter shapes that
match the config and finite parameters, one string class name per class,
distinct string tokens that fit the embedding, and per class a finite
threshold in [0, 1] and sigma >= 0, with alpha >= 0. A load applies it to
what it parsed and a save before it writes, so a save refuses what a load
would.
"""

from __future__ import annotations

import json
import os
import struct
from dataclasses import asdict, dataclass, fields

import numpy as np

from .calibration import ThresholdVector
from .data import Vocabulary
from .encoder import EncoderConfig, ModelParams, param_shapes
from .tensor import Tensor
from .trainer import HEAD_ONE_VS_REST

MAGIC = b"DOCM"
VERSION = 1
READ_CHUNK = 1 << 20  # bytes per read() call while loading


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


def _read_exact(fh, n: int) -> bytes:
    """Read exactly ``n`` bytes, ``READ_CHUNK`` at most per call, so that a
    declared length never sizes a buffer before its bytes have arrived."""
    chunks = []
    while n > 0:
        chunk = fh.read(min(n, READ_CHUNK))
        if not chunk:
            raise ModelFormatError("truncated model file")
        chunks.append(chunk)
        n -= len(chunk)
    return b"".join(chunks)


def _read_section(fh) -> bytes:
    (size,) = struct.unpack("<Q", _read_exact(fh, 8))
    return _read_exact(fh, size)


def _require_finite(values, what: str) -> None:
    if not np.isfinite(np.asarray(values, dtype=np.float64)).all():
        raise ModelFormatError(f"{what} must be finite")


def _check_tokens(tokens) -> None:
    """The vocabulary rule, checked before ``Vocabulary`` hashes the tokens."""
    if not (isinstance(tokens, list) and all(isinstance(t, str) for t in tokens)):
        raise ModelFormatError("vocabulary must be a list of strings")
    if len(set(tokens)) != len(tokens):
        raise ModelFormatError("vocabulary tokens must be distinct")


def _check_model(model: TrainedModel) -> None:
    """Every rule about a model's values but the vocabulary's (``_check_tokens``),
    shared by ``save_model`` and ``load_model``."""
    cfg = model.config
    tensors = model.params.all_tensors()
    if [t.data.shape for t in tensors] != param_shapes(cfg):
        raise ModelFormatError("parameter shapes do not match the encoder config")
    for t in tensors:
        _require_finite(t.data, "parameter blocks")
    if len(model.class_names) != cfg.num_classes:
        raise ModelFormatError("class name list does not match num_classes")
    if not all(isinstance(c, str) for c in model.class_names):
        raise ModelFormatError("class names must be strings")
    if len(model.vocab) > cfg.vocab_size:
        raise ModelFormatError(f"{len(model.vocab)} vocabulary ids exceed {cfg.vocab_size} embedding rows")
    tv = model.thresholds
    if tv is None:
        return
    if tv.t.shape != (cfg.num_classes,) or tv.sigma.shape != (cfg.num_classes,):
        raise ModelFormatError(f"thresholds t and sigma must hold {cfg.num_classes} values each")
    for name in ("t", "sigma", "alpha"):
        _require_finite(getattr(tv, name), f"thresholds {name}")
    if ((tv.t < 0) | (tv.t > 1)).any():
        raise ModelFormatError("thresholds t must lie in [0, 1]")
    if (tv.sigma < 0).any() or tv.alpha < 0:
        raise ModelFormatError("thresholds sigma and alpha must be non-negative")


def save_model(path, model: TrainedModel) -> None:
    """Write ``model`` atomically, after the checks that ``load_model`` applies."""
    _check_tokens(model.vocab.tokens)
    _check_model(model)
    header = {
        "config": asdict(model.config),
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


def _config(record: dict) -> EncoderConfig:
    """The header's encoder config; every field must be present and integral.

    Older files also carry ``relu_after_conv``, which must be true: this
    encoder always applies ReLU after the convolution.
    """
    if record.get("relu_after_conv", True) is not True:
        raise ModelFormatError("models without ReLU after the convolution are not supported")
    values = {f.name: record[f.name] for f in fields(EncoderConfig)}
    dims = [v for k, v in values.items() if k != "filter_widths"]
    if not all(type(v) is int for v in dims + list(values["filter_widths"])):
        raise ModelFormatError("encoder dimensions must be integers")
    return EncoderConfig(**values)


def _numbers(values, what: str) -> np.ndarray:
    if not isinstance(values, list) or not all(type(v) in (int, float) for v in values):
        raise ModelFormatError(f"{what} must be a list of numbers")
    try:
        return np.asarray(values, dtype=np.float64)
    except OverflowError as exc:  # an integer beyond float range
        raise ModelFormatError(f"{what} must be finite") from exc


def load_model(path) -> TrainedModel:
    with open(path, "rb") as fh:
        if fh.read(4) != MAGIC:
            raise ModelFormatError("not a model file (bad magic)")
        (version,) = struct.unpack("<I", _read_exact(fh, 4))
        if version != VERSION:
            raise ModelFormatError(f"unsupported model file version {version}")
        try:
            header = json.loads(_read_section(fh).decode("utf-8"))
            tokens = json.loads(_read_section(fh).decode("utf-8"))
            cfg = _config(_field(header, "config", dict))
        except (KeyError, ValueError, TypeError) as exc:
            raise ModelFormatError(f"corrupt model header: {exc}") from exc
        except RecursionError as exc:  # nesting deeper than the parser's stack
            raise ModelFormatError("corrupt model header: JSON nested too deeply") from exc

        tensors = []
        for shape in param_shapes(cfg):
            payload = _read_section(fh)
            expected = int(np.prod(shape, dtype=object)) * 8  # in Python ints, which never wrap
            if len(payload) != expected:
                raise ModelFormatError(
                    f"parameter block of {len(payload)} bytes, expected {expected}"
                )
            tensors.append(Tensor(np.frombuffer(payload, dtype="<f8").reshape(shape).copy()))
        if fh.read(1):
            raise ModelFormatError("trailing bytes after model payload")

    if _field(header, "head", str) != HEAD_ONE_VS_REST:
        raise ModelFormatError(f"only {HEAD_ONE_VS_REST!r} models are supported")
    _check_tokens(tokens)
    if "thresholds" not in header:
        raise ModelFormatError("model header field 'thresholds' is missing")
    thresholds = None
    if header["thresholds"] is not None:
        tb = _field(header, "thresholds", dict)
        thresholds = ThresholdVector(
            t=_numbers(tb.get("t"), "thresholds t"),
            alpha=float(_numbers([tb.get("alpha")], "thresholds alpha")[0]),
            sigma=_numbers(tb.get("sigma"), "thresholds sigma"),
        )
    model = TrainedModel(
        params=ModelParams.from_tensors(cfg, tensors),
        vocab=Vocabulary(tokens),
        class_names=_field(header, "class_names", list),
        thresholds=thresholds,
    )
    _check_model(model)
    return model

"""CNN document encoder: embedding -> multi-width convolution + max pooling
-> concatenation -> ReLU -> dense -> ReLU -> dense, producing one logit per
seen class. ``ModelSpec`` is its shape, ``ModelSpec.prepare`` readies a
corpus for it, and ``EncoderConfig`` is the shape of a built encoder.

Each width's convolution and max-over-time pooling run as one fused op, and
the ReLU follows the pooling: ``relu(max(c)) == max(relu(c))`` exactly, so
this is the same function as a ReLU on every convolution output. A forward
embeds each distinct id of its batch once and the fused op convolves each
distinct token once, up to the start of each document's PAD tail (or final
run of any one id), so the convolution's work follows the distinct ids in a
batch, not its documents times their length.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import IO, Iterable

import numpy as np

from . import data
from .tensor import PAD_ID, Tape, Tensor, concat, conv_max_pool, dense, embed_lookup, relu

# Documents per inference forward: batched_logits and each predict chunk.
# Each forward builds one (w, U, F) response table over its chunk's distinct
# tokens, so a larger chunk shares that GEMM and the per-forward overhead
# among more documents, but its table grows with U and so does predict's
# peak memory: at the paper shapes 64 documents add about 0.5 MiB (1.2%) to
# predict's peak RSS over 32, and 128 another 0.95 MiB (2.2%).
INFERENCE_CHUNK = 64


class EmbeddingFormatError(ValueError):
    """Malformed pretrained word-vector stream."""


@dataclass(frozen=True)
class ModelSpec:
    """The encoder's shape, chosen before the data is seen, with the paper's defaults."""

    vocab_size: int = 5000  # cap on the vocabulary, PAD and UNK included
    doc_len: int = 200
    embed_dim: int = 50
    filter_widths: tuple[int, ...] = (3, 4, 5)
    filters_per_width: int = 150
    hidden_dim: int = 250

    def __post_init__(self) -> None:
        object.__setattr__(self, "filter_widths", tuple(self.filter_widths))
        if self.vocab_size < 1 or self.embed_dim < 1 or self.hidden_dim < 1:
            raise ValueError("all dimensions must be >= 1")
        if self.filters_per_width < 1 or not self.filter_widths:
            raise ValueError("need at least one filter")
        if tuple(sorted(self.filter_widths)) != self.filter_widths:
            raise ValueError("filter_widths must be ascending")
        if self.filter_widths[0] < 1:
            raise ValueError("filter widths must be >= 1")
        if self.doc_len < max(self.filter_widths):
            raise ValueError("doc_len shorter than the widest filter")

    def prepare(
        self, docs: list[data.Document], seen_fraction: float, seed: int
    ) -> tuple[data.OpenSplit, data.Vocabulary, EncoderConfig]:
        """The one recipe from corpus to trainable split: split ``docs``, build
        the vocabulary from the training split alone and encode every split.
        The returned config has one embedding row per vocabulary id and one
        output per seen class."""
        raw = data.make_open_split(docs, seen_fraction, seed)
        vocab = data.build_vocab_from_split(raw, self.vocab_size)
        shape = {**asdict(self), "vocab_size": len(vocab)}
        config = EncoderConfig(num_classes=len(raw.seen_classes), **shape)
        return data.encode_open_split(raw, vocab, self.doc_len), vocab, config


@dataclass(frozen=True, kw_only=True)
class EncoderConfig(ModelSpec):
    """The shape of a built encoder, filled in by ``ModelSpec.prepare`` or
    ``load_model``: ``vocab_size`` counts its embedding rows."""

    num_classes: int

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.num_classes < 2:
            raise ValueError("need at least 2 classes")

    @property
    def pooled_dim(self) -> int:
        return self.filters_per_width * len(self.filter_widths)


def param_shapes(config: EncoderConfig) -> list[tuple[int, ...]]:
    """Shape of every parameter tensor, in ``ModelParams.all_tensors()`` order."""
    f, e = config.filters_per_width, config.embed_dim
    conv = [shape for w in config.filter_widths for shape in ((f, w, e), (f,))]
    r, m = config.hidden_dim, config.num_classes
    return [(config.vocab_size, e), *conv, (r, config.pooled_dim), (r,), (m, r), (m,)]


@dataclass
class ModelParams:
    config: EncoderConfig
    embedding: Tensor
    conv_filters: list[Tensor]  # ascending width order
    conv_biases: list[Tensor]
    w_hidden: Tensor
    b_hidden: Tensor
    w_out: Tensor
    b_out: Tensor

    def all_tensors(self) -> list[Tensor]:
        """Every tensor in the one fixed order: embedding, (filter, bias) per
        width, hidden weight and bias, output weight and bias."""
        conv = [t for pair in zip(self.conv_filters, self.conv_biases) for t in pair]
        return [self.embedding, *conv, self.w_hidden, self.b_hidden, self.w_out, self.b_out]

    @classmethod
    def from_tensors(cls, config: EncoderConfig, tensors: list[Tensor]) -> "ModelParams":
        """Inverse of ``all_tensors``."""
        embedding, *conv, w_hidden, b_hidden, w_out, b_out = tensors
        return cls(config, embedding, conv[0::2], conv[1::2], w_hidden, b_hidden, w_out, b_out)

    def copy(self) -> "ModelParams":
        return ModelParams.from_tensors(self.config, [t.copy() for t in self.all_tensors()])


def init_params(config: EncoderConfig, seed: int) -> ModelParams:
    """Deterministic initialization.

    Weights are uniform in [-s, s] with s = sqrt(6/(fan_in+fan_out)), where
    fan_out is a weight's first dimension and fan_in the product of the rest;
    biases start at zero. Embedding rows are uniform in [-0.25, 0.25] with the
    PAD row pinned to zero. Draws follow the ``all_tensors`` order.
    """
    rng = np.random.default_rng(seed)
    emb_shape, *shapes = param_shapes(config)
    emb = rng.uniform(-0.25, 0.25, size=emb_shape)
    emb[PAD_ID] = 0.0
    tensors = [Tensor(emb)]
    for shape in shapes:
        if len(shape) == 1:
            tensors.append(Tensor(np.zeros(shape)))
        else:
            s = np.sqrt(6.0 / (math.prod(shape[1:]) + shape[0]))
            tensors.append(Tensor(rng.uniform(-s, s, size=shape)))
    return ModelParams.from_tensors(config, tensors)


def forward(params: ModelParams, doc, tape: Tape | None = None) -> Tensor:
    """Logits for one document (shape (L,)) or a batch (shape (B, L)).

    Pure function of (params, doc); a fresh non-recording tape is used when
    none is supplied.

    The embedding is looked up once per distinct id of the batch (found by
    counting, not sorting), and each width convolves those rows through an
    index per position, so the cost follows the batch's distinct ids, not
    N*T. ``conv_max_pool`` stops each document at the start of its final run
    of one id, such as its PAD tail; on a non-recording tape, the default, it
    pools by max alone, bit-equal to a recording tape's logits.
    """
    ids = np.asarray(doc, dtype=np.int64)
    if ids.shape[-1] != params.config.doc_len:
        raise ValueError(f"document length {ids.shape[-1]} != configured {params.config.doc_len}")
    if tape is None:
        tape = Tape(record=False)

    present = np.bincount(ids.ravel(), minlength=len(params.embedding.data)) > 0  # refuses a negative id
    uniq = np.flatnonzero(present)  # ascending, as np.unique
    inv = (np.cumsum(present) - 1)[ids]  # each position's index into uniq
    rows = embed_lookup(tape, uniq, params.embedding)
    pooled = [
        conv_max_pool(tape, inv, rows, filt, bias)
        for filt, bias in zip(params.conv_filters, params.conv_biases)
    ]
    h = relu(tape, concat(tape, pooled))
    hidden = relu(tape, dense(tape, h, params.w_hidden, params.b_hidden))
    return dense(tape, hidden, params.w_out, params.b_out)


def batched_logits(params: ModelParams, ids: np.ndarray) -> np.ndarray:
    """(N, m) logits of an (N, L) id matrix, forwarded INFERENCE_CHUNK rows at a time."""
    out = np.empty((len(ids), params.config.num_classes))
    for start in range(0, len(ids), INFERENCE_CHUNK):
        rows = slice(start, start + INFERENCE_CHUNK)
        out[rows] = forward(params, ids[rows]).data
    return out


def load_pretrained_embeddings(params: ModelParams, source: Iterable[str] | IO[str], vocab) -> int:
    """Overwrite embedding rows from a word-vector text stream.

    Each line is ``token v1 ... ve`` with e finite numbers, whether or not
    its token is in ``vocab``. Rows for tokens present in ``vocab`` are
    replaced; the PAD row stays zero. Returns the number of rows replaced.
    """
    e = params.config.embed_dim
    replaced = 0
    for lineno, line in enumerate(data.decoded_lines(source, EmbeddingFormatError), start=1):
        line = line.strip()
        if not line:
            continue
        token, *values = line.split()
        if len(values) != e:
            raise EmbeddingFormatError(
                f"line {lineno}: expected token plus {e} values, got {len(values)}"
            )
        try:
            vec = np.array([float(v) for v in values], dtype=np.float64)
        except ValueError as exc:
            raise EmbeddingFormatError(f"line {lineno}: non-numeric value") from exc
        if not np.isfinite(vec).all():
            raise EmbeddingFormatError(f"line {lineno}: non-finite value")
        token_id = vocab.id_for(token)
        if token_id is None or token_id == PAD_ID:
            continue
        params.embedding.data[token_id] = vec
        replaced += 1
    return replaced

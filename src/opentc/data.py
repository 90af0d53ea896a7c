"""Tokenization, vocabulary building, document encoding and the open-world
split protocol: per-class 60/10/30 train/validation/test split with a held-out
subset of classes whose examples appear only in the test split.
"""

from __future__ import annotations

import json
import re
import string
from collections import Counter
from collections.abc import Iterable
from dataclasses import dataclass, replace
from itertools import repeat

import numpy as np

from .tensor import PAD_ID

UNK_ID = 1
UNSEEN = -1  # label of documents of held-out classes

_TOKEN_RE = re.compile(r"[a-z0-9]+")
# bytes -> a-z and 0-9 kept, every other byte a space: the whitespace-split
# of a translated lowercase text is its _TOKEN_RE tokens
_ALNUM = (string.ascii_lowercase + string.digits).encode()
_ASCII_TABLE = bytes(c if c in _ALNUM else ord(" ") for c in range(256))


class DatasetFormatError(ValueError):
    """Malformed dataset file."""


@dataclass(frozen=True)
class Document:
    label: str
    text: str


def tokenize(text: str) -> list[str]:
    """Lowercase and split on runs of characters outside a-z and 0-9.

    Lowercasing comes first, since it may map a non-ASCII character to ASCII
    (the Kelvin sign to k); every code point still outside ASCII becomes '?'
    and, like every other non-alphanumeric byte, a space.
    """
    return text.lower().encode("ascii", "replace").translate(_ASCII_TABLE).decode().split()


class Vocabulary:
    """token -> id map with PAD=0 and UNK=1 reserved.

    Real tokens get contiguous ids starting at 2, ordered by descending
    training frequency with lexicographic tie-break.
    """

    def __init__(self, tokens_in_order: list[str]) -> None:
        self._tokens = list(tokens_in_order)
        self._ids = {tok: i + 2 for i, tok in enumerate(self._tokens)}

    @classmethod
    def build(cls, token_docs: Iterable[Iterable[str]], max_size: int) -> "Vocabulary":
        """The ``max_size - 2`` most frequent tokens of ``token_docs``, any
        iterable of token sequences: a generator is read once, one document
        at a time, so only the counts outlive each document."""
        if max_size < 3:
            raise ValueError("max_size must be >= 3")
        counts = Counter()
        for doc in token_docs:
            counts.update(doc)
        ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
        return cls([tok for tok, _ in ranked[: max_size - 2]])

    def __len__(self) -> int:
        return len(self._tokens) + 2

    def id_for(self, token: str) -> int | None:
        """Id of a known token, or None if out of vocabulary."""
        return self._ids.get(token)

    @property
    def tokens(self) -> list[str]:
        """Real tokens in id order (id 2 first)."""
        return list(self._tokens)


@dataclass(frozen=True)
class EncodedDocs:
    """Encoded documents: row i of ``ids`` and entry i of ``labels`` are one document."""

    ids: np.ndarray  # (N, doc_len) int64
    labels: np.ndarray  # (N,) int64, a seen-class index in [0, m) or UNSEEN

    def __len__(self) -> int:
        return len(self.labels)


def encode(tokens: list[str], vocab: Vocabulary, doc_len: int) -> np.ndarray:
    """Map to ids (UNK for out-of-vocab), truncate to ``doc_len`` or post-pad."""
    if doc_len < 1:
        raise ValueError("doc_len must be >= 1")
    head = tokens[:doc_len]
    ids = np.full(doc_len, PAD_ID, dtype=np.int64)
    ids[: len(head)] = np.fromiter(map(vocab._ids.get, head, repeat(UNK_ID)), dtype=np.int64, count=len(head))
    return ids


def encode_documents(
    docs: list[Document], vocab: Vocabulary, doc_len: int, seen_classes: list[str]
) -> EncodedDocs:
    """Encode labelled documents into one (N, doc_len) matrix, row by row; a
    label's position in ``seen_classes`` is its label index, and a label
    missing from it gets UNSEEN."""
    ids = np.empty((len(docs), doc_len), dtype=np.int64)
    for row, d in zip(ids, docs):
        row[:] = encode(tokenize(d.text), vocab, doc_len)
    labels = (seen_classes.index(d.label) if d.label in seen_classes else UNSEEN for d in docs)
    return EncodedDocs(ids=ids, labels=np.fromiter(labels, dtype=np.int64, count=len(docs)))


@dataclass
class OpenSplit:
    """Train/validation/test collections plus the seen-class list.

    The collections are ``Document`` lists right after splitting and
    ``EncodedDocs`` after ``encode_open_split``.
    """

    train: list[Document] | EncodedDocs
    validation: list[Document] | EncodedDocs
    test: list[Document] | EncodedDocs
    seen_classes: list[str]
    unseen_classes: list[str]


def check_seed(seed: int) -> None:
    """Refuse a seed that numpy's generators would reject, naming it."""
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")


def check_fraction(fraction: float) -> None:
    """Refuse a seen fraction outside (0, 1], NaN included, naming it."""
    if not 0 < fraction <= 1:
        raise ValueError(f"seen fraction must lie in (0, 1], got {fraction}")


def make_open_split(docs: list[Document], seen_fraction: float, rep_seed) -> OpenSplit:
    """Choose seen classes and split each class 60/10/30, deterministically.

    Unseen-class documents are dropped from train and validation; the test
    split keeps the 30% test portion of every class. Rounding: floor for
    validation and test counts, remainder to train.
    """
    check_fraction(seen_fraction)
    classes = sorted({d.label for d in docs})
    if len(classes) < 2:
        raise ValueError("dataset must contain at least 2 classes")
    rng = np.random.default_rng(rep_seed)
    n_seen = max(2, int(np.floor(seen_fraction * len(classes) + 0.5)))
    n_seen = min(n_seen, len(classes))
    seen = sorted(rng.choice(classes, size=n_seen, replace=False).tolist())
    unseen = [c for c in classes if c not in seen]

    by_class: dict[str, list[Document]] = {c: [] for c in classes}
    for d in docs:
        by_class[d.label].append(d)

    train, validation, test = [], [], []
    for c in classes:
        order = [by_class[c][j] for j in rng.permutation(len(by_class[c]))]
        n = len(order)
        n_val = int(np.floor(0.1 * n))
        n_test = int(np.floor(0.3 * n))
        test.extend(order[n_val : n_val + n_test])
        if c in seen:
            validation.extend(order[:n_val])
            train.extend(order[n_val + n_test :])

    return OpenSplit(train, validation, test, seen_classes=seen, unseen_classes=unseen)


def encode_open_split(split: OpenSplit, vocab: Vocabulary, doc_len: int) -> OpenSplit:
    """Encode every document of a raw split; vocabulary is left untouched."""

    def enc(docs: list[Document]) -> EncodedDocs:
        return encode_documents(docs, vocab, doc_len, split.seen_classes)

    return replace(
        split, train=enc(split.train), validation=enc(split.validation), test=enc(split.test)
    )


def build_vocab_from_split(split: OpenSplit, max_size: int) -> Vocabulary:
    """Vocabulary from the training split only (no test leakage), tokenized
    one document at a time."""
    return Vocabulary.build((tokenize(d.text) for d in split.train), max_size)


def decoded_lines(stream, error: type[ValueError]):
    """The lines of a stream opened as UTF-8 text; bytes that do not decode raise ``error``."""
    try:
        yield from stream
    except UnicodeDecodeError as exc:
        raise error(f"not UTF-8 text: {exc.reason}") from exc


def load_jsonl(path) -> list[Document]:
    """Read a dataset file: one JSON object per line with keys label and text."""
    docs = []
    with open(path, "r", encoding="utf-8", newline="\n") as fh:  # a lone CR is JSON whitespace
        for lineno, line in enumerate(decoded_lines(fh, DatasetFormatError), start=1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except ValueError as exc:  # a JSONDecodeError, or an integer too long to convert
                raise DatasetFormatError(f"line {lineno}: invalid JSON") from exc
            except RecursionError as exc:  # nesting deeper than the parser's stack
                raise DatasetFormatError(f"line {lineno}: JSON nested too deeply") from exc
            if not isinstance(rec, dict) or set(rec) != {"label", "text"}:
                raise DatasetFormatError(
                    f"line {lineno}: expected exactly the keys 'label' and 'text'"
                )
            if not (isinstance(rec["label"], str) and isinstance(rec["text"], str)):
                raise DatasetFormatError(f"line {lineno}: 'label' and 'text' must be strings")
            docs.append(Document(label=rec["label"], text=rec["text"]))
    return docs


def save_jsonl(path, docs: list[Document]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for d in docs:
            fh.write(json.dumps({"label": d.label, "text": d.text}) + "\n")

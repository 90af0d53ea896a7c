"""Property tests of every reader of outside input: jsonl datasets, word-vector
files and model headers. Any input gives a result or the reader's own format
error, and through the CLI any of them exits 0 or 2, never 1 (a traceback)."""

import contextlib
import io
import json
import re
import struct
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from opentc.calibration import ThresholdVector
from opentc.cli import main
from opentc.data import DatasetFormatError, Vocabulary, load_jsonl, save_jsonl
from opentc.encoder import EmbeddingFormatError, EncoderConfig, init_params, load_pretrained_embeddings
from opentc.model_io import ModelFormatError, TrainedModel, load_model, save_model
from opentc.synthetic import generate_synthetic_dataset
from opentc.tensor import PAD_ID

TOY_FLAGS = [
    "--embed-dim", "2", "--doc-len", "6", "--vocab-size", "20", "--filter-widths", "2,3",
    "--filters-per-width", "2", "--hidden-dim", "3", "--epochs", "1", "--batch-size", "16",
]  # fmt: skip

# JSON values of any type and depth; floats include NaN and the infinities
JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.sampled_from([2**63, -(2**64), 10**400]) | st.floats() | st.text(),
    lambda kids: st.lists(kids, max_size=4) | st.dictionaries(st.text(max_size=6), kids, max_size=4),
    max_leaves=12,
)


def _dumps(value) -> bytes:
    return json.dumps(value).encode("utf-8")


# Byte strings that JSON and UTF-8 decoding treat specially: an integer past
# the parser's digit limit, deep nesting, invalid UTF-8, an encoded lone
# surrogate, a JSON-escaped one, and separators other than "\n"
RAW_JSON = [b"1" * 5000, b"[" * 5000, b'"\\ud800"', b"\xff", b"\xed\xa0\x80", b"\r", b"\x00", b"\xc2\x85", b"NaN"]

JSONL_LINE = st.one_of(
    st.binary(max_size=16),
    st.sampled_from(RAW_JSON + [b'{"label": "a", "text": ' + b"1" * 5000 + b"}"]),
    JSON.map(_dumps),
    st.fixed_dictionaries({"label": JSON, "text": JSON}).map(_dumps),
    st.fixed_dictionaries({"label": st.sampled_from("ab"), "text": st.text(max_size=20)}).map(_dumps),
)
JSONL = st.lists(JSONL_LINE, max_size=8).map(b"\n".join)

# Pieces of a word-vector file with embed_dim 2; "tok" is in VOCAB, and
# "cls0kw00" in the vocabulary of a synthetic corpus
VECTOR_PIECE = st.one_of(
    st.binary(max_size=6),
    st.sampled_from([
        b"tok 0.5 -1\n", b"cls0kw00 0.5 -1\n", b"tok", b"other", b"0.5", b"-1e3", b"1e999", b"nan", b"-inf", b"1_0", b"\xd9\xa1",
        b" ", b"\t", b"\n", b"\r", b"\x1c", b"\xc2\x85", b"\xc2\xa0", b"\xff", b"\x00", b"\xed\xa0\x80",
    ]),
)  # fmt: skip
VECTORS = st.lists(VECTOR_PIECE, max_size=24).map(b"".join)

CFG = EncoderConfig(
    vocab_size=12, embed_dim=2, num_classes=2, doc_len=6, filter_widths=(2, 3), filters_per_width=2, hidden_dim=3
)
VOCAB = Vocabulary(["tok"] + [f"w{i}" for i in range(9)])
HEADER_FIELDS = {  # a header field, and the keys of the value a save writes there
    "config": [*asdict(CFG), "relu_after_conv"],
    "class_names": [0, 1],
    "thresholds": ["t", "sigma", "alpha"],
    "head": [],
}


# values near the ones a save writes, so that more edited headers get past the type checks
NEAR_VALID = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-2, 300),
    st.text(max_size=4),
    st.lists(st.integers(-2, 12), max_size=4),
    st.lists(st.floats(-1, 2) | st.integers(-1, 2), min_size=1, max_size=3),
)


@st.composite
def header_edits(draw):
    """A header field, a key of its saved value or None for the whole field, and a JSON value."""
    field = draw(st.sampled_from(sorted(HEADER_FIELDS)), label="field")
    key = draw(st.sampled_from([None, *HEADER_FIELDS[field]]), label="key")
    return field, key, draw(JSON | NEAR_VALID, label="value")


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("readers")


@pytest.fixture(scope="module")
def saved_model(scratch):
    """A small calibrated model's bytes: its header JSON, and the bytes before and after it."""
    tv = ThresholdVector(t=np.array([0.5, 0.8]), alpha=3.0, sigma=np.array([0.2, 0.05]))
    path = scratch / "saved.docm"
    save_model(path, TrainedModel(init_params(CFG, 0), VOCAB, ["alpha", "beta"], tv))
    raw = path.read_bytes()
    (size,) = struct.unpack("<Q", raw[8:16])
    return json.loads(raw[16 : 16 + size]), raw[:8], raw[16 + size :]


def _with_header_edit(saved_model, edit) -> bytes:
    header, head, rest = saved_model
    field, key, value = edit
    header = json.loads(json.dumps(header))  # a fresh copy
    if key is None:
        header[field] = value
    else:
        header[field][key] = value
    payload = _dumps(header)
    return head + struct.pack("<Q", len(payload)) + payload + rest


def _refusal(exc: Exception) -> str:
    """A reader's refusal as a hypothesis event, its numbers and bytes left out."""
    return "refused: " + re.sub(r"\d+|'.*?'", "_", str(exc))[:50]


@settings(max_examples=400)
@given(raw=JSONL)
def test_any_bytes_as_jsonl_give_documents_or_a_format_error(scratch, raw):
    path = scratch / "data.jsonl"
    path.write_bytes(raw)
    try:
        docs = load_jsonl(path)
    except DatasetFormatError as exc:
        event(_refusal(exc))
        return
    event(f"{min(len(docs), 2)}+ documents")
    assert all(isinstance(d.label, str) and isinstance(d.text, str) for d in docs)


@settings(max_examples=400)
@given(raw=VECTORS)
def test_any_bytes_as_word_vectors_give_a_count_or_a_format_error(scratch, raw):
    path = scratch / "vectors.txt"
    path.write_bytes(raw)
    params = init_params(CFG, 0)
    try:
        with open(path, "r", encoding="utf-8") as fh:  # as train --pretrained opens it
            replaced = load_pretrained_embeddings(params, fh, VOCAB)
    except EmbeddingFormatError as exc:
        event(_refusal(exc))
        return
    event(f"{min(replaced, 2)}+ rows replaced")
    assert replaced >= 0
    assert np.isfinite(params.embedding.data).all() and not params.embedding.data[PAD_ID].any()


@settings(max_examples=400)
@given(edit=header_edits())
def test_any_json_in_a_header_field_gives_a_model_or_a_format_error(scratch, saved_model, edit):
    path = scratch / "edited.docm"
    path.write_bytes(_with_header_edit(saved_model, edit))
    try:
        model = load_model(path)
    except ModelFormatError as exc:
        event(_refusal(exc))
        return
    event(f"loads after an edit of {edit[:2]}")
    assert model.config == CFG and len(model.class_names) == CFG.num_classes


def _exit_code(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return main(argv)
        except SystemExit as exc:  # argparse's usage errors
            return exc.code


@pytest.fixture(scope="module")
def toy_data(scratch):
    path = scratch / "toy.jsonl"
    save_jsonl(path, generate_synthetic_dataset(num_classes=2, docs_per_class=10, seed=1))
    return path


@settings(max_examples=100)
@given(raw=JSONL)
def test_train_on_any_jsonl_bytes_exits_0_or_2(scratch, raw):
    path = scratch / "cli.jsonl"
    path.write_bytes(raw)
    assert _exit_code(["train", "--data", str(path), "--out", str(scratch / "cli.docm"), *TOY_FLAGS]) in (0, 2)


@settings(max_examples=100)
@given(raw=VECTORS)
def test_train_on_any_word_vector_bytes_exits_0_or_2(scratch, toy_data, raw):
    path = scratch / "cli-vectors.txt"
    path.write_bytes(raw)
    argv = ["train", "--data", str(toy_data), "--out", str(scratch / "cli.docm"), "--pretrained", str(path)]
    assert _exit_code([*argv, *TOY_FLAGS]) in (0, 2)


@settings(max_examples=200)
@given(edit=header_edits())
def test_inspect_on_any_json_in_a_header_field_exits_0_or_2(scratch, saved_model, edit):
    path = scratch / "cli-edited.docm"
    path.write_bytes(_with_header_edit(saved_model, edit))
    assert _exit_code(["inspect", "--model", str(path)]) in (0, 2)

import json
import os
import struct
import subprocess
import sys
from dataclasses import asdict, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opentc import model_io
from opentc.calibration import ThresholdVector
from opentc.cli import main
from opentc.data import Vocabulary
from opentc.encoder import EncoderConfig, init_params
from opentc.tensor import Tensor
from opentc.model_io import (
    MAGIC,
    ModelFormatError,
    TrainedModel,
    load_model,
    save_model,
)


CFG = EncoderConfig(
    vocab_size=12, embed_dim=3, num_classes=2, doc_len=6, filter_widths=(2, 3), filters_per_width=2, hidden_dim=4
)


def _model(seed=0, with_thresholds=True):
    params = init_params(CFG, seed)
    tv = (
        ThresholdVector(t=np.array([0.5, 0.8]), alpha=3.0, sigma=np.array([0.2, 0.05]))
        if with_thresholds
        else None
    )
    return TrainedModel(
        params=params,
        vocab=Vocabulary([f"tok{i}" for i in range(10)]),
        class_names=["alpha", "beta"],
        thresholds=tv,
    )


def test_round_trip_preserves_everything(tmp_path):
    path = tmp_path / "m.docm"
    model = _model()
    save_model(path, model)
    loaded = load_model(path)
    assert loaded.config == CFG
    assert loaded.class_names == model.class_names
    assert loaded.vocab.tokens == model.vocab.tokens
    np.testing.assert_array_equal(loaded.thresholds.t, model.thresholds.t)
    np.testing.assert_array_equal(loaded.thresholds.sigma, model.thresholds.sigma)
    assert loaded.thresholds.alpha == model.thresholds.alpha
    for a, b in zip(loaded.params.all_tensors(), model.params.all_tensors()):
        assert np.array_equal(a.data, b.data)


def test_sections_longer_than_a_read_chunk_round_trip(tmp_path, monkeypatch):
    monkeypatch.setattr(model_io, "READ_CHUNK", 7)
    path = tmp_path / "m.docm"
    model = _model()
    save_model(path, model)
    loaded = load_model(path)
    assert loaded.vocab.tokens == model.vocab.tokens
    for a, b in zip(loaded.params.all_tensors(), model.params.all_tensors()):
        assert np.array_equal(a.data, b.data)


def test_round_trip_without_thresholds(tmp_path):
    path = tmp_path / "m.docm"
    save_model(path, _model(with_thresholds=False))
    assert load_model(path).thresholds is None


def test_save_is_byte_deterministic(tmp_path):
    a, b = tmp_path / "a.docm", tmp_path / "b.docm"
    save_model(a, _model(seed=3))
    save_model(b, _model(seed=3))
    assert a.read_bytes() == b.read_bytes()


def test_file_starts_with_magic(tmp_path):
    path = tmp_path / "m.docm"
    save_model(path, _model())
    assert path.read_bytes()[:4] == MAGIC


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "m.docm"
    save_model(path, _model())
    raw = bytearray(path.read_bytes())
    raw[:4] = b"NOPE"
    path.write_bytes(bytes(raw))
    with pytest.raises(ModelFormatError):
        load_model(path)


def test_truncated_file_rejected(tmp_path):
    path = tmp_path / "m.docm"
    save_model(path, _model())
    raw = path.read_bytes()
    for cut in range(len(raw)):  # every truncation, the empty file included
        path.write_bytes(raw[:cut])
        with pytest.raises(ModelFormatError):
            load_model(path)


def test_trailing_garbage_rejected(tmp_path):
    path = tmp_path / "m.docm"
    save_model(path, _model())
    path.write_bytes(path.read_bytes() + b"junk")
    with pytest.raises(ModelFormatError):
        load_model(path)


def test_corrupted_payload_rejected(tmp_path):
    path = tmp_path / "m.docm"
    save_model(path, _model())
    raw = bytearray(path.read_bytes())
    raw[20] ^= 0xFF  # inside the header JSON
    path.write_bytes(bytes(raw))
    with pytest.raises(ModelFormatError):
        load_model(path)


def test_loaded_model_predicts_identically(tmp_path):
    from opentc.encoder import forward

    path = tmp_path / "m.docm"
    model = _model(seed=9)
    save_model(path, model)
    loaded = load_model(path)
    ids = np.random.default_rng(0).integers(0, CFG.vocab_size, size=CFG.doc_len)
    np.testing.assert_array_equal(
        forward(model.params, ids).data, forward(loaded.params, ids).data
    )


def _header(path):
    """Header JSON of a saved file, and the bytes that follow it."""
    raw = path.read_bytes()
    (size,) = struct.unpack("<Q", raw[8:16])
    return json.loads(raw[16 : 16 + size]), raw[16 + size :]


def _rewrite_header(path, edit):
    """Apply ``edit`` to the header JSON of a saved file, keeping the rest."""
    header, rest = _header(path)
    edit(header)
    payload = json.dumps(header, sort_keys=True).encode("utf-8")
    path.write_bytes(path.read_bytes()[:8] + struct.pack("<Q", len(payload)) + payload + rest)


def test_parameter_block_sizes_beyond_int64_are_refused(tmp_path, capsys):
    # 2^40 x 2^40 embedding rows of 8 bytes wrap to 0 in int64 arithmetic, so
    # an empty first parameter section must not pass for that block
    path = tmp_path / "m.docm"
    save_model(path, _model())
    _rewrite_header(path, lambda h: h["config"].update(vocab_size=2**40, embed_dim=2**40))
    _, rest = _header(path)
    (vocab_size,) = struct.unpack("<Q", rest[:8])
    raw = path.read_bytes()
    path.write_bytes(raw[: len(raw) - len(rest) + 8 + vocab_size] + struct.pack("<Q", 0))
    with pytest.raises(ModelFormatError, match="parameter block of 0 bytes"):
        load_model(path)
    assert main(["inspect", "--model", str(path)]) == 2
    assert "parameter block of 0 bytes" in capsys.readouterr().err


def test_config_round_trip(tmp_path):
    path = tmp_path / "m.docm"
    save_model(path, _model())
    config = _header(path)[0]["config"]
    assert config == json.loads(json.dumps(asdict(CFG)))
    assert model_io._config(config) == CFG


def test_older_header_with_relu_after_conv(tmp_path):
    path = tmp_path / "m.docm"
    save_model(path, _model())
    assert "relu_after_conv" not in _header(path)[0]["config"]
    _rewrite_header(path, lambda h: h["config"].update(relu_after_conv=True))
    assert load_model(path).config == CFG
    _rewrite_header(path, lambda h: h["config"].update(relu_after_conv=False))
    with pytest.raises(ModelFormatError):
        load_model(path)
    assert main(["inspect", "--model", str(path)]) == 2


def test_filter_width_below_1_rejected(tmp_path):
    path = tmp_path / "m.docm"
    save_model(path, _model())
    _rewrite_header(path, lambda h: h["config"].update(filter_widths=[0, 3]))
    with pytest.raises(ModelFormatError, match="filter widths must be >= 1"):
        load_model(path)


def test_head_other_than_one_vs_rest_exits_2(tmp_path, capsys):
    path = tmp_path / "m.docm"
    save_model(path, _model())
    assert _header(path)[0]["head"] == "one_vs_rest"
    _rewrite_header(path, lambda h: h.update(head="softmax"))
    docs = tmp_path / "docs.txt"
    docs.write_text("tok1 tok2\n")
    assert main(["predict", "--model", str(path), "--input", str(docs), "--t", "0.5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "one_vs_rest" in captured.err


def test_header_doc_len_too_large_to_allocate_exits_2(tmp_path, capsys):
    # no parameter shape depends on doc_len, so the file loads; predict then
    # needs a 1e11-entry id row, which fails at once without allocating
    path = tmp_path / "m.docm"
    save_model(path, _model())
    _rewrite_header(path, lambda h: h["config"].update(doc_len=10**11))
    docs = tmp_path / "docs.txt"
    docs.write_text("tok1 tok2\n")
    assert main(["predict", "--model", str(path), "--input", str(docs), "--t", "0.5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "error: out of memory" in captured.err


@pytest.mark.parametrize("key", ["config", "head", "class_names", "thresholds"])
def test_missing_header_key_exits_2(tmp_path, key):
    path = tmp_path / "m.docm"
    save_model(path, _model())
    _rewrite_header(path, lambda h: h.pop(key))
    assert main(["inspect", "--model", str(path)]) == 2


@pytest.mark.parametrize(
    "edit",
    [
        lambda h: h.update(head=3),
        lambda h: h.update(class_names="ab"),
        lambda h: h.update(class_names=["alpha", 2]),
        lambda h: h.update(config=[1, 2]),
        lambda h: h["config"].update(vocab_size=12.0),
        lambda h: h["config"].update(filter_widths=[2, "3"]),
        lambda h: h["config"].pop("hidden_dim"),
        lambda h: h.update(thresholds=[0.5, 0.5]),
        lambda h: h["thresholds"].update(t=["0.5", "0.8"]),
        lambda h: h["thresholds"].pop("sigma"),
        lambda h: h["thresholds"].update(alpha=None),
    ],
)
def test_mistyped_header_field_rejected(tmp_path, edit):
    path = tmp_path / "m.docm"
    save_model(path, _model())
    _rewrite_header(path, edit)
    with pytest.raises(ModelFormatError):
        load_model(path)


@pytest.mark.parametrize("where", ["w_out", "t", "sigma"])
def test_non_finite_values_rejected(tmp_path, where):
    path = tmp_path / "m.docm"
    model = _model()
    save_model(path, model)
    if where == "w_out":  # its block comes right before b_out's, the last one
        raw = bytearray(path.read_bytes())
        start = len(raw) - model.params.b_out.data.nbytes - 8 - model.params.w_out.data.nbytes
        assert struct.unpack("<d", raw[start : start + 8])[0] == model.params.w_out.data[0, 0]
        raw[start : start + 8] = struct.pack("<d", np.nan)
        path.write_bytes(bytes(raw))
    else:
        _rewrite_header(path, lambda h: h["thresholds"][where].__setitem__(1, np.inf))
    with pytest.raises(ModelFormatError):
        load_model(path)


@pytest.mark.parametrize("where", ["w_out", "t", "sigma", "alpha"])
def test_save_refuses_non_finite_values(tmp_path, where):
    path = tmp_path / "m.docm"
    save_model(path, _model(seed=1))
    before = path.read_bytes()
    model = _model()
    if where == "w_out":
        model.params.w_out.data[0, 0] = np.nan
    else:
        bad = {"alpha": np.inf} if where == "alpha" else {where: np.array([0.5, np.inf])}
        model.thresholds = replace(model.thresholds, **bad)
    with pytest.raises(ModelFormatError):
        save_model(path, model)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["m.docm"]


UNLOADABLE = {
    "one-class-name": lambda m: replace(m, class_names=["alpha"]),
    "non-string-class-name": lambda m: replace(m, class_names=["alpha", 2]),
    "b_out-shape": lambda m: replace(m, params=replace(m.params, b_out=Tensor(np.zeros(3)))),
    "three-thresholds-for-two-classes": lambda m: replace(
        m, thresholds=ThresholdVector(t=[0.5, 0.6, 0.7], alpha=3.0, sigma=[0.1, 0.1, 0.1])
    ),
}


@pytest.mark.parametrize("edit", UNLOADABLE.values(), ids=UNLOADABLE)
def test_save_refuses_a_model_that_load_would_refuse(tmp_path, edit):
    path = tmp_path / "m.docm"
    save_model(path, _model(seed=1))
    before = path.read_bytes()
    with pytest.raises(ModelFormatError):
        save_model(path, edit(_model()))
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["m.docm"]


def test_failed_save_leaves_old_file_untouched(tmp_path, monkeypatch):
    path = tmp_path / "m.docm"
    save_model(path, _model(seed=1))
    before = path.read_bytes()
    real_write = model_io._write_section
    sections = []

    def write_then_fail(fh, payload):
        sections.append(payload)
        if len(sections) == 3:  # header and vocabulary are already written
            raise OSError("disk full")
        real_write(fh, payload)

    monkeypatch.setattr(model_io, "_write_section", write_then_fail)
    with pytest.raises(OSError):
        save_model(path, _model(seed=2))
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["m.docm"]


OUT_OF_RANGE = {
    "t-above-1": {"t": [5.0, 5.0]},
    "t-below-0": {"t": [-0.1, 0.5]},
    "sigma-negative": {"sigma": [0.2, -0.05]},
    "alpha-negative": {"alpha": -1.0},
}


def test_integer_beyond_float_range_rejected(tmp_path):
    path = tmp_path / "m.docm"
    save_model(path, _model())
    _rewrite_header(path, lambda h: h["thresholds"].update(alpha=10**400))
    with pytest.raises(ModelFormatError, match="thresholds alpha must be finite"):
        load_model(path)


@pytest.mark.parametrize("bad", OUT_OF_RANGE.values(), ids=OUT_OF_RANGE)
def test_out_of_range_thresholds_rejected(tmp_path, capsys, bad):
    path = tmp_path / "m.docm"
    save_model(path, _model())
    _rewrite_header(path, lambda h: h["thresholds"].update(bad))
    with pytest.raises(ModelFormatError, match="thresholds"):
        load_model(path)
    docs = tmp_path / "docs.txt"
    docs.write_text("tok1 tok2\n")
    assert main(["predict", "--model", str(path), "--input", str(docs)]) == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("bad", OUT_OF_RANGE.values(), ids=OUT_OF_RANGE)
def test_save_refuses_out_of_range_thresholds(tmp_path, bad):
    path = tmp_path / "m.docm"
    save_model(path, _model(seed=1))
    before = path.read_bytes()
    model = _model()
    model.thresholds = replace(model.thresholds, **bad)
    with pytest.raises(ModelFormatError, match="thresholds"):
        save_model(path, model)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["m.docm"]


def test_fixed_thresholds_at_the_ends_of_the_range_round_trip(tmp_path):
    path = tmp_path / "m.docm"
    model = _model()
    model.thresholds = ThresholdVector(t=[0.0, 1.0], alpha=0.0, sigma=[0.0, 0.0])
    save_model(path, model)
    np.testing.assert_array_equal(load_model(path).thresholds.t, [0.0, 1.0])


def _rewrite_vocab(path, tokens):
    """Replace the vocabulary section of a saved file, keeping the rest."""
    raw = path.read_bytes()
    start = 16 + struct.unpack("<Q", raw[8:16])[0]  # the header section ends here
    (size,) = struct.unpack("<Q", raw[start : start + 8])
    payload = json.dumps(tokens).encode("utf-8")
    path.write_bytes(raw[:start] + struct.pack("<Q", len(payload)) + payload + raw[start + 8 + size :])


BAD_VOCABS = {
    "too-long": [f"tok{i}" for i in range(CFG.vocab_size - 1)],  # 11 tokens + PAD + UNK > 12 rows
    "repeated-token": ["tok0", "tok1", "tok0"],
    "non-string-token": ["tok0", 3],
}


@pytest.mark.parametrize("tokens", BAD_VOCABS.values(), ids=BAD_VOCABS)
def test_vocabulary_that_does_not_fit_the_embedding_exits_2(tmp_path, capsys, tokens):
    path = tmp_path / "m.docm"
    save_model(path, _model())
    _rewrite_vocab(path, tokens)
    with pytest.raises(ModelFormatError, match="vocabulary"):
        load_model(path)
    docs = tmp_path / "docs.txt"
    docs.write_text("tok1 tok2\ntok10 tok0\n")
    assert main(["predict", "--model", str(path), "--input", str(docs), "--t", "0.5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "vocabulary" in captured.err


@pytest.mark.parametrize("tokens", BAD_VOCABS.values(), ids=BAD_VOCABS)
def test_save_refuses_a_vocabulary_that_does_not_fit(tmp_path, tokens):
    path = tmp_path / "m.docm"
    model = replace(_model(), vocab=Vocabulary(tokens))
    with pytest.raises(ModelFormatError, match="vocabulary"):
        save_model(path, model)
    assert not path.exists()


@pytest.mark.parametrize(
    "tokens", [["tok0", ["tok1"]], ["tok0", {"tok1": 1}], {"tok0": 2}, "tok0"], ids=["list-token", "dict-token", "json-object", "json-string"]
)
def test_vocabulary_that_cannot_be_hashed_exits_2(tmp_path, tokens):
    # checked before Vocabulary builds its token -> id dict
    path = tmp_path / "m.docm"
    save_model(path, _model())
    _rewrite_vocab(path, tokens)
    with pytest.raises(ModelFormatError, match="vocabulary must be a list of strings"):
        load_model(path)
    assert main(["inspect", "--model", str(path)]) == 2


def test_vocabulary_smaller_than_the_embedding_loads(tmp_path):
    path = tmp_path / "m.docm"
    save_model(path, replace(_model(), vocab=Vocabulary(["tok0", "tok1"])))
    assert load_model(path).vocab.tokens == ["tok0", "tok1"]


@pytest.mark.parametrize("size", [2**62, 2**63 + 5], ids=["2^62", "2^63+5"])
def test_section_length_beyond_the_file_exits_2(tmp_path, capsys, size):
    path = tmp_path / "m.docm"
    save_model(path, _model())
    raw = path.read_bytes()
    path.write_bytes(raw[:8] + struct.pack("<Q", size) + raw[16:])
    with pytest.raises(ModelFormatError, match="truncated"):
        load_model(path)
    assert main(["inspect", "--model", str(path)]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.fixture(scope="module")
def saved(tmp_path_factory):
    """The bytes of a small saved model, and a path to write altered copies to."""
    path = tmp_path_factory.mktemp("saved") / "m.docm"
    save_model(path, _model())
    return path.read_bytes(), path.with_name("altered.docm")


@settings(max_examples=500)
@given(data=st.data())
def test_any_byte_corruption_loads_or_raises_model_format_error(saved, data):
    raw, path = saved
    position = st.integers(0, len(raw) - 1)
    edits = data.draw(st.lists(st.tuples(position, st.integers(1, 255)), min_size=1, max_size=4))
    altered = bytearray(raw)
    for at, mask in edits:
        altered[at] ^= mask
    path.write_bytes(bytes(altered))
    try:
        load_model(path)
    except ModelFormatError:
        pass  # a refusal is allowed; any other exception fails the test


def _inspect_piped(raw: bytes) -> subprocess.CompletedProcess:
    """Run ``opentc inspect`` on ``raw`` fed through a pipe."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    return subprocess.run(
        [sys.executable, "-m", "opentc.cli", "inspect", "--model", "/dev/stdin"],
        input=raw, capture_output=True, env=env, timeout=60,
    )


def test_model_read_from_a_pipe_loads(tmp_path):
    path = tmp_path / "m.docm"
    save_model(path, _model())
    result = _inspect_piped(path.read_bytes())
    assert result.returncode == 0, result.stderr
    assert b"classes (2): alpha, beta" in result.stdout


def test_piped_section_length_beyond_the_stream_exits_2(tmp_path):
    path = tmp_path / "m.docm"
    save_model(path, _model())
    raw = path.read_bytes()
    result = _inspect_piped(raw[:8] + struct.pack("<Q", 2**62) + raw[16:])
    assert result.returncode == 2, result.stderr
    assert b"truncated model file" in result.stderr and b"Traceback" not in result.stderr

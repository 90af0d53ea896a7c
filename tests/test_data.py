import json

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import traced_peak
from opentc.data import (
    _TOKEN_RE,
    PAD_ID,
    UNK_ID,
    UNSEEN,
    DatasetFormatError,
    Document,
    Vocabulary,
    build_vocab_from_split,
    encode,
    encode_documents,
    encode_open_split,
    load_jsonl,
    make_open_split,
    save_jsonl,
    tokenize,
)
from opentc.synthetic import generate_synthetic_dataset


def test_tokenize_lowercases_and_splits():
    assert tokenize("Hello, World!  42") == ["hello", "world", "42"]
    assert tokenize("a-b_c") == ["a", "b", "c"]
    assert tokenize("") == []
    assert tokenize("...") == []


# characters that ASCII and Unicode rules treat differently: the Kelvin sign
# lowercases to k, dotted capital I to i plus a combining dot, and sharp s is
# a letter outside a-z; \x1c-\x1f, \x85 and \xa0 are whitespace to
# str.split() but never inside a token; NUL is a plain non-word character
TRICKY = "\u212a\u0130\u00df\x1c\x1d\x1e\x1f\x85\xa0\x00"


@given(st.text(st.one_of(st.characters(max_codepoint=127), st.sampled_from("Az09 -_\x1c\x1f\x00\x7f"))))
def test_tokenize_ascii_matches_the_regex(text):
    assert tokenize(text) == _TOKEN_RE.findall(text.lower())


@given(st.text(st.one_of(st.characters(), st.sampled_from(TRICKY + "Kk z9"))))
@example("\u212aelvin")
@example("\u0130stanbul stra\u00dfe\x85a\xa0b\x00c\x1cd")
def test_tokenize_unicode_matches_the_regex(text):
    assert tokenize(text) == _TOKEN_RE.findall(text.lower())


WORDS = ["cat", "dog", "owl", "emu", "yak"]


@given(
    tokens=st.lists(st.sampled_from(WORDS), max_size=12),
    known=st.lists(st.sampled_from(WORDS), unique=True, max_size=4),
    doc_len=st.integers(1, 10),
)
@example(tokens=[], known=["cat"], doc_len=3)  # PAD only
@example(tokens=["owl", "cat", "dog"], known=["cat", "dog"], doc_len=2)  # truncation and UNK
def test_encode_matches_a_dict_lookup(tokens, known, doc_len):
    vocab = Vocabulary(known)
    ids = {tok: i + 2 for i, tok in enumerate(known)}
    head = [ids.get(tok, UNK_ID) for tok in tokens[:doc_len]]
    got = encode(tokens, vocab, doc_len)
    assert got.dtype == np.int64 and got.tolist() == head + [PAD_ID] * (doc_len - len(head))


def test_vocab_build_frequency_order_with_tie_break():
    docs = [["b", "b", "a", "a", "c"], ["c", "c"]]
    v = Vocabulary.build(docs, max_size=100)
    # c appears 3x, a and b 2x each -> a before b lexicographically
    assert v.id_for("c") == 2
    assert v.id_for("a") == 3
    assert v.id_for("b") == 4
    assert v.id_for("zzz") is None
    assert len(v) == 5


def test_vocab_max_size_keeps_most_frequent():
    docs = [["a"] * 5 + ["b"] * 4 + ["c"] * 3]
    v = Vocabulary.build(docs, max_size=4)  # room for 2 real tokens
    assert v.id_for("a") is not None and v.id_for("b") is not None and v.id_for("c") is None


def test_vocab_build_reads_any_iterable_of_token_sequences():
    docs = [tokenize(d.text) for d in generate_synthetic_dataset(docs_per_class=20, seed=4)]
    want = Vocabulary.build(docs, max_size=300).tokens
    assert Vocabulary.build(iter(docs), max_size=300).tokens == want
    assert Vocabulary.build((tuple(doc) for doc in docs), max_size=300).tokens == want


def test_build_vocab_from_split_memory_follows_distinct_tokens():
    # 2,400 training documents of 30-60 tokens, about 107k tokens of which
    # 11k are distinct: the counts and their ranking take about 230 bytes a
    # distinct token. Holding every document's token list at once, as a list
    # of lists, peaks above 800 bytes a distinct token here.
    split = make_open_split(generate_synthetic_dataset(docs_per_class=500, seed=5), 1.0, rep_seed=5)
    assert len(split.train) >= 2000
    distinct = len({tok for d in split.train for tok in tokenize(d.text)})
    assert traced_peak(lambda: build_vocab_from_split(split, max_size=5000)) <= 320 * distinct + 64 * 1024


def test_vocab_max_size_too_small():
    with pytest.raises(ValueError):
        Vocabulary.build([["a"]], max_size=2)


def test_encode_unk_truncate_pad():
    v = Vocabulary(["cat", "dog"])
    ids = encode(["cat", "mouse", "dog"], v, doc_len=5)
    np.testing.assert_array_equal(ids, [2, UNK_ID, 3, PAD_ID, PAD_ID])
    ids = encode(["cat", "dog", "cat", "dog"], v, doc_len=2)  # head truncation
    np.testing.assert_array_equal(ids, [2, 3])
    ids = encode([], v, doc_len=3)
    np.testing.assert_array_equal(ids, [PAD_ID] * 3)
    ids = encode(["mouse", "owl"], v, doc_len=4)  # every token out of vocabulary
    np.testing.assert_array_equal(ids, [UNK_ID, UNK_ID, PAD_ID, PAD_ID])
    ids = encode(["dog", "owl", "cat"], v, doc_len=3)  # exactly doc_len tokens
    np.testing.assert_array_equal(ids, [3, UNK_ID, 2])
    ids = encode(["owl", "cat", "dog", "cat", "dog"], v, doc_len=3)  # more than doc_len
    np.testing.assert_array_equal(ids, [UNK_ID, 2, 3])
    assert ids.dtype == np.int64 and ids.shape == (3,)


def test_encode_documents_fills_one_matrix():
    # The peak is the (N, doc_len) matrix plus 64 bytes a document: its
    # label and one document's tokens at a time. A list of N row arrays
    # before stacking would add over 100 bytes a document in array headers
    # alone, besides the rows themselves.
    docs = generate_synthetic_dataset(docs_per_class=125, doc_len_range=(150, 250), seed=6)
    vocab = Vocabulary.build((tokenize(d.text) for d in docs[::2]), max_size=5000)
    seen = ["c0", "c3", "c5"]
    enc = encode_documents(docs, vocab, 200, seen)
    want = np.stack([encode(tokenize(d.text), vocab, 200) for d in docs])
    np.testing.assert_array_equal(enc.ids, want)
    assert enc.ids.dtype == np.int64 and enc.labels.dtype == np.int64
    assert enc.labels.tolist() == [seen.index(d.label) if d.label in seen else UNSEEN for d in docs]
    assert encode_documents([], vocab, 200, seen).ids.shape == (0, 200)
    assert traced_peak(lambda: encode_documents(docs, vocab, 200, seen)) <= want.nbytes + 64 * len(docs)


def _toy_docs(num_classes=5, per_class=20):
    return [
        Document(label=f"c{c}", text=f"tok{c} filler{i}")
        for c in range(num_classes)
        for i in range(per_class)
    ]


def test_split_sizes_60_10_30():
    docs = _toy_docs(5, 20)
    split = make_open_split(docs, seen_fraction=1.0, rep_seed=0)
    assert len(split.validation) == 5 * 2  # floor(0.1 * 20) per class
    assert len(split.test) == 5 * 6  # floor(0.3 * 20) per class
    assert len(split.train) == 5 * 12  # remainder


def test_split_disjoint_and_complete_for_seen_classes():
    docs = _toy_docs(4, 20)
    split = make_open_split(docs, seen_fraction=1.0, rep_seed=1)
    # the toy texts are distinct, so each Document stands for one dataset position
    parts = split.train + split.validation + split.test
    assert len(parts) == len(set(parts)) == len(docs)


def test_unseen_classes_only_in_test():
    docs = _toy_docs(8, 20)
    split = make_open_split(docs, seen_fraction=0.5, rep_seed=2)
    assert len(split.seen_classes) == 4 and len(split.unseen_classes) == 4
    seen = set(split.seen_classes)
    assert all(d.label in seen for d in split.train)
    assert all(d.label in seen for d in split.validation)
    test_labels = {d.label for d in split.test}
    assert set(split.unseen_classes) <= test_labels  # 30% of each unseen class kept
    # unseen classes contribute only their test portion
    unseen_test = [d for d in split.test if d.label not in seen]
    assert len(unseen_test) == 4 * 6


def test_seen_class_count_rounding_and_floor_of_two():
    docs = _toy_docs(8, 10)
    assert len(make_open_split(docs, 0.25, 0).seen_classes) == 2
    assert len(make_open_split(docs, 0.75, 0).seen_classes) == 6
    # tiny fraction still yields the minimum of 2 seen classes
    assert len(make_open_split(docs, 0.01, 0).seen_classes) == 2


def _split_lists(split):
    return (
        split.seen_classes,
        split.unseen_classes,
        split.train,
        split.validation,
        split.test,
    )


def test_split_deterministic_in_rep_seed():
    docs = _toy_docs(6, 20)
    a = make_open_split(docs, 0.5, rep_seed=7)
    b = make_open_split(docs, 0.5, rep_seed=7)
    assert _split_lists(a) == _split_lists(b)
    c = make_open_split(docs, 0.5, rep_seed=8)
    assert _split_lists(a) != _split_lists(c)


def test_split_rejects_bad_inputs():
    docs = _toy_docs(3, 10)
    with pytest.raises(ValueError):
        make_open_split(docs, 0.0, 0)
    with pytest.raises(ValueError):
        make_open_split(docs, 1.5, 0)
    with pytest.raises(ValueError, match=r"seen fraction must lie in \(0, 1\], got nan"):
        make_open_split(docs, float("nan"), 0)
    with pytest.raises(ValueError):
        make_open_split([Document("only", "one class")], 1.0, 0)


def test_encode_open_split_labels():
    docs = _toy_docs(4, 20)
    split = make_open_split(docs, 0.5, rep_seed=3)
    vocab = build_vocab_from_split(split, max_size=100)
    enc = encode_open_split(split, vocab, doc_len=6)
    seen = set(split.seen_classes)
    for raw, docs in [(split.train, enc.train), (split.validation, enc.validation)]:
        assert len(docs) == len(raw)
        for d, label in zip(raw, docs.labels):
            assert label == split.seen_classes.index(d.label)
    for d, label in zip(split.test, enc.test.labels):
        if d.label in seen:
            assert label == split.seen_classes.index(d.label)
        else:
            assert label == UNSEEN
    assert enc.test.ids.shape == (len(split.test), 6)


def test_vocab_built_from_train_only():
    # a token unique to test documents must not enter the vocabulary
    docs = [Document("a", "alpha common"), Document("a", "alpha common")] * 10
    docs += [Document("b", "beta common")] * 20
    split = make_open_split(docs, 1.0, rep_seed=0)
    vocab = build_vocab_from_split(split, max_size=50)
    train_tokens = {tok for d in split.train for tok in tokenize(d.text)}
    assert set(vocab.tokens) <= train_tokens


def test_jsonl_round_trip(tmp_path):
    docs = [Document("sport", "the game was great"), Document("tech", "new cpu")]
    path = tmp_path / "d.jsonl"
    save_jsonl(path, docs)
    assert load_jsonl(path) == docs


def test_jsonl_rejects_bad_lines(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"label": "a"}\n')
    with pytest.raises(DatasetFormatError):
        load_jsonl(path)
    path.write_text("not json\n")
    with pytest.raises(DatasetFormatError):
        load_jsonl(path)
    path.write_text('{"label": "a", "text": "x", "extra": 1}\n')
    with pytest.raises(DatasetFormatError):
        load_jsonl(path)


def test_jsonl_skips_blank_lines(tmp_path):
    path = tmp_path / "d.jsonl"
    path.write_text('{"label": "a", "text": "x"}\n\n{"label": "b", "text": "y"}\n')
    assert len(load_jsonl(path)) == 2


def test_jsonl_ends_a_line_at_newline_only(tmp_path):
    path = tmp_path / "d.jsonl"
    path.write_bytes(b'{"label": "a",\r "text": "b c"}\n{"label": "b", "text": "d"}\n')  # a lone CR is JSON whitespace
    assert load_jsonl(path) == [Document("a", "b c"), Document("b", "d")]
    lf = b'{"label": "a", "text": "x"}\n\n{"label": "b", "text": "y z"}\n'
    path.write_bytes(lf.replace(b"\n", b"\r\n"))
    assert load_jsonl(path) == [Document("a", "x"), Document("b", "y z")]
    path.write_bytes((lf + b"not json\n").replace(b"\n", b"\r\n"))
    with pytest.raises(DatasetFormatError, match="line 4: invalid JSON"):
        load_jsonl(path)


@pytest.mark.parametrize(
    "record",
    [
        {"label": "a", "text": None},
        {"label": 3, "text": "x"},
        {"label": True, "text": "x"},
        {"label": "a", "text": ["x"]},
        {"label": "a", "text": {"x": 1}},
        {"label": "a", "text": 1.5},
    ],
    ids=["null-text", "int-label", "bool-label", "list-text", "object-text", "float-text"],
)
def test_jsonl_refuses_non_string_fields(tmp_path, record):
    path = tmp_path / "d.jsonl"
    path.write_text('{"label": "a", "text": "x"}\n' + json.dumps(record) + "\n")
    with pytest.raises(DatasetFormatError, match="line 2: 'label' and 'text' must be strings"):
        load_jsonl(path)


@pytest.mark.parametrize("line", ["[" * 100_000, '{"label": "a", "text": ' + '{"k": ' * 100_000], ids=["array", "object"])
def test_jsonl_refuses_json_nested_too_deeply(tmp_path, line):
    path = tmp_path / "d.jsonl"
    path.write_text('{"label": "a", "text": "x"}\n' + line + "\n")
    with pytest.raises(DatasetFormatError, match="line 2: JSON nested too deeply"):
        load_jsonl(path)

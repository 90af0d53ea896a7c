import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from opentc.data import Document, tokenize
from opentc.synthetic import (
    BRIDGE_PER_PAIR,
    COMMON_POOL,
    KEYWORDS_PER_CLASS,
    P_BRIDGE,
    P_COMMON,
    P_KEYWORD,
    PARTNERS_PER_DOC,
    _WordDraws,
    generate_synthetic_dataset,
)


def reference_dataset(num_classes, docs_per_class, doc_len_range, seed):
    """The generator with one Generator call per token draw: the corpus every seed must give."""
    rng = np.random.default_rng(seed)
    common = [f"common{i:03d}" for i in range(COMMON_POOL)]
    keywords = [
        [f"cls{c}kw{i:02d}" for i in range(KEYWORDS_PER_CLASS)] for c in range(num_classes)
    ]
    bridges = {
        (a, b): [f"bridge{a}and{b}x{i:02d}" for i in range(BRIDGE_PER_PAIR)]
        for a in range(num_classes)
        for b in range(a + 1, num_classes)
    }

    docs = []
    rare_counter = 0
    for c in range(num_classes):
        others = [o for o in range(num_classes) if o != c]
        for _ in range(docs_per_class):
            partners = rng.choice(others, size=min(PARTNERS_PER_DOC, len(others)), replace=False)
            doc_bridges = []
            for o in partners:
                doc_bridges.extend(bridges[(min(c, o), max(c, o))])
            n = int(rng.integers(doc_len_range[0], doc_len_range[1] + 1))
            words = []
            for _ in range(n):
                u = rng.random()
                if u < P_COMMON:
                    words.append(common[rng.integers(len(common))])
                elif u < P_COMMON + P_KEYWORD:
                    words.append(keywords[c][rng.integers(KEYWORDS_PER_CLASS)])
                elif u < P_COMMON + P_KEYWORD + P_BRIDGE:
                    words.append(doc_bridges[rng.integers(len(doc_bridges))])
                else:
                    words.append(f"rare{rare_counter:06d}")
                    rare_counter += 1
            docs.append(Document(label=f"class{c}", text=" ".join(words)))
    return docs


@settings(max_examples=60)
@given(
    num_classes=st.integers(2, 8),
    docs_per_class=st.integers(0, 12),
    lo=st.integers(0, 5),
    span=st.integers(0, 60),
    seed=st.integers(0, 2**63 - 1),
)
@example(num_classes=2, docs_per_class=12, lo=0, span=0, seed=0)
@example(num_classes=2, docs_per_class=12, lo=1, span=0, seed=0)
@example(num_classes=8, docs_per_class=12, lo=1, span=0, seed=2**63 - 1)
def test_matches_reference(num_classes, docs_per_class, lo, span, seed):
    args = (num_classes, docs_per_class, (lo, lo + span), seed)
    assert generate_synthetic_dataset(*args) == reference_dataset(*args)


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize(
    "args",
    [(8, 50, (150, 250)), (8, 164, (150, 250)), (8, 100, (30, 60))],
    ids=["train_paper", "predict_cli", "sweep_rep"],
)
def test_matches_reference_at_benchmark_setups(args, seed):
    assert generate_synthetic_dataset(*args, seed=seed) == reference_dataset(*args, seed)


def position(bit_generator):
    """What the next draws depend on: a stale ``uinteger`` with ``has_uint32`` 0 is never read."""
    state = bit_generator.state
    return state["state"], state["has_uint32"], state["uinteger"] if state["has_uint32"] else None


def test_bounded_draw_discards_a_leftover_under_numpys_threshold():
    # k = 100: the threshold is 2**32 % 100 = 96. A 32-bit draw of 0 leaves
    # leftover 0, so it is discarded; the retry takes the upper half the same
    # word left in the buffer.
    draws = _WordDraws(np.random.PCG64(0), 0)
    high = 0x9E3779B9
    draws.words = [high << 32]
    assert draws.integers(100) == (high * 100) >> 32
    assert draws.used == 1 and draws.uinteger is None
    # With the buffer holding 0, the retry takes the lower half of a fresh word.
    draws = _WordDraws(np.random.PCG64(0), 0)
    draws.uinteger, draws.words = 0, [(7 << 32) | high]
    assert draws.integers(100) == (high * 100) >> 32
    assert draws.used == 1 and draws.uinteger == 7
    # A leftover of exactly 96 is kept: 100 * x = 96 (mod 2**32).
    x = 24 * pow(25, -1, 2**30) % 2**30
    draws = _WordDraws(np.random.PCG64(0), 0)
    draws.words = [x]
    assert draws.integers(100) == (x * 100) >> 32
    assert draws.used == 1 and draws.uinteger == 0


def test_bounded_draw_of_one_value_takes_no_draw():
    rng = np.random.default_rng(5)
    rng.integers(6)  # fill the 32-bit buffer
    before = position(rng.bit_generator)
    draws = _WordDraws(rng.bit_generator, 2)
    assert draws.integers(1) == 0
    assert draws.used == 0 and draws.uinteger == before[2]
    draws.finish()
    assert position(rng.bit_generator) == before
    assert rng.integers(1) == 0
    assert position(rng.bit_generator) == before


@pytest.mark.parametrize("k", [6, 12, 20, 100])
@pytest.mark.parametrize("buffered", [False, True])
def test_draws_match_generator_calls(k, buffered):
    """Bounded draws interleaved with doubles, so the 32-bit buffer carries across a double."""
    expected_rng, rng = np.random.default_rng(k), np.random.default_rng(k)
    if buffered:
        expected_rng.integers(k)
        rng.integers(k)
    pattern = ["integers", "random", "integers", "integers", "random", "random"] * 50
    expected = [expected_rng.random() if f == "random" else expected_rng.integers(k) for f in pattern]
    draws = _WordDraws(rng.bit_generator, len(pattern))
    assert [draws.random() if f == "random" else draws.integers(k) for f in pattern] == expected
    draws.finish()
    assert position(rng.bit_generator) == position(expected_rng.bit_generator)
    assert rng.random() == expected_rng.random()


@pytest.mark.parametrize(
    "kwargs, name",
    [
        ({"num_classes": 1}, "num_classes"),
        ({"num_classes": 0}, "num_classes"),
        ({"docs_per_class": -1}, "docs_per_class"),
        ({"doc_len_range": (5, 3)}, "doc_len_range"),
        ({"doc_len_range": (-5, -1)}, "doc_len_range"),
        ({"doc_len_range": (-1, 3)}, "doc_len_range"),
    ],
)
def test_refuses_bad_arguments_before_any_draw(kwargs, name, monkeypatch):
    def no_generator(seed):
        raise AssertionError("drew before checking the arguments")

    monkeypatch.setattr(np.random, "default_rng", no_generator)
    with pytest.raises(ValueError, match=name):
        generate_synthetic_dataset(**kwargs)


def test_shape_and_labels():
    docs = generate_synthetic_dataset(num_classes=4, docs_per_class=10, seed=0)
    assert len(docs) == 40
    assert {d.label for d in docs} == {f"class{c}" for c in range(4)}


def test_deterministic_in_seed():
    a = generate_synthetic_dataset(num_classes=3, docs_per_class=5, seed=7)
    b = generate_synthetic_dataset(num_classes=3, docs_per_class=5, seed=7)
    assert a == b
    c = generate_synthetic_dataset(num_classes=3, docs_per_class=5, seed=8)
    assert a != c


def test_doc_length_range():
    docs = generate_synthetic_dataset(num_classes=2, docs_per_class=20, doc_len_range=(10, 15), seed=1)
    for d in docs:
        assert 10 <= len(tokenize(d.text)) <= 15


def test_class_keywords_are_exclusive():
    docs = generate_synthetic_dataset(num_classes=3, docs_per_class=30, seed=2)
    for d in docs:
        c = d.label.removeprefix("class")
        for tok in tokenize(d.text):
            if tok.startswith("cls"):
                assert tok.startswith(f"cls{c}kw")


def test_rare_tokens_are_unique():
    docs = generate_synthetic_dataset(num_classes=2, docs_per_class=20, seed=3)
    rare = [t for d in docs for t in tokenize(d.text) if t.startswith("rare")]
    assert len(rare) == len(set(rare))
    assert rare  # the mix always leaves room for some rare tokens

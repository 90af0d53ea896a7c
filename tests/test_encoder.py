from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opentc.data import Vocabulary, encode_documents, tokenize
from opentc.encoder import (
    INFERENCE_CHUNK,
    EmbeddingFormatError,
    EncoderConfig,
    ModelParams,
    ModelSpec,
    batched_logits,
    forward,
    init_params,
    load_pretrained_embeddings,
)
from opentc.tensor import (
    PAD_ID,
    Tape,
    Tensor,
    concat,
    conv1d_valid,
    conv_max_pool,
    dense,
    embed_lookup,
    max_over_time,
    relu,
)
from opentc import encoder
from opentc.synthetic import generate_synthetic_dataset


CFG = EncoderConfig(
    vocab_size=30,
    embed_dim=4,
    num_classes=3,
    doc_len=12,
    filter_widths=(2, 3),
    filters_per_width=5,
    hidden_dim=6,
)


def oracle_forward(params, ids, cfg):
    """Straight-line numpy re-implementation of the encoder forward pass."""
    x = params.embedding.data[np.asarray(ids)]
    pooled = []
    for i, w in enumerate(cfg.filter_widths):
        f = params.conv_filters[i].data  # (F, w, e)
        b = params.conv_biases[i].data
        L = x.shape[0]
        conv = np.empty((L - w + 1, f.shape[0]))
        for pos in range(L - w + 1):
            window = x[pos : pos + w]
            for j in range(f.shape[0]):
                conv[pos, j] = np.sum(window * f[j]) + b[j]
        pooled.append(np.maximum(conv, 0.0).max(axis=0))
    p = np.concatenate(pooled)
    h = np.maximum(params.w_hidden.data @ p + params.b_hidden.data, 0.0)
    return params.w_out.data @ h + params.b_out.data


def test_forward_matches_straight_line_oracle():
    rng = np.random.default_rng(0)
    params = init_params(CFG, rng)
    for trial in range(5):
        ids = rng.integers(0, CFG.vocab_size, size=CFG.doc_len)
        got = forward(params, ids).data
        np.testing.assert_allclose(got, oracle_forward(params, ids, CFG), atol=1e-12)


def test_forward_batched_matches_per_doc():
    rng = np.random.default_rng(2)
    params = init_params(CFG, rng)
    batch = rng.integers(0, CFG.vocab_size, size=(7, CFG.doc_len))
    got = forward(params, batch).data
    assert got.shape == (7, CFG.num_classes)
    for i in range(7):
        np.testing.assert_allclose(got[i], forward(params, batch[i]).data, atol=1e-12)


def test_forward_is_bit_identical_to_the_unfused_chain_at_paper_shapes():
    cfg = EncoderConfig(num_classes=5)  # the paper's shape
    rng = np.random.default_rng(3)
    params = init_params(cfg, rng)
    for b in params.conv_biases:  # push some pooled maxima below zero so the ReLU cuts
        b.data[:] = rng.uniform(-0.6, 0.1, size=b.shape)
    ids = rng.integers(1, cfg.vocab_size, size=(16, cfg.doc_len))
    for row, length in zip(ids, rng.integers(5, cfg.doc_len, size=len(ids))):
        row[length:] = PAD_ID

    tape = Tape(record=False)
    x = embed_lookup(tape, ids, params.embedding)
    pooled = [
        max_over_time(tape, relu(tape, conv1d_valid(tape, x, f, b)))
        for f, b in zip(params.conv_filters, params.conv_biases)
    ]
    hidden = relu(tape, dense(tape, concat(tape, pooled), params.w_hidden, params.b_hidden))
    reference = dense(tape, hidden, params.w_out, params.b_out).data
    assert np.array_equal(forward(params, ids).data, reference)


def test_embedding_gradient_is_bit_identical_to_add_at():
    rng = np.random.default_rng(4)
    table = Tensor(rng.normal(size=(20, 50)))
    ids = rng.integers(0, 20, size=(64, 200))  # every row repeats hundreds of times
    tape = Tape()
    out = embed_lookup(tape, ids, table)
    out.grad = rng.normal(size=out.shape)
    tape._steps[0]()
    want = np.zeros_like(table.data)
    np.add.at(want, ids.reshape(-1), out.grad.reshape(-1, 50))
    want[PAD_ID] = 0.0
    assert np.array_equal(table.grad, want)


def test_batched_logits_matches_single_document_forward():
    # more than one chunk, and a last chunk that is only partly full
    n = INFERENCE_CHUNK + 45
    rng = np.random.default_rng(14)
    params = init_params(CFG, rng)
    ids = np.stack([rng.integers(0, CFG.vocab_size, size=CFG.doc_len) for _ in range(n)])
    got = batched_logits(params, ids)
    assert got.shape == (n, CFG.num_classes)
    for doc, row in zip(ids, got):
        np.testing.assert_allclose(row, forward(params, doc).data, rtol=0, atol=1e-12)


def test_empty_encoded_docs_keep_their_shapes():
    docs = encode_documents([], Vocabulary([]), CFG.doc_len, ["a", "b"])
    assert docs.ids.shape == (0, CFG.doc_len) and docs.labels.shape == (0,)
    assert docs.ids.dtype == docs.labels.dtype == np.int64
    assert not docs
    params = init_params(CFG, 0)
    assert batched_logits(params, docs.ids).shape == (0, CFG.num_classes)
    for tape in (Tape(record=False), Tape()):  # an empty batch forwards too
        assert forward(params, docs.ids, tape).shape == (0, CFG.num_classes)


def test_output_shape_and_determinism():
    rng = np.random.default_rng(3)
    params = init_params(CFG, rng)
    ids = rng.integers(0, CFG.vocab_size, size=CFG.doc_len)
    a = forward(params, ids).data
    b = forward(params, ids).data
    assert a.shape == (CFG.num_classes,)
    assert np.array_equal(a, b)


def test_init_params_shapes_and_pad_row():
    params = init_params(CFG, np.random.default_rng(4))
    assert params.embedding.shape == (30, 4)
    np.testing.assert_array_equal(params.embedding.data[0], np.zeros(4))
    assert params.conv_filters[0].shape == (5, 2, 4)
    assert params.conv_filters[1].shape == (5, 3, 4)
    assert params.w_hidden.shape == (6, CFG.pooled_dim)
    assert params.w_out.shape == (3, 6)
    np.testing.assert_array_equal(params.b_hidden.data, np.zeros(6))
    np.testing.assert_array_equal(params.b_out.data, np.zeros(3))


def test_init_params_seed_reproducible():
    a = init_params(CFG, np.random.default_rng(5))
    b = init_params(CFG, np.random.default_rng(5))
    for ta, tb in zip(a.all_tensors(), b.all_tensors()):
        assert np.array_equal(ta.data, tb.data)


def test_glorot_bounds():
    params = init_params(CFG, np.random.default_rng(6))
    s = np.sqrt(6.0 / (CFG.pooled_dim + CFG.hidden_dim))
    assert np.abs(params.w_hidden.data).max() <= s
    assert np.abs(params.embedding.data).max() <= 0.25


def test_pad_only_document_depends_only_on_biases():
    # With a zero PAD row, an all-PAD doc reaches the dense layers via bias terms only.
    params = init_params(CFG, np.random.default_rng(7))
    base = forward(params, np.zeros(CFG.doc_len, dtype=int)).data
    params.embedding.data[1:] += 100.0  # non-PAD rows must not matter
    again = forward(params, np.zeros(CFG.doc_len, dtype=int)).data
    np.testing.assert_array_equal(base, again)


def test_forward_with_tape_is_differentiable():
    params = init_params(CFG, np.random.default_rng(8))
    ids = np.random.default_rng(8).integers(1, CFG.vocab_size, size=CFG.doc_len)
    tape = Tape()
    out = forward(params, ids, tape=tape)
    out.grad = np.ones_like(out.data)
    for fn in reversed(tape._steps):
        fn()
    assert params.w_out.grad is not None
    assert np.abs(params.w_out.grad).sum() > 0
    np.testing.assert_array_equal(params.embedding.grad[0], np.zeros(CFG.embed_dim))


def test_doc_shorter_than_widest_filter_rejected_at_config_time():
    with pytest.raises(ValueError):
        EncoderConfig(
            vocab_size=10,
            embed_dim=2,
            num_classes=2,
            doc_len=2,
            filter_widths=(3,),
            filters_per_width=2,
            hidden_dim=3,
        )


@pytest.mark.parametrize(
    "shape",
    [
        {"embed_dim": 0},
        {"filters_per_width": 0},
        {"filter_widths": ()},
        {"filter_widths": (2, 1)},
        {"filter_widths": (0, 2)},
        {"doc_len": 2, "filter_widths": (3,)},
    ],
    ids=["embed-dim", "filters-per-width", "no-widths", "descending", "width-0", "short-doc"],
)
def test_a_spec_and_a_config_refuse_the_same_shapes(shape):
    with pytest.raises(ValueError) as spec_error:
        ModelSpec(**shape)
    with pytest.raises(ValueError) as config_error:
        EncoderConfig(num_classes=2, **shape)
    assert str(config_error.value) == str(spec_error.value)


def test_a_config_is_a_spec_with_at_least_two_classes():
    assert EncoderConfig(num_classes=2, doc_len=9, filter_widths=[2, 3]).filter_widths == (2, 3)
    assert isinstance(EncoderConfig(num_classes=2), ModelSpec)
    with pytest.raises(ValueError, match="at least 2 classes"):
        EncoderConfig(num_classes=1)


def test_only_a_spec_needs_room_for_pad_unk_and_one_token():
    for size in (1, 2):
        with pytest.raises(ValueError, match=f"vocab_size must be >= 3 \\(PAD, UNK and one token\\), got {size}"):
            ModelSpec(vocab_size=size)
        assert EncoderConfig(num_classes=2, vocab_size=size).vocab_size == size  # embedding rows, not a cap
    assert ModelSpec(vocab_size=3).vocab_size == 3


def test_load_pretrained_embeddings():
    vocab = Vocabulary(["apple", "banana"])  # ids 2 and 3
    lines = ["apple 1.0 2.0 3.0 4.0", "cherry 9 9 9 9"]
    params = init_params(CFG, np.random.default_rng(10))
    before = params.embedding.data[3].copy()
    n = load_pretrained_embeddings(params, lines, vocab)
    assert n == 1
    np.testing.assert_array_equal(params.embedding.data[2], [1.0, 2.0, 3.0, 4.0])
    np.testing.assert_array_equal(params.embedding.data[3], before)  # untouched
    np.testing.assert_array_equal(params.embedding.data[0], np.zeros(4))  # PAD stays zero


def test_load_pretrained_dimension_mismatch():
    params = init_params(CFG, np.random.default_rng(11))
    with pytest.raises(EmbeddingFormatError):
        load_pretrained_embeddings(params, ["apple 1.0 2.0"], Vocabulary(["apple"]))


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_load_pretrained_rejects_non_finite_values(value):
    params = init_params(CFG, np.random.default_rng(11))
    before = params.embedding.data.copy()
    lines = ["apple 1.0 2.0 3.0 4.0", f"banana {value} 0.1 0.2 0.3"]
    with pytest.raises(EmbeddingFormatError, match="line 2"):
        load_pretrained_embeddings(params, lines, Vocabulary(["apple", "banana"]))
    np.testing.assert_array_equal(params.embedding.data[3], before[3])


def test_load_pretrained_checks_lines_of_unknown_tokens():
    params = init_params(CFG, np.random.default_rng(11))
    lines = ["zzz nan abc 1 2", "yyy 1 2 3 4"]  # neither token is in the vocabulary
    with pytest.raises(EmbeddingFormatError, match="line 1: non-numeric value"):
        load_pretrained_embeddings(params, lines, Vocabulary(["apple"]))
    with pytest.raises(EmbeddingFormatError, match="line 2: non-finite value"):
        load_pretrained_embeddings(params, ["yyy 1 2 3 4", "zzz nan 0 1 2"], Vocabulary(["apple"]))


def test_params_copy_is_deep():
    params = init_params(CFG, np.random.default_rng(12))
    dup = params.copy()
    dup.w_out.data += 1.0
    assert not np.array_equal(params.w_out.data, dup.w_out.data)


def untrimmed_forward(params, ids, tape):
    """The encoder as the plain reference chain, ``embed_lookup ->
    conv1d_valid -> max_over_time`` per width, over all doc_len columns of
    every document: no trim of any document's trailing run."""
    x = embed_lookup(tape, ids, params.embedding)
    pooled = [
        max_over_time(tape, conv1d_valid(tape, x, f, b))
        for f, b in zip(params.conv_filters, params.conv_biases)
    ]
    hidden = relu(tape, dense(tape, relu(tape, concat(tape, pooled)), params.w_hidden, params.b_hidden))
    return dense(tape, hidden, params.w_out, params.b_out)


def _post_padded(rng, lengths, cfg):
    """One row per length: ids drawn from the whole vocabulary, PAD included, then PAD."""
    ids = rng.integers(0, cfg.vocab_size, size=(len(lengths), cfg.doc_len))
    ids[np.arange(cfg.doc_len) >= np.asarray(lengths)[:, None]] = PAD_ID
    return ids


def _with_pad_row(cfg, seed):
    params = init_params(cfg, seed)
    params.embedding.data[PAD_ID] = np.random.default_rng(seed).normal(size=cfg.embed_dim)
    return params


def _gradients(forward_fn, params, ids, upstream):
    params = params.copy()
    tape = Tape()
    forward_fn(params, ids, tape).grad = upstream
    for fn in reversed(tape._steps):
        fn()
    return [t.grad for t in params.all_tensors()]


@settings(max_examples=60)
@given(data=st.data())
def test_trimmed_forward_matches_the_untrimmed_chain(data):
    doc_len = data.draw(st.integers(4, 14), label="doc_len")
    widths = data.draw(st.sets(st.integers(1, doc_len), min_size=1, max_size=3), label="widths")
    if data.draw(st.booleans(), label="widest is doc_len"):
        widths.add(doc_len)
    cfg = replace(CFG, doc_len=doc_len, filter_widths=tuple(sorted(widths)))
    lengths = data.draw(st.lists(st.integers(0, doc_len), min_size=1, max_size=8), label="lengths")
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    params = _with_pad_row(cfg, seed)
    ids = _post_padded(np.random.default_rng(seed), lengths, cfg)
    want = untrimmed_forward(params, ids, Tape(record=False)).data
    np.testing.assert_allclose(forward(params, ids).data, want, rtol=0, atol=1e-12)


def test_trimmed_gradients_match_the_untrimmed_chain():
    cfg = replace(CFG, doc_len=60, filter_widths=(3, 4, 5))
    rng = np.random.default_rng(21)
    params = _with_pad_row(cfg, 21)
    ids = _post_padded(rng, rng.integers(3, 15, size=10), cfg)
    upstream = rng.normal(size=(10, cfg.num_classes))
    got = _gradients(forward, params, ids, upstream)
    want = _gradients(untrimmed_forward, params, ids, upstream)
    for g, w in zip(got, want):
        np.testing.assert_allclose(g, w, rtol=0, atol=1e-12)
    np.testing.assert_array_equal(got[0][PAD_ID], 0.0)


def test_forward_on_a_recording_tape_is_bit_equal_to_inference():
    # Without a recording tape the fused op pools by max alone; with one it
    # also keeps the argmax for the backward. Both read the same element.
    cfg = replace(CFG, doc_len=40, filter_widths=(3, 4, 5))
    rng = np.random.default_rng(26)
    params = _with_pad_row(cfg, 26)
    ids = _post_padded(rng, rng.integers(0, 41, size=12), cfg)
    ids[:3, 20:] = 7  # trailing runs of a real token
    ids[3, :] = ids[3, 0]  # one run over the whole document
    assert np.array_equal(forward(params, ids, Tape()).data, forward(params, ids).data)
    assert np.array_equal(forward(params, ids[5], Tape()).data, forward(params, ids[5]).data)


def test_forward_is_permutation_invariant_at_sweep_shapes(monkeypatch):
    # The experiment sweep's shapes: 30-60-token documents, vocabulary 500,
    # 50 filters per width. conv_max_pool sorts each batch by document length
    # and pools several documents per block, so a reordered batch meets other
    # block neighbours; each document's pooled features must still be bit for
    # bit its own. The dense layers' GEMMs may round a row differently at
    # another position in the batch, so the logits are compared within 1e-15.
    pooled = []

    def recording(tape, inv, rows, filters, bias):
        out = conv_max_pool(tape, inv, rows, filters, bias)
        pooled.append(out.data)
        return out

    monkeypatch.setattr(encoder, "conv_max_pool", recording)
    docs = generate_synthetic_dataset(docs_per_class=100, seed=3)
    vocab = Vocabulary.build([tokenize(d.text) for d in docs], 500)
    ids = encode_documents(docs[::7][:96], vocab, 200, ["c0"]).ids
    cfg = EncoderConfig(num_classes=4, vocab_size=500, filters_per_width=50, hidden_dim=100)
    params = init_params(cfg, np.random.default_rng(27))
    perm = np.random.default_rng(27).permutation(len(ids))
    for tape in (Tape(record=False), Tape()):
        pooled.clear()
        got, want = forward(params, ids[perm], tape).data, forward(params, ids, tape).data[perm]
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-15)
        assert len(pooled) == 2 * len(cfg.filter_widths)
        for p_perm, p in zip(pooled[:3], pooled[3:]):
            assert np.array_equal(p_perm, p[perm])


@pytest.mark.parametrize("offset", [-2, -1, 0, 1], ids=lambda k: f"last-real-at-doc_len-wmax{k:+d}")
def test_last_real_token_near_the_end_of_the_window(offset):
    cfg = CFG  # widest filter 3 of 12 columns
    last = cfg.doc_len - max(cfg.filter_widths) + offset
    params = _with_pad_row(cfg, 22)
    ids = _post_padded(np.random.default_rng(22), [3, last + 1], cfg)
    ids[1, last] = 7  # a real token in the last real column
    got = forward(params, ids).data
    want = untrimmed_forward(params, ids, Tape(record=False)).data
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


def test_all_pad_documents():
    params = _with_pad_row(CFG, 23)
    lone = np.zeros(CFG.doc_len, dtype=np.int64)
    mixed = _post_padded(np.random.default_rng(23), [0, 5, 0], CFG)
    mixed[1, 4] = 7
    for ids in (lone, np.zeros((4, CFG.doc_len), dtype=np.int64), mixed):
        want = untrimmed_forward(params, ids, Tape(record=False)).data
        np.testing.assert_allclose(forward(params, ids).data, want, rtol=0, atol=1e-12)


def test_forward_embeds_each_distinct_id_of_the_kept_columns_once(monkeypatch):
    looked_up = []

    def recording(tape, ids, table):
        looked_up.append(np.asarray(ids))
        return embed_lookup(tape, ids, table)

    monkeypatch.setattr(encoder, "embed_lookup", recording)
    rng = np.random.default_rng(25)
    ids = _post_padded(rng, [4, 6, 2], CFG)
    forward(init_params(CFG, 25), ids)
    assert len(looked_up) == 1
    np.testing.assert_array_equal(looked_up[0], np.unique(ids))

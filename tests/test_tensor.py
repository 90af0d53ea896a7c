import inspect

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import traced_peak
from opentc.data import Vocabulary, encode_documents, tokenize
from opentc.encoder import INFERENCE_CHUNK
from opentc import head, tensor
from opentc.head import ovr_loss
from opentc.synthetic import generate_synthetic_dataset
from opentc.tensor import (
    PAD_ID,
    Tape,
    Tensor,
    concat,
    conv1d_valid,
    conv_max_pool,
    dense,
    embed_lookup,
    grad_check,
    max_over_time,
    node,
    relu,
)


def test_embed_lookup_rows():
    table = Tensor(np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]))
    out = embed_lookup(Tape(record=False), [1, 0], table)
    np.testing.assert_array_equal(out.data, [table.data[1], table.data[0]])


def test_embed_lookup_out_of_range():
    table = Tensor(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        embed_lookup(Tape(), [2, 0], table)


def test_embed_lookup_gradient_scatters():
    # two lookups of row 2: gradient of the sum w.r.t. that row is 2*ones
    table = Tensor(np.random.default_rng(0).normal(size=(4, 3)))
    tape = Tape()
    out = embed_lookup(tape, [2, 2], table)
    out.grad = np.ones_like(out.data)
    tape._steps[0]()
    np.testing.assert_allclose(table.grad[2], 2.0 * np.ones(3))
    np.testing.assert_allclose(table.grad[1], np.zeros(3))


def test_embed_lookup_pad_row_gets_no_gradient():
    table = Tensor(np.random.default_rng(1).normal(size=(4, 3)))
    table.data[0] = 0.0
    tape = Tape()
    out = embed_lookup(tape, [0, 0, 2], table)
    out.grad = np.ones_like(out.data)
    tape._steps[0]()
    np.testing.assert_array_equal(table.grad[0], np.zeros(3))
    np.testing.assert_allclose(table.grad[2], np.ones(3))


def test_all_pad_lookup_is_zero_matrix():
    table = Tensor(np.random.default_rng(2).normal(size=(4, 3)))
    table.data[0] = 0.0
    out = embed_lookup(Tape(record=False), [0, 0, 0], table)
    np.testing.assert_array_equal(out.data, np.zeros((3, 3)))


def test_conv_output_length():
    x = Tensor(np.random.default_rng(0).normal(size=(5, 2)))
    f = Tensor(np.random.default_rng(1).normal(size=(4, 3, 2)))
    b = Tensor(np.zeros(4))
    out = conv1d_valid(Tape(record=False), x, f, b)
    assert out.shape == (3, 4)


def test_conv_all_ones_window_sum():
    x = Tensor(np.ones((6, 1)))
    f = Tensor(np.ones((1, 2, 1)))
    b = Tensor(np.zeros(1))
    out = conv1d_valid(Tape(record=False), x, f, b)
    np.testing.assert_allclose(out.data, 2.0 * np.ones((5, 1)))


def test_conv_too_short_errors():
    with pytest.raises(ValueError):
        conv1d_valid(
            Tape(), Tensor(np.zeros((2, 3))), Tensor(np.zeros((1, 3, 3))), Tensor(np.zeros(1))
        )


def test_conv_gradient_matches_finite_differences():
    rng = np.random.default_rng(3)
    x = Tensor(rng.normal(size=(6, 4)))
    f = Tensor(rng.normal(size=(2, 3, 4)))
    b = Tensor(rng.normal(size=2))

    def build(tape):
        return _sum(tape, conv1d_valid(tape, x, f, b))

    assert grad_check(build, [x, f, b]) < 1e-6


def _sum(tape, t):
    """Scalar reduction used only by tests so grad_check sees a scalar loss."""
    return node(tape, t.data.sum(), lambda g: t.accumulate(np.full_like(t.data, float(g))))


def test_max_over_time_basics():
    out = max_over_time(Tape(record=False), Tensor(np.array([[1.0, 5.0], [3.0, 2.0]])))
    np.testing.assert_array_equal(out.data, [3.0, 5.0])


def test_max_over_time_tie_goes_to_first_index():
    x = Tensor(np.array([[4.0], [4.0], [4.0]]))
    tape = Tape()
    out = max_over_time(tape, x)
    assert out.data[0] == 4.0
    out.grad = np.ones(1)
    tape._steps[0]()
    np.testing.assert_array_equal(x.grad.ravel(), [1.0, 0.0, 0.0])


def test_max_over_time_empty_errors():
    with pytest.raises(ValueError):
        max_over_time(Tape(), Tensor(np.zeros((0, 3))))


def test_max_over_time_gradient():
    rng = np.random.default_rng(7)
    x = Tensor(rng.normal(size=(8, 3)))

    def build(tape):
        return _sum(tape, max_over_time(tape, x))

    # eps small enough not to flip any argmax
    assert grad_check(build, [x], eps=1e-7) < 1e-6


def test_dense_identity_and_example():
    out = dense(Tape(record=False), Tensor([4.0, 5.0]), Tensor(np.eye(2)), Tensor(np.zeros(2)))
    np.testing.assert_array_equal(out.data, [4.0, 5.0])
    out = dense(Tape(record=False), Tensor([4.0, 5.0]), Tensor([[1.0, 2.0]]), Tensor([3.0]))
    np.testing.assert_array_equal(out.data, [17.0])


def test_dense_shape_mismatch():
    with pytest.raises(ValueError):
        dense(Tape(), Tensor(np.zeros(3)), Tensor(np.zeros((2, 4))), Tensor(np.zeros(2)))


def test_dense_gradient():
    rng = np.random.default_rng(11)
    x = Tensor(rng.normal(size=7))
    w = Tensor(rng.normal(size=(4, 7)))
    b = Tensor(rng.normal(size=4))

    def build(tape):
        return _sum(tape, dense(tape, x, w, b))

    assert grad_check(build, [x, w, b]) < 1e-6


def test_relu_values():
    out = relu(Tape(record=False), Tensor([-1.0, 0.0, 2.0]))
    np.testing.assert_array_equal(out.data, [0.0, 0.0, 2.0])


def test_grad_check_linear_is_exact():
    x = Tensor(np.array([1.0, 2.0, 3.0]))

    def build(tape):
        return _sum(tape, dense(tape, x, Tensor(np.array([[2.0, -1.0, 0.5]])), Tensor([0.0])))

    assert grad_check(build, [x]) < 1e-9


def test_grad_check_constant_function():
    x = Tensor(np.array([1.0, 2.0]))

    def build(tape):
        return Tensor(np.float64(3.0))

    assert grad_check(build, [x]) < 1e-12


def test_grad_check_rejects_nonscalar():
    x = Tensor(np.zeros(2))
    with pytest.raises(ValueError):
        grad_check(lambda tape: relu(tape, x), [x])


def _dense_ovr(x, w, b):
    """grad_check's ``build`` for a dense layer under the one-vs-rest loss."""
    return lambda tape: ovr_loss(tape, dense(tape, x, w, b), [1])


@pytest.mark.parametrize("eps", [0.0, -1e-5, float("nan"), float("inf")])
def test_grad_check_refuses_an_eps_that_is_not_finite_and_positive(eps):
    x, w, b = Tensor([1.0, -2.0]), Tensor([[0.5, 0.25], [-1.0, 2.0]]), Tensor([0.0, 0.1])
    with pytest.raises(ValueError, match="finite and positive"):
        grad_check(_dense_ovr(x, w, b), [w, b], eps=eps)


def test_grad_check_reports_nan_for_a_parameter_holding_nan():
    x, w, b = Tensor([1.0, -2.0]), Tensor([[0.5, np.nan], [-1.0, 2.0]]), Tensor([0.0, 0.1])
    assert np.isnan(grad_check(_dense_ovr(x, w, b), [w, b]))  # so no ``< tol`` passes it


def test_backward_on_a_tape_that_does_not_record_raises():
    x = Tensor([1.0, 2.0])
    tape = Tape(record=False)
    loss = _sum(tape, relu(tape, x))
    with pytest.raises(ValueError, match="does not record"):
        tape.backward(loss)
    assert x.grad is None


@pytest.mark.parametrize("seed", range(20))
def test_randomized_composite_gradients(seed):
    rng = np.random.default_rng(seed)
    L, e, F, w = 7, 3, 2, 3
    table = Tensor(rng.normal(size=(6, e)))
    table.data[0] = 0.0
    ids = rng.integers(1, 6, size=L)  # avoid PAD: its gradient is pinned to zero
    filters = Tensor(rng.normal(size=(F, w, e)))
    bias = Tensor(rng.normal(size=F))
    wd = Tensor(rng.normal(size=(2, F)))
    bd = Tensor(rng.normal(size=2))
    label = rng.integers(0, 2)

    def build(tape):  # ends in the one-vs-rest loss, so the sigmoid derivative is checked too
        x = embed_lookup(tape, ids, table)
        c = relu(tape, conv1d_valid(tape, x, filters, bias))
        p = max_over_time(tape, c)
        return ovr_loss(tape, dense(tape, p, wd, bd), label)

    assert grad_check(build, [table, filters, bias, wd, bd]) < 1e-4


def _per_position(x):
    """(ids, table) with ``table[ids] == x`` for an (..., L, e) array: each
    of the N*L positions gets its own id (U == N*L) after a zero PAD row, so
    row i+1 of the table's gradient is the gradient at position i."""
    edim = x.shape[-1]
    table = np.vstack([np.zeros((1, edim)), x.reshape(-1, edim)])
    return np.arange(1, len(table)).reshape(x.shape[:-1]), table


def _assert_fused_matches_reference(ids, table, filters, bias, relu_after=False):
    """``conv_max_pool`` over the distinct ids, as the encoder calls it,
    against the reference chain ``embed_lookup -> conv1d_valid ->
    max_over_time`` for one random upstream gradient: forward values and
    (table, filters, bias) gradients within 1e-12; a different winning time
    step would move a gradient by far more. With ``relu_after`` the fused op
    is followed by a ReLU and the reference applies it to every convolution
    output. The fused op on a non-recording tape, which pools by max alone,
    must give the recording forward's values bit for bit. Returns the fused
    op's values and gradients."""
    results = []
    for fused in (True, False):
        params = [Tensor(table), Tensor(filters), Tensor(bias)]
        tape = Tape()
        if fused:
            uniq, inv = np.unique(ids, return_inverse=True)
            rows = embed_lookup(tape, uniq, params[0])
            args = (inv.reshape(np.shape(ids)), rows, *params[1:])
            out = conv_max_pool(tape, *args)
            assert np.array_equal(conv_max_pool(Tape(record=False), *args).data, out.data)
            out = relu(tape, out) if relu_after else out
        else:
            c = conv1d_valid(tape, embed_lookup(tape, ids, params[0]), *params[1:])
            out = max_over_time(tape, relu(tape, c) if relu_after else c)
        out.grad = np.random.default_rng(0).normal(size=out.shape)
        for fn in reversed(tape._steps):
            fn()
        results.append((out.data, [p.grad for p in params]))
    (fused, fused_grads), (ref, ref_grads) = results
    assert fused.shape == ref.shape == np.shape(ids)[:-1] + filters.shape[:1]
    np.testing.assert_allclose(fused, ref, rtol=0, atol=1e-12)
    for got, want in zip(fused_grads, ref_grads):
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
    return fused, fused_grads


@pytest.mark.parametrize(
    "shape", [(9, 4), (5, 9, 4), (5, 3, 4)], ids=["unbatched", "batched", "single-window"]
)
def test_conv_max_pool_matches_reference(shape):
    rng = np.random.default_rng(21)  # filter width 3: the (5, 3, 4) input has L == w, T == 1
    _assert_fused_matches_reference(
        *_per_position(rng.normal(size=shape)), rng.normal(size=(6, 3, 4)), rng.normal(size=6)
    )


@pytest.mark.parametrize(
    "shape, width", [((5, 9, 4), 1), ((5, 6, 4), 6)], ids=["width-1", "width-equals-length"]
)
def test_conv_max_pool_matches_reference_at_the_extreme_widths(shape, width):
    rng = np.random.default_rng(22)
    _assert_fused_matches_reference(
        *_per_position(rng.normal(size=shape)), rng.normal(size=(6, width, 4)), rng.normal(size=6)
    )


def test_conv_max_pool_overlapping_winning_windows():
    # One large token under positive filters: every filter's winning window
    # covers it, at offsets that differ between filters, so the gradient at
    # that token sums terms from several filters and several window rows.
    rng = np.random.default_rng(25)
    x = 0.1 * rng.normal(size=(2, 12, 4))
    x[:, 6] += 5.0
    filters, bias = rng.uniform(0.5, 1.5, size=(16, 4, 4)), rng.normal(size=16)
    conv = conv1d_valid(Tape(record=False), Tensor(x), Tensor(filters), Tensor(bias))
    starts = np.argmax(conv.data, axis=-2)
    offsets = 6 - starts  # the window row that holds the large token
    assert ((offsets >= 0) & (offsets < 4)).all()
    assert all(len(set(doc)) >= 3 for doc in offsets)
    _assert_fused_matches_reference(*_per_position(x), filters, bias)


@pytest.mark.parametrize("bad", [-1, 3], ids=["negative", "past-the-rows"])
def test_conv_max_pool_refuses_out_of_range_row_index(bad):
    inv = np.array([[0, 1, 2, 1], [2, 0, bad, 1]])
    with pytest.raises(ValueError, match="row index out of range"):
        conv_max_pool(Tape(), inv, Tensor(np.zeros((3, 4))), Tensor(np.zeros((2, 2, 4))), Tensor(np.zeros(2)))


def test_conv_max_pool_single_distinct_token():
    # U == 1: every window of every document holds the same token, so all tie.
    rng = np.random.default_rng(27)
    _assert_fused_matches_reference(
        np.full((3, 8), 2), rng.normal(size=(4, 3)), rng.normal(size=(5, 3, 3)), rng.normal(size=5)
    )


def test_conv_max_pool_every_id_distinct():
    # U == N*L, with the distinct ids in no particular order
    rng = np.random.default_rng(28)
    ids = rng.permutation(np.arange(1, 5 * 9 + 1)).reshape(5, 9)
    _assert_fused_matches_reference(
        ids, rng.normal(size=(5 * 9 + 1, 4)), rng.normal(size=(6, 3, 4)), rng.normal(size=6)
    )


def test_conv_max_pool_repeated_ngram_ties_exactly():
    # A 3-gram of large tokens occurs twice in every document and wins under
    # positive filters. Both occurrences sum the same per-token responses in
    # the same order, so they tie exactly and the first one is the maximum.
    # Which copy wins moves no gradient, as both windows hold the same tokens.
    rng = np.random.default_rng(29)
    table = 0.1 * rng.normal(size=(12, 4))
    table[9:] += 3.0
    ids = rng.integers(1, 9, size=(4, 16))
    ids[:, 2:5] = ids[:, 10:13] = [9, 10, 11]
    filters, bias = rng.uniform(0.5, 1.5, size=(6, 3, 4)), rng.normal(size=6)
    fused, _ = _assert_fused_matches_reference(ids, table, filters, bias)
    tape = Tape(record=False)
    conv = conv1d_valid(tape, embed_lookup(tape, ids, Tensor(table)), Tensor(filters), Tensor(bias)).data
    assert np.array_equal(conv[:, 2], conv[:, 10])
    assert (np.argmax(conv, axis=-2) == 2).all()
    assert np.array_equal(fused, conv[:, 2])


def test_conv_max_pool_backward_temporaries_are_bounded():
    # The paper's widest filter at the training shape, with ids drawn
    # uniformly from the default 5,000-id vocabulary cap: U is about 4,600,
    # the densest batch the default ModelSpec allows. Work and memory grow
    # with U*w*F, not N*T: the backward's (U, F) tables peak at about 2.6
    # times the 5.1 MB that x = rows[inv] would take. At U == N*L, every
    # token distinct, the forward's (w, U, F) responses would peak near
    # 77 MB and the backward near 36 MB.
    rng = np.random.default_rng(26)
    uniq, inv = np.unique(rng.integers(0, 5000, size=(64, 200)), return_inverse=True)
    rows = Tensor(rng.normal(size=(len(uniq), 50)))
    filters, bias = Tensor(rng.normal(size=(150, 5, 50))), Tensor(rng.normal(size=150))
    tape = Tape()
    out = conv_max_pool(tape, inv.reshape(64, 200), rows, filters, bias)
    out.grad = rng.normal(size=out.shape)
    assert traced_peak(tape._steps[0]) <= 4 * 64 * 200 * 50 * 8


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_conv_max_pool_trailing_runs_match_the_reference(data):
    # Each document is random ids up to its length, then a run of one fill
    # id: PAD, or a real token ("... x x x x"). Every window inside that run
    # ties with the first of them, so the op convolves no further; the PAD
    # row is not zero, so the rule cannot lean on PAD scoring the bias.
    length = data.draw(st.integers(1, 10), label="L")
    width = data.draw(st.one_of(st.just(length), st.integers(1, length)), label="width")
    lengths = data.draw(st.lists(st.integers(0, length), min_size=1, max_size=5), label="lengths")
    fill = data.draw(st.lists(st.integers(0, 5), min_size=len(lengths), max_size=len(lengths)), label="fill")
    batched = data.draw(st.booleans(), label="batched") or len(lengths) > 1
    relu_after = data.draw(st.booleans(), label="relu_after")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    ids = rng.integers(0, 6, size=(len(lengths), length))
    in_run = np.arange(length) >= np.asarray(lengths)[:, None]
    ids = np.where(in_run, np.asarray(fill)[:, None], ids)
    _assert_fused_matches_reference(
        ids if batched else ids[0],
        rng.normal(size=(6, 3)),
        rng.normal(size=(4, width, 3)),
        rng.normal(size=4),
        relu_after=relu_after,
    )


@pytest.mark.parametrize("batched", [True, False], ids=["batched", "unbatched"])
@pytest.mark.parametrize(
    "block", [1, 3 * 10 * 4 + 5, 10**6], ids=["one-document-per-block", "blocks-of-3-3-1", "one-block"]
)
def test_conv_max_pool_blocks_match_one_document_per_block(monkeypatch, block, batched):
    # Seven documents whose real lengths are out of order, so sorting by
    # window count permutes the batch; T = 12 - 3 + 1 = 10 windows of F = 4
    # filters, so a budget of 125 elements holds 3 documents per block. A
    # block convolves up to its longest document: past a shorter one's own
    # end its windows lie in its trailing run and tie with the first of them.
    rng = np.random.default_rng(32)
    ids = np.where(np.arange(12) < np.array([9, 12, 2, 11, 7, 4, 0])[:, None], rng.integers(1, 8, size=(7, 12)), 0)
    ids[5, 4:] = 5  # a trailing run of a real token
    ids = ids if batched else ids[5]
    table, filters, bias = rng.normal(size=(8, 3)), rng.normal(size=(4, 3, 3)), rng.normal(size=4)
    results = []
    for budget in (1, block):
        monkeypatch.setattr(tensor, "BLOCK", budget)
        results.append(_assert_fused_matches_reference(ids, table, filters, bias))
    (one, one_grads), (got, got_grads) = results
    assert np.array_equal(got, one)  # the same values, so the same argmax and bias
    for g, want in zip(got_grads, one_grads):
        assert np.array_equal(g, want)  # the same winning windows


def test_conv_max_pool_inference_forward_memory_is_bounded():
    # One inference chunk of held-out synthetic documents at the paper's
    # widest filter (L=200, e=50, w=5, F=150): the forward's peak is the
    # (w, U, F) response table plus a few (T, F) window sums. A batch-wide
    # (N, T, F) buffer, 15 MB here, would not fit.
    per_class = 10 * INFERENCE_CHUNK // 8  # every tenth document fills one chunk
    docs = generate_synthetic_dataset(num_classes=8, docs_per_class=per_class, doc_len_range=(150, 250), seed=1)
    vocab = Vocabulary.build([tokenize(d.text) for d in docs[1::2]], 5000)
    ids = encode_documents(docs[::10][:INFERENCE_CHUNK], vocab, 200, ["c0"]).ids
    assert ids.shape == (INFERENCE_CHUNK, 200)
    uniq, inv = np.unique(ids, return_inverse=True)
    rng = np.random.default_rng(31)
    rows = Tensor(rng.normal(size=(len(uniq), 50)))
    filters, bias = Tensor(rng.normal(size=(150, 5, 50))), Tensor(rng.normal(size=150))
    peak = traced_peak(lambda: conv_max_pool(Tape(record=False), inv.reshape(ids.shape), rows, filters, bias))
    table, window_sums = 5 * len(uniq) * 150 * 8, (200 - 5 + 1) * 150 * 8
    assert peak <= table + 4 * window_sums


def test_conv_max_pool_inference_forward_memory_is_bounded_at_sweep_shapes():
    # One inference chunk of the experiment sweep's 30-60-token documents,
    # F = 50: a document's (T, F) window sum is about 24 KB, so the forward
    # gathers and adds several documents per block. Its peak is the (w, U, F)
    # response table plus two blocks of BLOCK elements, the take temporary
    # and the running sum. A batch-wide (N, T, F) buffer, 1.6 MB here, would
    # not fit.
    docs = generate_synthetic_dataset(docs_per_class=100, seed=1)
    vocab = Vocabulary.build([tokenize(d.text) for d in docs[1::2]], 500)
    ids = encode_documents(docs[::10][:INFERENCE_CHUNK], vocab, 64, ["c0"]).ids
    assert ids.shape == (INFERENCE_CHUNK, 64) and (ids != PAD_ID).sum(axis=1).min() >= 30
    uniq, inv = np.unique(ids, return_inverse=True)
    rng = np.random.default_rng(33)
    rows = Tensor(rng.normal(size=(len(uniq), 50)))
    for width in (3, 5):
        filters, bias = Tensor(rng.normal(size=(50, width, 50))), Tensor(rng.normal(size=50))
        peak = traced_peak(lambda: conv_max_pool(Tape(record=False), inv.reshape(ids.shape), rows, filters, bias))
        assert peak <= width * len(uniq) * 50 * 8 + 2 * tensor.BLOCK * 8


def test_conv_max_pool_ties_go_to_first_index():
    rng = np.random.default_rng(23)
    constant = np.tile(rng.normal(size=3), (3, 8, 1))  # every window of a document is equal
    _assert_fused_matches_reference(
        *_per_position(constant), rng.normal(size=(4, 2, 3)), rng.normal(size=4)
    )

    # Negative tokens under positive filters score below the bias; every window
    # of the all-PAD (zero) tail scores exactly the bias, so the tail ties.
    x = np.zeros((2, 10, 3))
    x[:, :4] = -rng.uniform(0.5, 1.0, size=(2, 4, 3))
    filters = rng.uniform(0.5, 1.0, size=(4, 3, 3))
    fused, grads = _assert_fused_matches_reference(*_per_position(x), filters, np.ones(4))
    np.testing.assert_array_equal(fused, np.ones((2, 4)))
    x_grad = grads[0][1:].reshape(x.shape)
    assert np.count_nonzero(x_grad[:, 7:]) == 0  # only the first tail window (t=4) won


def test_conv_max_pool_non_positive_maxima_pass_no_gradient_through_relu():
    rng = np.random.default_rng(24)
    x, filters = rng.normal(size=(3, 8, 4)), rng.normal(size=(5, 2, 4))
    bias = np.full(5, -100.0)  # every convolution output, hence every maximum, is negative
    _, grads = _assert_fused_matches_reference(*_per_position(x), filters, bias, relu_after=True)
    for g in grads:
        np.testing.assert_array_equal(g, np.zeros_like(g))


@pytest.mark.parametrize("seed", range(5))
def test_fused_composite_gradients(seed):
    rng = np.random.default_rng(100 + seed)
    B, L, e, F, w = 3, 7, 3, 2, 3
    table = Tensor(rng.normal(size=(6, e)))
    table.data[0] = 0.0
    ids = rng.integers(1, 6, size=(B, L))  # avoid PAD: its gradient is pinned to zero
    uniq, inv = np.unique(ids, return_inverse=True)
    filters = Tensor(rng.normal(size=(F, w, e)))
    bias = Tensor(rng.normal(size=F))
    wd = Tensor(rng.normal(size=(2, F)))
    bd = Tensor(rng.normal(size=2))
    labels = rng.integers(0, 2, size=B)

    def build(tape):  # the encoder's order: pool first, then ReLU
        rows = embed_lookup(tape, uniq, table)
        p = relu(tape, conv_max_pool(tape, inv.reshape(B, L), rows, filters, bias))
        return ovr_loss(tape, dense(tape, p, wd, bd), labels)

    assert grad_check(build, [table, filters, bias, wd, bd]) < 1e-4


def test_forward_bit_identical_across_runs():
    rng = np.random.default_rng(9)
    x = Tensor(rng.normal(size=(10, 4)))
    f = Tensor(rng.normal(size=(3, 3, 4)))
    b = Tensor(rng.normal(size=3))
    a = conv1d_valid(Tape(record=False), x, f, b).data
    c = conv1d_valid(Tape(record=False), x, f, b).data
    assert np.array_equal(a, c)


def _normal(*shape):
    return Tensor(np.random.default_rng(len(shape)).normal(size=shape))


# Arguments after the tape for each op of tensor and head, built per case
OFF_PATH_ARGS = {
    "embed_lookup": lambda: ([1, 2], _normal(4, 3)),
    "conv1d_valid": lambda: (_normal(5, 3), _normal(2, 2, 3), _normal(2)),
    "conv_max_pool": lambda: ([[0, 1, 2, 1]], _normal(3, 3), _normal(2, 2, 3), _normal(2)),
    "max_over_time": lambda: (_normal(4, 2),),
    "dense": lambda: (_normal(3), _normal(2, 3), _normal(2)),
    "relu": lambda: (_normal(3),),
    "concat": lambda: ([_normal(2), _normal(3)],),
    "node": lambda: (np.ones(3), _normal(3).accumulate),
    "ovr_loss": lambda: (_normal(2, 3), [0, 2]),
    "softmax_loss": lambda: (_normal(2, 3), [0, 2]),
}


def _tape_ops():
    """Every function of tensor and head whose first parameter is the tape."""
    return [
        pytest.param(fn, id=name)
        for module in (tensor, head)
        for name, fn in vars(module).items()
        if inspect.isfunction(fn)
        and fn.__module__ == module.__name__
        and next(iter(inspect.signature(fn).parameters), None) == "tape"
    ]


def _inputs(args):
    """The Tensors among an op's arguments: given directly, in a list, or as
    the owner of a bound ``accumulate``."""
    for arg in args:
        for item in arg if isinstance(arg, list) else [getattr(arg, "__self__", arg)]:
            if isinstance(item, Tensor):
                yield item


@pytest.mark.parametrize("op", _tape_ops())
def test_off_path_node_keeps_zero_gradient(op):
    assert op.__name__ in OFF_PATH_ARGS, f"{op.__name__} takes a tape but has no off-path case"
    args = OFF_PATH_ARGS[op.__name__]()
    inputs = list(_inputs(args))
    x = Tensor(np.array([1.0, 2.0]))
    tape = Tape()
    op(tape, *args)  # recorded but not connected to the loss
    tape.backward(_sum(tape, relu(tape, x)))
    assert len(tape._steps) == 3 and x.grad is not None
    assert inputs and all(t.grad is None for t in inputs)

"""Minimal dense float64 arrays with reverse-mode gradients.

Only the handful of operations the classifier architecture needs are
implemented: embedding lookup, the fused valid 1-D convolution plus
max-over-time pooling that the encoder runs, dense layers, ReLU and
concatenation. The fused op reads its input as a table of distinct token
rows plus an index per position, so its work follows the distinct tokens in
a batch, not its N*T windows; it stops each document's windows at the start
of its final run of one repeated token (its PAD tail, the encoder's only
trim), sums the windows of documents of similar length in cache-sized
blocks (one document per block at the paper shapes), and on a non-recording
tape it pools by max alone. Valid 1-D convolution and max-over-time pooling
also exist as separate ops, the plain reference the fused op is tested
against. All ops accept an optional leading batch dimension.
Gradients are recorded on an explicit ``Tape`` and replayed in exact reverse
execution order. Every op, the losses in ``head`` too, records its backward
the one way: it ends with ``return node(tape, value, back)``, where
``back(g)`` adds the output gradient ``g``'s share to each input's gradient.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

import numpy as np

PAD_ID = 0
# Window sums per block of conv_max_pool's forward, in float64 elements
# (256 KiB), so a block's sum and its gather temporary stay in cache
BLOCK = 2**15


class Tensor:
    """A contiguous float64 array plus a lazily allocated gradient buffer."""

    __slots__ = ("data", "grad")

    def __init__(self, data) -> None:
        # np.ascontiguousarray would promote 0-d scalars to shape (1,)
        self.data = np.asarray(data, dtype=np.float64, order="C")
        self.grad: np.ndarray | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def zero_grad(self) -> None:
        self.grad = None

    def accumulate(self, g: np.ndarray) -> None:
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad += g

    def copy(self) -> "Tensor":
        return Tensor(self.data.copy())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Tensor(shape={self.data.shape})"


class Tape:
    """Records backward closures in execution order.

    ``backward`` replays them in reverse. A tape created with
    ``record=False`` skips recording entirely, which is the inference mode;
    an op may then skip work that only its backward reads, as
    ``conv_max_pool`` skips the argmax, and ``backward`` refuses it.
    Ops record through ``node``, whose step passes nothing on while its
    output's gradient is None: nodes that are not on any path to the loss
    keep a zero (None) gradient.
    """

    def __init__(self, record: bool = True) -> None:
        self.record = record
        self._steps: list[Callable[[], None]] = []

    def push(self, fn: Callable[[], None]) -> None:
        if self.record:
            self._steps.append(fn)

    def backward(self, loss: Tensor) -> None:
        if not self.record:
            raise ValueError("backward on a tape that does not record")
        if loss.data.shape != ():
            raise ValueError("backward requires a scalar loss")
        loss.accumulate(np.ones(()))
        for fn in reversed(self._steps):
            fn()


def node(tape: Tape, data, back: Callable[[np.ndarray], None]) -> Tensor:
    """An op's output ``Tensor(data)``, with the op's backward on ``tape``: a
    step that calls ``back`` with the output's gradient once it has one, and
    does nothing while it has none. It reaches the tape only through
    ``push``, so a stand-in that wraps ``push`` sees every backward step."""
    result = Tensor(data)
    tape.push(lambda: result.grad is None or back(result.grad))
    return result


def embed_lookup(tape: Tape, ids, table: Tensor) -> Tensor:
    """Rows of ``table`` selected by token id; PAD row (id 0) gets no gradient."""
    ids = np.asarray(ids, dtype=np.int64)
    vocab_size = table.data.shape[0]
    if ids.size and (ids.min() < 0 or ids.max() >= vocab_size):
        raise ValueError(f"token id out of range [0, {vocab_size})")

    def back(g: np.ndarray) -> None:
        edim = table.data.shape[1]
        d_table = _scatter_add(ids[..., None] * edim + np.arange(edim), g, table.data.size)
        d_table = d_table.reshape(table.data.shape)
        d_table[PAD_ID] = 0.0
        table.accumulate(d_table)

    return node(tape, table.data[ids], back)


def _scatter_add(index: np.ndarray, weights: np.ndarray, size: int) -> np.ndarray:
    """Flat (size,) array whose entry i sums the weights at ``index == i``.

    Each entry adds its terms in the order they appear in ``index``, as
    ``np.add.at`` would, at a fraction of its cost.
    """
    return np.bincount(index.reshape(-1), weights=weights.reshape(-1), minlength=size)


def _check_conv(length: int, edim: int, filters: Tensor, bias: Tensor) -> int:
    """Number of valid windows T = L-w+1 of a convolution of (..., L, e) inputs."""
    num_filters, width, fdim = filters.shape
    if fdim != edim:
        raise ValueError(f"filter dim {fdim} != input dim {edim}")
    if bias.shape != (num_filters,):
        raise ValueError("bias shape must be (num_filters,)")
    if length < width:
        raise ValueError(f"input length {length} < filter width {width}")
    return length - width + 1


def conv1d_valid(tape: Tape, x: Tensor, filters: Tensor, bias: Tensor) -> Tensor:
    """Valid (no padding) 1-D convolution over the time axis.

    ``x`` is (..., L, e), ``filters`` is (F, w, e), ``bias`` is (F,);
    output is (..., L-w+1, F). It is computed one window row j at a time,
    ``sum_j x[..., j:j+T, :] @ filters[:, j].T``, in the order ``conv_max_pool``
    sums its per-token responses.
    """
    num_filters, width, edim = filters.shape
    steps = _check_conv(x.shape[-2], x.shape[-1], filters, bias)
    conv = x.data[..., :steps, :] @ filters.data[:, 0].T
    for j in range(1, width):
        conv += x.data[..., j : j + steps, :] @ filters.data[:, j].T

    def back(g: np.ndarray) -> None:  # g: (..., T, F)
        g2 = g.reshape(-1, num_filters)
        dx = np.zeros_like(x.data)
        d_filters = np.empty(filters.shape)
        for j in range(width):
            dx[..., j : j + steps, :] += g @ filters.data[:, j]
            d_filters[:, j] = g2.T @ x.data[..., j : j + steps, :].reshape(-1, edim)
        x.accumulate(dx)
        filters.accumulate(d_filters)
        bias.accumulate(g2.sum(axis=0))

    return node(tape, conv + bias.data, back)


def conv_max_pool(tape: Tape, inv, rows: Tensor, filters: Tensor, bias: Tensor) -> Tensor:
    """``max_over_time(conv1d_valid(rows[inv], filters, bias))`` in one op.

    ``rows`` is (U, e), one row per distinct token; ``inv`` is (..., L) and
    indexes it, so the input is ``x = rows[inv]``, which is never built.
    ``filters`` is (F, w, e), ``bias`` is (F,); output is (..., F).

    The cost follows the U distinct tokens, not the N*T windows. The forward
    takes each token's response to each filter row, ``q[j] = rows @
    filters[:, j].T`` (U*w*F dot products), then sums ``q[j][inv[j:j+T]]``
    over j, in ``conv1d_valid``'s order, takes the first maximizing time
    step per filter and adds the bias to the pooled values: rounding is
    monotone, so ``max(c) + b == max(c + b)`` bit for bit. Windows that hold
    the same tokens score exactly the same, so every window that starts at
    or after ``tail[n]``, the first position of document n's final run of
    one repeated index, ties with the one at ``tail[n]``: document n needs
    only its first ``ends[n] = min(T, tail[n] + 1)`` windows, and the pooled
    values, the first-index argmax and every gradient are those of all T.
    The rule reads only ``inv``, so it holds whatever row the run repeats,
    PAD or not. The sum runs over blocks of ``b = BLOCK // (E*F)`` documents
    (at least one; E is the batch's largest ``end``) in the order of their
    ``ends``, position-major, so one block's (end, b*F) window sums fit in
    cache and are pooled along axis 0 in one call; a block runs to its
    largest ``end``, which is exact, as a document's windows past its own
    end tie with the one at its ``tail``.
    At the paper shapes E*F is near BLOCK, so b is 1; 30-60-token documents
    with 50 filters share a block ten at a time. On a non-recording tape
    the forward pools by ``max`` alone, the same element the argmax picks,
    and keeps no argmax. The backward scatters the pooled gradient to the
    tokens of the winning windows, one window row at a time, into a (U, F)
    table per row. Work and memory grow with U*w*F: at U == N*L (every token
    distinct) the (w, U, F) responses outweigh an im2col of x.
    """
    inv = np.asarray(inv, dtype=np.int64)
    num_filters, width, _ = filters.shape
    num_rows = rows.shape[0]
    steps = _check_conv(inv.shape[-1], rows.shape[-1], filters, bias)
    if inv.size and (inv.min() < 0 or inv.max() >= num_rows):
        raise ValueError(f"row index out of range [0, {num_rows})")
    docs = inv.reshape(-1, inv.shape[-1])  # (N, L)
    num_docs = len(docs)
    # tail[n]: first position of document n's final run of one repeated index
    tail = ((docs[:, 1:] != docs[:, :-1]) * np.arange(1, docs.shape[1])).max(axis=1, initial=0)
    ends = np.minimum(steps, tail + 1)
    order = np.argsort(ends, kind="stable")
    ends = ends[order].tolist()
    by_pos = docs[order].T  # (L, N), documents sorted by ends
    per_block = max(1, min(num_docs, BLOCK // (max(ends, default=1) * num_filters)))  # documents per block
    q = rows.data @ filters.data.transpose(1, 2, 0)  # (w, U, F): q[j] = rows @ filters[:, j].T
    cols = np.arange(num_filters)
    lanes = np.arange(per_block * num_filters)  # one block's (document, filter) pairs
    # pooled and idx hold the sorted documents' (document, filter) pairs in a row
    idx = np.empty(num_docs * num_filters, dtype=np.int64) if tape.record else None
    pooled = np.empty(num_docs * num_filters)
    for start in range(0, num_docs, per_block):
        block = by_pos[:, start : start + per_block]  # (L, b)
        b, end = block.shape[1], ends[start + block.shape[1] - 1]  # the block's largest end
        conv = q[0].take(block[:end], axis=0)  # (end, b, F); take gathers faster than q[0][...]
        for j in range(1, width):
            conv += q[j].take(block[j : j + end], axis=0)
        conv = conv.reshape(end, b * num_filters)
        at = slice(start * num_filters, (start + b) * num_filters)
        if idx is None:
            pooled[at] = conv.max(axis=0)
        else:
            idx[at] = np.argmax(conv, axis=0)  # first maximizing time step per pair
            pooled[at] = conv[idx[at], lanes[: b * num_filters]]
    unsort = np.argsort(order)  # document n's position in the sorted order
    pooled = pooled.reshape(num_docs, num_filters)[unsort]
    idx = None if idx is None else idx.reshape(num_docs, num_filters)[unsort]

    def back(g: np.ndarray) -> None:
        g = g.reshape(-1, num_filters)  # (N, F)
        d_filters = np.empty(filters.shape)
        d_rows = np.zeros(rows.shape)
        for j in range(width):
            # dq[u, f] sums g[n, f] over the windows (n, f) whose row j is token u
            token = np.take_along_axis(docs, idx + j, axis=1)  # (N, F)
            dq = _scatter_add(token * num_filters + cols, g, num_rows * num_filters)
            dq = dq.reshape(num_rows, num_filters)
            d_filters[:, j] = dq.T @ rows.data
            d_rows += dq @ filters.data[:, j]
        filters.accumulate(d_filters)
        bias.accumulate(g.sum(axis=0))
        rows.accumulate(d_rows)

    return node(tape, (pooled + bias.data).reshape(*inv.shape[:-1], num_filters), back)


def max_over_time(tape: Tape, x: Tensor) -> Tensor:
    """Columnwise max over the time axis; ties route gradient to the first index."""
    if x.shape[-2] == 0:
        raise ValueError("max_over_time over an empty time axis")
    idx = np.argmax(x.data, axis=-2)  # first maximizing index per column

    def back(g: np.ndarray) -> None:
        dx = np.zeros_like(x.data)
        np.put_along_axis(dx, idx[..., None, :], g[..., None, :], axis=-2)
        x.accumulate(dx)

    return node(tape, np.take_along_axis(x.data, idx[..., None, :], axis=-2).squeeze(-2), back)


def dense(tape: Tape, x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """Affine map weight @ x + bias; ``x`` is (..., a), weight (b, a), bias (b,)."""
    b_dim, a_dim = weight.shape
    if x.shape[-1] != a_dim:
        raise ValueError(f"input dim {x.shape[-1]} != weight dim {a_dim}")
    if bias.shape != (b_dim,):
        raise ValueError("bias shape must match weight rows")

    def back(g: np.ndarray) -> None:
        x.accumulate(g @ weight.data)
        g2 = g.reshape(-1, b_dim)
        weight.accumulate(g2.T @ x.data.reshape(-1, a_dim))
        bias.accumulate(g2.sum(axis=0))

    return node(tape, x.data @ weight.data.T + bias.data, back)


def relu(tape: Tape, x: Tensor) -> Tensor:
    return node(tape, np.maximum(0.0, x.data), lambda g: x.accumulate(g * (x.data > 0)))


def concat(tape: Tape, parts: Sequence[Tensor]) -> Tensor:
    """Concatenate along the last axis."""
    if not parts:
        raise ValueError("concat of no tensors")
    sizes = [p.shape[-1] for p in parts]

    def back(g: np.ndarray) -> None:
        offset = 0
        for p, size in zip(parts, sizes):
            p.accumulate(g[..., offset : offset + size])
            offset += size

    return node(tape, np.concatenate([p.data for p in parts], axis=-1), back)


def grad_check(
    build: Callable[[Tape], Tensor], params: Iterable[Tensor], eps: float = 1e-5
) -> float:
    """Max relative error between analytic and central-difference gradients.

    ``build`` reruns the full forward pass on a fresh tape and returns the
    scalar loss. Relative error per component is
    |analytic - numeric| / max(|analytic|, |numeric|, 1e-8); a NaN in any
    component makes the result NaN, so no ``< tol`` check passes it.
    """
    if not 0 < eps < np.inf:
        raise ValueError("eps must be finite and positive")
    params = list(params)
    tape = Tape()
    loss = build(tape)
    if loss.data.shape != ():
        raise ValueError("grad_check requires a scalar-valued function")
    for p in params:
        p.zero_grad()
    tape.backward(loss)

    worst = 0.0
    for p in params:
        analytic = p.grad if p.grad is not None else np.zeros_like(p.data)
        analytic = analytic.reshape(-1)
        flat = p.data.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            f_plus = float(build(Tape(record=False)).data)
            flat[i] = orig - eps
            f_minus = float(build(Tape(record=False)).data)
            flat[i] = orig
            numeric = (f_plus - f_minus) / (2.0 * eps)
            err = abs(analytic[i] - numeric) / max(abs(analytic[i]), abs(numeric), 1e-8)
            worst = float(np.maximum(worst, err))  # max(0.0, nan) would give 0.0
    return worst

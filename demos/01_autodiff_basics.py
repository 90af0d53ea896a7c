"""Tour of the minimal reverse-mode autodiff core.

Builds a tiny convolutional text scorer by hand, runs a backward pass, and
confirms the gradients against central finite differences.
"""

import numpy as np

from opentc.tensor import (
    Tape,
    Tensor,
    conv1d_valid,
    dense,
    embed_lookup,
    grad_check,
    max_over_time,
    node,
    relu,
)

rng = np.random.default_rng(0)

# A 6-token "document" over a 10-word vocabulary, 4-dim embeddings.
table = Tensor(rng.uniform(-0.25, 0.25, size=(10, 4)))
table.data[0] = 0.0  # row 0 is PAD and stays zero
ids = np.array([3, 7, 2, 9, 1, 4])

filters = Tensor(rng.normal(0, 0.3, size=(5, 3, 4)))  # 5 filters of width 3
fbias = Tensor(np.zeros(5))
w = Tensor(rng.normal(0, 0.3, size=(1, 5)))
b = Tensor(np.zeros(1))


def score(tape):
    x = embed_lookup(tape, ids, table)          # (6, 4)
    c = relu(tape, conv1d_valid(tape, x, filters, fbias))  # (4, 5)
    pooled = max_over_time(tape, c)             # (5,)
    return dense(tape, pooled, w, b)            # (1,)


tape = Tape()
out = score(tape)
print(f"forward score: {float(out.data[0]):+.6f}")

# Reverse pass: seed the output gradient and replay the tape backwards.
out.grad = np.ones(1)
for step in reversed(tape._steps):
    step()
print(f"d(score)/d(bias) = {b.grad}")
print(f"embedding rows touched: {np.flatnonzero(np.abs(table.grad).sum(axis=1))}")


# The same network as a scalar loss, checked against finite differences.
# A new op records its backward with ``node``, whose ``back`` gets the
# gradient of the op's output.
def loss(tape):
    s = score(tape)
    return node(tape, s.data[0] ** 2, lambda g: s.accumulate(np.array([2.0 * s.data[0] * float(g)])))


err = grad_check(loss, [table, filters, fbias, w, b])
print(f"max relative gradient error vs finite differences: {err:.2e}")

"""Dense tensor algebra on a row-major vectorization convention.

A dense K-mode tensor is a C-contiguous ``float64`` :class:`numpy.ndarray`
whose shape is the dimension tuple ``(n_1, ..., n_K)``.  Vectorization stacks
entries in C order, so the 1-based multi-index ``(i_1, ..., i_K)`` lands at
1-based linear position

    j = i_K + sum_{k=1}^{K-1} (i_k - 1) * prod_{l=k+1}^{K} n_l.

With this ordering ``vec(W x_1 U1 ... x_K UK) == kron(U1, ..., UK) @ vec(W)``
for factor matrices in natural mode order, which every structured computation
in this package relies on.

Conventions at API boundaries:

* multi-indices are tuples of 1-based integers,
* Tucker factor collections are lists of 2-D arrays ordered by mode,
* all operations are pure and never mutate their inputs.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .errors import ShapeError


def as_tensor(values) -> np.ndarray:
    """Coerce to a C-contiguous float64 array (a no-op for conforming input)."""
    return np.ascontiguousarray(values, dtype=np.float64)


def multi_index(j: int, dims: Sequence[int]) -> tuple[int, ...]:
    """1-based multi-index of the 1-based linear position ``j`` in ``dims``."""
    n = int(np.prod(dims))
    if not 1 <= j <= n:
        raise IndexError(f"linear position {j} out of range [1, {n}]")
    out = []
    rem = j - 1
    for size in reversed(dims):
        out.append(rem % size + 1)
        rem //= size
    return tuple(reversed(out))


def mode_k_product(t: np.ndarray, m: np.ndarray, k: int) -> np.ndarray:
    """Contract mode ``k`` (0-based) of ``t`` against the columns of ``m``.

    ``m`` has shape (rows, t.shape[k]); the result is a new C-contiguous
    tensor with dimension k replaced by ``rows``.

    A C-order ``t`` (other layouts are copied to C order first) is viewed,
    without copying, as a stack of (n_k, after) matrices, one per index of
    the modes before k, so the product is one batched GEMM ``m @ t3``; for
    the last mode it is the single GEMM ``t2 @ m.T``.  Neither ``t`` nor the
    result is ever transposed in memory.
    """
    t = as_tensor(t)
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2:
        raise ShapeError(f"mode-{k} factor must be a matrix, got ndim={m.ndim}")
    if not 0 <= k < t.ndim:
        raise ShapeError(f"mode {k} out of range for order-{t.ndim} tensor")
    if m.shape[1] != t.shape[k]:
        raise ShapeError(
            f"mode-{k} factor has {m.shape[1]} columns, tensor dimension is {t.shape[k]}"
        )
    shape = t.shape
    before, after = math.prod(shape[:k]), math.prod(shape[k + 1 :])
    if after == 1:
        out = t.reshape(before, shape[k]) @ m.T
    else:
        out = np.matmul(m, t.reshape(before, shape[k], after))
    return out.reshape(shape[:k] + (m.shape[0],) + shape[k + 1 :])


def frobenius_norm_sq(t: np.ndarray) -> float:
    """Sum of squared entries."""
    t = np.asarray(t, dtype=np.float64)
    return float(np.vdot(t, t))


def multi_mode_vector_contract(d: np.ndarray, vecs: Sequence[np.ndarray]) -> float:
    """Contract every mode of ``d`` against a vector: ``d x_1 v1 ... x_K vK``.

    Equals ``dot(kron(v1, ..., vK), vec(d))`` without forming the Kronecker
    vector; cost is O(prod(dims)).
    """
    d = np.asarray(d, dtype=np.float64)
    if len(vecs) != d.ndim:
        raise ShapeError(f"{len(vecs)} vectors for an order-{d.ndim} tensor")
    out = d
    for v in vecs:
        v = np.asarray(v, dtype=np.float64)
        if v.ndim != 1 or v.size != out.shape[0]:
            raise ShapeError(
                f"contraction vector of length {v.size} against dimension {out.shape[0]}"
            )
        out = np.tensordot(out, v, axes=([0], [0]))
    return float(out)

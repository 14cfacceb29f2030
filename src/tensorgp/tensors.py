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

from .errors import IndexRangeError, ShapeError


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


def flat_positions(idx: np.ndarray, dims: Sequence[int], where) -> np.ndarray:
    """Row-major flat grid positions of the 1-based rows of the (m, K) ``idx``.

    Rows may repeat.  The first row off the grid raises :class:`IndexRangeError`,
    labelled ``where(r)`` for its 0-based row r, with modes numbered from 1.
    """
    bad = (idx < 1) | (idx > np.asarray(dims))
    if bad.any():
        r, m = np.argwhere(bad)[0].tolist()
        raise IndexRangeError(f"{where(r)}: index {idx[r, m]} out of range [1, {dims[m]}] in mode {m + 1}", r)
    return np.ravel_multi_index(tuple((idx.astype(np.intp) - 1).T), dims)


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


def contract_except(d: np.ndarray, vecs: Sequence[np.ndarray], k: int) -> np.ndarray:
    """Contract every mode of ``d`` but ``k`` against its vector in ``vecs``.

    Returns a new vector on mode k (``vecs[k]`` is checked but not used).
    Each other mode costs one matrix-vector product on a reshaped C-order
    view: the modes after k are contracted from the last, then those before k
    from the first.
    """
    d = as_tensor(d)
    if len(vecs) != d.ndim or not 0 <= k < d.ndim:
        raise ShapeError(f"{len(vecs)} vectors and mode {k} for an order-{d.ndim} tensor")
    vecs = [np.asarray(v, dtype=np.float64) for v in vecs]
    for v, n in zip(vecs, d.shape):
        if v.ndim != 1 or v.size != n:
            raise ShapeError(f"contraction vector of length {v.size} against dimension {n}")
    shape = d.shape
    out = d.copy() if d.ndim == 1 else d
    for j in reversed(range(k + 1, d.ndim)):  # out holds modes 0..j
        out = out.reshape(math.prod(shape[:j]), shape[j]) @ vecs[j]
    for j in range(k):  # out holds modes j..k
        out = vecs[j] @ out.reshape(shape[j], math.prod(shape[j + 1 : k + 1]))
    return out.reshape(shape[k])


def multi_mode_vector_contract(d: np.ndarray, vecs: Sequence[np.ndarray]) -> float:
    """Contract every mode of ``d`` against a vector: ``d x_1 v1 ... x_K vK``.

    Equals ``dot(kron(v1, ..., vK), vec(d))`` without forming the Kronecker
    vector; cost is O(prod(dims)).
    """
    rest = contract_except(d, vecs, 0)
    return float(np.asarray(vecs[0], dtype=np.float64) @ rest)


def mode_gram(a: np.ndarray, b: np.ndarray, k: int) -> np.ndarray:
    """unfold_k(a) @ unfold_k(b)' for two tensors of the same shape.

    Both are viewed without copying as (before, n_k, after) stacks, so this is
    one batched GEMM summed over the batch, or one GEMM for the last mode.
    """
    a, b = as_tensor(a), as_tensor(b)
    if a.shape != b.shape or not 0 <= k < a.ndim:
        raise ShapeError(f"mode-{k} unfoldings of shapes {a.shape} and {b.shape}")
    shape = a.shape
    before, after = math.prod(shape[:k]), math.prod(shape[k + 1 :])
    a3, b3 = a.reshape(before, shape[k], after), b.reshape(before, shape[k], after)
    if after == 1:
        return a3[:, :, 0].T @ b3[:, :, 0]
    return np.matmul(a3, b3.transpose(0, 2, 1)).sum(axis=0)

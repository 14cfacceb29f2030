"""Covariance functions over factor rows and the Kronecker-spectral core.

Each tensor mode carries a Gram matrix built from a covariance function
evaluated between rows of that mode's factor matrix.  Downstream computations
only ever touch the Gram matrix through its symmetric eigendecomposition, so
the decomposition is computed eagerly and stored alongside the matrix.

S = S_1 x ... x S_K is diagonal in the product of the mode eigenbases, so
log-determinants, quadratic forms, traces and solves are per-mode products
plus eigenvalue arithmetic.  The functions at the end of this module are that
algebra, shared by the E-step, M-step, objective, prediction and densities.

Supported families (``t`` the exponent of the distance):

* ``gaussian``     k(u, v) = exp(-gamma * ||u - v||^2)      (t = 2)
* ``exponential``  k(u, v) = exp(-gamma * ||u - v||)        (t = 1)
* ``linear``       k(u, v) = <u, v>

gamma is a fixed hyperparameter here, selected by cross-validation in the
evaluation harness, never optimized inside EM.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import NumericalError, ShapeError
from .tensors import mode_k_product, multi_mode_vector_contract

FAMILIES = ("gaussian", "exponential", "linear")

# Strictly positive spectra are required wherever inverse Gram factors appear.
EIGENVALUE_FLOOR = 1e-12
JITTER_START_FRACTION = 1e-8
JITTER_MAX_FRACTION = 1e-2


@dataclass(frozen=True)
class KernelSpec:
    """Covariance family plus its length-scale weight (unused for linear)."""

    family: str
    gamma: float = 1.0

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown kernel family {self.family!r}; pick from {FAMILIES}")
        if self.family != "linear" and not self.gamma > 0:
            raise ValueError(f"gamma must be positive for {self.family} kernels")


@dataclass
class SpectralGram:
    """A jittered Gram matrix together with its eigendecomposition.

    ``gram == eigvecs @ diag(eigvals) @ eigvecs.T`` up to round-off and floor
    clipping; eigenvalues are ascending (LAPACK order) and strictly positive.
    ``kernel`` is the jitter-free kernel matrix the Gram was built from, kept
    so the M-step gradient (:func:`gram_gradient_contract`) need not rebuild it.
    """

    gram: np.ndarray
    eigvecs: np.ndarray
    eigvals: np.ndarray
    jitter_applied: float
    kernel: np.ndarray | None = None

    @property
    def size(self) -> int:
        return self.gram.shape[0]


def _sq_distances(rows: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances between all row pairs.

    The squares are summed one column at a time, in column order, which is the
    order of ``scipy.spatial.distance.cdist`` and gives the same bits; a
    ``sum`` over the last axis switches to pairwise summation at 8 columns.
    """
    out = np.zeros((rows.shape[0], rows.shape[0]))
    for col in rows.T:
        d = col[:, None] - col
        out += d * d
    return out


def kernel_matrix(spec: KernelSpec, rows: np.ndarray) -> np.ndarray:
    """Raw (jitter-free) Gram matrix between all row pairs."""
    rows = np.atleast_2d(np.asarray(rows, dtype=np.float64))
    if spec.family == "linear":
        return rows @ rows.T
    sq = _sq_distances(rows)
    k = np.exp(-spec.gamma * (sq if spec.family == "gaussian" else np.sqrt(sq)))
    # A row with an infinite entry is at NaN distance from itself; k(u, u) = 1.
    np.fill_diagonal(k, 1.0)
    return k


def gram_matrix(spec: KernelSpec, rows: np.ndarray, jitter: float | None = None) -> SpectralGram:
    """Build the per-mode Gram matrix and eigendecompose it.

    When ``jitter`` is None it starts at JITTER_START_FRACTION of the mean
    diagonal and escalates tenfold whenever the spectrum still dips below the
    eigenvalue floor, up to JITTER_MAX_FRACTION.  Passing an explicit jitter
    freezes it (the M-step does this so its objective stays differentiable).
    The raw kernel is kept on the result as ``kernel``.
    """
    raw = kernel_matrix(spec, rows)
    n = raw.shape[0]
    if jitter is not None:
        candidates = [float(jitter)]
    else:
        scale = float(np.mean(np.diag(raw)))
        if scale <= 0.0:
            scale = 1.0
        candidates = []
        j = JITTER_START_FRACTION * scale
        while j <= JITTER_MAX_FRACTION * scale * (1 + 1e-12):
            candidates.append(j)
            j *= 10.0

    last_err: Exception | None = None
    for j in candidates:
        jittered = raw.copy()
        jittered.flat[:: n + 1] += j
        try:
            vals, vecs = np.linalg.eigh(jittered)
        except np.linalg.LinAlgError as err:  # pragma: no cover - hard to provoke
            last_err = err
            continue
        if vals[0] >= EIGENVALUE_FLOOR or j == candidates[-1]:
            return SpectralGram(jittered, vecs, np.maximum(vals, EIGENVALUE_FLOOR), j, raw)
    raise NumericalError(
        f"eigendecomposition failed for {spec.family} Gram of size {n} "
        f"(max jitter {candidates[-1]:.3e}): {last_err}"
    )


def gram_gradient_contract(
    spec: KernelSpec, rows: np.ndarray, weights: np.ndarray, kernel: np.ndarray
) -> np.ndarray:
    """Backpropagate a symmetric weight matrix through the Gram construction.

    Returns the matrix Z with Z[i, j] = sum_{a,b} W[a, b] * dK[a, b]/d rows[i, j],
    i.e. the adjoint of ``rows -> kernel_matrix(spec, rows)`` applied to W.
    ``kernel`` is ``kernel_matrix(spec, rows)``, which the caller already holds
    (``SpectralGram.kernel``), so the kernel is evaluated once per point; the
    exponential family recomputes only the distances, without a second ``exp``.
    The exponential family is non-differentiable at coincident rows; the
    subgradient there is taken as 0, consistent with symmetry.
    """
    rows = np.atleast_2d(np.asarray(rows, dtype=np.float64))
    weights = np.asarray(weights, dtype=np.float64)
    if weights.shape != (rows.shape[0], rows.shape[0]):
        raise ShapeError(f"weight matrix {weights.shape} for {rows.shape[0]} rows")
    if spec.family == "linear":
        return 2.0 * weights @ rows
    if spec.family == "gaussian":
        t = weights * kernel
        coeff = 4.0 * spec.gamma
    else:
        dist = np.sqrt(_sq_distances(rows))
        with np.errstate(divide="ignore", invalid="ignore"):
            t = np.where(dist > 0, weights * kernel / dist, 0.0)
        coeff = 2.0 * spec.gamma
    return -coeff * (t.sum(axis=1)[:, None] * rows - t @ rows)


# ---------------------------------------------------------------------------
# Kronecker-spectral core
# ---------------------------------------------------------------------------


def kron_eigvals(grams: Sequence[SpectralGram]) -> np.ndarray:
    """Tensor of Kronecker eigenvalues: entry j is prod_k eigvals_k[j_k]."""
    out = np.asarray(grams[0].eigvals, dtype=np.float64)
    for sg in grams[1:]:
        out = np.multiply.outer(out, sg.eigvals)
    return out.reshape(tuple(sg.size for sg in grams))


def to_eigenbasis(t: np.ndarray, grams: Sequence[SpectralGram]) -> np.ndarray:
    """Coordinates of ``t`` in the Kronecker eigenbasis: t x_1 V_1' ... x_K V_K'."""
    out = t
    for k, sg in enumerate(grams):
        out = mode_k_product(out, sg.eigvecs.T, k)
    return out


def from_eigenbasis(t: np.ndarray, grams: Sequence[SpectralGram]) -> np.ndarray:
    """Inverse of :func:`to_eigenbasis`: t x_1 V_1 ... x_K V_K."""
    out = t
    for k, sg in enumerate(grams):
        out = mode_k_product(out, sg.eigvecs, k)
    return out


def kron_logdet(grams: Sequence[SpectralGram]) -> float:
    """log|S_1 x ... x S_K| = sum_k (n / n_k) * log|S_k|."""
    n = math.prod(sg.size for sg in grams)
    return sum(n / sg.size * float(np.log(sg.eigvals).sum()) for sg in grams)


def kron_quad(t: np.ndarray, grams: Sequence[SpectralGram]) -> float:
    """vec(t)' S^{-1} vec(t) through the eigenbasis."""
    te = to_eigenbasis(t, grams)
    return multi_mode_vector_contract(te * te, [1.0 / sg.eigvals for sg in grams])

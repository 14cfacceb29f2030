"""Predictive distributions for held-out cells of the training grid.

For an in-grid index i the cross covariance to all grid cells is row i of
S_p = S_1 x ... x S_K, so with s = rho^2 tau* the predictive moments

    mean(i)     = k_i' (S_p + s I)^{-1} vec(target)
    variance(i) = 1 + (k(i,i) - k_i' (S_p + s I)^{-1} k_i) / tau*

are the E-step posterior of the latent tensor evaluated at tau = tau*: the
mean grid is ``e_step_m``'s posterior mean, and the bracket over tau* is the
marginal latent variance Ups_ii.  ``e_step_m`` holds Ups as the diagonal D
in the Kronecker eigenbasis V = V_1 x ... x V_K, so

    variance = 1 + (V o V) D.

``V o V`` is the entry-wise square of V, itself the Kronecker product of the
squared per-mode eigenvector matrices, so both grids are mode products in
O(n sum_k n_k), and the variance is a sum of nonnegative terms.  ``tau*`` is
the posterior mode of the precision mixer for the t process and exactly 1 for
the Gaussian process.  The target is the final E-step tensor: truncated-normal
means for probit, the imputed observation tensor for Gaussian noise.

A fitted model has one predictive distribution, at its own rho
(``config.rho``), so :func:`predictive_grids` caches one (mean, variance)
pair on the model the first time a prediction needs it; every later cell
costs one lookup.  Single-cell, batch and CLI prediction read the same pair,
so they agree bit for bit.  The cache holds arrays only, so a model is still
freed by reference counting, and ``save_model`` does not write it.  It
assumes the fitted model is not modified after its first prediction.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .distributions import std_normal_cdf
from .errors import ShapeError
from .inference import FittedModel, e_step_m
from .tensors import flat_positions, mode_k_product


@dataclass
class PredictiveMoments:
    mean: float
    variance: float


def _name(idx: Sequence[int]) -> str:
    return "index (" + ", ".join(map(str, idx)) + ")"


def _check_index(idx: Sequence[int], dims: Sequence[int]) -> None:
    """Raise for an index of the wrong order or with a component off the grid."""
    if len(idx) != len(dims):
        raise ShapeError(f"{_name(idx)}: order {len(idx)} != tensor order {len(dims)}")
    for k, (i, n) in enumerate(zip(idx, dims)):
        if not isinstance(i, numbers.Integral):
            raise IndexError(f"{_name(idx)}: component {i!r} in mode {k + 1} is not an integer")
        if not 1 <= i <= n:  # components before k are on the grid, so the rule raises for k
            flat_positions(np.array([idx[: k + 1]], dtype=object), dims[: k + 1], lambda r: _name(idx))


def _flat_positions(indices: Iterable[Sequence[int]], dims: tuple[int, ...]) -> np.ndarray:
    """Row-major positions of 1-based indices, checked in one vectorized pass.

    A fault raises as :func:`_check_index` does for the first faulty index in
    input order.
    """
    cells = indices if isinstance(indices, np.ndarray) else list(indices)
    try:
        arr = np.asarray(cells)
    except ValueError:  # indices of different orders
        arr = None
    if arr is None or arr.dtype.kind not in "iu" or arr.shape != (len(cells), len(dims)):
        # Wrong orders, non-integer or mixed integer types, or no cells at all.
        for idx in cells:
            _check_index(idx, dims)
        arr = np.array(cells, dtype=np.intp).reshape(len(cells), len(dims))
    return flat_positions(arr, dims, lambda r: _name(cells[r]))


def cross_covariance(model: FittedModel, idx: Sequence[int]) -> np.ndarray:
    """Length-n cross-covariance vector of an in-grid index: kron of Gram rows."""
    _check_index(idx, model.dims)
    out = np.ones(1)
    for i, sg in zip(idx, model.mode_grams):
        out = np.kron(out, sg.gram[i - 1])
    return out


def predictive_grids(model: FittedModel) -> tuple[np.ndarray, np.ndarray]:
    """Predictive mean and variance of every grid cell, cached on the model."""
    if model._predictive_grids is None:
        mean, latent = e_step_m(model.state.ez, model.mode_grams, model.tau_star, model.config.rho)
        for k, sg in enumerate(model.mode_grams):
            latent = mode_k_product(latent, sg.eigvecs * sg.eigvecs, k)
        model._predictive_grids = (mean, 1.0 + latent)
    return model._predictive_grids


def predictive_moments(model: FittedModel, idx: Sequence[int]) -> PredictiveMoments:
    """Latent predictive mean and variance at one in-grid index."""
    _check_index(idx, model.dims)
    mean, variance = predictive_grids(model)
    cell = tuple(i - 1 for i in idx)
    return PredictiveMoments(mean=float(mean[cell]), variance=float(variance[cell]))


def predict_probit(model: FittedModel, idx: Sequence[int]) -> float:
    """P(y = 1) at an index, for probit models."""
    if model.config.noise != "probit":
        raise ValueError("predict_probit requires a probit-noise model")
    m = predictive_moments(model, idx)
    return float(std_normal_cdf(m.mean / np.sqrt(m.variance)))


def predict_gaussian(model: FittedModel, idx: Sequence[int]) -> tuple[float, float]:
    """Predictive mean and variance at an index, for Gaussian-noise models."""
    if model.config.noise != "gaussian":
        raise ValueError("predict_gaussian requires a gaussian-noise model")
    m = predictive_moments(model, idx)
    return m.mean, m.variance


def predict_batch(model: FittedModel, indices: Iterable[Sequence[int]]) -> list[PredictiveMoments]:
    """Moments at many indices, read from the same grids as single-cell prediction."""
    flat = _flat_positions(indices, model.dims)
    mean, variance = predictive_grids(model)
    return list(map(PredictiveMoments, mean.ravel()[flat].tolist(), variance.ravel()[flat].tolist()))

"""Predictive distributions for held-out cells of the training grid.

For an in-grid index the cross covariance to all grid cells is the Kronecker
product of per-mode Gram rows, so the solves

    mean      = k' (S_p + rho^2 tau* I)^{-1} vec(target)
    variance  = 1 + (k(i,i) - k' (S_p + rho^2 tau* I)^{-1} k) / tau*

reduce to per-mode eigenbasis contractions.  ``tau*`` is the posterior mode
of the precision mixer for the t process and exactly 1 for the Gaussian
process.  The target vector is the final E-step tensor: truncated-normal
means for probit, the imputed observation tensor for Gaussian noise.

A shared solve context caches everything that does not depend on the queried
index, so batch prediction is the entry-wise loop with the common work
hoisted out (and therefore agrees with it bit for bit).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .distributions import std_normal_cdf
from .errors import ShapeError
from .inference import FittedModel
from .kernels import kron_eigvals, to_eigenbasis
from .tensors import multi_mode_vector_contract

logger = logging.getLogger(__name__)


@dataclass
class PredictiveMoments:
    mean: float
    variance: float


def cross_covariance(model: FittedModel, idx: Sequence[int]) -> np.ndarray:
    """Length-n cross-covariance vector of an in-grid index: kron of Gram rows."""
    rows = _gram_rows(model, idx)
    out = rows[0]
    for r in rows[1:]:
        out = np.kron(out, r)
    return out


def _gram_rows(model: FittedModel, idx: Sequence[int]) -> list[np.ndarray]:
    dims = model.dims
    if len(idx) != len(dims):
        raise ShapeError(f"index order {len(idx)} != tensor order {len(dims)}")
    rows = []
    for k, (i, sg) in enumerate(zip(idx, model.mode_grams)):
        if not 1 <= i <= sg.size:
            raise IndexError(f"index component {i} out of range [1, {sg.size}] in mode {k}")
        rows.append(sg.gram[i - 1])
    return rows


class _SolveContext:
    """Index-independent pieces of the predictive solves for one rho."""

    def __init__(self, model: FittedModel, rho: float | None):
        self.model = model
        self.tau_star = model.tau_star
        rho = model.config.rho if rho is None else rho
        lam = kron_eigvals(model.mode_grams)
        self.resolvent = 1.0 / (lam + rho * rho * self.tau_star)
        target_eig = to_eigenbasis(np.asarray(model.state.ez, dtype=np.float64), model.mode_grams)
        self.solved_target = target_eig * self.resolvent

    def moments(self, idx: Sequence[int]) -> PredictiveMoments:
        rows = _gram_rows(self.model, idx)
        a = [sg.eigvecs.T @ r for sg, r in zip(self.model.mode_grams, rows)]
        mean = multi_mode_vector_contract(self.solved_target, a)
        quad = multi_mode_vector_contract(self.resolvent, [ak * ak for ak in a])
        k_ii = 1.0
        for r, i in zip(rows, idx):
            k_ii *= r[i - 1]
        bracket = k_ii - quad
        if bracket < 0.0:
            # Round-off near interpolation; the exact bracket is nonnegative.
            logger.warning("predictive variance bracket clipped at 0 (was %.3e)", bracket)
            bracket = 0.0
        return PredictiveMoments(mean=float(mean), variance=1.0 + bracket / self.tau_star)


def predictive_moments(
    model: FittedModel, idx: Sequence[int], rho: float | None = None
) -> PredictiveMoments:
    """Latent predictive mean and variance at one in-grid index."""
    return _SolveContext(model, rho).moments(idx)


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


def predict_batch(
    model: FittedModel, indices: Iterable[Sequence[int]], rho: float | None = None
) -> list[PredictiveMoments]:
    """Entry-wise prediction over many indices sharing one solve context."""
    ctx = _SolveContext(model, rho)
    return [ctx.moments(idx) for idx in indices]

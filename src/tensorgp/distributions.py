"""Tensor-variate normal and t densities, samplers, and probit moment helpers.

A tensor-variate normal over K-mode tensors is the multivariate normal of the
vectorization with covariance ``kron(S1, ..., SK)`` of the per-mode Gram
matrices.  Densities and samples are computed through the per-mode
eigendecompositions; the Kronecker covariance is never materialized.

The t density equals the normal convolved with a Gamma(nu/2, nu/2) precision
mixer where each mode Gram is scaled by eta^(-1/K); the sampler uses exactly
that construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.special import gammaln, log_ndtr, ndtr

from .errors import NumericalError, ShapeError
from .kernels import SpectralGram, kron_logdet, kron_quad
from .tensors import as_tensor, mode_k_product

LOG_2PI = math.log(2.0 * math.pi)


def _check_mode_grams(mean: np.ndarray, mode_grams: Sequence[SpectralGram]) -> None:
    if len(mode_grams) != mean.ndim:
        raise ShapeError(f"{len(mode_grams)} mode Grams for an order-{mean.ndim} tensor")
    for k, sg in enumerate(mode_grams):
        if sg.size != mean.shape[k]:
            raise ShapeError(f"mode-{k} Gram size {sg.size} != dimension {mean.shape[k]}")


@dataclass
class TensorNormalParams:
    mean: np.ndarray
    mode_grams: list[SpectralGram]

    def __post_init__(self):
        self.mean = as_tensor(self.mean)
        _check_mode_grams(self.mean, self.mode_grams)


@dataclass
class TensorTParams:
    nu: float
    mean: np.ndarray
    mode_grams: list[SpectralGram]

    def __post_init__(self):
        if not self.nu > 2:
            raise ValueError(f"degrees of freedom must exceed 2, got {self.nu}")
        self.mean = as_tensor(self.mean)
        _check_mode_grams(self.mean, self.mode_grams)


def tensor_normal_logpdf(p: TensorNormalParams, m: np.ndarray) -> float:
    """Log density of the tensor-variate normal at ``m``."""
    m = as_tensor(m)
    if m.shape != p.mean.shape:
        raise ShapeError(f"shape mismatch {m.shape} vs {p.mean.shape}")
    n = m.size
    quad = kron_quad(m - p.mean, p.mode_grams)
    out = -0.5 * (n * LOG_2PI + kron_logdet(p.mode_grams) + quad)
    if not np.isfinite(out):
        raise NumericalError(f"tensor normal logpdf is not finite ({out})")
    return float(out)


def tensor_t_logpdf(p: TensorTParams, m: np.ndarray) -> float:
    """Log density of the tensor-variate t at ``m``."""
    m = as_tensor(m)
    if m.shape != p.mean.shape:
        raise ShapeError(f"shape mismatch {m.shape} vs {p.mean.shape}")
    n = m.size
    quad = kron_quad(m - p.mean, p.mode_grams)
    out = (
        gammaln(0.5 * (n + p.nu))
        - gammaln(0.5 * p.nu)
        - 0.5 * n * math.log(p.nu * math.pi)
        - 0.5 * kron_logdet(p.mode_grams)
        - 0.5 * (n + p.nu) * np.log1p(quad / p.nu)
    )
    if not np.isfinite(out):
        raise NumericalError(f"tensor t logpdf is not finite ({out})")
    return float(out)


def sample_tensor_normal(
    rng: np.random.Generator, p: TensorNormalParams, size: int | None = None
) -> np.ndarray:
    """Exact sampler; returns shape ``dims`` or ``(size, *dims)``."""
    dims = p.mean.shape
    out = rng.standard_normal(dims if size is None else (size, *dims))
    lead = out.ndim - p.mean.ndim
    for k, sg in enumerate(p.mode_grams):
        out = mode_k_product(out, (sg.eigvecs * np.sqrt(sg.eigvals)) @ sg.eigvecs.T, k + lead)
    return p.mean + out


def sample_tensor_t(
    rng: np.random.Generator, p: TensorTParams, size: int | None = None
) -> np.ndarray:
    """Sampler via the Gamma precision-mixture construction.

    eta ~ Gamma(nu/2, rate nu/2) scales every mode Gram by eta^(-1/K), which
    scales the whole draw by eta^(-1/2).
    """
    normal = TensorNormalParams(np.zeros_like(p.mean), p.mode_grams)
    eta = rng.gamma(shape=0.5 * p.nu, scale=2.0 / p.nu, size=size)
    draws = sample_tensor_normal(rng, normal, size=size)
    return p.mean + draws / np.reshape(np.sqrt(eta), np.shape(eta) + (1,) * p.mean.ndim)


def sample_finite_tucker(
    rng: np.random.Generator,
    r: int,
    feature_maps: Sequence[np.ndarray],
    size: int | None = None,
) -> np.ndarray:
    """Draw a finite-rank construction: iid normal core times per-mode maps.

    ``feature_maps[k]`` has shape (n_k, r); the core has shape (r,) * K with
    iid standard normal entries.
    """
    maps = [np.asarray(f, dtype=np.float64) for f in feature_maps]
    for k, f in enumerate(maps):
        if f.ndim != 2 or f.shape[1] != r:
            raise ShapeError(f"feature map {k} must have {r} columns, got {f.shape}")
    core = (r,) * len(maps)
    out = rng.standard_normal(core if size is None else (size, *core))
    lead = out.ndim - len(maps)
    for k, f in enumerate(maps):
        out = mode_k_product(out, f, k + lead)
    return out


def std_normal_cdf(x):
    x = np.asarray(x, dtype=np.float64)
    out = ndtr(x)
    return float(out) if out.ndim == 0 else out


def truncated_normal_mean(mu, y):
    """Posterior mean of N(mu, 1) truncated to the side selected by binary y.

    E[z] = mu + (2y - 1) * pdf(mu) / cdf((2y - 1) * mu).  The ratio is formed
    in log space through ``log_ndtr`` so deep tails (|mu| in the hundreds)
    stay finite and monotone.
    """
    mu = np.asarray(mu, dtype=np.float64)
    y = np.asarray(y)
    sign = 2.0 * y - 1.0
    log_ratio = -0.5 * mu * mu - 0.5 * LOG_2PI - log_ndtr(sign * mu)
    out = mu + sign * np.exp(log_ratio)
    return float(out) if out.ndim == 0 else out

"""Brute-force dense reference computations.

Everything here materializes the full Kronecker covariance
``S_p = kron(S_1, ..., S_K)`` and works with plain dense linear algebra.
These are the ground truth the structured fast path is tested against, and
what the CLI ``--oracle`` flag runs.  Hard size caps keep them from being
mistaken for production code paths; none of them call into the fast path.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import Sequence

import numpy as np

from .errors import OracleSizeError
from .inference import ModelConfig
from .kernels import KernelSpec, SpectralGram, kernel_matrix

MAX_POSTERIOR_N = 100
MAX_GRADIENT_N = 64


@dataclass
class DenseGPState:
    """Dense posterior pieces: prior covariance, posterior covariance, mean."""

    sigma_p: np.ndarray
    upsilon: np.ndarray
    mu_vec: np.ndarray


def dense_kron(mats: Sequence[np.ndarray]) -> np.ndarray:
    """Kronecker product with row ordering matching the vectorization map."""
    mats = [np.asarray(m, dtype=np.float64) for m in mats]
    rows = int(np.prod([m.shape[0] for m in mats]))
    if rows > MAX_POSTERIOR_N:
        raise OracleSizeError(
            f"dense Kronecker product with {rows} rows exceeds cap {MAX_POSTERIOR_N}"
        )
    return reduce(np.kron, mats)


def dense_posterior(
    target: np.ndarray,
    mode_grams: Sequence[SpectralGram],
    tau: float,
    rho: float = 1.0,
) -> DenseGPState:
    """Ups = rho^2 S_p (tau rho^2 I + S_p)^{-1}, mu = Ups vec(target) / rho^2."""
    target = np.asarray(target, dtype=np.float64)
    n = target.size
    if n > MAX_POSTERIOR_N:
        raise OracleSizeError(f"dense posterior for n={n} exceeds cap {MAX_POSTERIOR_N}")
    sigma_p = dense_kron([g.gram for g in mode_grams])
    rho2 = rho * rho
    # S_p (tau rho^2 I + S_p)^{-1} == solve transposed; both matrices symmetric.
    upsilon = rho2 * np.linalg.solve((tau * rho2 * np.eye(n) + sigma_p).T, sigma_p.T).T
    mu_vec = upsilon @ target.ravel() / rho2
    return DenseGPState(sigma_p=sigma_p, upsilon=upsilon, mu_vec=mu_vec)


def dense_eta(nu: float, st: DenseGPState) -> tuple[float, float, float]:
    """Gamma posterior parameters from the dense posterior pieces."""
    n = st.mu_vec.size
    quad = float(st.mu_vec @ np.linalg.solve(st.sigma_p, st.mu_vec))
    trace = float(np.trace(np.linalg.solve(st.sigma_p, st.upsilon)))
    beta1 = 0.5 * (nu + n)
    beta2 = 0.5 * (nu + quad + trace)
    return beta1, beta2, beta1 / beta2


def _dense_gram_derivative(
    spec: KernelSpec, rows: np.ndarray, i: int, j: int
) -> np.ndarray:
    """dK/d rows[i, j] as a dense matrix, by the entry-wise kernel formulas."""
    rows = np.atleast_2d(rows)
    nk = rows.shape[0]
    out = np.zeros((nk, nk))
    if spec.family == "linear":
        for b in range(nk):
            out[i, b] += rows[b, j]
            out[b, i] += rows[b, j]
        return out
    for b in range(nk):
        if b == i:
            continue
        diff = rows[i] - rows[b]
        dist_sq = float(diff @ diff)
        if spec.family == "gaussian":
            val = np.exp(-spec.gamma * dist_sq) * (-2.0 * spec.gamma) * diff[j]
        else:
            dist = np.sqrt(dist_sq)
            if dist == 0.0:
                val = 0.0  # subgradient convention at coincident rows
            else:
                val = np.exp(-spec.gamma * dist) * (-spec.gamma) * diff[j] / dist
        out[i, b] = val
        out[b, i] = val
    return out


def dense_objective_and_gradient(
    factors: Sequence[np.ndarray],
    state: DenseGPState,
    config: ModelConfig,
    jitters: Sequence[float],
    tau: float = 1.0,
) -> tuple[float, list[np.ndarray]]:
    """Literal dense transcription of the M-step objective and its gradient.

    ``state.upsilon`` and ``state.mu_vec`` are frozen E-step statistics while
    the Grams are rebuilt densely from the candidate factors with the given
    frozen jitters; ``tau`` is the frozen precision-mixer mean.  Capped at
    n <= 64.
    """
    factors = [np.atleast_2d(np.asarray(u, dtype=np.float64)) for u in factors]
    dims = [u.shape[0] for u in factors]
    n = int(np.prod(dims))
    if n > MAX_GRADIENT_N:
        raise OracleSizeError(f"dense gradient for n={n} exceeds cap {MAX_GRADIENT_N}")
    spec = config.kernel
    grams = [kernel_matrix(spec, u) + j * np.eye(u.shape[0]) for u, j in zip(factors, jitters)]
    inverses = [np.linalg.inv(g) for g in grams]
    mu = state.mu_vec
    ups = state.upsilon
    sigma_p_inv = dense_kron(inverses)

    objective = 0.0
    for g, nk in zip(grams, dims):
        _, logdet = np.linalg.slogdet(g)
        objective += (n / nk) * logdet
    objective += tau * float(mu @ sigma_p_inv @ mu)
    objective += tau * float(np.trace(sigma_p_inv @ ups))
    objective += config.l1_lambda * sum(float(np.abs(u).sum()) for u in factors)

    gradients = []
    for k, u in enumerate(factors):
        nk, rk = u.shape
        grad = np.zeros((nk, rk))
        for i in range(nk):
            for j in range(rk):
                de = _dense_gram_derivative(spec, u, i, j)
                term_logdet = (n / nk) * float(np.trace(inverses[k] @ de))
                sandwich = inverses[k] @ de @ inverses[k]
                delta = dense_kron(
                    [sandwich if l == k else inverses[l] for l in range(len(factors))]
                )
                term_quad = float(mu @ delta @ mu)
                term_trace = float(np.trace(delta @ ups))
                grad[i, j] = term_logdet - tau * (term_quad + term_trace)
        gradients.append(grad)
    return objective, gradients


def dense_predictive_moments(
    k_vec: np.ndarray,
    k_ii: float,
    sigma_p: np.ndarray,
    target_vec: np.ndarray,
    tau_star: float,
    rho: float,
) -> tuple[float, float]:
    """Predictive mean and variance by a dense solve."""
    target_vec = np.asarray(target_vec, dtype=np.float64).ravel()
    n = target_vec.size
    if n > MAX_POSTERIOR_N:
        raise OracleSizeError(f"dense predictive for n={n} exceeds cap {MAX_POSTERIOR_N}")
    a = sigma_p + rho * rho * tau_star * np.eye(n)
    mean = float(k_vec @ np.linalg.solve(a, target_vec))
    var = 1.0 + (k_ii - float(k_vec @ np.linalg.solve(a, k_vec))) / tau_star
    return mean, var

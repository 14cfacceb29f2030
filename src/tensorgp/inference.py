"""Variational EM for the latent tensor-process completion model.

The latent real tensor M carries a tensor-variate Gaussian (or t) process
prior whose per-mode Gram matrices are kernel functions of the factor
matrices U^(k).  Observations arise through a probit link (binary data, unit
latent noise) or an additive Gaussian likelihood (continuous data, variance
sigma^2).

E-step (coordinate updates of a fully factorized posterior):

* probit: q(z) is the one-sided truncated normal around the current
  posterior mean; unobserved cells carry q(z) = N(mu, 1).
* q(vec(M)) = N(mu, Ups) where Ups = rho^2 * S_p (tau rho^2 I + S_p)^{-1}
  and mu = Ups vec(target) / rho^2, with rho = 1 (probit) or sigma
  (Gaussian noise) and tau = E[eta].  S_p = kron(S_1, ..., S_K) shares the
  Kronecker eigenbasis with the identity, so Ups is held as a diagonal
  tensor D in that basis and never materialized.
* t process only: q(eta) = Gamma(beta1, beta2) with beta1 = (nu + n)/2 and
  beta2 = (nu + mu' S_p^{-1} mu + tr(S_p^{-1} Ups)) / 2.

M-step: minimize over the factors

    f(U) = sum_k (n/n_k) log|S_k| + tau * mu' S_p^{-1} mu
         + tau * tr(S_p^{-1} Ups) + lambda * sum_k ||U_k||_1

with (mu, D, tau) frozen, via the orthant-wise L-BFGS in :mod:`.optim`.
The candidate Grams reuse the jitter recorded at the E-step so the smooth
part is an exact function of the factor entries (the analytic gradient and
finite differences then agree; an adaptive jitter would add a hidden,
non-differentiated dependence on U).

Missing data keep the full-grid Kronecker structure by imputation:
unobserved target cells are refilled with the current posterior mean every
cycle, which is exactly the coordinate update of an auxiliary posterior over
the missing observations.  The tracked objective is the full negative free
energy of that extended model, so it is non-increasing across EM cycles up
to round-off.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
from scipy.special import digamma, gammaln, log_ndtr

from .distributions import LOG_2PI, truncated_normal_mean
from .errors import NumericalError, ShapeError
from .kernels import (
    KernelSpec, SpectralGram, from_eigenbasis, gram_matrix, kron_eigvals, kron_logdet,
    kron_quad, to_eigenbasis,
)
from .optim import OptimResult, minimize_l1
# mode_k_product is unused here; the benchmark tracer (bench/spans.py) rebinds it.
from .tensors import contract_except, mode_gram, mode_k_product, multi_mode_vector_contract  # noqa: F401

logger = logging.getLogger(__name__)

NOISE_MODELS = ("probit", "gaussian")
PROCESSES = ("gaussian_process", "t_process")


@dataclass
class ModelConfig:
    """Everything a fit needs besides the data itself.

    ``rank`` and ``kernel`` may be given per mode (lists) or once (broadcast
    across modes when the data order is known).
    """

    noise: str = "gaussian"
    process: str = "gaussian_process"
    nu: float = 10.0
    rank: int | list[int] = 3
    kernel: KernelSpec | list[KernelSpec] = KernelSpec("gaussian", 0.5)
    l1_lambda: float = 1.0
    gaussian_sigma: float = 1.0
    max_em_iters: int = 200
    em_rel_tol: float = 1e-5
    mstep_max_iters: int = 100
    seed: int = 0

    def __post_init__(self):
        if self.noise not in NOISE_MODELS:
            raise ValueError(f"unknown noise model {self.noise!r}")
        if self.process not in PROCESSES:
            raise ValueError(f"unknown process {self.process!r}")
        if self.process == "t_process" and not self.nu > 2:
            raise ValueError("t process requires nu > 2")
        if not self.gaussian_sigma > 0:
            raise ValueError("gaussian_sigma must be positive")
        if self.l1_lambda < 0:
            raise ValueError("l1_lambda must be nonnegative")
        if self.max_em_iters < 1:
            raise ValueError("max_em_iters must be at least 1")
        if self.mstep_max_iters < 0:
            raise ValueError("mstep_max_iters must be nonnegative")

    @property
    def rho(self) -> float:
        """Latent noise scale: 1 for probit, ``gaussian_sigma`` for Gaussian noise."""
        return 1.0 if self.noise == "probit" else self.gaussian_sigma

    def ranks(self, order: int) -> list[int]:
        if isinstance(self.rank, int):
            return [self.rank] * order
        if len(self.rank) != order:
            raise ShapeError(f"{len(self.rank)} ranks for an order-{order} tensor")
        return list(self.rank)

    def kernels(self, order: int) -> list[KernelSpec]:
        if isinstance(self.kernel, KernelSpec):
            return [self.kernel] * order
        if len(self.kernel) != order:
            raise ShapeError(f"{len(self.kernel)} kernels for an order-{order} tensor")
        return list(self.kernel)


@dataclass
class VariationalState:
    """Posterior statistics after one E-step.

    ``ez`` is the E-step target tensor: the truncated-normal means E[Z] for
    probit, or the observation tensor with unobserved cells imputed by the
    posterior mean for Gaussian noise.  ``ups_diag`` is the diagonal tensor D
    of the latent posterior covariance in the eigenbasis carried by
    ``basis`` (the Grams the E-step ran with); ``zbar_loc`` is the location
    parameter the probit q(Z) was built from (needed for its entropy).

    On a model loaded from file, ``mu``, ``ups_diag``, ``basis`` and
    ``zbar_loc`` are None: prediction reads none of them.
    """

    ez: np.ndarray
    mu: np.ndarray | None
    ups_diag: np.ndarray | None
    beta1: float
    beta2: float
    tau: float
    basis: list[SpectralGram] | None = None
    zbar_loc: np.ndarray | None = None


@dataclass
class FittedModel:
    factors: list[np.ndarray]
    mode_grams: list[SpectralGram]
    config: ModelConfig
    state: VariationalState
    tau_star: float
    objective_trace: list[float] = field(default_factory=list)
    mask: np.ndarray | None = None
    mstep_warnings: int = 0
    # Predictive (mean, variance) grids per resolved rho; filled and read only
    # by :mod:`.prediction`, never saved, and holding no reference back here.
    _predictive_grids: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(g.size for g in self.mode_grams)


# ---------------------------------------------------------------------------
# E-step
# ---------------------------------------------------------------------------


def e_step_z(mu: np.ndarray, y: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Truncated-normal means on observed cells, posterior mean elsewhere."""
    mu = np.asarray(mu, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    mask = np.asarray(mask, dtype=bool)
    if not (mu.shape == y.shape == mask.shape):
        raise ShapeError(f"shape mismatch: mu {mu.shape}, y {y.shape}, mask {mask.shape}")
    observed = y[mask]
    if observed.size and not np.all((observed == 0.0) | (observed == 1.0)):
        raise ValueError("probit noise requires binary observed entries")
    ez = mu.copy()
    ez[mask] = truncated_normal_mean(mu[mask], observed)
    return ez


def e_step_m(
    target: np.ndarray,
    mode_grams: Sequence[SpectralGram],
    tau: float,
    rho: float = 1.0,
) -> tuple[np.ndarray, np.ndarray]:
    """Posterior mean tensor and covariance diagonal in the shared eigenbasis.

    D_j = rho^2 * lam_j / (tau rho^2 + lam_j) with lam_j the Kronecker
    eigenvalue product; mu = V diag(D / rho^2) V' vec(target), computed by
    per-mode products.  Only O(n) memory is touched.
    """
    target = np.asarray(target, dtype=np.float64)
    lam = kron_eigvals(mode_grams)
    if lam.shape != target.shape:
        raise ShapeError(f"Gram dims {lam.shape} != target dims {target.shape}")
    if np.any(lam <= 0):
        raise NumericalError("non-positive Kronecker eigenvalue; Gram floor violated")
    rho2 = rho * rho
    ups_diag = rho2 * lam / (tau * rho2 + lam)
    coeff = lam / (tau * rho2 + lam)
    mu = from_eigenbasis(to_eigenbasis(target, mode_grams) * coeff, mode_grams)
    return mu, ups_diag


def trace_sigma_inv_upsilon(
    mode_grams: Sequence[SpectralGram], ups_diag: np.ndarray
) -> float:
    """tr(S_p^{-1} Ups) as a multi-mode contraction of D against 1/eigvals."""
    return multi_mode_vector_contract(
        ups_diag, [1.0 / sg.eigvals for sg in mode_grams]
    )


def e_step_eta(
    nu: float,
    mu: np.ndarray,
    ups_diag: np.ndarray,
    mode_grams: Sequence[SpectralGram],
) -> tuple[float, float, float]:
    """Gamma posterior over the t-process precision mixer."""
    n = mu.size
    beta1 = 0.5 * (nu + n)
    beta2 = 0.5 * (nu + kron_quad(mu, mode_grams) + trace_sigma_inv_upsilon(mode_grams, ups_diag))
    return beta1, beta2, beta1 / beta2


# ---------------------------------------------------------------------------
# M-step
# ---------------------------------------------------------------------------


def _candidate_grams(
    factors: Sequence[np.ndarray], state: VariationalState, specs: Sequence[KernelSpec]
) -> list[SpectralGram]:
    """Grams at a candidate factor point, jitter frozen from the E-step."""
    if state.basis is None:
        raise ValueError("variational state carries no eigenbasis; run an E-step first")
    return [
        gram_matrix(spec, u, jitter=base.jitter_applied)
        for spec, u, base in zip(specs, factors, state.basis)
    ]


@dataclass
class _SpectralPoint:
    """What the M-step value and gradient share at one candidate factor point.

    ``m_eig`` is mu in the Kronecker eigenbasis of the candidate Grams.
    Per mode, ``basis_changes`` holds A_k = V_k' V_old from the E-step
    eigenbasis to the candidate one, and ``w_diags`` the diagonal of
    V_old' S_k^{-1} V_old, which carries the frozen covariance diagonal into
    the trace term.  ``grad`` holds the flattened gradient once computed.
    """

    factors: list[np.ndarray]
    grams: list[SpectralGram]
    m_eig: np.ndarray
    basis_changes: list[np.ndarray]
    w_diags: list[np.ndarray]
    grad: np.ndarray | None = None


def _spectral_point(
    factors: Sequence[np.ndarray],
    state: VariationalState,
    specs: Sequence[KernelSpec],
    grams: Sequence[SpectralGram] | None = None,
) -> _SpectralPoint:
    if grams is None:
        grams = _candidate_grams(factors, state, specs)
    changes = [new.eigvecs.T @ old.eigvecs for new, old in zip(grams, state.basis)]
    return _SpectralPoint(
        list(factors),
        list(grams),
        to_eigenbasis(state.mu, grams),
        changes,
        [(a * a).T @ (1.0 / new.eigvals) for a, new in zip(changes, grams)],
    )


def _smooth_at(point: _SpectralPoint, state: VariationalState) -> float:
    quad = multi_mode_vector_contract(
        point.m_eig * point.m_eig, [1.0 / sg.eigvals for sg in point.grams]
    )
    # tr(S_p(U)^{-1} Ups) with Ups frozen in the E-step eigenbasis.
    trace = multi_mode_vector_contract(state.ups_diag, point.w_diags)
    return kron_logdet(point.grams) + state.tau * (quad + trace)


def _m_step_smooth(
    factors: Sequence[np.ndarray],
    state: VariationalState,
    config: ModelConfig,
    new_grams: Sequence[SpectralGram] | None = None,
) -> float:
    specs = config.kernels(len(factors))
    return _smooth_at(_spectral_point(factors, state, specs, new_grams), state)


def m_step_objective(
    factors: Sequence[np.ndarray], state: VariationalState, config: ModelConfig
) -> float:
    """f(U): log-determinants + tau * (quadratic + trace) + l1 penalty."""
    smooth = _m_step_smooth(factors, state, config)
    l1 = config.l1_lambda * sum(float(np.abs(u).sum()) for u in factors)
    return smooth + l1


def _gradient_at(
    point: _SpectralPoint, state: VariationalState, specs: Sequence[KernelSpec]
) -> list[np.ndarray]:
    from .kernels import gram_gradient_contract

    n = state.mu.size
    m_scaled = point.m_eig / kron_eigvals(point.grams)
    grads = []
    for k, (spec, u, new, a_k) in enumerate(
        zip(specs, point.factors, point.grams, point.basis_changes)
    ):
        inv = 1.0 / new.eigvals
        c_k = mode_gram(m_scaled, point.m_eig, k) * inv
        s_vec = contract_except(state.ups_diag, point.w_diags, k)
        q_k = inv[:, None] * ((a_k * s_vec) @ a_k.T) * inv
        weight = np.diag((n / u.shape[0]) * inv) - state.tau * (c_k + q_k)
        grads.append(gram_gradient_contract(spec, u, new.eigvecs @ weight @ new.eigvecs.T))
    return grads


def m_step_gradient(
    factors: Sequence[np.ndarray], state: VariationalState, config: ModelConfig
) -> list[np.ndarray]:
    """Gradient of the smooth part of f(U) per mode.

    For each mode the three terms reduce to <dS_k/du, G_k> with a single
    symmetric n_k x n_k weight matrix

        G_k = (n/n_k) S_k^{-1} - tau * (C_k + Q_k),

    where C_k is the mode-k unfolding product of the inverse-weighted
    posterior mean with itself and Q_k pushes the frozen covariance diagonal
    through the basis change.  G_k is assembled in the eigenbasis V_k of the
    candidate S_k and rotated back once: with m = mu in the Kronecker
    eigenbasis and lam its eigenvalues, V_k' C_k V_k = [unfold_k(m / lam)
    unfold_k(m)'] diag(1/lam_k), and Q_k needs only A_k = V_k' V_old.  The
    kernel adjoint then turns G_k into the factor-entry gradient without
    touching any Kronecker matrix.
    """
    specs = config.kernels(len(factors))
    return _gradient_at(_spectral_point(factors, state, specs), state, specs)


def optimize_factors(
    initial: Sequence[np.ndarray],
    state: VariationalState,
    config: ModelConfig,
    gtol: float = 1e-6,
) -> tuple[list[np.ndarray], OptimResult]:
    """Run the l1 quasi-Newton step on the flattened factor entries.

    The solver asks for the value and then the gradient at each accepted
    point, so the last candidate's spectral state (Grams, eigenbasis
    coordinates of mu, basis changes, gradient) is kept, keyed on
    the bytes of x, and both callbacks read it.
    """
    shapes = [u.shape for u in initial]
    splits = np.cumsum([int(np.prod(s)) for s in shapes])[:-1]
    specs = config.kernels(len(initial))
    cache: dict[bytes, _SpectralPoint] = {}

    def unpack(x: np.ndarray) -> list[np.ndarray]:
        return [part.reshape(shape) for part, shape in zip(np.split(x, splits), shapes)]

    def point_at(x: np.ndarray) -> _SpectralPoint:
        key = x.tobytes()
        if key not in cache:
            cache.clear()
            # A private copy, so a caller reusing x cannot alter the entry.
            cache[key] = _spectral_point(unpack(x.copy()), state, specs)
        return cache[key]

    def fun(x: np.ndarray) -> float:
        return _smooth_at(point_at(x), state)

    def grad(x: np.ndarray) -> np.ndarray:
        point = point_at(x)
        if point.grad is None:
            point.grad = np.concatenate([g.ravel() for g in _gradient_at(point, state, specs)])
        return point.grad.copy()

    x0 = np.concatenate([np.asarray(u, dtype=np.float64).ravel() for u in initial])
    res = minimize_l1(
        fun,
        grad,
        x0,
        l1_weight=config.l1_lambda,
        max_iter=config.mstep_max_iters,
        history=10,
        gtol=gtol,
    )
    if res.line_search_failed:
        logger.warning("M-step line search stalled; keeping best iterate")
    return unpack(res.x), res


# ---------------------------------------------------------------------------
# Tracked objective (negative free energy of the extended model)
# ---------------------------------------------------------------------------


def _gamma_entropy(a: float, b: float) -> float:
    return a - math.log(b) + float(gammaln(a)) + (1.0 - a) * float(digamma(a))


def _truncnorm_entropies(loc: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Entropy of N(loc, 1) truncated to the side selected by y, entrywise."""
    sign = 2.0 * np.asarray(y, dtype=np.float64) - 1.0
    sl = sign * loc
    log_phi = log_ndtr(sl)
    hazard = np.exp(-0.5 * loc * loc - 0.5 * LOG_2PI - log_phi)
    return 0.5 * (LOG_2PI + 1.0) + log_phi - 0.5 * sl * hazard


def tracked_objective(
    y: np.ndarray,
    mask: np.ndarray,
    config: ModelConfig,
    factors: Sequence[np.ndarray],
    grams: Sequence[SpectralGram],
    state: VariationalState,
) -> float:
    """Negative variational free energy at the current (q, U).

    Every E-step update is an exact coordinate minimizer of this quantity and
    the M-step minimizes twice its U-dependent part, so it is non-increasing
    across full EM cycles up to round-off.  Constants independent of both q
    and U (the Laplace prior normalizer) are dropped.
    """
    n = state.mu.size
    mu = state.mu
    sum_d = float(np.sum(state.ups_diag))
    sum_log_d = float(np.sum(np.log(state.ups_diag)))
    n_missing = int(np.sum(~mask))

    if config.noise == "probit":
        loc = state.zbar_loc
        ez = state.ez
        # E[z^2] = 1 + loc * E[z] for one-sided truncation and for the
        # unobserved free cells alike.
        expected_sq = np.sum(1.0 + loc * ez - 2.0 * ez * mu + mu * mu)
        fit_term = 0.5 * n * LOG_2PI + 0.5 * (float(expected_sq) + sum_d)
        ent = float(np.sum(_truncnorm_entropies(loc[mask], y[mask])))
        ent += n_missing * 0.5 * (LOG_2PI + 1.0)
        neg_entropy_z = -ent
    else:
        s2 = config.gaussian_sigma**2
        resid_obs = float(np.sum((y[mask] - mu[mask]) ** 2))
        resid_miss = float(np.sum((state.ez[~mask] - mu[~mask]) ** 2)) + n_missing * s2
        fit_term = 0.5 * n * math.log(2.0 * math.pi * s2)
        fit_term += (resid_obs + resid_miss + sum_d) / (2.0 * s2)
        neg_entropy_z = -n_missing * 0.5 * (math.log(2.0 * math.pi * s2) + 1.0)

    if config.process == "t_process":
        e_log_eta = float(digamma(state.beta1)) - math.log(state.beta2)
    else:
        e_log_eta = 0.0
    # log-det + tau * (quad + trace); for the GP, state.tau stays 1.
    prior_m = 0.5 * n * LOG_2PI - 0.5 * n * e_log_eta
    prior_m += 0.5 * _m_step_smooth(factors, state, config, new_grams=grams)
    neg_entropy_m = -0.5 * n * (LOG_2PI + 1.0) - 0.5 * sum_log_d

    total = fit_term + prior_m + neg_entropy_z + neg_entropy_m
    total += 0.5 * config.l1_lambda * sum(float(np.abs(u).sum()) for u in factors)

    if config.process == "t_process":
        nu = config.nu
        prior_eta = (
            -0.5 * nu * math.log(0.5 * nu)
            + float(gammaln(0.5 * nu))
            - (0.5 * nu - 1.0) * e_log_eta
            + 0.5 * nu * state.tau
        )
        total += prior_eta - _gamma_entropy(state.beta1, state.beta2)
    return float(total)


# ---------------------------------------------------------------------------
# The EM driver
# ---------------------------------------------------------------------------


def init_factors(
    dims: Sequence[int], ranks: Sequence[int], rng: np.random.Generator
) -> list[np.ndarray]:
    """iid normal entries with standard deviation 1/sqrt(rank)."""
    return [
        rng.normal(0.0, 1.0 / math.sqrt(r), size=(nk, r)) for nk, r in zip(dims, ranks)
    ]


def fit(
    y: np.ndarray,
    mask: np.ndarray,
    config: ModelConfig,
    rng: np.random.Generator | None = None,
) -> FittedModel:
    """Run variational EM to convergence and return the fitted model."""
    y = np.asarray(y, dtype=np.float64)
    mask = np.asarray(mask, dtype=bool)
    if y.shape != mask.shape:
        raise ShapeError(f"data {y.shape} and mask {mask.shape} differ")
    if not mask.any():
        raise ValueError("observation mask is empty; nothing to fit")

    if rng is None:
        rng = np.random.default_rng(config.seed)
    dims = y.shape
    order = y.ndim
    ranks = config.ranks(order)
    specs = config.kernels(order)
    factors = init_factors(dims, ranks, rng)

    mu = np.zeros(dims)
    tau = 1.0
    beta1 = beta2 = 0.5 * config.nu if config.process == "t_process" else 1.0
    trace: list[float] = []
    state: VariationalState | None = None
    grams: list[SpectralGram] | None = None
    warnings = 0

    for it in range(config.max_em_iters):
        if grams is None:
            grams = [gram_matrix(spec, u) for spec, u in zip(specs, factors)]

        zbar_loc = mu
        if config.noise == "probit":
            ez = e_step_z(mu, y, mask)
        else:
            ez = np.where(mask, y, mu)
        mu, ups_diag = e_step_m(ez, grams, tau, config.rho)
        if config.process == "t_process":
            beta1, beta2, tau = e_step_eta(config.nu, mu, ups_diag, grams)
        state = VariationalState(
            ez=ez,
            mu=mu,
            ups_diag=ups_diag,
            beta1=beta1,
            beta2=beta2,
            tau=tau,
            basis=grams,
            zbar_loc=zbar_loc,
        )

        factors, opt = optimize_factors(factors, state, config)
        warnings += int(opt.line_search_failed)

        grams = [gram_matrix(spec, u) for spec, u in zip(specs, factors)]
        obj = tracked_objective(y, mask, config, factors, grams, state)
        if not np.isfinite(obj):
            raise NumericalError(f"EM iteration {it}: tracked objective is {obj}")
        trace.append(obj)
        if it > 0 and abs(trace[-2] - trace[-1]) <= config.em_rel_tol * max(1.0, abs(trace[-2])):
            break

    tau_star = (beta1 - 1.0) / beta2 if config.process == "t_process" else 1.0
    return FittedModel(
        factors=factors,
        mode_grams=grams,
        config=config,
        state=state,
        tau_star=tau_star,
        objective_trace=trace,
        mask=mask.copy(),
        mstep_warnings=warnings,
    )

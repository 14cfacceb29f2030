"""Acceptance suite: one test per release criterion, all tolerances pinned.

Each test prints a single PASS/FAIL line (run with ``pytest -s`` to see them
on success).  Dense reference computations come from :mod:`tensorgp.oracle`;
nothing here trusts the fast path against itself.
"""

import math
import os
import time

import numpy as np
import pytest
from scipy import integrate, stats

from conftest import rel_err
from tensorgp import oracle
from tensorgp.distributions import (
    TensorNormalParams,
    TensorTParams,
    sample_finite_tucker,
    tensor_normal_logpdf,
    tensor_t_logpdf,
)
from tensorgp.errors import OracleSizeError
from tensorgp.evaluate import (
    ExperimentSpec,
    auc,
    mse,
    normalize_tensor,
    run_experiment,
    synth_generate,
)
from tensorgp.inference import (
    FittedModel,
    ModelConfig,
    VariationalState,
    e_step_eta,
    e_step_m,
    e_step_z,
    fit,
    m_step_gradient,
    m_step_objective,
    trace_sigma_inv_upsilon,
    _m_step_smooth,
)
from tensorgp.kernels import FAMILIES, KernelSpec, gram_matrix
from tensorgp.prediction import predict_batch, predictive_moments
from tensorgp.tensors import multi_index
from tensorgp.util import allocation_guard


def report(criterion, ok, detail):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"{criterion} failed: {detail}"


def _random_dims(rng, max_n=36):
    while True:
        order = int(rng.integers(1, 5))
        if order == 1:
            dims = (int(rng.integers(2, max_n + 1)),)
        else:
            dims = tuple(int(rng.integers(2, 5)) for _ in range(order))
        if int(np.prod(dims)) <= max_n:
            return dims


def _random_setup(rng, dims, max_cond=1e5):
    """Random kernel family, gamma, and factors with a conditioning cap.

    Equivalence at 1e-8 only means something where the dense reference can
    itself be computed in float64, so draws whose Kronecker covariance has a
    condition number above ``max_cond`` (per-mode conditions multiply) are
    rejected and redrawn.  Linear kernels get full-rank factors for the same
    reason.
    """
    while True:
        family = FAMILIES[int(rng.integers(0, 3))]
        gamma = float(rng.uniform(0.05, 1.0))
        spec = KernelSpec(family, gamma)
        rank = int(rng.integers(1, 3))
        if family == "linear":
            factors = [rng.normal(0.0, 1.0, size=(d, d)) for d in dims]
        else:
            factors = [2.0 * rng.normal(0.0, 1.0, size=(d, rank)) for d in dims]
        grams = [gram_matrix(spec, u) for u in factors]
        cond = float(np.prod([g.eigvals.max() / g.eigvals.min() for g in grams]))
        if cond <= max_cond:
            return spec, rank, factors, grams


def test_c1_oracle_equivalence(rng):
    """Fast path matches the dense reference on every tracked quantity."""
    start = time.perf_counter()
    worst = 0.0
    checked = 0
    for trial in range(50):
        dims = _random_dims(rng)
        spec, rank, factors, grams = _random_setup(rng, dims)
        target = rng.normal(size=dims)
        tau = float(rng.uniform(0.5, 2.0))
        rho = 1.0 if trial % 2 == 0 else float(rng.uniform(0.5, 1.5))
        nu = float(rng.uniform(4.0, 20.0))

        mu, d = e_step_m(target, grams, tau, rho)
        dense = oracle.dense_posterior(target, grams, tau, rho)
        worst = max(worst, rel_err(mu.ravel(), dense.mu_vec))

        tr_fast = trace_sigma_inv_upsilon(grams, d)
        tr_dense = float(np.trace(np.linalg.solve(dense.sigma_p, dense.upsilon)))
        worst = max(worst, rel_err(tr_fast, tr_dense))

        vk = oracle.dense_kron([g.eigvecs for g in grams])
        ups = (vk * d.ravel()) @ vk.T
        dstate = oracle.DenseGPState(dense.sigma_p, ups, mu.ravel())
        _, b2, _ = e_step_eta(nu, mu, d, grams)
        _, b2_dense, _ = oracle.dense_eta(nu, oracle.DenseGPState(dense.sigma_p, ups, mu.ravel()))
        worst = max(worst, rel_err(b2, b2_dense))

        state = VariationalState(
            ez=target, mu=mu, ups_diag=d, beta1=1.0, beta2=1.0, tau=tau, basis=grams
        )
        config = ModelConfig(
            kernel=spec, l1_lambda=float(rng.uniform(0.0, 1.0)), rank=rank, gaussian_sigma=rho
        )
        cand = [u + 0.1 * rng.normal(size=u.shape) for u in factors]
        jitters = [g.jitter_applied for g in grams]
        obj_fast = m_step_objective(cand, state, config)
        obj_dense, grads_dense = oracle.dense_objective_and_gradient(
            cand, dstate, config, jitters, tau=tau
        )
        worst = max(worst, rel_err(obj_fast, obj_dense))
        for gf, gd in zip(m_step_gradient(cand, state, config), grads_dense):
            worst = max(worst, rel_err(gf, gd))

        tau_star = float(rng.uniform(0.5, 2.0))
        model = FittedModel(
            factors=factors, mode_grams=grams, config=config, state=state, tau_star=tau_star
        )
        for _ in range(2):
            idx = tuple(int(rng.integers(1, s + 1)) for s in dims)
            m = predictive_moments(model, idx)
            from tensorgp.prediction import cross_covariance

            k = cross_covariance(model, idx)
            k_ii = 1.0
            for g, i in zip(grams, idx):
                k_ii *= g.gram[i - 1, i - 1]
            mean_d, var_d = oracle.dense_predictive_moments(
                k, k_ii, dense.sigma_p, target.ravel(), tau_star, rho
            )
            worst = max(worst, rel_err(m.mean, mean_d), rel_err(m.variance, var_d))
        checked += 1
    elapsed = time.perf_counter() - start
    report(
        "C1 oracle-equivalence",
        worst <= 1e-8 and elapsed < 30.0 and checked == 50,
        f"{checked} instances, max rel err {worst:.2e}, {elapsed:.1f}s",
    )


def test_c2_gradient_check(rng):
    """Analytic factor gradient vs central finite differences (step 1e-5)."""
    start = time.perf_counter()
    worst = 0.0
    shapes = [(2, 2), (3, 2), (2, 2, 2), (3, 3, 2)]
    for trial in range(20):
        dims = shapes[trial % len(shapes)]
        spec = KernelSpec("gaussian", float(rng.uniform(0.05, 1.0)))
        rank = int(rng.integers(1, 3))
        factors = [rng.normal(size=(d, rank)) for d in dims]
        grams = [gram_matrix(spec, u) for u in factors]
        target = rng.normal(size=dims)
        tau = float(rng.uniform(0.5, 2.0))
        mu, d = e_step_m(target, grams, tau, 1.0)
        state = VariationalState(
            ez=target, mu=mu, ups_diag=d, beta1=1.0, beta2=1.0, tau=tau, basis=grams
        )
        config = ModelConfig(kernel=spec, l1_lambda=0.0, rank=rank)
        cand = [u + 0.1 * rng.normal(size=u.shape) for u in factors]
        grads = m_step_gradient(cand, state, config)
        eps = 1e-5
        for k, u in enumerate(cand):
            for i in range(u.shape[0]):
                for j in range(u.shape[1]):
                    up = [c.copy() for c in cand]
                    dn = [c.copy() for c in cand]
                    up[k][i, j] += eps
                    dn[k][i, j] -= eps
                    fd = (
                        _m_step_smooth(up, state, config) - _m_step_smooth(dn, state, config)
                    ) / (2 * eps)
                    worst = max(worst, rel_err(fd, grads[k][i, j]))
    elapsed = time.perf_counter() - start
    report(
        "C2 gradient-check",
        worst <= 1e-4 and elapsed < 30.0,
        f"20 instances, max rel err vs FD {worst:.2e}, {elapsed:.1f}s",
    )


def test_c3_density_cross_checks(rng):
    """Structured log densities against dense/quadrature references."""
    worst_normal = 0.0
    for _ in range(10):
        dims = _random_dims(rng, max_n=64)
        spec, _, _, grams = _random_setup(rng, dims)
        mean = rng.normal(size=dims)
        m = rng.normal(size=dims)
        got = tensor_normal_logpdf(TensorNormalParams(mean, grams), m)
        cov = oracle.dense_kron([g.gram for g in grams])
        want = stats.multivariate_normal.logpdf(m.ravel(), mean=mean.ravel(), cov=cov)
        worst_normal = max(worst_normal, abs(got - want))

    nu = 7.0
    dims = (2, 2)
    spec = KernelSpec("gaussian", 0.3)
    grams = [gram_matrix(spec, rng.normal(size=(2, 2))) for _ in dims]
    m = rng.normal(size=dims)
    cov = oracle.dense_kron([g.gram for g in grams])

    def integrand(eta):
        dens = stats.multivariate_normal.pdf(m.ravel(), mean=np.zeros(4), cov=cov / eta)
        return stats.gamma.pdf(eta, a=nu / 2, scale=2 / nu) * dens

    quad_val, quad_err = integrate.quad(integrand, 0.0, np.inf, epsabs=1e-13, limit=200)
    t_err = abs(
        tensor_t_logpdf(TensorTParams(nu, np.zeros(dims), grams), m) - math.log(quad_val)
    )

    limit_err = abs(
        tensor_t_logpdf(TensorTParams(1e6, np.zeros(dims), grams), m)
        - tensor_normal_logpdf(TensorNormalParams(np.zeros(dims), grams), m)
    )
    ok = worst_normal <= 1e-9 and t_err <= 1e-5 and limit_err <= 1e-3
    report(
        "C3 density-cross-checks",
        ok,
        f"normal vs dense {worst_normal:.2e}, t vs mixture quadrature {t_err:.2e}, "
        f"t->normal limit {limit_err:.2e}",
    )


def test_c4_process_convergence_monte_carlo():
    """Finite-rank construction has the advertised Kronecker covariance."""
    start = time.perf_counter()
    gen = np.random.default_rng(2718)
    maps = [gen.uniform(0.3, 1.0, size=(2, 2)) for _ in range(2)]
    expected = oracle.dense_kron([f @ f.T for f in maps])

    draws = sample_finite_tucker(np.random.default_rng(31), 2, maps, size=200_000)
    cov = np.cov(draws.reshape(-1, 4).T)
    gauss_err = float(np.max(np.abs(cov - expected) / np.abs(expected)))

    nu = 10.0
    rng_t = np.random.default_rng(47)
    eta = rng_t.gamma(shape=nu / 2, scale=2 / nu, size=200_000)
    draws_t = sample_finite_tucker(rng_t, 2, maps, size=200_000)
    draws_t = draws_t / np.sqrt(eta)[:, None, None]
    cov_t = np.cov(draws_t.reshape(-1, 4).T)
    t_err = float(np.max(np.abs(cov_t - nu / (nu - 2.0) * expected) / (nu / (nu - 2.0) * np.abs(expected))))
    elapsed = time.perf_counter() - start
    report(
        "C4 process-convergence-MC",
        gauss_err < 0.02 and t_err < 0.03 and elapsed < 60.0,
        f"gaussian {gauss_err:.4f} (<2%), t {t_err:.4f} (<3%), {elapsed:.1f}s",
    )


@pytest.fixture(scope="module")
def gaussian_recovery_runs():
    start = time.perf_counter()
    runs = []
    for seed in range(5):
        spec = ExperimentSpec(
            dims=(8, 8, 8),
            generator="gp_latent",
            noise="gaussian",
            sigma=0.1,
            gen_rank=3,
            gen_gamma=0.3,
            holdout_fraction=0.2,
            seed=seed,
        )
        y, truth, mask = synth_generate(spec, np.random.default_rng(seed))
        config = ModelConfig(
            noise="gaussian",
            process="gaussian_process",
            rank=3,
            kernel=KernelSpec("gaussian", 0.3),
            l1_lambda=0.1,
            gaussian_sigma=0.1,
            max_em_iters=40,
            em_rel_tol=1e-5,
            seed=seed,
        )
        model = fit(y, mask, config)
        held = [multi_index(j + 1, y.shape) for j in np.flatnonzero(~mask.ravel())]
        preds = np.array([m.mean for m in predict_batch(model, held)])
        actual = y[~mask]
        baseline = float(np.mean((actual - y[mask].mean()) ** 2))
        runs.append((model, mse(preds, actual), baseline))
    return runs, time.perf_counter() - start


@pytest.fixture(scope="module")
def probit_recovery_runs():
    start = time.perf_counter()
    runs = []
    for seed in range(5):
        spec = ExperimentSpec(
            dims=(10, 10, 10),
            generator="gp_latent",
            noise="probit",
            latent_scale=3.0,
            gen_rank=3,
            gen_gamma=0.3,
            holdout_fraction=0.1,
            seed=seed,
        )
        y, truth, mask = synth_generate(spec, np.random.default_rng(seed))
        config = ModelConfig(
            noise="probit",
            process="t_process",
            nu=10.0,
            rank=3,
            kernel=KernelSpec("gaussian", 0.3),
            l1_lambda=0.1,
            max_em_iters=25,
            em_rel_tol=1e-5,
            seed=seed,
        )
        model = fit(y, mask, config)
        held = [multi_index(j + 1, y.shape) for j in np.flatnonzero(~mask.ravel())]
        scores = np.array([m.mean for m in predict_batch(model, held)])
        runs.append((model, auc(scores, y[~mask].astype(int))))
    return runs, time.perf_counter() - start


def test_c5_synthetic_recovery_gaussian(gaussian_recovery_runs):
    runs, elapsed = gaussian_recovery_runs
    ratios = [m / b for _, m, b in runs]
    ok = all(r < 0.5 for r in ratios) and elapsed < 120.0
    report(
        "C5 gaussian-recovery",
        ok,
        "MSE/baseline per seed: "
        + ", ".join(f"{r:.3f}" for r in ratios)
        + f"; {elapsed:.0f}s",
    )


def test_c6_synthetic_recovery_probit(probit_recovery_runs):
    runs, elapsed = probit_recovery_runs
    aucs = [a for _, a in runs]
    mean_auc = float(np.mean(aucs))
    report(
        "C6 probit-recovery",
        mean_auc > 0.80 and elapsed < 300.0,
        f"AUC per seed: {', '.join(f'{a:.3f}' for a in aucs)}; mean {mean_auc:.3f}; {elapsed:.0f}s",
    )


def test_c7_complexity_evidence():
    gen = np.random.default_rng(0)
    dims = (30, 30, 30)
    spec = KernelSpec("gaussian", 0.3)
    factors = [gen.normal(0.0, 1.0 / math.sqrt(3), size=(d, 3)) for d in dims]
    y = (gen.normal(size=dims) > 0).astype(float)
    mask = gen.random(dims) < 0.9
    start = time.perf_counter()
    # one full E-step under a peak-allocation budget far below n*n bytes
    with allocation_guard(64 * 1024 * 1024):
        grams = [gram_matrix(spec, u) for u in factors]
        ez = e_step_z(np.zeros(dims), y, mask)
        mu, d = e_step_m(ez, grams, 1.0, 1.0)
        e_step_eta(10.0, mu, d, grams)
    elapsed = time.perf_counter() - start
    with pytest.raises(OracleSizeError):
        oracle.dense_posterior(np.zeros((5, 5, 5)), grams, 1.0)
    report(
        "C7 complexity-evidence",
        elapsed < 5.0,
        f"30x30x30 E-step in {elapsed:.2f}s under a 64 MB guard (n*n would need 5.8 GB); "
        "dense oracle refuses n=125",
    )


def test_c8_em_sanity(gaussian_recovery_runs, probit_recovery_runs):
    worst_increase = -np.inf
    for model, *_ in list(gaussian_recovery_runs[0]) + list(probit_recovery_runs[0]):
        trace = np.asarray(model.objective_trace)
        if trace.size > 1:
            slack = 1e-8 * np.maximum(1.0, np.abs(trace[:-1]))
            worst_increase = max(worst_increase, float(np.max(np.diff(trace) - slack)))
    beta_ok = all(
        model.state.beta1 == (model.config.nu + np.prod(model.dims)) / 2.0
        for model, *_ in probit_recovery_runs[0]
    )
    report(
        "C8 em-sanity",
        worst_increase <= 0.0 and beta_ok,
        f"max objective increase beyond slack {worst_increase:.2e}; beta1 exact: {beta_ok}",
    )


AMINO_PATH = os.environ.get("TENSORGP_AMINO", "data/amino.tensor")


def test_c9_amino_dataset_track():
    if not os.path.exists(AMINO_PATH):
        pytest.skip(f"amino dataset not present at {AMINO_PATH}; see README for conversion")
    from tensorgp.tensorio import read_tensor

    y, mask = read_tensor(AMINO_PATH)
    spec = ExperimentSpec(
        dims=y.shape,
        generator="file",
        noise="gaussian",
        process="t_process",
        nu=10.0,
        folds=5,
        repeats=1,
        seed=0,
        gamma_grid=[0.05, 0.2, 0.5],
        lambda_grid=[1.0, 10.0, 100.0],
        rank_grid=[3],
        model_sigma=0.1,
        max_em_iters=30,
    )
    rep = run_experiment(spec, y=y, mask=mask)
    report("C9 amino-dataset", rep.mean <= 0.08, f"5-fold MSE {rep.mean:.4f} (<= 0.08)")


def test_c10_determinism():
    spec = ExperimentSpec(
        dims=(5, 5),
        generator="rank1",
        noise="gaussian",
        sigma=0.05,
        model_sigma=0.1,
        folds=3,
        repeats=2,
        seed=13,
        gamma_grid=[0.3],
        lambda_grid=[0.1],
        rank_grid=[1],
        max_em_iters=8,
    )
    a = run_experiment(spec).to_text().encode()
    b = run_experiment(spec).to_text().encode()
    report("C10 determinism", a == b, f"two eval reports byte-identical ({len(a)} bytes)")

import math
from dataclasses import replace

import numpy as np
import pytest
from scipy import special, stats

from conftest import rel_err
from tensorgp import inference, kernels, oracle
from tensorgp.errors import ShapeError
from tensorgp.inference import (
    FittedModel,
    ModelConfig,
    VariationalState,
    _m_step_smooth,
    e_step_eta,
    e_step_m,
    e_step_z,
    fit,
    init_factors,
    m_step_gradient,
    m_step_objective,
    optimize_factors,
    trace_sigma_inv_upsilon,
    tracked_objective,
)
from tensorgp.kernels import KernelSpec, SpectralGram, gram_matrix
from tensorgp.optim import OptimResult
from tensorgp.distributions import truncated_normal_mean


def identity_grams(dims):
    return [
        gram_matrix(KernelSpec("linear"), np.eye(d), jitter=0.0) for d in dims
    ]


def random_instance(rng, dims, family="gaussian", gamma=None, rank=2):
    gamma = gamma if gamma is not None else float(rng.uniform(0.05, 1.0))
    spec = KernelSpec(family, gamma)
    factors = [rng.normal(0.0, 1.0, size=(d, rank)) for d in dims]
    grams = [gram_matrix(spec, u) for u in factors]
    return spec, factors, grams


class TestEStepZ:
    def test_zero_mean_all_ones(self):
        mu = np.zeros((3, 3))
        y = np.ones((3, 3))
        ez = e_step_z(mu, y, np.ones((3, 3), dtype=bool))
        np.testing.assert_allclose(ez, np.sqrt(2 / np.pi), rtol=1e-12)

    def test_unobserved_entries_imputed(self):
        mu = np.full((2, 2), 1.3)
        y = np.zeros((2, 2))
        mask = np.zeros((2, 2), dtype=bool)
        mask[0, 0] = True
        ez = e_step_z(mu, y, mask)
        assert ez[0, 1] == 1.3
        assert ez[0, 0] == pytest.approx(truncated_normal_mean(1.3, 0))

    def test_known_value(self):
        mu = np.array([[2.0]])
        ez = e_step_z(mu, np.ones((1, 1)), np.ones((1, 1), dtype=bool))
        assert ez[0, 0] == pytest.approx(2.05525, abs=1e-5)

    def test_rejects_non_binary(self):
        with pytest.raises(ValueError):
            e_step_z(np.zeros((2,)), np.array([0.5, 1.0]), np.ones(2, dtype=bool))


class TestEStepM:
    def test_identity_grams_halve(self, rng):
        dims = (2, 3)
        target = rng.normal(size=dims)
        mu, d = e_step_m(target, identity_grams(dims), tau=1.0, rho=1.0)
        np.testing.assert_allclose(d, 0.5, rtol=1e-12)
        np.testing.assert_allclose(mu, target / 2.0, rtol=1e-12)

    def test_large_tau_kills_posterior(self, rng):
        dims = (2, 2)
        _, _, grams = random_instance(rng, dims)
        target = rng.normal(size=dims)
        mu, d = e_step_m(target, grams, tau=1e12, rho=1.0)
        assert np.max(np.abs(mu)) <= 1e-9
        assert np.max(d) <= 1e-9

    def test_matches_dense_oracle(self, rng):
        for _ in range(5):
            dims = (2, 3, 2)
            _, _, grams = random_instance(rng, dims)
            target = rng.normal(size=dims)
            tau = float(rng.uniform(0.5, 2.0))
            rho = float(rng.uniform(0.5, 1.5))
            mu, d = e_step_m(target, grams, tau, rho)
            dense = oracle.dense_posterior(target, grams, tau, rho)
            assert rel_err(mu.ravel(), dense.mu_vec) <= 1e-8
            vk = oracle.dense_kron([g.eigvecs for g in grams])
            diag = np.diag(vk.T @ dense.upsilon @ vk)
            assert rel_err(d.ravel(), diag) <= 1e-8

    def test_diag_strictly_inside_unit_interval(self, rng):
        dims = (3, 2)
        _, _, grams = random_instance(rng, dims)
        _, d = e_step_m(rng.normal(size=dims), grams, tau=0.7, rho=1.0)
        assert np.all(d > 0.0) and np.all(d < 1.0)


class TestEStepEta:
    def test_arithmetic_example(self):
        dims = (2, 2, 2)
        grams = identity_grams(dims)
        mu = np.zeros(dims)
        d = np.full(dims, 0.5)
        b1, b2, tau = e_step_eta(10.0, mu, d, grams)
        assert b1 == 9.0
        assert b2 == pytest.approx(7.0, rel=1e-12)
        assert tau == pytest.approx(9.0 / 7.0, rel=1e-12)

    def test_degenerate_posterior(self):
        dims = (2, 2)
        grams = identity_grams(dims)
        b1, b2, tau = e_step_eta(10.0, np.zeros(dims), np.zeros(dims), grams)
        assert b2 == 5.0
        assert tau == pytest.approx((10.0 + 4) / 10.0)

    def test_matches_dense_oracle(self, rng):
        dims = (2, 2, 2)
        _, _, grams = random_instance(rng, dims)
        target = rng.normal(size=dims)
        mu, d = e_step_m(target, grams, tau=1.0, rho=1.0)
        b1, b2, tau = e_step_eta(10.0, mu, d, grams)
        dense = oracle.dense_posterior(target, grams, tau=1.0, rho=1.0)
        db1, db2, dtau = oracle.dense_eta(10.0, dense)
        assert b1 == db1
        assert rel_err(b2, db2) <= 1e-8

    def test_beta1_exact(self, rng):
        dims = (3, 4)
        _, _, grams = random_instance(rng, dims)
        mu, d = e_step_m(rng.normal(size=dims), grams, tau=1.0)
        b1, _, _ = e_step_eta(10.0, mu, d, grams)
        assert b1 == (10.0 + 12) / 2


class TestTraceSigmaInvUpsilon:
    def test_identity_counts(self):
        dims = (2, 3)
        grams = identity_grams(dims)
        assert trace_sigma_inv_upsilon(grams, np.ones(dims)) == pytest.approx(6.0)

    def test_zero_diag(self, rng):
        dims = (2, 2)
        _, _, grams = random_instance(rng, dims)
        assert trace_sigma_inv_upsilon(grams, np.zeros(dims)) == 0.0

    def test_matches_dense(self, rng):
        dims = (2, 3)
        _, _, grams = random_instance(rng, dims)
        target = rng.normal(size=dims)
        _, d = e_step_m(target, grams, tau=1.3, rho=1.0)
        dense = oracle.dense_posterior(target, grams, tau=1.3, rho=1.0)
        expected = np.trace(np.linalg.solve(dense.sigma_p, dense.upsilon))
        assert trace_sigma_inv_upsilon(grams, d) == pytest.approx(expected, rel=1e-10)


def _state_from_estep(rng, grams, dims, tau=None, nu=10.0):
    target = rng.normal(size=dims)
    t = tau if tau is not None else 1.0
    mu, d = e_step_m(target, grams, t, 1.0)
    b1, b2, t_new = e_step_eta(nu, mu, d, grams)
    t_used = tau if tau is not None else t_new
    return VariationalState(
        ez=target, mu=mu, ups_diag=d, beta1=b1, beta2=b2, tau=t_used, basis=list(grams)
    ), target


class TestMStepObjective:
    def test_all_terms_vanish(self):
        dims = (2, 2)
        factors = [np.eye(2), np.eye(2)]
        state = VariationalState(
            ez=np.zeros(dims),
            mu=np.zeros(dims),
            ups_diag=np.zeros(dims),
            beta1=1.0,
            beta2=1.0,
            tau=1.0,
            basis=identity_grams(dims),
        )
        config = ModelConfig(kernel=KernelSpec("linear"), l1_lambda=0.0, rank=2)
        assert m_step_objective(factors, state, config) == pytest.approx(0.0, abs=1e-12)

    def test_l1_arithmetic(self):
        dims = (2, 2)
        factors = [np.ones((2, 1)), np.ones((2, 1))]
        grams = [gram_matrix(KernelSpec("linear"), u, jitter=1.0) for u in factors]
        state = VariationalState(
            ez=np.zeros(dims),
            mu=np.zeros(dims),
            ups_diag=np.zeros(dims),
            beta1=1.0,
            beta2=1.0,
            tau=1.0,
            basis=grams,
        )
        config = ModelConfig(kernel=KernelSpec("linear"), l1_lambda=3.0, rank=1)
        smooth = _m_step_smooth(factors, state, config)
        total = m_step_objective(factors, state, config)
        assert total - smooth == pytest.approx(12.0, rel=1e-12)

    def test_matches_dense(self, rng):
        dims = (2, 2)
        spec, factors, grams = random_instance(rng, dims)
        state, target = _state_from_estep(rng, grams, dims)
        config = ModelConfig(kernel=spec, l1_lambda=0.6, rank=2)
        cand = [u + 0.2 * rng.normal(size=u.shape) for u in factors]
        vk = oracle.dense_kron([g.eigvecs for g in grams])
        ups = (vk * state.ups_diag.ravel()) @ vk.T
        dstate = oracle.DenseGPState(
            oracle.dense_kron([g.gram for g in grams]), ups, state.mu.ravel()
        )
        obj_dense, _ = oracle.dense_objective_and_gradient(
            cand, dstate, config, [g.jitter_applied for g in grams], tau=state.tau
        )
        assert rel_err(m_step_objective(cand, state, config), obj_dense) <= 1e-8


class TestMStepGradient:
    @pytest.mark.parametrize("dims", [(2, 2), (3, 3, 2)])
    def test_finite_differences_gaussian(self, rng, dims):
        spec, factors, grams = random_instance(rng, dims)
        state, _ = _state_from_estep(rng, grams, dims)
        config = ModelConfig(kernel=spec, l1_lambda=0.0, rank=2)
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
                        _m_step_smooth(up, state, config)
                        - _m_step_smooth(dn, state, config)
                    ) / (2 * eps)
                    assert abs(fd - grads[k][i, j]) <= 1e-4 * max(1.0, abs(fd))

    def test_linear_kernel_logdet_gradient(self, rng):
        # mu = 0, D = 0, lambda = 0 isolates the log-determinant term
        # log|U U' + j I|.  The rank-deficient Gram needs a jitter well above
        # eigh round-off or the finite-difference oracle itself is noise.
        dims = (3, 3)
        spec = KernelSpec("linear")
        factors = [rng.normal(size=(3, 2)) for _ in dims]
        grams = [gram_matrix(spec, u, jitter=1e-3) for u in factors]
        state = VariationalState(
            ez=np.zeros(dims),
            mu=np.zeros(dims),
            ups_diag=np.zeros(dims),
            beta1=1.0,
            beta2=1.0,
            tau=1.0,
            basis=grams,
        )
        config = ModelConfig(kernel=spec, l1_lambda=0.0, rank=2)
        grads = m_step_gradient(factors, state, config)
        eps = 1e-5
        for k, u in enumerate(factors):
            for i in range(u.shape[0]):
                for j in range(u.shape[1]):
                    up = [c.copy() for c in factors]
                    dn = [c.copy() for c in factors]
                    up[k][i, j] += eps
                    dn[k][i, j] -= eps
                    fd = (
                        _m_step_smooth(up, state, config)
                        - _m_step_smooth(dn, state, config)
                    ) / (2 * eps)
                    assert abs(fd - grads[k][i, j]) <= 1e-4 * max(1.0, abs(fd))

    def test_exponential_kernel_separated_rows(self, rng):
        dims = (3, 2)
        spec = KernelSpec("exponential", 0.4)
        factors = [rng.normal(size=(d, 2)) * 3.0 for d in dims]
        grams = [gram_matrix(spec, u) for u in factors]
        state, _ = _state_from_estep(rng, grams, dims)
        config = ModelConfig(kernel=spec, l1_lambda=0.0, rank=2)
        grads = m_step_gradient(factors, state, config)
        eps = 1e-6
        for k, u in enumerate(factors):
            for i in range(u.shape[0]):
                for j in range(u.shape[1]):
                    up = [c.copy() for c in factors]
                    dn = [c.copy() for c in factors]
                    up[k][i, j] += eps
                    dn[k][i, j] -= eps
                    fd = (
                        _m_step_smooth(up, state, config)
                        - _m_step_smooth(dn, state, config)
                    ) / (2 * eps)
                    assert abs(fd - grads[k][i, j]) <= 1e-4 * max(1.0, abs(fd))

    def test_matches_dense_oracle(self, rng):
        dims = (2, 2, 2)
        spec, factors, grams = random_instance(rng, dims)
        state, _ = _state_from_estep(rng, grams, dims)
        config = ModelConfig(kernel=spec, l1_lambda=0.0, rank=2)
        cand = [u + 0.15 * rng.normal(size=u.shape) for u in factors]
        grads = m_step_gradient(cand, state, config)
        vk = oracle.dense_kron([g.eigvecs for g in grams])
        ups = (vk * state.ups_diag.ravel()) @ vk.T
        dstate = oracle.DenseGPState(
            oracle.dense_kron([g.gram for g in grams]), ups, state.mu.ravel()
        )
        _, grads_dense = oracle.dense_objective_and_gradient(
            cand, dstate, config, [g.jitter_applied for g in grams], tau=state.tau
        )
        for gf, gd in zip(grads, grads_dense):
            assert rel_err(gf, gd) <= 1e-8


class TestOptimizeFactors:
    def test_huge_lambda_zeroes_factors(self, rng):
        # with the posterior statistics zeroed the smooth part stays bounded
        # near U = 0 and the l1 term dominates, so the minimizer is exactly 0
        dims = (3, 3)
        spec, factors, grams = random_instance(rng, dims)
        state = VariationalState(
            ez=np.zeros(dims),
            mu=np.zeros(dims),
            ups_diag=np.zeros(dims),
            beta1=1.0,
            beta2=1.0,
            tau=1.0,
            basis=grams,
        )
        config = ModelConfig(kernel=spec, l1_lambda=1e6, rank=2, mstep_max_iters=100)
        out, res = optimize_factors(factors, state, config)
        for u in out:
            np.testing.assert_allclose(u, 0.0, atol=1e-12)

    def test_objective_never_increases(self, rng):
        dims = (3, 2)
        spec, factors, grams = random_instance(rng, dims)
        state, _ = _state_from_estep(rng, grams, dims)
        config = ModelConfig(kernel=spec, l1_lambda=0.5, rank=2, mstep_max_iters=40)
        before = m_step_objective(factors, state, config)
        out, res = optimize_factors(factors, state, config)
        after = m_step_objective(out, state, config)
        assert after <= before + 1e-12

    def test_stationary_point_subgradient(self, rng, monkeypatch):
        dims = (2, 2)
        spec, factors, grams = random_instance(rng, dims)
        state, _ = _state_from_estep(rng, grams, dims)
        config = ModelConfig(kernel=spec, l1_lambda=0.3, rank=2, mstep_max_iters=500)
        monkeypatch.setattr(inference, "MSTEP_GTOL", 1e-7)
        _, res = optimize_factors(factors, state, config)
        if res.converged:
            assert res.max_pseudo_gradient <= 1e-7


def _mstep_case(rng, noise, process, dims=(4, 3, 3)):
    """Initial factors, an E-step state and the config for one M-step."""
    spec = KernelSpec("gaussian", 0.4)
    config = ModelConfig(
        noise=noise, process=process, kernel=spec, rank=2, l1_lambda=0.2,
        gaussian_sigma=0.5, mstep_max_iters=15,
    )
    factors = init_factors(dims, config.ranks(len(dims)), rng)
    grams = [gram_matrix(spec, u) for u in factors]
    mask = rng.random(dims) < 0.7
    if noise == "probit":
        target = e_step_z(np.zeros(dims), (rng.normal(size=dims) > 0).astype(float), mask)
        rho = 1.0
    else:
        target = np.where(mask, rng.normal(size=dims), 0.0)
        rho = config.gaussian_sigma
    mu, d = e_step_m(target, grams, 1.0, rho)
    b1 = b2 = tau = 1.0
    if process == "t_process":
        b1, b2, tau = e_step_eta(config.nu, mu, d, grams)
    state = VariationalState(
        ez=target, mu=mu, ups_diag=d, beta1=b1, beta2=b2, tau=tau, basis=grams
    )
    return factors, state, config


class TestMStepSpectralCache:
    """optimize_factors shares one spectral state between its value and gradient."""

    @pytest.mark.parametrize(
        "noise, process", [("probit", "t_process"), ("gaussian", "gaussian_process")]
    )
    def test_adversarial_call_order(self, rng, monkeypatch, noise, process):
        factors, state, config = _mstep_case(rng, noise, process)
        shapes = [u.shape for u in factors]
        splits = np.cumsum([u.size for u in factors])[:-1]

        def unpack(x):
            return [p.reshape(s) for p, s in zip(np.split(x, splits), shapes)]

        x1 = np.concatenate([u.ravel() for u in factors])
        x2 = x1 + 0.1 * rng.normal(size=x1.shape)
        calls = []

        def scripted_solver(fun, grad, x0, **kwargs):
            calls.append(("fun", x1, fun(x1)))
            calls.append(("fun", x2, fun(x2)))
            calls.append(("grad", x1, grad(x1)))
            calls.append(("grad", x1, grad(x1)))
            calls.append(("fun", x2, fun(x2)))
            g = grad(x2)
            calls.append(("grad", x2, g.copy()))
            g[:] = 0.0
            calls.append(("grad", x2, grad(x2)))
            # Overwriting an array after it was evaluated must not alter the cache.
            buf = x1.copy()
            calls.append(("fun", x1, fun(buf)))
            buf[:] = x2
            calls.append(("grad", x1, grad(x1)))
            calls.append(("grad", x2, grad(buf)))
            return OptimResult(x0, 0.0, 0, True, False, 0.0)

        monkeypatch.setattr(inference, "minimize_l1", scripted_solver)
        optimize_factors(factors, state, config)
        assert len(calls) == 10
        for kind, x, got in calls:
            if kind == "fun":
                assert got == _m_step_smooth(unpack(x), state, config)
            else:
                want = np.concatenate([g.ravel() for g in m_step_gradient(unpack(x), state, config)])
                np.testing.assert_array_equal(got, want)

    def test_gradient_builds_no_grams(self, rng, monkeypatch):
        # Each value call builds the K candidate Grams once, evaluating each
        # kernel once; every gradient call, the solver's final one included,
        # reads the Grams and their kernels from the cache.
        factors, state, config = _mstep_case(rng, "gaussian", "t_process")
        counts = {"gram": 0, "kernel": 0, "fun": 0, "grad": 0}
        real_gram, real_minimize = inference.gram_matrix, inference.minimize_l1
        real_kernel = kernels.kernel_matrix

        def counting_gram(*args, **kwargs):
            counts["gram"] += 1
            return real_gram(*args, **kwargs)

        def counting_kernel(*args, **kwargs):
            counts["kernel"] += 1
            return real_kernel(*args, **kwargs)

        def counting_minimize(fun, grad, x0, **kwargs):
            def value(x):
                counts["fun"] += 1
                return fun(x)

            def gradient(x):
                counts["grad"] += 1
                return grad(x)

            return real_minimize(value, gradient, x0, **kwargs)

        monkeypatch.setattr(inference, "gram_matrix", counting_gram)
        monkeypatch.setattr(kernels, "kernel_matrix", counting_kernel)
        monkeypatch.setattr(inference, "minimize_l1", counting_minimize)
        _, res = optimize_factors(factors, state, config)
        assert not res.line_search_failed
        assert counts["grad"] >= 3
        assert counts["gram"] == len(factors) * counts["fun"]
        assert counts["kernel"] == len(factors) * counts["fun"]


class TestFit:
    def test_zero_data_shrinks_posterior(self):
        y = np.zeros((3, 3, 3))
        mask = np.ones_like(y, dtype=bool)
        config = ModelConfig(
            noise="gaussian",
            process="gaussian_process",
            rank=2,
            kernel=KernelSpec("gaussian", 0.3),
            l1_lambda=0.5,
            gaussian_sigma=0.5,
            max_em_iters=15,
            seed=1,
        )
        model = fit(y, mask, config)
        assert np.max(np.abs(model.state.mu)) < 0.1
        trace = np.array(model.objective_trace)
        assert np.all(np.diff(trace) <= 1e-8 * np.maximum(1.0, np.abs(trace[:-1])))

    def test_bit_reproducible(self):
        rng = np.random.default_rng(5)
        y = rng.normal(size=(4, 4))
        mask = rng.random((4, 4)) < 0.8
        config = ModelConfig(
            noise="gaussian",
            rank=2,
            kernel=KernelSpec("gaussian", 0.4),
            l1_lambda=0.2,
            max_em_iters=8,
            seed=42,
        )
        a = fit(y, mask, config)
        b = fit(y, mask, config)
        np.testing.assert_array_equal(a.state.mu, b.state.mu)
        for ua, ub in zip(a.factors, b.factors):
            np.testing.assert_array_equal(ua, ub)
        assert a.objective_trace == b.objective_trace

    def test_probit_t_process_invariants(self):
        rng = np.random.default_rng(9)
        y = (rng.normal(size=(4, 4, 3)) > 0).astype(float)
        mask = rng.random(y.shape) < 0.9
        nu = 10.0
        config = ModelConfig(
            noise="probit",
            process="t_process",
            nu=nu,
            rank=2,
            kernel=KernelSpec("gaussian", 0.4),
            l1_lambda=0.3,
            max_em_iters=10,
            seed=3,
        )
        model = fit(y, mask, config)
        n = y.size
        # beta1 is exactly (nu + n)/2 after every eta update
        assert model.state.beta1 == (nu + n) / 2
        # covariance diagonal strictly inside (0, 1) for rho = 1
        assert np.all(model.state.ups_diag > 0) and np.all(model.state.ups_diag < 1)
        # tracked objective non-increasing
        trace = np.array(model.objective_trace)
        assert np.all(np.diff(trace) <= 1e-8 * np.maximum(1.0, np.abs(trace[:-1])))
        # E[z] - E[m] carries the sign of 2y - 1 on observed entries
        gap = (model.state.ez - model.state.zbar_loc)[mask]
        signs = 2.0 * y[mask] - 1.0
        assert np.all(gap * signs > 0)
        assert model.tau_star == (model.state.beta1 - 1.0) / model.state.beta2

    def test_rejects_empty_mask(self):
        config = ModelConfig()
        with pytest.raises(ValueError):
            fit(np.zeros((2, 2)), np.zeros((2, 2), dtype=bool), config)

    def test_rejects_non_binary_probit(self):
        config = ModelConfig(noise="probit")
        with pytest.raises(ValueError):
            fit(np.full((2, 2), 0.3), np.ones((2, 2), dtype=bool), config)

    @pytest.mark.parametrize(
        "kwargs, name", [({"max_em_iters": 0}, "max_em_iters"), ({"mstep_max_iters": -1}, "mstep_max_iters")]
    )
    def test_rejects_iteration_caps_that_run_nothing(self, kwargs, name):
        with pytest.raises(ValueError, match=name):
            ModelConfig(**kwargs)

    @pytest.mark.parametrize(
        "kwargs, name",
        [
            ({"l1_lambda": math.nan}, "l1_lambda"),
            ({"l1_lambda": math.inf}, "l1_lambda"),
            ({"l1_lambda": -0.1}, "l1_lambda"),
            ({"nu": math.inf, "process": "t_process"}, "nu"),
            ({"nu": math.nan, "process": "t_process"}, "nu"),
            ({"nu": math.inf}, "nu"),
            ({"gaussian_sigma": math.inf}, "gaussian_sigma"),
            ({"gaussian_sigma": math.nan}, "gaussian_sigma"),
            ({"em_rel_tol": -1.0}, "em_rel_tol"),
            ({"em_rel_tol": math.nan}, "em_rel_tol"),
            ({"rank": 0}, "rank"),
            ({"rank": -1}, "rank"),
            ({"rank": [2, 0, 3]}, "rank"),
            ({"kernel": [KernelSpec("gaussian", 0.3)] * 2}, "kernel"),
        ],
    )
    def test_rejects_non_finite_or_negative_settings(self, kwargs, name):
        with pytest.raises(ValueError, match=name):
            ModelConfig(**kwargs)

    def test_zero_em_rel_tol_is_valid(self):
        assert ModelConfig(em_rel_tol=0.0).em_rel_tol == 0.0

    def test_rho_is_the_latent_noise_scale(self):
        assert ModelConfig(noise="probit", gaussian_sigma=0.3).rho == 1.0
        assert ModelConfig(noise="gaussian", gaussian_sigma=0.3).rho == 0.3

    def test_gaussian_t_process_monotone(self):
        rng = np.random.default_rng(17)
        y = rng.normal(size=(4, 3, 3))
        mask = rng.random(y.shape) < 0.85
        config = ModelConfig(
            noise="gaussian",
            process="t_process",
            nu=6.0,
            rank=2,
            kernel=KernelSpec("exponential", 0.5),
            l1_lambda=0.4,
            gaussian_sigma=0.7,
            max_em_iters=12,
            seed=8,
        )
        model = fit(y, mask, config)
        trace = np.array(model.objective_trace)
        assert np.all(np.diff(trace) <= 1e-8 * np.maximum(1.0, np.abs(trace[:-1])))


def _small_fit_case(noise, process, **overrides):
    rng = np.random.default_rng(21)
    dims = (5, 4, 3)
    y = rng.normal(size=dims)
    if noise == "probit":
        y = (y > 0).astype(float)
    mask = rng.random(dims) < 0.8
    config = ModelConfig(
        noise=noise, process=process, nu=6.0, rank=2, kernel=KernelSpec("gaussian", 0.4),
        l1_lambda=0.2, gaussian_sigma=0.5, mstep_max_iters=10, seed=4,
    )
    return y, mask, replace(config, **overrides)


class TestEMSteps:
    """fit is a start model mapped through _e_step then _m_step once per cycle."""

    @pytest.mark.parametrize(
        "noise, process", [("gaussian", "gaussian_process"), ("probit", "t_process")]
    )
    def test_one_more_cycle_resumes_the_fit(self, noise, process):
        y, mask, config = _small_fit_case(noise, process, em_rel_tol=0.0, max_em_iters=3)
        short = fit(y, mask, config)
        resumed = inference._m_step(y, inference._e_step(y, short))
        full = fit(y, mask, replace(config, max_em_iters=4))
        for a, b in zip(resumed.factors, full.factors):
            np.testing.assert_array_equal(a, b)
        assert resumed.objective_trace == full.objective_trace
        np.testing.assert_array_equal(resumed.state.mu, full.state.mu)
        assert resumed.tau_star == full.tau_star
        assert resumed.mstep_warnings == full.mstep_warnings
        # The steps map a model to a new one and leave their input as it was.
        assert len(short.objective_trace) == 3

    @pytest.mark.parametrize(
        "noise, process, em_rel_tol, max_em_iters, cycles, converged",
        [
            ("gaussian", "gaussian_process", 0.0, 4, 4, False),
            ("probit", "t_process", 1e300, 10, 2, True),
            ("gaussian", "t_process", 1e300, 1, 1, False),
        ],
    )
    def test_converged_is_the_stop_rule(
        self, noise, process, em_rel_tol, max_em_iters, cycles, converged
    ):
        y, mask, config = _small_fit_case(
            noise, process, em_rel_tol=em_rel_tol, max_em_iters=max_em_iters
        )
        model = fit(y, mask, config)
        assert len(model.objective_trace) == cycles
        assert model.converged is converged
        assert math.isnan(model.last_rel_change) == (cycles < 2)


def _dense_free_energy(y, model):
    """The extended model's negative free energy, written out term by term densely.

    Every cell carries an auxiliary variable: the probit z (truncated normal on
    observed cells, N(loc, 1) on missing ones), or for Gaussian noise the
    missing observation itself, with q = N(ez, rho^2).  Expectations and
    entropies come from scipy.stats; the Gaussian prior and q(M) from dense
    solves and log-determinants.
    """
    config, state, mask = model.config, model.state, model.mask.ravel()
    n, rho2 = y.size, config.rho**2
    mu = state.mu.ravel()
    v_old = oracle.dense_kron([g.eigvecs for g in state.basis])
    ups = (v_old * state.ups_diag.ravel()) @ v_old.T
    sigma_p = oracle.dense_kron([g.gram for g in model.mode_grams])

    if config.noise == "probit":
        loc, ones = state.zbar_loc.ravel(), y.ravel() == 1.0
        # z > 0 where y = 1 and z <= 0 where y = 0, in standardized bounds.
        # The open side stops at least 40 sd out, where the density underflows
        # to 0: scipy's truncnorm entropy is nan at an infinite bound (inf * 0).
        far = 40.0 + np.abs(loc)
        q_obs = stats.truncnorm(np.where(ones, -loc, -far), np.where(ones, far, -loc), loc=loc)
        q_miss = stats.norm(loc)
        mean = np.where(mask, q_obs.mean(), q_miss.mean())
        var = np.where(mask, q_obs.var(), q_miss.var())
        entropy = np.where(mask, q_obs.entropy(), q_miss.entropy())
    else:
        q_miss = stats.norm(state.ez.ravel(), math.sqrt(rho2))
        mean = np.where(mask, y.ravel(), state.ez.ravel())
        var = np.where(mask, 0.0, q_miss.var())
        entropy = np.where(mask, 0.0, q_miss.entropy())
    # -E log p(z | M) - H[q(z)], cell by cell
    free = float(np.sum(
        0.5 * math.log(2 * math.pi * rho2)
        + (var + (mean - mu) ** 2 + np.diag(ups)) / (2 * rho2)
        - entropy
    ))

    e_eta, e_log_eta = 1.0, 0.0
    if config.process == "t_process":
        q_eta = stats.gamma(state.beta1, scale=1.0 / state.beta2)
        e_eta = q_eta.mean()
        e_log_eta = special.digamma(state.beta1) - math.log(state.beta2)
        half = 0.5 * config.nu
        # -E log Gamma(eta; nu/2, rate nu/2) - H[q(eta)]
        free += (-half * math.log(half) + special.gammaln(half)
                 - (half - 1.0) * e_log_eta + half * e_eta - q_eta.entropy())

    # -E log N(vec M; 0, S_p / eta) - H[q(M)]
    logdet_p = np.linalg.slogdet(sigma_p)[1]
    logdet_ups = np.linalg.slogdet(ups)[1]
    quad = mu @ np.linalg.solve(sigma_p, mu)
    trace = np.trace(np.linalg.solve(sigma_p, ups))
    free += 0.5 * (n * math.log(2 * math.pi) + logdet_p - n * e_log_eta + e_eta * (quad + trace))
    free -= 0.5 * (n * (math.log(2 * math.pi) + 1.0) + logdet_ups)
    return free + 0.5 * config.l1_lambda * sum(float(np.abs(u).sum()) for u in model.factors)


class TestTrackedObjective:
    @pytest.mark.parametrize("noise", ["gaussian", "probit"])
    @pytest.mark.parametrize("process", ["gaussian_process", "t_process"])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_matches_dense_free_energy(self, noise, process, seed):
        rng = np.random.default_rng(seed)
        dims = (4, 4, 3)
        y = rng.normal(size=dims)
        if noise == "probit":
            y = (y > 0).astype(float)
        mask = rng.random(dims) >= 0.3
        config = ModelConfig(
            noise=noise, process=process, nu=6.0, rank=2, kernel=KernelSpec("gaussian", 0.4),
            l1_lambda=0.3, gaussian_sigma=0.6, max_em_iters=3, em_rel_tol=0.0,
            mstep_max_iters=10, seed=seed,
        )
        model = fit(y, mask, config)
        assert tracked_objective(y, model) == model.objective_trace[-1]
        assert rel_err(model.objective_trace[-1], _dense_free_energy(y, model)) <= 1e-9

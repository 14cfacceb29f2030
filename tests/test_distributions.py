import math

import numpy as np
import pytest
from scipy import integrate, stats

from tensorgp.distributions import (
    TensorNormalParams,
    TensorTParams,
    sample_finite_tucker,
    sample_tensor_normal,
    sample_tensor_t,
    std_normal_cdf,
    tensor_normal_logpdf,
    tensor_t_logpdf,
    truncated_normal_mean,
)
from tensorgp.errors import ShapeError
from tensorgp.kernels import EIGENVALUE_FLOOR, KernelSpec, SpectralGram, gram_matrix
from tensorgp.oracle import dense_kron


def _random_grams(rng, dims, gamma=0.4):
    spec = KernelSpec("gaussian", gamma)
    return [gram_matrix(spec, rng.normal(size=(d, 2))) for d in dims]


class TestTensorNormalLogpdf:
    def test_standard_normal_at_zero(self):
        p = TensorNormalParams(np.zeros(1), [SpectralGram(np.eye(1), np.eye(1), np.ones(1), 0.0)])
        assert tensor_normal_logpdf(p, np.zeros(1)) == pytest.approx(
            -0.5 * math.log(2 * math.pi), rel=1e-12
        )

    def test_matches_dense_kronecker_mvn(self, rng):
        dims = (2, 3, 2)
        grams = _random_grams(rng, dims)
        mean = rng.normal(size=dims)
        m = rng.normal(size=dims)
        p = TensorNormalParams(mean, grams)
        cov = dense_kron([g.gram for g in grams])
        expected = stats.multivariate_normal.logpdf(m.ravel(), mean=mean.ravel(), cov=cov)
        assert tensor_normal_logpdf(p, m) == pytest.approx(expected, abs=1e-9)

    def test_translation_invariance(self, rng):
        dims = (2, 2)
        grams = _random_grams(rng, dims)
        mean = rng.normal(size=dims)
        m = rng.normal(size=dims)
        shift = 3.7
        a = tensor_normal_logpdf(TensorNormalParams(mean, grams), m)
        b = tensor_normal_logpdf(TensorNormalParams(mean + shift, grams), m + shift)
        assert a == pytest.approx(b, rel=1e-12)

    def test_shape_mismatch(self, rng):
        grams = _random_grams(rng, (2, 2))
        p = TensorNormalParams(np.zeros((2, 2)), grams)
        with pytest.raises(ShapeError):
            tensor_normal_logpdf(p, np.zeros((2, 3)))


class TestTensorTLogpdf:
    def test_scalar_student_t(self):
        # K = 1, n = 1, unit Gram: the scalar Student-t(3) density at 0
        p = TensorTParams(3.0, np.zeros(1), [SpectralGram(np.eye(1), np.eye(1), np.ones(1), 0.0)])
        expected = stats.t.logpdf(0.0, df=3.0)
        assert tensor_t_logpdf(p, np.zeros(1)) == pytest.approx(expected, rel=1e-12)

    def test_gamma_mixture_quadrature(self, rng):
        # the t density equals Gam(eta | nu/2, nu/2)-weighted normals with each
        # mode Gram scaled by eta^(-1/K); integrate that mixture numerically
        dims = (2, 2)
        nu = 6.0
        grams = _random_grams(rng, dims)
        m = rng.normal(size=dims)
        cov = dense_kron([g.gram for g in grams])

        def integrand(eta):
            dens = stats.multivariate_normal.pdf(m.ravel(), mean=np.zeros(4), cov=cov / eta)
            return stats.gamma.pdf(eta, a=nu / 2, scale=2 / nu) * dens

        val, err = integrate.quad(integrand, 0.0, np.inf, epsabs=1e-13, limit=200)
        assert err < 1e-10
        p = TensorTParams(nu, np.zeros(dims), grams)
        assert tensor_t_logpdf(p, m) == pytest.approx(math.log(val), abs=1e-5)

    def test_limits_to_normal(self, rng):
        dims = (2, 2)
        grams = _random_grams(rng, dims)
        m = rng.normal(size=dims)
        pt = TensorTParams(1e6, np.zeros(dims), grams)
        pn = TensorNormalParams(np.zeros(dims), grams)
        assert tensor_t_logpdf(pt, m) == pytest.approx(tensor_normal_logpdf(pn, m), abs=1e-3)

    def test_integrates_to_one_scalar(self):
        p = TensorTParams(4.0, np.zeros(1), [SpectralGram(np.eye(1) * 1.3, np.eye(1), np.array([1.3]), 0.0)])
        val, _ = integrate.quad(
            lambda x: math.exp(tensor_t_logpdf(p, np.array([x]))), -np.inf, np.inf
        )
        assert val == pytest.approx(1.0, abs=1e-6)

    def test_requires_nu_above_two(self):
        with pytest.raises(ValueError):
            TensorTParams(2.0, np.zeros(1), [SpectralGram(np.eye(1), np.eye(1), np.ones(1), 0.0)])


class TestSamplers:
    def test_normal_deterministic_given_seed(self, rng):
        grams = _random_grams(rng, (2, 2))
        p = TensorNormalParams(np.zeros((2, 2)), grams)
        a = sample_tensor_normal(np.random.default_rng(5), p)
        b = sample_tensor_normal(np.random.default_rng(5), p)
        np.testing.assert_array_equal(a, b)

    def test_degenerate_spectrum_returns_mean(self):
        sg = SpectralGram(np.zeros((2, 2)), np.eye(2), np.full(2, EIGENVALUE_FLOOR), 0.0)
        mean = np.array([[1.0, -2.0], [0.5, 3.0]])
        p = TensorNormalParams(mean, [sg, sg])
        draw = sample_tensor_normal(np.random.default_rng(0), p)
        np.testing.assert_allclose(draw, mean, atol=1e-5)

    def test_normal_monte_carlo_covariance(self, rng):
        grams = _random_grams(rng, (2, 2), gamma=0.2)
        p = TensorNormalParams(np.zeros((2, 2)), grams)
        draws = sample_tensor_normal(np.random.default_rng(123), p, size=200_000)
        sample_cov = np.cov(draws.reshape(-1, 4).T)
        expected = dense_kron([g.gram for g in grams])
        assert np.max(np.abs(sample_cov - expected) / np.abs(expected)) < 0.02

    def test_t_sampler_scaled_covariance(self, rng):
        nu = 10.0
        grams = _random_grams(rng, (2, 2), gamma=0.2)
        p = TensorTParams(nu, np.zeros((2, 2)), grams)
        draws = sample_tensor_t(np.random.default_rng(7), p, size=200_000)
        sample_cov = np.cov(draws.reshape(-1, 4).T)
        expected = nu / (nu - 2.0) * dense_kron([g.gram for g in grams])
        assert np.max(np.abs(sample_cov - expected) / np.abs(expected)) < 0.03


class TestFiniteRankSampler:
    def test_rank_one_constant(self):
        maps = [np.ones((3, 1)), np.ones((2, 1))]
        draw = sample_finite_tucker(np.random.default_rng(0), 1, maps)
        assert np.unique(draw).size == 1

    def test_single_mode_reduces_to_matvec(self):
        rng_a = np.random.default_rng(42)
        rng_b = np.random.default_rng(42)
        f = np.arange(6.0).reshape(3, 2)
        draw = sample_finite_tucker(rng_a, 2, [f])
        w = rng_b.standard_normal((2,))
        np.testing.assert_allclose(draw, f @ w)

    def test_monte_carlo_covariance(self):
        rng = np.random.default_rng(99)
        maps = [rng.uniform(0.3, 1.0, size=(2, 2)) for _ in range(2)]
        draws = sample_finite_tucker(np.random.default_rng(321), 2, maps, size=200_000)
        sample_cov = np.cov(draws.reshape(-1, 4).T)
        expected = dense_kron([f @ f.T for f in maps])
        assert np.max(np.abs(sample_cov - expected) / np.abs(expected)) < 0.02

    def test_column_count_checked(self):
        with pytest.raises(ShapeError):
            sample_finite_tucker(np.random.default_rng(0), 2, [np.ones((3, 1))])


class TestTruncatedNormalMean:
    def test_at_zero_positive_side(self):
        assert truncated_normal_mean(0.0, 1) == pytest.approx(math.sqrt(2 / math.pi), rel=1e-12)

    def test_at_zero_negative_side(self):
        assert truncated_normal_mean(0.0, 0) == pytest.approx(-math.sqrt(2 / math.pi), rel=1e-12)

    def test_at_two(self):
        expected = 2.0 + stats.norm.pdf(2.0) / std_normal_cdf(2.0)
        assert truncated_normal_mean(2.0, 1) == pytest.approx(expected, rel=1e-12)
        assert truncated_normal_mean(2.0, 1) == pytest.approx(2.05525, abs=1e-5)

    def test_brackets_mu(self, rng):
        # strict in exact arithmetic; in float64 the correction drops below
        # one ulp of mu once pdf(mu)/cdf(mu) < eps*|mu| (around |mu| ~ 8.3)
        mus = rng.uniform(-30, 8, size=200)
        assert np.all(truncated_normal_mean(mus, np.ones(200)) > mus)
        mus_neg = -mus
        assert np.all(truncated_normal_mean(mus_neg, np.zeros(200)) < mus_neg)
        big = np.array([20.0, 100.0])
        assert np.all(truncated_normal_mean(big, np.ones(2)) >= big)
        assert np.all(truncated_normal_mean(-big, np.zeros(2)) <= -big)

    def test_monotone_in_mu(self):
        mus = np.linspace(-60, 60, 4001)
        vals = truncated_normal_mean(mus, np.ones_like(mus))
        assert np.all(np.diff(vals) > 0)

    def test_deep_tail_against_quadrature(self):
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 60
        for mu in (-8.0, -15.0, -40.0):
            # the conditional mass sits in a boundary layer of width ~1/|mu|
            # above 0; give the quadrature breakpoints that resolve it
            a = abs(mu)
            pts = [0] + [f / a for f in (0.25, 0.5, 1, 2, 4, 8, 16)] + [a + 10]
            num = mpmath.quad(lambda z: z * mpmath.npdf(z, mu, 1), pts, maxdegree=10)
            den = mpmath.quad(lambda z: mpmath.npdf(z, mu, 1), pts, maxdegree=10)
            expected = float(num / den)
            # quadrature itself is only ~1e-8 accurate at mu = -40
            assert truncated_normal_mean(mu, 1) == pytest.approx(expected, rel=1e-7)


class TestScalarNormal:
    def test_cdf_at_zero(self):
        assert std_normal_cdf(0.0) == 0.5

    def test_cdf_quantile(self):
        assert std_normal_cdf(1.96) == pytest.approx(0.975002, abs=1e-6)

    def test_cdf_strictly_increasing(self):
        xs = np.linspace(-6, 6, 100)
        assert np.all(np.diff(std_normal_cdf(xs)) > 0)

import numpy as np
import pytest

from conftest import rel_err
from tensorgp.errors import OracleSizeError
from tensorgp.inference import ModelConfig
from tensorgp.kernels import KernelSpec, gram_matrix
from tensorgp.oracle import (
    DenseGPState,
    dense_eta,
    dense_kron,
    dense_objective_and_gradient,
    dense_posterior,
)
from tensorgp.tensors import mode_k_product


class TestDenseKron:
    def test_identity_blocks(self):
        np.testing.assert_array_equal(dense_kron([np.eye(2), np.eye(3)]), np.eye(6))

    def test_scalars(self):
        np.testing.assert_array_equal(dense_kron([[[2.0]], [[3.0]]]), [[6.0]])

    def test_entry_formula(self, rng):
        a = rng.normal(size=(2, 2))
        b = rng.normal(size=(3, 3))
        k = dense_kron([a, b])
        for i in range(2):
            for j in range(2):
                np.testing.assert_allclose(k[3 * i : 3 * i + 3, 3 * j : 3 * j + 3], a[i, j] * b)

    def test_ordering_matches_vectorization(self, rng):
        t = rng.normal(size=(3, 4))
        a = rng.normal(size=(3, 3))
        b = rng.normal(size=(4, 4))
        lhs = dense_kron([a, b]) @ t.ravel()
        rhs = mode_k_product(mode_k_product(t, a, 0), b, 1).ravel()
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_size_cap(self):
        with pytest.raises(OracleSizeError):
            dense_kron([np.eye(11), np.eye(11)])


class TestDensePosterior:
    def test_identity_prior_halves(self, rng):
        grams = [gram_matrix(KernelSpec("linear"), np.eye(2), jitter=0.0) for _ in range(2)]
        t = rng.normal(size=(2, 2))
        st = dense_posterior(t, grams, tau=1.0, rho=1.0)
        np.testing.assert_allclose(st.upsilon, 0.5 * np.eye(4), atol=1e-12)
        np.testing.assert_allclose(st.mu_vec, t.ravel() / 2.0, atol=1e-12)

    def test_scalar_arithmetic(self):
        grams = [gram_matrix(KernelSpec("linear"), np.array([[np.sqrt(2.0)]]), jitter=0.0)]
        st = dense_posterior(np.array([5.0]), grams, tau=3.0, rho=1.0)
        assert st.upsilon[0, 0] == pytest.approx(0.4, rel=1e-12)
        assert st.mu_vec[0] == pytest.approx(2.0, rel=1e-12)

    def test_size_cap(self):
        with pytest.raises(OracleSizeError):
            dense_posterior(np.zeros((5, 5, 5)), [], tau=1.0)

    def test_eta_degenerate_posterior(self):
        n = 4
        st = DenseGPState(np.eye(n), np.zeros((n, n)), np.zeros(n))
        b1, b2, tau = dense_eta(10.0, st)
        assert b1 == 7.0
        assert b2 == 5.0
        assert tau == pytest.approx((10.0 + n) / 10.0)


class TestDenseObjectiveGradient:
    def _instance(self, rng, dims=(2, 2, 2)):
        spec = KernelSpec("gaussian", 0.5)
        factors = [rng.normal(size=(d, 2)) for d in dims]
        grams = [gram_matrix(spec, u) for u in factors]
        target = rng.normal(size=dims)
        st = dense_posterior(target, grams, tau=1.2, rho=1.0)
        config = ModelConfig(kernel=spec, l1_lambda=0.4, rank=2)
        jitters = [g.jitter_applied for g in grams]
        return factors, st, config, jitters

    def test_gradient_matches_own_finite_differences(self, rng):
        factors, st, config, jitters = self._instance(rng)
        obj, grads = dense_objective_and_gradient(factors, st, config, jitters, tau=1.2)
        eps = 1e-6
        for k, u in enumerate(factors):
            for i in range(u.shape[0]):
                for j in range(u.shape[1]):
                    up = [f.copy() for f in factors]
                    dn = [f.copy() for f in factors]
                    up[k][i, j] += eps
                    dn[k][i, j] -= eps
                    # finite differences of the smooth part only
                    o_up, _ = dense_objective_and_gradient(up, st, config, jitters, tau=1.2)
                    o_dn, _ = dense_objective_and_gradient(dn, st, config, jitters, tau=1.2)
                    l1_up = config.l1_lambda * sum(np.abs(f).sum() for f in up)
                    l1_dn = config.l1_lambda * sum(np.abs(f).sum() for f in dn)
                    fd = ((o_up - l1_up) - (o_dn - l1_dn)) / (2 * eps)
                    assert abs(fd - grads[k][i, j]) <= 1e-5 * max(1.0, abs(fd))

    def test_identity_instance_objective_zero(self):
        factors = [np.eye(2), np.eye(2)]
        st = DenseGPState(np.eye(4), np.zeros((4, 4)), np.zeros(4))
        config = ModelConfig(kernel=KernelSpec("linear"), l1_lambda=0.0, rank=2)
        obj, _ = dense_objective_and_gradient(factors, st, config, [0.0, 0.0], tau=1.0)
        assert obj == pytest.approx(0.0, abs=1e-12)

    def test_size_cap(self):
        factors = [np.eye(9), np.eye(9)]
        st = DenseGPState(np.eye(81), np.zeros((81, 81)), np.zeros(81))
        config = ModelConfig(kernel=KernelSpec("linear"), rank=9)
        with pytest.raises(OracleSizeError):
            dense_objective_and_gradient(factors, st, config, [0.0, 0.0])

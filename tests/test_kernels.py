import numpy as np
import pytest
from scipy.spatial.distance import cdist

from conftest import rel_err
from tensorgp.kernels import (
    EIGENVALUE_FLOOR,
    KernelSpec,
    gram_gradient_contract,
    gram_matrix,
    kernel_matrix,
)


class TestKernelEval:
    """The kernel formulas, read off the raw Gram matrix."""

    def test_gaussian_zero_distance(self):
        spec = KernelSpec("gaussian", 2.7)
        u = np.array([0.3, -1.2])
        np.testing.assert_array_equal(kernel_matrix(spec, np.array([u, u])), np.ones((2, 2)))

    def test_exponential_unit_distance(self):
        spec = KernelSpec("exponential", 1.0)
        k = kernel_matrix(spec, np.array([[0.0], [1.0]]))
        assert k[0, 1] == pytest.approx(np.exp(-1.0), rel=1e-12)

    def test_linear_dot(self):
        spec = KernelSpec("linear")
        assert kernel_matrix(spec, np.array([[1.0, 2.0], [3.0, 4.0]]))[0, 1] == 11.0

    def test_symmetry(self, rng):
        for family in ("gaussian", "exponential", "linear"):
            spec = KernelSpec(family, 0.7)
            k = kernel_matrix(spec, rng.normal(size=(5, 3)))
            np.testing.assert_array_equal(k, k.T)

    def test_monotone_decay_with_distance(self):
        rows = np.array([[d, 0.0] for d in (0.0, 0.5, 1.0, 2.0, 5.0)])
        for family in ("gaussian", "exponential"):
            vals = kernel_matrix(KernelSpec(family, 0.9), rows)[0]
            assert all(a > b for a, b in zip(vals, vals[1:]))
            assert all(0.0 < v <= 1.0 for v in vals)

    @pytest.mark.parametrize("rank", range(1, 13))
    def test_distances_match_cdist_bitwise(self, rng, rank):
        # Column-order summation reproduces cdist bit for bit; a pairwise sum
        # (numpy's sum over 8 or more columns) would not.
        for n in (1, 2, 7, 31, 60):
            rows = rng.normal(size=(n, rank)) * rng.uniform(0.01, 100.0)
            for family, metric in (("gaussian", "sqeuclidean"), ("exponential", "euclidean")):
                spec = KernelSpec(family, 0.37)
                want = np.exp(-spec.gamma * cdist(rows, rows, metric=metric))
                np.fill_diagonal(want, 1.0)
                np.testing.assert_array_equal(kernel_matrix(spec, rows), want)

    def test_bad_specs(self):
        with pytest.raises(ValueError):
            KernelSpec("cubic", 1.0)
        with pytest.raises(ValueError):
            KernelSpec("gaussian", -1.0)


class TestGramMatrix:
    def test_single_row(self):
        sg = gram_matrix(KernelSpec("gaussian", 1.0), np.array([[0.5, 0.5]]))
        assert sg.gram.shape == (1, 1)
        assert sg.gram[0, 0] == pytest.approx(1.0 + sg.jitter_applied)

    def test_two_identical_rows_spectrum(self):
        sg = gram_matrix(KernelSpec("gaussian", 1.0), np.array([[1.0], [1.0]]))
        j = sg.jitter_applied
        np.testing.assert_allclose(
            sg.gram, [[1.0 + j, 1.0], [1.0, 1.0 + j]], rtol=1e-12
        )
        np.testing.assert_allclose(sorted(sg.eigvals), [j, 2.0 + j], rtol=1e-6)

    def test_linear_on_identity_rows(self):
        sg = gram_matrix(KernelSpec("linear"), np.eye(3))
        np.testing.assert_allclose(sg.gram, np.eye(3) * (1.0 + sg.jitter_applied))

    def test_raw_gram_psd(self, rng):
        for family in ("gaussian", "exponential"):
            spec = KernelSpec(family, rng.uniform(0.05, 1.0))
            rows = rng.normal(size=(50, 3))
            vals = np.linalg.eigvalsh(kernel_matrix(spec, rows))
            assert vals.min() >= -1e-10 * vals.max()

    def test_eigvecs_orthogonal(self, rng):
        sg = gram_matrix(KernelSpec("gaussian", 0.4), rng.normal(size=(12, 2)))
        err = np.max(np.abs(sg.eigvecs.T @ sg.eigvecs - np.eye(12)))
        assert err <= 1e-10

    def test_reconstruction(self, rng):
        sg = gram_matrix(KernelSpec("exponential", 0.8), rng.normal(size=(10, 2)))
        recon = (sg.eigvecs * sg.eigvals) @ sg.eigvecs.T
        assert np.linalg.norm(recon - sg.gram) / np.linalg.norm(sg.gram) <= 1e-8

    def test_eigvals_floored(self, rng):
        # rank-deficient linear Gram still produces a strictly positive spectrum
        rows = np.ones((6, 2))
        sg = gram_matrix(KernelSpec("linear"), rows)
        assert np.all(sg.eigvals >= EIGENVALUE_FLOOR)

    def test_frozen_jitter(self, rng):
        rows = rng.normal(size=(4, 2))
        sg = gram_matrix(KernelSpec("gaussian", 0.3), rows, jitter=1e-4)
        assert sg.jitter_applied == 1e-4
        assert sg.gram[0, 0] == pytest.approx(1.0 + 1e-4)

    @pytest.mark.parametrize("family", ["gaussian", "exponential", "linear"])
    def test_frozen_jitter_is_raw_plus_scaled_identity(self, rng, family):
        spec = KernelSpec(family, 0.45)
        rows = rng.normal(size=(9, 3))
        j = 3.7e-6
        sg = gram_matrix(spec, rows, jitter=j)
        raw = kernel_matrix(spec, rows)
        want = raw + j * np.eye(9)
        vals, vecs = np.linalg.eigh(want)
        np.testing.assert_array_equal(sg.kernel, raw)
        np.testing.assert_array_equal(sg.gram, want)
        np.testing.assert_array_equal(sg.eigvecs, vecs)
        np.testing.assert_array_equal(sg.eigvals, np.maximum(vals, EIGENVALUE_FLOOR))


class TestGramGradientContract:
    """The adjoint of rows -> K(rows) against finite differences."""

    @pytest.mark.parametrize("family", ["gaussian", "exponential", "linear"])
    def test_matches_finite_differences(self, rng, family):
        spec = KernelSpec(family, 0.6)
        rows = rng.normal(size=(4, 2)) * 2.0  # well-separated rows
        w = rng.normal(size=(4, 4))
        w = 0.5 * (w + w.T)
        analytic = gram_gradient_contract(spec, rows, w, kernel_matrix(spec, rows))
        eps = 1e-6
        fd = np.zeros_like(rows)
        for i in range(rows.shape[0]):
            for j in range(rows.shape[1]):
                up, dn = rows.copy(), rows.copy()
                up[i, j] += eps
                dn[i, j] -= eps
                fd[i, j] = (
                    np.sum(w * kernel_matrix(spec, up))
                    - np.sum(w * kernel_matrix(spec, dn))
                ) / (2 * eps)
        assert rel_err(analytic, fd) <= 1e-6

    @pytest.mark.parametrize("family", ["gaussian", "exponential", "linear"])
    def test_stored_kernel_is_bitwise_a_fresh_one(self, rng, family):
        spec = KernelSpec(family, 0.6)
        rows = rng.normal(size=(7, 3))
        rows[4] = rows[1]  # coincident rows take the exponential family's zero subgradient
        w = rng.normal(size=(7, 7))
        w = 0.5 * (w + w.T)
        stored = gram_matrix(spec, rows, jitter=1e-6).kernel
        got = gram_gradient_contract(spec, rows, w, stored)
        np.testing.assert_array_equal(got, gram_gradient_contract(spec, rows, w, kernel_matrix(spec, rows)))
        # The same bits as the adjoint that rebuilt the kernel and took cdist distances.
        if family == "linear":
            want = 2.0 * w @ rows
        elif family == "gaussian":
            t = w * np.exp(-spec.gamma * cdist(rows, rows, metric="sqeuclidean"))
            want = -4.0 * spec.gamma * (t.sum(axis=1)[:, None] * rows - t @ rows)
        else:
            dist = cdist(rows, rows, metric="euclidean")
            with np.errstate(divide="ignore", invalid="ignore"):
                t = np.where(dist > 0, w * np.exp(-spec.gamma * dist) / dist, 0.0)
            want = -2.0 * spec.gamma * (t.sum(axis=1)[:, None] * rows - t @ rows)
        np.testing.assert_array_equal(got, want)

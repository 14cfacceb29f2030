import itertools

import numpy as np
import pytest

from tensorgp.errors import ShapeError
from tensorgp.tensors import (
    contract_except,
    mode_gram,
    mode_k_product,
    multi_index,
    multi_mode_vector_contract,
)


class TestVecIndex:
    """The 1-based row-major index map, through its inverse ``multi_index``."""

    def test_first_element(self):
        assert multi_index(1, (2, 3, 4)) == (1, 1, 1)

    def test_last_element(self):
        assert multi_index(24, (2, 3, 4)) == (2, 3, 4)

    def test_hand_computed_interior(self):
        # 3 + (1-1)*12 + (2-1)*4
        assert multi_index(7, (2, 3, 4)) == (1, 2, 3)

    def test_bijective_over_grid(self, rng):
        for _ in range(5):
            order = rng.integers(1, 5)
            dims = tuple(rng.integers(1, 5, size=order))
            seen = {multi_index(j, dims) for j in range(1, int(np.prod(dims)) + 1)}
            assert seen == set(itertools.product(*(range(1, d + 1) for d in dims)))

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            multi_index(5, (2, 2))
        with pytest.raises(IndexError):
            multi_index(0, (2, 2))

    def test_multi_index_inverse(self, rng):
        dims = (3, 2, 4)
        for j in range(1, 25):
            expected = tuple(int(i) + 1 for i in np.unravel_index(j - 1, dims))
            assert multi_index(j, dims) == expected


class TestModeKProduct:
    def test_identity_leaves_tensor(self, rng):
        t = rng.normal(size=(2, 3, 4))
        for k in range(3):
            np.testing.assert_array_equal(mode_k_product(t, np.eye(t.shape[k]), k), t)

    def test_diagonal_scaling(self):
        t = np.eye(2)
        out = mode_k_product(t, np.array([[2.0, 0.0], [0.0, 3.0]]), 0)
        np.testing.assert_allclose(out, np.diag([2.0, 3.0]))

    def test_vector_case_is_matvec(self, rng):
        v = rng.normal(size=5)
        m = rng.normal(size=(3, 5))
        np.testing.assert_allclose(mode_k_product(v, m, 0), m @ v)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            mode_k_product(np.zeros((2, 3)), np.zeros((4, 4)), 0)

    def test_commutes_across_distinct_modes(self, rng):
        t = rng.normal(size=(3, 4, 2))
        a = rng.normal(size=(5, 3))
        b = rng.normal(size=(2, 2))
        one = mode_k_product(mode_k_product(t, a, 0), b, 2)
        two = mode_k_product(mode_k_product(t, b, 2), a, 0)
        np.testing.assert_allclose(one, two, rtol=1e-12)


def _einsum_mode_product(t, m, k):
    idx = "abcd"[: t.ndim]
    return np.einsum(f"{idx},z{idx[k]}->{idx[:k]}z{idx[k + 1:]}", t, m)


# Each maps a fresh C-order array of the wanted shape to another memory layout.
LAYOUTS = {
    "c_order": lambda a: a,
    "transposed": lambda a: np.ascontiguousarray(a.T).T,
    "strided_slice": lambda a: np.repeat(a, 2, axis=-1)[..., ::2],
    "fortran": np.asfortranarray,
}


class TestModeKProductLayouts:
    """Any memory layout of ``t`` and ``m``, orders 1-4, every mode, against einsum."""

    def _check(self, t, m, k):
        before = t.copy()
        out = mode_k_product(t, m, k)
        expected = _einsum_mode_product(t, m, k)
        assert out.shape == expected.shape
        assert out.flags.c_contiguous
        assert not np.shares_memory(out, t)
        np.testing.assert_array_equal(t, before)
        # Relative to the product of absolute values, the scale of each sum's round-off.
        scale = _einsum_mode_product(np.abs(t), np.abs(m), k)
        assert np.all(np.abs(out - expected) <= 1e-14 * scale)

    @pytest.mark.parametrize("t_layout", sorted(LAYOUTS))
    @pytest.mark.parametrize("m_layout", sorted(LAYOUTS))
    @pytest.mark.parametrize("order", [1, 2, 3, 4])
    def test_matches_einsum(self, rng, order, t_layout, m_layout):
        dims = (3, 4, 2, 5)[:order]
        t = LAYOUTS[t_layout](rng.normal(size=dims))
        assert t.shape == dims
        for k in range(order):
            m = LAYOUTS[m_layout](rng.normal(size=(dims[k] + 2, dims[k])))
            assert m.shape == (dims[k] + 2, dims[k])
            self._check(t, m, k)

    @pytest.mark.parametrize("dims", [(3, 0, 4), (0, 2), (2, 3, 0), (0,)])
    def test_zero_length_dimension(self, rng, dims):
        t = rng.normal(size=dims)
        for k in range(len(dims)):
            for rows in (0, dims[k] + 1):
                self._check(t, rng.normal(size=(rows, dims[k])), k)

    @pytest.mark.parametrize("d_layout", sorted(LAYOUTS))
    @pytest.mark.parametrize("v_layout", ["c_order", "strided_slice"])
    @pytest.mark.parametrize("order", [1, 2, 3, 4])
    def test_contract_except_matches_einsum(self, rng, order, d_layout, v_layout):
        dims = (3, 4, 2, 5)[:order]
        d = LAYOUTS[d_layout](rng.normal(size=dims))
        vecs = [LAYOUTS[v_layout](rng.normal(size=n)) for n in dims]
        before = [d.copy()] + [v.copy() for v in vecs]
        idx = "abcd"[:order]
        for k in range(order):
            out = contract_except(d, vecs, k)
            others = [v for j, v in enumerate(vecs) if j != k]
            spec = ",".join([idx] + [c for j, c in enumerate(idx) if j != k]) + "->" + idx[k]
            expected = np.einsum(spec, d, *others)
            scale = np.einsum(spec, np.abs(d), *map(np.abs, others))
            assert out.shape == (dims[k],)
            assert not np.shares_memory(out, d)
            assert np.all(np.abs(out - expected) <= 1e-14 * scale)
        for got, want in zip([d] + vecs, before):
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("a_layout", sorted(LAYOUTS))
    @pytest.mark.parametrize("b_layout", sorted(LAYOUTS))
    @pytest.mark.parametrize("order", [1, 2, 3, 4])
    def test_mode_gram_matches_einsum(self, rng, order, a_layout, b_layout):
        dims = (3, 4, 2, 5)[:order]
        a = LAYOUTS[a_layout](rng.normal(size=dims))
        b = LAYOUTS[b_layout](rng.normal(size=dims))
        before = (a.copy(), b.copy())
        idx = "abcd"[:order]
        for k in range(order):
            out = mode_gram(a, b, k)
            spec = f"{idx},{idx[:k]}z{idx[k + 1:]}->{idx[k]}z"
            expected = np.einsum(spec, a, b)
            scale = np.einsum(spec, np.abs(a), np.abs(b))
            assert out.shape == (dims[k], dims[k])
            assert np.all(np.abs(out - expected) <= 1e-14 * scale)
        np.testing.assert_array_equal(a, before[0])
        np.testing.assert_array_equal(b, before[1])

    @pytest.mark.parametrize("dims", [(3, 0, 4), (0, 2), (2, 3, 0), (0,)])
    def test_contractions_on_zero_length_dimension(self, rng, dims):
        d = rng.normal(size=dims)
        vecs = [rng.normal(size=n) for n in dims]
        for k in range(len(dims)):
            unfold = np.moveaxis(d, k, 0).reshape(dims[k], int(np.prod(np.delete(dims, k))))
            others = [v for j, v in enumerate(vecs) if j != k]
            kron = np.ones(1)
            for v in others:
                kron = np.kron(kron, v)
            np.testing.assert_array_equal(contract_except(d, vecs, k), unfold @ kron)
            np.testing.assert_array_equal(mode_gram(d, d, k), unfold @ unfold.T)

    def test_mode_gram_shape_mismatch(self):
        with pytest.raises(ShapeError):
            mode_gram(np.ones((2, 3)), np.ones((3, 3)), 1)
        with pytest.raises(ShapeError):
            mode_gram(np.ones((2, 3)), np.ones((2, 3)), 2)


class TestTuckerMultiply:
    """Chained mode products against the Kronecker identity the package relies on."""

    def test_identity_factors(self, rng):
        core = rng.normal(size=(2, 3))
        out = mode_k_product(mode_k_product(core, np.eye(2), 0), np.eye(3), 1)
        np.testing.assert_allclose(out, core)

    @pytest.mark.parametrize("order", [1, 2, 3, 4])
    def test_kronecker_vec_identity(self, rng, order):
        dims = tuple(np.random.default_rng(order).integers(2, 4, size=order))
        core = rng.normal(size=dims)
        factors = [rng.normal(size=(d + 1, d)) for d in dims]
        out = core
        for k, f in enumerate(factors):
            out = mode_k_product(out, f, k)
        kron = factors[0]
        for f in factors[1:]:
            kron = np.kron(kron, f)
        np.testing.assert_allclose(out.ravel(), kron @ core.ravel(), atol=1e-12)

    def test_scalar_case(self):
        core = np.full((1, 1), 4.0)
        out = mode_k_product(mode_k_product(core, np.full((1, 1), 2.0), 0), np.full((1, 1), 3.0), 1)
        assert out.item() == pytest.approx(24.0)


class TestVectorize:
    def test_matches_vec_index(self, rng):
        dims = (2, 3, 4)
        t = rng.normal(size=dims)
        v = t.ravel()
        for j in range(1, v.size + 1):
            assert v[j - 1] == t[tuple(i - 1 for i in multi_index(j, dims))]


class TestMultiModeContract:
    def test_basis_vectors_pick_first_entry(self, rng):
        d = rng.normal(size=(2, 3, 2))
        vecs = [np.eye(s)[0] for s in d.shape]
        assert multi_mode_vector_contract(d, vecs) == pytest.approx(d[0, 0, 0])

    def test_matches_kronecker_dot(self, rng):
        d = rng.normal(size=(2, 3, 2))
        vecs = [rng.normal(size=s) for s in d.shape]
        kron = vecs[0]
        for v in vecs[1:]:
            kron = np.kron(kron, v)
        expected = float(kron @ d.ravel())
        assert multi_mode_vector_contract(d, vecs) == pytest.approx(expected, rel=1e-12)

    def test_all_ones_counts(self):
        d = np.ones((2, 3, 4))
        assert multi_mode_vector_contract(d, [np.ones(2), np.ones(3), np.ones(4)]) == 24.0

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            multi_mode_vector_contract(np.ones((2, 2)), [np.ones(3), np.ones(2)])
        with pytest.raises(ShapeError):
            multi_mode_vector_contract(np.ones((2, 2)), [np.ones(2)])
        with pytest.raises(ShapeError):
            contract_except(np.ones((2, 2)), [np.ones(2), np.ones(2)], 2)

    @pytest.mark.parametrize("layout", sorted(LAYOUTS))
    @pytest.mark.parametrize("order", [1, 2, 3, 4])
    def test_matches_einsum(self, rng, order, layout):
        dims = (3, 4, 2, 5)[:order]
        d = LAYOUTS[layout](rng.normal(size=dims))
        vecs = [LAYOUTS[layout](rng.normal(size=n)) for n in dims]
        before = [d.copy()] + [v.copy() for v in vecs]
        idx = "abcd"[:order]
        spec = ",".join([idx, *idx]) + "->"
        expected = np.einsum(spec, d, *vecs)
        scale = np.einsum(spec, np.abs(d), *map(np.abs, vecs))
        assert abs(multi_mode_vector_contract(d, vecs) - expected) <= 1e-14 * scale
        for got, want in zip([d] + vecs, before):
            np.testing.assert_array_equal(got, want)

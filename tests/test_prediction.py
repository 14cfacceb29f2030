import numpy as np
import pytest

from conftest import rel_err
from tensorgp import oracle
from tensorgp.errors import ShapeError
from tensorgp.evaluate import mse
from tensorgp.inference import FittedModel, ModelConfig, VariationalState, fit
from tensorgp.kernels import KernelSpec, gram_matrix
from tensorgp.prediction import (
    cross_covariance,
    predict_batch,
    predict_gaussian,
    predict_probit,
    predictive_moments,
)
from tensorgp.tensors import multi_index


def _manual_model(factors, kernel, target, noise="gaussian", tau_star=1.0, sigma=1.0, jitter=None):
    """Assemble a FittedModel directly from known pieces."""
    grams = [gram_matrix(kernel, u, jitter=jitter) for u in factors]
    dims = tuple(g.size for g in grams)
    state = VariationalState(
        ez=np.asarray(target, dtype=np.float64),
        mu=np.zeros(dims),
        ups_diag=np.zeros(dims),
        beta1=1.0,
        beta2=1.0,
        tau=1.0,
        basis=grams,
    )
    config = ModelConfig(noise=noise, kernel=kernel, gaussian_sigma=sigma, rank=factors[0].shape[1])
    return FittedModel(
        factors=list(factors),
        mode_grams=grams,
        config=config,
        state=state,
        tau_star=tau_star,
        mask=np.ones(dims, dtype=bool),
    )


class TestCrossCovariance:
    def test_orthonormal_linear_rows_give_basis_vector(self):
        model = _manual_model([np.eye(2), np.eye(3)], KernelSpec("linear"), np.zeros((2, 3)), jitter=0.0)
        idx = (2, 3)
        k = cross_covariance(model, idx)
        expected = np.zeros(6)
        expected[np.ravel_multi_index(np.subtract(idx, 1), (2, 3))] = 1.0
        np.testing.assert_allclose(k, expected, atol=1e-12)

    def test_training_index_entry_is_one(self, rng):
        factors = [rng.normal(size=(3, 2)), rng.normal(size=(4, 2))]
        model = _manual_model(factors, KernelSpec("gaussian", 0.5), np.zeros((3, 4)))
        idx = (2, 3)
        k = cross_covariance(model, idx)
        # up to the diagonal jitter, k(u, u) = 1 in every mode
        assert k[np.ravel_multi_index(np.subtract(idx, 1), (3, 4))] == pytest.approx(1.0, abs=1e-6)

    def test_matches_dense_kron_row(self, rng):
        factors = [rng.normal(size=(2, 2)), rng.normal(size=(3, 2))]
        model = _manual_model(factors, KernelSpec("exponential", 0.7), np.zeros((2, 3)))
        sigma_p = oracle.dense_kron([g.gram for g in model.mode_grams])
        for idx in [(1, 1), (2, 3), (1, 2)]:
            row = sigma_p[np.ravel_multi_index(np.subtract(idx, 1), (2, 3))]
            np.testing.assert_allclose(cross_covariance(model, idx), row, atol=1e-12)

    def test_out_of_range(self, rng):
        model = _manual_model([np.eye(2), np.eye(2)], KernelSpec("linear"), np.zeros((2, 2)))
        with pytest.raises(IndexError):
            cross_covariance(model, (3, 1))


class TestPredictiveMoments:
    def test_scalar_arithmetic(self):
        # S_p = I, tau* = 1, rho = 1, target = 2 e_j: mean 1, variance 1.5
        target = np.zeros((2, 2))
        target[1, 0] = 2.0
        model = _manual_model([np.eye(2), np.eye(2)], KernelSpec("linear"), target, jitter=0.0)
        m = predictive_moments(model, (2, 1), rho=1.0)
        assert m.mean == pytest.approx(1.0, rel=1e-12)
        assert m.variance == pytest.approx(1.5, rel=1e-12)

    def test_far_point_reverts_to_prior(self, rng):
        factors = [rng.normal(size=(3, 2)) * 10.0, rng.normal(size=(3, 2)) * 10.0]
        target = rng.normal(size=(3, 3))
        model = _manual_model(factors, KernelSpec("gaussian", 50.0), target)
        m = predictive_moments(model, (2, 2), rho=1.0)
        # k is (almost) a scaled basis vector; the mean only sees the center cell
        k_ii = model.mode_grams[0].gram[1, 1] * model.mode_grams[1].gram[1, 1]
        assert abs(m.mean - target[1, 1] * k_ii / (k_ii + 1.0)) < 1e-8

    def test_matches_dense_oracle(self, rng):
        factors = [rng.normal(size=(2, 2)), rng.normal(size=(2, 2)), rng.normal(size=(2, 2))]
        target = rng.normal(size=(2, 2, 2))
        model = _manual_model(factors, KernelSpec("gaussian", 0.4), target, tau_star=1.7)
        sigma_p = oracle.dense_kron([g.gram for g in model.mode_grams])
        for idx in [(1, 1, 1), (2, 1, 2), (2, 2, 2)]:
            m = predictive_moments(model, idx, rho=0.8)
            k = cross_covariance(model, idx)
            k_ii = 1.0
            for g, i in zip(model.mode_grams, idx):
                k_ii *= g.gram[i - 1, i - 1]
            mean, var = oracle.dense_predictive_moments(
                k, k_ii, sigma_p, target.ravel(), 1.7, 0.8
            )
            assert rel_err(m.mean, mean) <= 1e-8
            assert rel_err(m.variance, var) <= 1e-8

    def test_variance_ignores_target_values(self, rng):
        factors = [rng.normal(size=(3, 2)), rng.normal(size=(3, 2))]
        a = _manual_model(factors, KernelSpec("gaussian", 0.5), rng.normal(size=(3, 3)))
        b = _manual_model(factors, KernelSpec("gaussian", 0.5), rng.normal(size=(3, 3)))
        for idx in [(1, 2), (3, 3)]:
            assert predictive_moments(a, idx).variance == predictive_moments(b, idx).variance

    def test_variance_at_least_one(self, rng):
        factors = [rng.normal(size=(4, 2)), rng.normal(size=(4, 2))]
        model = _manual_model(factors, KernelSpec("gaussian", 0.3), rng.normal(size=(4, 4)))
        for j in range(16):
            m = predictive_moments(model, multi_index(j + 1, (4, 4)))
            assert m.variance >= 1.0


class TestPredictProbit:
    def test_half_at_zero_mean(self):
        model = _manual_model(
            [np.eye(2), np.eye(2)], KernelSpec("linear"), np.zeros((2, 2)), noise="probit", jitter=0.0
        )
        assert predict_probit(model, (1, 1)) == pytest.approx(0.5)

    def test_known_ratio(self):
        # mean 1, variance 1.5 scaled: construct the 1.5 case and check Phi
        target = np.zeros((2, 2))
        target[0, 0] = 2.0
        model = _manual_model(
            [np.eye(2), np.eye(2)], KernelSpec("linear"), target, noise="probit", jitter=0.0
        )
        from tensorgp.distributions import std_normal_cdf

        expected = std_normal_cdf(1.0 / np.sqrt(1.5))
        assert predict_probit(model, (1, 1)) == pytest.approx(expected, rel=1e-12)

    def test_strictly_inside_unit_interval_and_monotone(self, rng):
        factors = [rng.normal(size=(3, 2)), rng.normal(size=(3, 2))]
        scale_probs = []
        for scale in (0.5, 1.0, 2.0, 4.0):
            target = np.zeros((3, 3))
            target[0, 0] = scale
            model = _manual_model(
                factors, KernelSpec("gaussian", 0.4), target, noise="probit"
            )
            p = predict_probit(model, (1, 1))
            assert 0.0 < p < 1.0
            scale_probs.append(p)
        assert all(a < b for a, b in zip(scale_probs, scale_probs[1:]))

    def test_wrong_noise_model(self):
        model = _manual_model([np.eye(2)], KernelSpec("linear"), np.zeros(2))
        with pytest.raises(ValueError):
            predict_probit(model, (1,))


class TestPredictGaussian:
    def test_large_sigma_reverts_to_prior_mean(self, rng):
        factors = [rng.normal(size=(3, 2)), rng.normal(size=(3, 2))]
        model = _manual_model(
            factors, KernelSpec("gaussian", 0.4), rng.normal(size=(3, 3)), sigma=1e6
        )
        mean, _ = predict_gaussian(model, (2, 2))
        assert abs(mean) < 1e-6

    def test_matches_dense(self, rng):
        factors = [rng.normal(size=(2, 2)), rng.normal(size=(3, 2))]
        target = rng.normal(size=(2, 3))
        model = _manual_model(factors, KernelSpec("gaussian", 0.6), target, sigma=0.5, tau_star=1.2)
        sigma_p = oracle.dense_kron([g.gram for g in model.mode_grams])
        idx = (2, 2)
        k = cross_covariance(model, idx)
        k_ii = model.mode_grams[0].gram[1, 1] * model.mode_grams[1].gram[1, 1]
        mean, var = oracle.dense_predictive_moments(k, k_ii, sigma_p, target.ravel(), 1.2, 0.5)
        got_mean, got_var = predict_gaussian(model, idx)
        assert rel_err(got_mean, mean) <= 1e-8
        assert rel_err(got_var, var) <= 1e-8

    def test_recovers_noise_free_rank_one(self):
        rng = np.random.default_rng(77)
        u = rng.uniform(0.5, 1.5, size=6)
        v = rng.uniform(0.5, 1.5, size=6)
        y = np.multiply.outer(u, v)
        mask = rng.random((6, 6)) < 0.8
        config = ModelConfig(
            noise="gaussian",
            process="gaussian_process",
            rank=2,
            kernel=KernelSpec("gaussian", 0.3),
            l1_lambda=0.1,
            gaussian_sigma=0.1,
            max_em_iters=60,
            seed=2,
        )
        model = fit(y, mask, config)
        held = [multi_index(j + 1, y.shape) for j in np.flatnonzero(~mask.ravel())]
        preds = [predict_gaussian(model, idx)[0] for idx in held]
        assert mse(preds, y[~mask]) < 1e-2


class TestBatch:
    def test_batch_equals_entrywise_loop(self, rng):
        factors = [rng.normal(size=(3, 2)), rng.normal(size=(4, 2))]
        model = _manual_model(factors, KernelSpec("gaussian", 0.5), rng.normal(size=(3, 4)))
        indices = [multi_index(j + 1, (3, 4)) for j in range(12)]
        batch = predict_batch(model, indices, rho=1.0)
        for idx, m in zip(indices, batch):
            single = predictive_moments(model, idx, rho=1.0)
            assert m.mean == single.mean
            assert m.variance == single.variance


def _every_cell(dims):
    return [multi_index(j + 1, dims) for j in range(int(np.prod(dims)))]


class TestGrid:
    @pytest.mark.parametrize("dims", [(3, 4), (2, 3, 4)])
    @pytest.mark.parametrize("kernel", [KernelSpec("exponential", 0.6), KernelSpec("linear")])
    @pytest.mark.parametrize("noise, sigma", [("gaussian", 0.4), ("probit", 1.0)])
    @pytest.mark.parametrize("rho", [None, 0.7])
    def test_every_cell_matches_dense_oracle(self, rng, dims, kernel, noise, sigma, rho):
        factors = [rng.normal(size=(n, 2)) for n in dims]
        target = rng.normal(size=dims)
        model = _manual_model(factors, kernel, target, noise=noise, tau_star=1.6, sigma=sigma)
        resolved = model.config.rho if rho is None else rho
        sigma_p = oracle.dense_kron([g.gram for g in model.mode_grams])
        cells = _every_cell(dims)
        for idx, m in zip(cells, predict_batch(model, cells, rho=rho)):
            j = np.ravel_multi_index(np.subtract(idx, 1), dims)
            mean, var = oracle.dense_predictive_moments(
                sigma_p[j], sigma_p[j, j], sigma_p, target.ravel(), 1.6, resolved
            )
            assert rel_err(m.mean, mean) <= 1e-8
            assert rel_err(m.variance, var) <= 1e-8

    def _counted(self, monkeypatch):
        from tensorgp import prediction

        calls = []
        inner = prediction.e_step_m

        def counted(*args):
            calls.append(1)
            return inner(*args)

        monkeypatch.setattr(prediction, "e_step_m", counted)
        return calls

    def test_second_query_does_no_eigenbasis_transform(self, rng, monkeypatch):
        calls = self._counted(monkeypatch)
        model = _manual_model([rng.normal(size=(3, 2))] * 2, KernelSpec("gaussian", 0.5), rng.normal(size=(3, 3)))
        first = predictive_moments(model, (1, 2))
        assert len(calls) == 1
        again = predictive_moments(model, (1, 2))
        predict_gaussian(model, (3, 1))
        predict_batch(model, _every_cell((3, 3)))
        assert len(calls) == 1
        assert (again.mean, again.variance) == (first.mean, first.variance)

    def test_explicit_rho_gets_its_own_entry(self, rng, monkeypatch):
        calls = self._counted(monkeypatch)
        factors = [rng.normal(size=(3, 2)), rng.normal(size=(4, 2))]
        target = rng.normal(size=(3, 4))
        model = _manual_model(factors, KernelSpec("gaussian", 0.5), target, sigma=0.3)
        default = predictive_moments(model, (2, 3))
        explicit = predictive_moments(model, (2, 3), rho=1.5)
        assert len(calls) == 2
        assert explicit.variance != default.variance
        # Each entry still answers for its own rho, in either order.
        assert predictive_moments(model, (2, 3)) == default
        assert predictive_moments(model, (2, 3), rho=1.5) == explicit
        assert predictive_moments(model, (2, 3), rho=0.3) == default  # the resolved default
        assert len(calls) == 2
        fresh = _manual_model(factors, KernelSpec("gaussian", 0.5), target, sigma=0.3)
        assert predictive_moments(fresh, (2, 3), rho=1.5) == explicit

    def test_model_freed_by_refcount(self):
        import gc
        import weakref

        rng = np.random.default_rng(3)
        y = rng.normal(size=(4, 5))
        mask = rng.random((4, 5)) < 0.7
        config = ModelConfig(noise="gaussian", rank=2, kernel=KernelSpec("gaussian", 0.3), max_em_iters=2)
        gc.disable()
        try:
            model = fit(y, mask, config)
            predict_batch(model, [(1, 1), (4, 5)])
            predict_gaussian(model, (2, 2))
            ref = weakref.ref(model)
            del model
            assert ref() is None
        finally:
            gc.enable()


class TestBatchIndices:
    @pytest.fixture
    def model(self, rng):
        factors = [rng.normal(size=(3, 2)), rng.normal(size=(4, 2))]
        return _manual_model(factors, KernelSpec("gaussian", 0.5), rng.normal(size=(3, 4)))

    def test_empty(self, model):
        assert predict_batch(model, []) == []
        assert predict_batch(model, iter(())) == []

    def test_generator_and_array_inputs(self, model):
        cells = _every_cell((3, 4))
        expected = predict_batch(model, cells)
        assert predict_batch(model, (idx for idx in cells)) == expected
        assert predict_batch(model, np.array(cells)) == expected
        assert predict_batch(model, [list(idx) for idx in reversed(cells)]) == expected[::-1]

    @pytest.mark.parametrize(
        "cells, error, message",
        [
            ([(1, 1), (2, 2, 1), (4, 1)], ShapeError, r"index \(2, 2, 1\): order 3 != tensor order 2"),
            ([(1, 1), (1,)], ShapeError, r"index \(1\): order 1 != tensor order 2"),
            ([(1, 1), (4, 1), (1, 9)], IndexError, r"index \(4, 1\): component 4 out of range \[1, 3\] in mode 0"),
            ([(1, 1), (1, 0), (2, 2, 1)], IndexError, r"index \(1, 0\): component 0 out of range \[1, 4\] in mode 1"),
            ([(3, 4), (0, 9)], IndexError, r"index \(0, 9\): component 0 out of range \[1, 3\] in mode 0"),
            ([(1, 1), (1.0, 2)], IndexError, r"index \(1.0, 2\): component 1.0 in mode 0 is not an integer"),
        ],
    )
    def test_first_bad_index_in_input_order(self, model, cells, error, message):
        with pytest.raises(error, match=message):
            predict_batch(model, cells)
        with pytest.raises(error, match=message):
            predict_batch(model, iter(cells))
        bad = next(idx for idx in cells if len(idx) != 2 or not all(
            isinstance(i, int) and 1 <= i <= n for i, n in zip(idx, (3, 4))))
        with pytest.raises(error, match=message):
            predictive_moments(model, bad)

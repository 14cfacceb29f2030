import numpy as np
import pytest

from tensorgp.errors import ShapeError
from tensorgp.evaluate import (
    ExperimentSpec,
    _average_ranks,
    _draw_latent,
    _generator_grams,
    auc,
    cv_splits,
    mse,
    normalize_tensor,
    random_mask,
    run_experiment,
    synth_generate,
)
from tensorgp.oracle import dense_kron


class TestSynthGenerate:
    def test_sigma_zero_is_exact(self):
        spec = ExperimentSpec(dims=(4, 4), noise="gaussian", sigma=0.0, holdout_fraction=0.25, seed=1)
        y, truth, mask = synth_generate(spec, np.random.default_rng(1))
        np.testing.assert_array_equal(y, truth)

    def test_mask_size(self):
        spec = ExperimentSpec(dims=(5, 5, 4), holdout_fraction=0.2, seed=0)
        _, _, mask = synth_generate(spec, np.random.default_rng(0))
        assert int((~mask).sum()) == round(0.2 * 100)

    def test_probit_saturated_latent(self):
        spec = ExperimentSpec(
            dims=(11, 10, 10), noise="probit", latent_scale=0.0, holdout_fraction=0.1, seed=4
        )
        rng = np.random.default_rng(4)
        grams = _generator_grams(spec, rng)
        latent = np.full(spec.dims, 10.0)
        z = latent + rng.standard_normal(spec.dims)
        y = (z > 0.0).astype(float)
        # a +10 latent flips essentially never: allow at most one
        assert int((y == 0.0).sum()) <= 1

    def test_deterministic_per_seed(self):
        spec = ExperimentSpec(dims=(4, 4), seed=9)
        a = synth_generate(spec, np.random.default_rng(9))
        b = synth_generate(spec, np.random.default_rng(9))
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)

    def test_latent_monte_carlo_covariance(self):
        # the executable face of the process-convergence theorems: latent
        # draws have Kronecker covariance of the per-mode Grams
        spec = ExperimentSpec(dims=(2, 2), gen_rank=2, gen_gamma=0.2, seed=3)
        rng = np.random.default_rng(3)
        grams = _generator_grams(spec, rng)
        draws = np.stack([_draw_latent(spec, grams, rng) for _ in range(100_000)])
        sample_cov = np.cov(draws.reshape(-1, 4).T)
        expected = dense_kron([g.gram for g in grams])
        assert np.max(np.abs(sample_cov - expected) / np.abs(expected)) < 0.02


class TestMetrics:
    def test_mse_identical(self):
        assert mse([1.0, 2.0], [1.0, 2.0]) == 0.0

    def test_mse_hand_example(self):
        assert mse([0.0, 0.0], [1.0, 3.0]) == pytest.approx(5.0)

    def test_mse_permutation_invariant(self, rng):
        a = rng.normal(size=20)
        b = rng.normal(size=20)
        perm = rng.permutation(20)
        assert mse(a, b) == pytest.approx(mse(a[perm], b[perm]))

    def test_mse_errors(self):
        with pytest.raises(ShapeError):
            mse([1.0], [1.0, 2.0])
        with pytest.raises(ShapeError):
            mse([], [])

    def test_auc_perfect_separation(self):
        assert auc([0.1, 0.2, 0.8, 0.9], [0, 0, 1, 1]) == 1.0

    def test_auc_all_ties(self):
        assert auc([0.5, 0.5, 0.5, 0.5], [0, 1, 0, 1]) == 0.5

    def test_auc_hand_example(self):
        assert auc([0.1, 0.4, 0.35, 0.8], [0, 0, 1, 1]) == pytest.approx(0.75)

    def test_auc_single_class(self):
        with pytest.raises(ValueError):
            auc([0.4, 0.6], [1, 1])

    def test_auc_matches_roc_integral(self, rng):
        # trapezoidal ROC integration on tie-free scores
        scores = rng.normal(size=60)
        labels = (rng.random(60) < 0.4).astype(int)
        if labels.sum() in (0, 60):
            labels[0] = 1 - labels[0]
        order = np.argsort(-scores)
        sorted_labels = labels[order]
        tpr = np.concatenate([[0.0], np.cumsum(sorted_labels) / labels.sum()])
        fpr = np.concatenate([[0.0], np.cumsum(1 - sorted_labels) / (60 - labels.sum())])
        expected = np.trapezoid(tpr, fpr)
        assert auc(scores, labels) == pytest.approx(expected, abs=1e-12)

    def test_average_ranks_match_scipy_rankdata(self, rng):
        from scipy.stats import rankdata

        for _ in range(200):
            n = int(rng.integers(1, 80))
            levels = int(rng.integers(1, 9))
            x = rng.integers(-levels, levels, size=n) * rng.choice([1.0, 0.1, 1.0 / 3.0])
            ranks = _average_ranks(x)
            assert ranks.tobytes() == rankdata(x).tobytes()

    def test_average_ranks_propagate_nan(self):
        assert np.isnan(_average_ranks(np.array([0.2, np.nan, 0.1]))).all()


class TestCvSplits:
    def test_fold_sizes(self):
        mask = np.zeros((5, 2), dtype=bool)
        mask.ravel()[:10] = True
        splits = cv_splits(mask, folds=5, repeats=1, seed=0)
        assert len(splits) == 5
        for _, test in splits:
            assert int(test.sum()) == 2

    def test_deterministic(self):
        mask = np.ones((4, 4), dtype=bool)
        a = cv_splits(mask, 4, 2, seed=7)
        b = cv_splits(mask, 4, 2, seed=7)
        for (tr1, te1), (tr2, te2) in zip(a, b):
            np.testing.assert_array_equal(te1, te2)

    def test_partition_property(self):
        rng = np.random.default_rng(3)
        mask = rng.random((6, 5)) < 0.7
        splits = cv_splits(mask, 5, 1, seed=1)
        union = np.zeros_like(mask)
        for train, test in splits:
            assert not np.any(train & test)
            assert np.array_equal(train | test, mask)
            assert not np.any(union & test)  # folds disjoint
            union |= test
        assert np.array_equal(union, mask)

    def test_too_few_entries(self):
        mask = np.zeros((2, 2), dtype=bool)
        mask[0, 0] = True
        with pytest.raises(ValueError):
            cv_splits(mask, 2, 1, seed=0)


class TestNormalize:
    def test_two_point_example(self):
        y = np.array([2.0, 4.0])
        mask = np.ones(2, dtype=bool)
        norm, mean, std = normalize_tensor(y, mask)
        assert (mean, std) == (3.0, 1.0)
        np.testing.assert_allclose(norm, [-1.0, 1.0])

    def test_already_standardized(self, rng):
        y = rng.normal(size=400)
        y = (y - y.mean()) / y.std()
        norm, mean, std = normalize_tensor(y, np.ones(400, dtype=bool))
        assert abs(mean) < 1e-12
        assert std == pytest.approx(1.0, rel=1e-12)
        np.testing.assert_allclose(norm, y, atol=1e-9)

    def test_round_trip(self, rng):
        y = rng.normal(size=(4, 5)) * 3.0 + 1.0
        mask = rng.random((4, 5)) < 0.8
        norm, mean, std = normalize_tensor(y, mask)
        np.testing.assert_allclose(norm * std + mean, y, rtol=1e-12)

    def test_zero_variance(self):
        with pytest.raises(ValueError):
            normalize_tensor(np.ones(5), np.ones(5, dtype=bool))


class TestRandomMask:
    def test_counts(self, rng):
        mask = random_mask((10, 10), 0.13, rng)
        assert int((~mask).sum()) == 13


class TestRunExperiment:
    def test_rank_one_noise_free(self):
        spec = ExperimentSpec(
            dims=(6, 6),
            generator="rank1",
            noise="gaussian",
            sigma=0.0,
            holdout_fraction=0.2,
            folds=3,
            repeats=1,
            seed=5,
            gamma_grid=[0.3],
            lambda_grid=[0.1],
            rank_grid=[2],
            max_em_iters=40,
        )
        report = run_experiment(spec)
        assert report.metric_name == "mse"
        # Relative bound (C5's criterion): held-out MSE has the normalized noise variance
        # as its floor, and fold 0's training split leaves column 4 with one cell.
        y, _, mask = synth_generate(spec, np.random.default_rng(spec.seed))
        y, _, _ = normalize_tensor(y, mask)
        baseline = np.mean(
            [
                np.mean((y[test] - y[train].mean()) ** 2)
                for train, test in cv_splits(mask, spec.folds, spec.repeats, spec.seed)
            ]
        )
        assert report.mean < 0.5 * baseline

    def test_probit_latent_gp(self):
        spec = ExperimentSpec(
            dims=(8, 8, 8),
            generator="gp_latent",
            noise="probit",
            process="t_process",
            latent_scale=3.0,
            holdout_fraction=0.2,
            folds=3,
            repeats=1,
            seed=6,
            gamma_grid=[0.3],
            lambda_grid=[0.1],
            rank_grid=[3],
            max_em_iters=20,
        )
        report = run_experiment(spec)
        assert report.metric_name == "auc"
        assert report.mean > 0.85

    def test_repeat_determinism(self):
        spec = ExperimentSpec(
            dims=(5, 5),
            generator="rank1",
            noise="gaussian",
            sigma=0.1,
            folds=3,
            repeats=2,
            seed=11,
            gamma_grid=[0.4],
            lambda_grid=[0.5],
            rank_grid=[1],
            max_em_iters=10,
        )
        a = run_experiment(spec)
        b = run_experiment(spec)
        assert a.to_text() == b.to_text()

    def test_stderr_formula(self):
        spec = ExperimentSpec(
            dims=(5, 5),
            generator="rank1",
            noise="gaussian",
            sigma=0.2,
            folds=3,
            repeats=1,
            seed=2,
            gamma_grid=[0.4],
            lambda_grid=[0.5],
            rank_grid=[1],
            max_em_iters=8,
        )
        report = run_experiment(spec)
        metrics = np.array([r.metric for r in report.records])
        assert report.stderr == pytest.approx(metrics.std(ddof=1) / np.sqrt(len(metrics)))

    def test_grid_search_runs(self):
        spec = ExperimentSpec(
            dims=(5, 5),
            generator="rank1",
            noise="gaussian",
            sigma=0.1,
            folds=2,
            repeats=1,
            seed=8,
            gamma_grid=[0.2, 0.5],
            lambda_grid=[0.1],
            rank_grid=[1],
            max_em_iters=6,
        )
        report = run_experiment(spec)
        assert len(report.records) == 2
        for r in report.records:
            assert r.gamma in (0.2, 0.5)

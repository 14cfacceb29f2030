import numpy as np
import pytest

from tensorgp.optim import minimize_l1, pseudo_gradient


class TestPlainLBFGS:
    def test_quadratic_converges_to_target(self, rng):
        a = rng.normal(size=30)
        res = minimize_l1(
            lambda x: float(np.sum((x - a) ** 2)),
            lambda x: 2.0 * (x - a),
            np.zeros(30),
            l1_weight=0.0,
            max_iter=50,
            gtol=1e-10,
        )
        assert np.max(np.abs(res.x - a)) <= 1e-8
        assert res.n_iter <= 50
        assert res.converged

    def test_rosenbrock_descends(self):
        def f(x):
            return float(100.0 * (x[1] - x[0] ** 2) ** 2 + (1 - x[0]) ** 2)

        def g(x):
            return np.array(
                [
                    -400.0 * x[0] * (x[1] - x[0] ** 2) - 2.0 * (1 - x[0]),
                    200.0 * (x[1] - x[0] ** 2),
                ]
            )

        res = minimize_l1(f, g, np.array([-1.2, 1.0]), max_iter=200, gtol=1e-8)
        assert res.fun < 1e-10
        trace = np.array(res.trace)
        assert np.all(np.diff(trace) <= 0.0)


class TestL1Composite:
    def test_soft_threshold_solution(self, rng):
        # min 0.5||x - a||^2 + lam*||x||_1 has the soft-threshold closed form
        a = rng.normal(size=40) * 2.0
        lam = 0.8
        res = minimize_l1(
            lambda x: 0.5 * float(np.sum((x - a) ** 2)),
            lambda x: x - a,
            np.zeros(40),
            l1_weight=lam,
            max_iter=200,
            gtol=1e-10,
        )
        expected = np.sign(a) * np.maximum(np.abs(a) - lam, 0.0)
        np.testing.assert_allclose(res.x, expected, atol=1e-8)
        # coordinates below the threshold are exactly zero, not merely small
        assert np.all(res.x[np.abs(a) < lam] == 0.0)

    def test_huge_penalty_zeroes_everything(self, rng):
        a = rng.normal(size=20)
        res = minimize_l1(
            lambda x: 0.5 * float(np.sum((x - a) ** 2)),
            lambda x: x - a,
            a.copy(),
            l1_weight=1e6,
            max_iter=100,
        )
        np.testing.assert_array_equal(res.x, np.zeros(20))

    def test_monotone_composite_decrease(self, rng):
        a = rng.normal(size=25)
        q = rng.normal(size=(25, 25))
        h = q.T @ q + np.eye(25)
        res = minimize_l1(
            lambda x: 0.5 * float(x @ h @ x) - float(a @ x),
            lambda x: h @ x - a,
            rng.normal(size=25),
            l1_weight=0.5,
            max_iter=150,
        )
        trace = np.array(res.trace)
        assert np.all(np.diff(trace) <= 0.0)

    def test_stationarity_at_solution(self, rng):
        a = rng.normal(size=15)
        res = minimize_l1(
            lambda x: 0.5 * float(np.sum((x - a) ** 2)),
            lambda x: x - a,
            np.zeros(15),
            l1_weight=0.3,
            max_iter=200,
            gtol=1e-9,
        )
        assert res.max_pseudo_gradient <= 1e-9

    def test_never_worse_than_start(self, rng):
        # a hostile non-convex smooth part; the result must not regress
        def f(x):
            return float(np.sum(np.sin(x) * x**2))

        def g(x):
            return np.cos(x) * x**2 + 2 * x * np.sin(x)

        x0 = rng.normal(size=10)
        res = minimize_l1(f, g, x0, l1_weight=0.2, max_iter=30)
        f0 = f(x0) + 0.2 * np.abs(x0).sum()
        assert res.fun <= f0 + 1e-12


class TestPseudoGradient:
    def test_matches_gradient_when_unpenalized(self, rng):
        g = rng.normal(size=7)
        x = rng.normal(size=7)
        np.testing.assert_array_equal(pseudo_gradient(x, g, 0.0), g)

    def test_zero_coordinate_rules(self):
        x = np.zeros(3)
        g = np.array([2.0, -2.0, 0.5])
        pg = pseudo_gradient(x, g, 1.0)
        # |g| <= lam keeps the coordinate pinned; otherwise shrink toward zero
        np.testing.assert_allclose(pg, [1.0, -1.0, 0.0])

    def test_nonzero_coordinate(self):
        pg = pseudo_gradient(np.array([2.0, -3.0]), np.array([0.1, 0.2]), 1.0)
        np.testing.assert_allclose(pg, [1.1, -0.8])

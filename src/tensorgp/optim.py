"""Limited-memory quasi-Newton minimization of smooth + l1 composites.

Implements an orthant-wise projected L-BFGS: the l1 term enters through a
pseudo-gradient (the minimum-norm subgradient of the composite), search
directions are sign-aligned against it, and line-search trial points are
projected back onto the orthant chosen at the start of the step so
coordinates that cross zero land exactly at zero.  With zero l1 weight the
method reduces to plain L-BFGS with Armijo backtracking.

Every accepted step strictly decreases the composite objective, and the
final iterate is never worse than the starting point.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

ARMIJO_C1 = 1e-4
# Curvature pairs kept by L-BFGS, and the relative objective change that ends a run.
HISTORY = 10
FTOL = 1e-12
BACKTRACK_FACTOR = 0.5
MAX_LINE_SEARCH = 60
CURVATURE_EPS = 1e-12


@dataclass
class OptimResult:
    x: np.ndarray
    fun: float
    n_iter: int
    converged: bool
    line_search_failed: bool
    max_pseudo_gradient: float
    trace: list = field(default_factory=list)


def pseudo_gradient(x: np.ndarray, g: np.ndarray, l1_weight: float) -> np.ndarray:
    """Minimum-norm subgradient of f(x) + l1_weight * ||x||_1."""
    if l1_weight == 0.0:
        return g.copy()
    pg = g + l1_weight * np.sign(x)
    at_zero = x == 0.0
    right = g + l1_weight
    left = g - l1_weight
    pg_zero = np.where(right < 0.0, right, np.where(left > 0.0, left, 0.0))
    return np.where(at_zero, pg_zero, pg)


def _two_loop(pg: np.ndarray, memory: deque) -> np.ndarray:
    """Standard L-BFGS two-loop recursion applied to the pseudo-gradient."""
    q = pg.copy()
    alphas = []
    for s, y, rho in reversed(memory):
        a = rho * (s @ q)
        alphas.append(a)
        q -= a * y
    if memory:
        s, y, _ = memory[-1]
        q *= (s @ y) / (y @ y)
    for (s, y, rho), a in zip(memory, reversed(alphas)):
        b = rho * (y @ q)
        q += (a - b) * s
    return -q


def minimize_l1(
    fun,
    grad,
    x0: np.ndarray,
    l1_weight: float = 0.0,
    max_iter: int = 100,
    gtol: float = 1e-6,
) -> OptimResult:
    """Minimize fun(x) + l1_weight * ||x||_1 starting from x0.

    ``fun`` and ``grad`` evaluate the smooth part only.  Returns the best
    iterate seen; ``line_search_failed`` flags an exhausted backtracking
    search (the best iterate is still returned).
    """
    if l1_weight < 0:
        raise ValueError("l1 weight must be nonnegative")
    x = np.asarray(x0, dtype=np.float64).copy()

    def composite(z, fz):
        return fz + l1_weight * np.abs(z).sum() if l1_weight else fz

    f_smooth = float(fun(x))
    f = composite(x, f_smooth)
    g = np.asarray(grad(x), dtype=np.float64)
    memory: deque = deque(maxlen=HISTORY)
    trace = [f]
    best_x, best_f = x.copy(), f
    converged = False
    ls_failed = False
    n_iter = 0
    pg = pseudo_gradient(x, g, l1_weight)

    for n_iter in range(1, max_iter + 1):
        if np.max(np.abs(pg)) <= gtol:
            converged = True
            break
        d = _two_loop(pg, memory)
        if l1_weight:
            # Keep only components that agree in sign with the steepest
            # composite descent direction.
            d = np.where(d * pg < 0.0, d, 0.0)
            orthant = np.where(x != 0.0, np.sign(x), -np.sign(pg))
        if d @ pg >= 0.0 or not np.all(np.isfinite(d)):
            d = -pg  # fall back to steepest descent
        step = 1.0 if memory else min(1.0, 1.0 / max(np.abs(pg).sum(), 1e-30))
        accepted = False
        for _ in range(MAX_LINE_SEARCH):
            x_new = x + step * d
            if l1_weight:
                x_new = np.where(x_new * orthant < 0.0, 0.0, x_new)
            delta = x_new - x
            if not np.any(delta):
                break
            f_smooth_new = float(fun(x_new))
            f_new = composite(x_new, f_smooth_new)
            if np.isfinite(f_new) and f_new <= f + ARMIJO_C1 * (pg @ delta):
                accepted = True
                break
            step *= BACKTRACK_FACTOR
        if not accepted:
            ls_failed = True
            break

        g_new = np.asarray(grad(x_new), dtype=np.float64)
        s = x_new - x
        yv = g_new - g
        sy = s @ yv
        if sy > CURVATURE_EPS * np.linalg.norm(s) * np.linalg.norm(yv):
            memory.append((s, yv, 1.0 / sy))
        f_prev = f
        x, g, f = x_new, g_new, f_new
        pg = pseudo_gradient(x, g, l1_weight)
        trace.append(f)
        if f < best_f:
            best_x, best_f = x.copy(), f
        if abs(f_prev - f) <= FTOL * max(1.0, abs(f_prev)):
            converged = True
            break
    else:
        n_iter = max_iter

    if f <= best_f:
        best_x, best_f = x, f
    pg_final = pseudo_gradient(best_x, np.asarray(grad(best_x), dtype=np.float64), l1_weight)
    return OptimResult(
        x=best_x,
        fun=best_f,
        n_iter=n_iter,
        converged=converged,
        line_search_failed=ls_failed,
        max_pseudo_gradient=float(np.max(np.abs(pg_final))) if pg_final.size else 0.0,
        trace=trace,
    )

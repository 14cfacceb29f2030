"""Correctness gate: every operation and check is counted, none aborts the run.

``fail_ratio`` is failed / attempted, where both count operations (a fit, a
prediction, a query, a file write or read, a CLI command) and checks on
their outputs.  An operation that raises fails once and abandons the rest of
its repetition; a check that does not hold fails once and the run goes on.
"""

from __future__ import annotations

import contextlib
import traceback

import numpy as np

from tensorgp import oracle
from tensorgp.inference import e_step_m, init_factors
from tensorgp.kernels import KernelSpec, gram_matrix

# The C8 acceptance slack on a rise of the tracked objective between cycles.
TRACE_SLACK = 1e-8
# Batch and single-index predictions of one cell must agree this closely.
AGREE_RTOL = 1e-9
ORACLE_RTOL = 1e-8
# Quality floors from the acceptance suite (C5 and C6).
MSE_TO_BASELINE_MAX = 0.5
AUC_MIN = 0.8


def rel_diff(a, b) -> np.ndarray:
    """|a - b| relative to max(1, |a|, |b|), as the CLI oracle check measures it."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    return np.abs(a - b) / np.maximum(1.0, np.maximum(np.abs(a), np.abs(b)))


class Gate:
    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    @property
    def failed(self) -> int:
        return len(self.failures)

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(f"{name}: {detail}")

    def count(self) -> None:
        """Record one operation attempted (its failure surfaces in ``guard``)."""
        self.attempted += 1

    @contextlib.contextmanager
    def guard(self, what: str):
        """Turn an exception into one recorded failure instead of a crash."""
        try:
            yield
        except Exception:  # the run must finish and report every failure
            self.failures.append(f"{what} raised: {traceback.format_exc(limit=3)}")

    # -- checks on program outputs ------------------------------------------

    def objective_trace(self, trace) -> None:
        t = np.asarray(trace, dtype=np.float64)
        # Rise of each EM cycle beyond the slack; 0 for a single-cycle trace.
        excess = np.append(np.diff(t) - TRACE_SLACK * np.maximum(1.0, np.abs(t[:-1])), 0.0)
        worst = float(np.max(excess))
        self.check(
            "objective_trace_nonincreasing",
            bool(np.all(np.isfinite(t))) and worst <= 0.0,
            f"max rise beyond slack {worst:.3e}",
        )

    def agree(self, name: str, batch, single) -> None:
        worst = float(np.max(rel_diff(batch, single)))
        self.check(name, worst <= AGREE_RTOL, f"max relative difference {worst:.3e}")

    def roundtrip(self, name: str, y, mask, y_back, mask_back) -> None:
        same = np.array_equal(mask, mask_back) and np.array_equal(
            y[mask].view(np.int64), y_back[mask].view(np.int64)
        )
        self.check(name, same, "read-back differs from the written tensor")

    def dense_oracle(self, seed: int) -> None:
        """Untimed cross-check of the eigenbasis E-step against the dense solve (n = 64)."""
        rng = np.random.default_rng(np.random.SeedSequence([seed, 64]))
        dims = (4, 4, 4)
        grams = [gram_matrix(KernelSpec("gaussian", 0.3), u) for u in init_factors(dims, [3, 3, 3], rng)]
        target = rng.standard_normal(dims)
        mu, ups_diag = e_step_m(target, grams, 1.3, 0.5)
        dense = oracle.dense_posterior(target, grams, 1.3, 0.5)
        v = oracle.dense_kron([g.eigvecs for g in grams])
        ups = (v * ups_diag.ravel()) @ v.T
        worst = max(
            float(np.max(rel_diff(mu.ravel(), dense.mu_vec))),
            float(np.max(rel_diff(ups, dense.upsilon))),
        )
        self.check("e_step_m_vs_dense_oracle", worst <= ORACLE_RTOL, f"max relative divergence {worst:.3e}")

"""In-memory spans recorded around calls into the tensorgp layers.

Tracing never edits the package.  ``Tracer.installed()`` rebinds the names
each calling module looks up (``inference.minimize_l1``,
``inference.mode_k_product``, ``prediction.predict_batch``, ...) to wrappers
that record a span per call, and restores the originals on exit.  A span is
``(name, start, end, parent)`` with ``parent`` the index of the enclosing
span (-1 at the top); self time is a span's duration minus its direct
children's.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field
from time import perf_counter

from tensorgp import cli, inference, kernels, prediction, tensorio


@dataclass
class SolverCall:
    """One M-step's OptimResult fields plus the callback counts seen from outside."""

    n_iter: int
    converged: bool
    line_search_failed: bool
    max_pseudo_gradient: float
    value_calls: int
    grad_calls: int


@dataclass
class Tracer:
    spans: list = field(default_factory=list)
    solver_calls: list[SolverCall] = field(default_factory=list)
    mode_product_flop: float = 0.0
    mode_product_bytes: float = 0.0
    _stack: list[int] = field(default_factory=list)

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self._open()
        start = perf_counter()
        try:
            yield
        finally:
            self._close(idx, name, start)

    def _open(self) -> int:
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, name: str, start: float) -> None:
        end = perf_counter()
        self._stack.pop()
        self.spans[idx] = (name, start, end, self._stack[-1] if self._stack else -1)

    def wrap(self, fn, name: str):
        def traced(*args, **kwargs):
            idx = self._open()
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx, name, start)

        return traced

    def _wrap_minimize(self, minimize):
        """Count the solver's value/gradient callbacks and keep its result."""

        def traced(fun, grad, x0, **kwargs):
            counts = [0, 0]

            def value(x):
                counts[0] += 1
                return fun(x)

            def gradient(x):
                counts[1] += 1
                return grad(x)

            res = minimize(
                self.wrap(value, "inference.m_step.value"),
                self.wrap(gradient, "inference.m_step.grad"),
                x0,
                **kwargs,
            )
            self.solver_calls.append(
                SolverCall(
                    res.n_iter,
                    bool(res.converged),
                    bool(res.line_search_failed),
                    float(res.max_pseudo_gradient),
                    *counts,
                )
            )
            return res

        return self.wrap(traced, "optim.minimize_l1")

    def _wrap_mode_product(self, product):
        """Add flop and compulsory-traffic counts computed from the shapes."""
        traced = self.wrap(product, "tensors.mode_k_product")

        def counted(t, m, k):
            rows, cols = m.shape
            size = t.size
            self.mode_product_flop += 2.0 * rows * size
            self.mode_product_bytes += 8.0 * (size + m.size + size // cols * rows)
            return traced(t, m, k)

        return counted

    @contextlib.contextmanager
    def installed(self):
        """Rebind every traced name for the duration of the block."""
        plain = [
            (inference, "gram_matrix", "kernels.gram_matrix"),
            (tensorio, "gram_matrix", "kernels.gram_matrix"),
            (kernels, "gram_gradient_contract", "kernels.gram_gradient_contract"),
            (inference, "e_step_z", "inference.e_step_z"),
            (inference, "e_step_m", "inference.e_step_m"),
            (inference, "e_step_eta", "inference.e_step_eta"),
            (inference, "optimize_factors", "inference.m_step"),
            (inference, "tracked_objective", "inference.tracked_objective"),
            (prediction, "predict_batch", "prediction.predict_batch"),
            (cli, "fit", "inference.fit"),
            (tensorio, "read_tensor", "tensorio.read_tensor"),
            (tensorio, "save_model", "tensorio.save_model"),
            (tensorio, "load_model", "tensorio.load_model"),
        ]
        saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in plain]
        saved += [
            (inference, "minimize_l1", inference.minimize_l1),
            (inference, "mode_k_product", inference.mode_k_product),
        ]
        try:
            for mod, attr, name in plain:
                setattr(mod, attr, self.wrap(getattr(mod, attr), name))
            inference.minimize_l1 = self._wrap_minimize(inference.minimize_l1)
            inference.mode_k_product = self._wrap_mode_product(inference.mode_k_product)
            yield self
        finally:
            for mod, attr, original in saved:
                setattr(mod, attr, original)

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: call count, inclusive seconds and self seconds."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for (name, start, end, _), inner in zip(self.spans, child):
            agg = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            agg["calls"] += 1
            agg["s"] += end - start
            agg["self_s"] += end - start - inner
        return out


class NullTracer:
    """Stand-in for untraced runs: spans cost nothing and patch nothing."""

    def span(self, name: str):
        return contextlib.nullcontext()

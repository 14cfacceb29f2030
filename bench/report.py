"""Metric names, units and their computation from one run's outcome.

End-to-end metrics come from the untraced repetitions only; per-layer
metrics come from the traced repetitions and are given per repetition (one
fit plus its predictions), so they do not grow with the run length.

Every repetition of a run does the same work, so each end-to-end time is a
*floor*: the operation's cost with the least interference from other
tenants of the host.  The shared 2-core host this was built on runs the same
code at two or three speeds that switch every 0.3 s to a minute (pure-Python
loops up to 2x slower at the slow one, BLAS calls about 1.4x) whatever this
process does; a median reads whichever speed held through most of the run.
A long operation (fit, batch prediction, file read or write) is split into
stretches (see workloads._timed_split), and its floor is the sum over
stretches of each stretch's fastest sample, so a fast moment anywhere in the
run counts.  Short ones take their fastest sample: query_ms and query_p90_ms
are the median and 90th percentile over the 100 queried cells of each
cell's fastest call.  Set-up time is the median of its repeats.
"""

from __future__ import annotations

import resource
from statistics import median

import numpy as np

from workloads import EM_REL_TOL, IO_OPS, RunOutcome, Workload

END_TO_END = {
    "setup_s": "s",
    "fit_s": "s",
    "predict_s": "s",
    "query_ms": "ms",
    "query_p90_ms": "ms",
    "io_s": "s",
    "heldout_nlpd": "nats",
    "heldout_auc": "ratio",
    "peak_rss_mb": "MB",
}
# Printed and recorded but not emitted as a gated metric: on em-converge-8
# the held-out MSE of one seed's 8^3 data set differs from another seed's by
# more than any allowed bound (IQR/median about 0.4 over seeds).
REPORTED_ONLY = {"heldout_mse": "sq_units"}

PER_LAYER = {
    "kernels.gram_matrix.calls": "count",
    "kernels.gram_matrix.s": "s",
    "kernels.gram_gradient_contract.s": "s",
    "inference.e_step.s": "s",
    "inference.e_step_z.s": "s",
    "inference.e_step_m.s": "s",
    "inference.e_step_eta.s": "s",
    "inference.m_step.s": "s",
    "inference.m_step.value.calls": "count",
    "inference.m_step.value.ms_per_call": "ms",
    "inference.m_step.grad.calls": "count",
    "inference.m_step.grad.ms_per_call": "ms",
    "inference.tracked_objective.s": "s",
    "inference.em.cycles": "count",
    "inference.em.converged": "ratio",
    "optim.iters": "count",
    "optim.converged_ratio": "ratio",
    "optim.ls_stalls": "count",
    "optim.accept_ratio": "ratio",
    "optim.self.s": "s",
    "tensors.mode_k_product.calls": "count",
    "tensors.mode_k_product.s": "s",
    "tensors.mode_k_product.gflop": "GFLOP-computed",
    "tensors.mode_k_product.gbyte": "GB-computed",
    "tensors.mode_k_product.gflops": "GFLOP/s",
    "prediction.predict_batch.s": "s",
    "prediction.us_per_cell": "us",
    "prediction.query.ms": "ms",
    "tensorio.write_text.s": "s",
    "tensorio.write_text.mb_per_s": "MB/s",
    "tensorio.read_text.s": "s",
    "tensorio.read_text.mb_per_s": "MB/s",
    "tensorio.write_binary.s": "s",
    "tensorio.write_binary.mb_per_s": "MB/s",
    "tensorio.read_binary.s": "s",
    "tensorio.read_binary.mb_per_s": "MB/s",
    "tensorio.read_tensor.s": "s",
    "tensorio.save_model.s": "s",
    "tensorio.load_model.s": "s",
    "tensorio.model_bytes": "bytes",
    "cli.self.s": "s",
    "evaluate.synth_generate.s": "s",
    "trace.overhead.fit_s": "s",
    "trace.overhead.predict_s": "s",
    "trace.unattributed.fit_share": "ratio",
    "trace.unattributed.predict_share": "ratio",
    "trace.m_step_share_of_fit": "ratio",
    "trace.batch_share_of_predict": "ratio",
}


def em_converged(trace: list[float]) -> bool:
    """Whether EM stopped on its relative-change test rather than the cycle cap."""
    return len(trace) > 1 and abs(trace[-2] - trace[-1]) <= EM_REL_TOL * max(1.0, abs(trace[-2]))


def _median_of(reps, key: str) -> float | None:
    values = [r.times[key] for r in reps if key in r.times]
    return median(values) if values else None


def _floor(reps, key: str) -> float | None:
    """Fastest sample of one operation over the run."""
    values = [x for r in reps for x in r.samples.get(key, ())]
    return min(values) if values else None


def split_floor(reps, key: str) -> float | None:
    """Sum over an operation's stretches of each stretch's fastest sample.

    Falls back to the fastest whole sample if the samples split differently.
    """
    split = [x for r in reps for x in r.stretches.get(key, ())]
    if not split:
        return _floor(reps, key)
    if len({len(x) for x in split}) > 1:
        return _floor(reps, key)
    return float(np.min(np.array(split), axis=0).sum())


def query_floors_ms(reps) -> list[float]:
    """Fastest call of each queried cell, in ms."""
    cells: dict[int, list[float]] = {}
    for r in reps:
        for pos, values in r.query.items():
            cells.setdefault(pos, []).extend(values)
    return [min(values) * 1e3 for values in cells.values()]


def _median_of_all(samples) -> float | None:
    flat = [x for group in samples for x in group]
    return median(flat) if flat else None


def _overhead(out: RunOutcome, key: str) -> float | None:
    """Traced minus untraced median of one operation's time."""
    traced, plain = _median_of(out.traced, key), _median_of(out.reps, key)
    return None if traced is None or plain is None else traced - plain


def end_to_end(out: RunOutcome) -> dict[str, float | None]:
    queries = query_floors_ms(out.reps)
    io_ops = [split_floor(out.reps, op) for op in IO_OPS]
    quality = out.quality or {}
    return {
        "setup_s": median(out.setup_s),
        "fit_s": split_floor(out.reps, "fit_s"),
        "predict_s": split_floor(out.reps, "predict_s"),
        "query_ms": median(queries) if queries else None,
        # The 90th percentile over the queried cells of each cell's floor.
        "query_p90_ms": float(np.percentile(queries, 90)) if queries else None,
        "io_s": None if None in io_ops else sum(io_ops),
        "heldout_mse": quality.get("heldout_mse"),
        "heldout_nlpd": quality.get("heldout_nlpd"),
        "heldout_auc": quality.get("heldout_auc"),
        # ru_maxrss is in KiB on Linux.
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(w: Workload, out: RunOutcome) -> dict[str, float | None]:
    n = len(out.traced)
    if n == 0:
        return {name: None for name in PER_LAYER}
    spans = out.tracer.summary()

    def total(name: str, key: str = "s") -> float:
        return spans.get(name, {}).get(key, 0.0)

    def per_call_ms(name: str) -> float:
        calls = total(name, "calls")
        return total(name) / calls * 1e3 if calls else 0.0

    solver = out.tracer.solver_calls
    value_calls = sum(c.value_calls for c in solver)
    accepted = sum(c.grad_calls - 2 for c in solver)
    fit_s = total("op.fit")
    predict_s = total("op.predict")
    mkp_s = total("tensors.mode_k_product")
    traces = [r.objective_trace for r in out.traced]
    layer = {
        "kernels.gram_matrix.calls": total("kernels.gram_matrix", "calls") / n,
        "kernels.gram_matrix.s": total("kernels.gram_matrix") / n,
        "kernels.gram_gradient_contract.s": total("kernels.gram_gradient_contract") / n,
        "inference.e_step.s": sum(total(f"inference.e_step_{p}") for p in ("z", "m", "eta")) / n,
        "inference.e_step_z.s": total("inference.e_step_z") / n,
        "inference.e_step_m.s": total("inference.e_step_m") / n,
        "inference.e_step_eta.s": total("inference.e_step_eta") / n,
        "inference.m_step.s": total("inference.m_step") / n,
        "inference.m_step.value.calls": total("inference.m_step.value", "calls") / n,
        "inference.m_step.value.ms_per_call": per_call_ms("inference.m_step.value"),
        "inference.m_step.grad.calls": total("inference.m_step.grad", "calls") / n,
        "inference.m_step.grad.ms_per_call": per_call_ms("inference.m_step.grad"),
        "inference.tracked_objective.s": total("inference.tracked_objective") / n,
        "inference.em.cycles": sum(len(t) for t in traces) / n,
        "inference.em.converged": sum(em_converged(t) for t in traces) / n,
        "optim.iters": sum(c.n_iter for c in solver) / n,
        "optim.converged_ratio": sum(c.converged for c in solver) / len(solver) if solver else 0.0,
        "optim.ls_stalls": sum(c.line_search_failed for c in solver) / n,
        "optim.accept_ratio": accepted / value_calls if value_calls else 0.0,
        "optim.self.s": total("optim.minimize_l1", "self_s") / n,
        "tensors.mode_k_product.calls": total("tensors.mode_k_product", "calls") / n,
        "tensors.mode_k_product.s": mkp_s / n,
        "tensors.mode_k_product.gflop": out.tracer.mode_product_flop / 1e9 / n,
        "tensors.mode_k_product.gbyte": out.tracer.mode_product_bytes / 1e9 / n,
        "tensors.mode_k_product.gflops": out.tracer.mode_product_flop / 1e9 / mkp_s if mkp_s else 0.0,
        "prediction.predict_batch.s": total("prediction.predict_batch") / n,
        "prediction.us_per_cell": total("prediction.predict_batch") / n / out.cells * 1e6,
        "prediction.query.ms": _median_of_all(r.query_ms for r in out.traced),
        "tensorio.read_tensor.s": total("tensorio.read_tensor") / n,
        "tensorio.save_model.s": total("tensorio.save_model") / n,
        "tensorio.load_model.s": total("tensorio.load_model") / n,
        "tensorio.model_bytes": median(r.file_bytes.get("model", 0) for r in out.traced),
        "cli.self.s": (total("op.fit", "self_s") + total("op.predict", "self_s")) / n if w.via_cli else 0.0,
        "evaluate.synth_generate.s": total("evaluate.synth_generate") / len(out.setup_s),
        "trace.overhead.fit_s": _overhead(out, "fit_s"),
        "trace.overhead.predict_s": _overhead(out, "predict_s"),
        # Op time outside every traced layer call: the op span's own self time
        # (the EM loop's inline work in a library fit, argument parsing and
        # output formatting in a CLI command) plus, in a CLI fit, the EM
        # loop's inline work under the wrapped ``cli.fit``.
        "trace.unattributed.fit_share": (
            (total("op.fit", "self_s") + total("inference.fit", "self_s")) / fit_s if fit_s else 0.0
        ),
        "trace.unattributed.predict_share": total("op.predict", "self_s") / predict_s if predict_s else 0.0,
        "trace.m_step_share_of_fit": total("inference.m_step") / fit_s if fit_s else 0.0,
        "trace.batch_share_of_predict": total("prediction.predict_batch") / predict_s if predict_s else 0.0,
    }
    # Per call: cli-probit-60 writes and reads the data tensor twice a repetition.
    for kind in ("text", "binary"):
        size_mb = median(r.file_bytes[kind] for r in out.traced) / 1e6
        for op in ("write", "read"):
            name = f"tensorio.{op}_{kind}"
            per_call = total(name) / total(name, "calls") if total(name, "calls") else 0.0
            layer[f"{name}.s"] = per_call
            layer[f"{name}.mb_per_s"] = size_mb / per_call if per_call else 0.0
    return layer

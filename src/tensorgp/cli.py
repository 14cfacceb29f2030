"""Command-line interface: fit, predict, eval, synth.

Exit codes: 0 success, 1 usage/configuration/file errors, 2 numerical
failures.  ``--seed`` overrides the config seed of ``fit``, ``eval`` and
``synth``, so a run is fully determined by its flags plus config file.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

import numpy as np

from . import oracle, prediction, tensorio
from .errors import ConfigError, NumericalError
from .evaluate import run_experiment, synth_generate
from .inference import e_step_m, fit, m_step_objective

ORACLE_TOL = 1e-6


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tensorgp",
        description="Bayesian tensor completion with tensor-variate Gaussian/t processes",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_fit = sub.add_parser("fit", help="fit a model to a coordinate tensor file")
    p_fit.add_argument("--data", required=True)
    p_fit.add_argument("--config", required=True)
    p_fit.add_argument("--out", required=True)
    p_fit.add_argument("--oracle", action="store_true", help="cross-check against the dense reference (n <= 64)")
    p_fit.add_argument("--seed", type=int, default=None)

    p_pred = sub.add_parser("predict", help="predict entries from a saved model")
    p_pred.add_argument("--model", required=True)
    p_pred.add_argument("--indices", required=True, help="an index file, or 'all-missing'")
    p_pred.add_argument("--out", required=True)

    p_eval = sub.add_parser("eval", help="run the cross-validation experiment protocol")
    p_eval.add_argument("--config", required=True)
    p_eval.add_argument("--seed", type=int, default=None)

    p_synth = sub.add_parser("synth", help="generate synthetic data files")
    p_synth.add_argument("--config", required=True)
    p_synth.add_argument("--out", required=True, help="output file prefix")
    p_synth.add_argument("--seed", type=int, default=None)
    return parser


def _oracle_check(model) -> None:
    """Re-derive the final E-step and M-step numbers densely and compare.

    Both sides start from the final E-step's inputs (target, eigenbasis, the
    updated tau), so the fast posterior is recomputed at that tau rather than
    read from the state, whose mu the t process computed at the previous tau.
    """
    n = int(np.prod(model.dims))
    if n > oracle.MAX_GRADIENT_N:
        print(f"oracle check skipped: n={n} exceeds the dense cap {oracle.MAX_GRADIENT_N}")
        return
    state, config = model.state, model.config
    mu, ups_diag = e_step_m(state.ez, state.basis, state.tau, config.rho)
    dense = oracle.dense_posterior(state.ez, state.basis, state.tau, config.rho)

    def rel(a, b):
        a = np.asarray(a, dtype=np.float64)
        b = np.asarray(b, dtype=np.float64)
        return float(np.max(np.abs(a - b) / np.maximum(1.0, np.maximum(np.abs(a), np.abs(b)))))

    obj_fast = m_step_objective(model.factors, replace(state, mu=mu, ups_diag=ups_diag), config)
    jitters = [g.jitter_applied for g in state.basis]
    obj_dense, _ = oracle.dense_objective_and_gradient(model.factors, dense, config, jitters, tau=state.tau)
    worst = max(rel(mu.ravel(), dense.mu_vec), rel(obj_fast, obj_dense))
    if worst > ORACLE_TOL:
        raise NumericalError(f"oracle divergence {worst:.3e} exceeds {ORACLE_TOL:.1e}")
    print(f"oracle check passed: max relative divergence {worst:.3e}")


def _cmd_fit(args) -> int:
    y, mask = tensorio.read_tensor(args.data)
    config = tensorio.model_config_from_dict(tensorio.parse_config(args.config), args.seed)
    model = fit(y, mask, config)
    if args.oracle:
        _oracle_check(model)
    tensorio.save_model(args.out, model)
    trace = model.objective_trace
    if model.converged:
        status = f"converged after {len(trace)} EM cycles"
    else:
        status = f"stopped at max_em_iters = {len(trace)}, last relative change {model.last_rel_change:.3g}"
    print(f"fit: {status}, objective {trace[-1]!r}, model written to {args.out}")
    return 0


def _cmd_predict(args) -> int:
    model = tensorio.load_model(args.model)
    dims = model.dims
    if args.indices == "all-missing":
        if model.mask is None:
            raise ConfigError("model carries no observation mask; pass an index file")
        flat = np.flatnonzero(~model.mask.ravel())
    else:
        flat = tensorio.read_indices(args.indices, dims)
    mean, variance = (grid.ravel()[flat] for grid in prediction.predictive_grids(model))
    if model.config.noise == "probit":
        values = [prediction.std_normal_cdf(mean / np.sqrt(variance))]
    else:
        values = [mean, variance]
    fmt = "%d " * len(dims) + " ".join(["%.17g"] * len(values))
    with open(args.out, "w") as fh:
        tensorio._write_rows(fh, [*(i + 1 for i in np.unravel_index(flat, dims)), *values], fmt)
    print(f"predict: wrote {len(flat)} predictions to {args.out}")
    return 0


def _cmd_eval(args) -> int:
    raw = tensorio.parse_config(args.config)
    spec = tensorio.experiment_spec_from_dict(raw, args.seed)
    if spec.generator == "file":
        if not spec.data_file:
            raise ConfigError("generator = file requires data_file")
        y, mask = tensorio.read_tensor(spec.data_file)
        report = run_experiment(spec, y=y, mask=mask)
    else:
        report = run_experiment(spec)
    sys.stdout.write(report.to_text())
    return 0


def _cmd_synth(args) -> int:
    raw = tensorio.parse_config(args.config)
    spec = tensorio.experiment_spec_from_dict(raw, args.seed)
    y, truth, mask = synth_generate(spec, np.random.default_rng(spec.seed))
    tensorio.write_tensor(f"{args.out}_y.tensor", y, mask)
    tensorio.write_tensor(f"{args.out}_truth.tensor", truth)
    tensorio.write_tensor(f"{args.out}_mask.tensor", mask.astype(np.float64))
    print(f"synth: wrote {args.out}_y.tensor, {args.out}_truth.tensor, {args.out}_mask.tensor")
    return 0


_COMMANDS = {"fit": _cmd_fit, "predict": _cmd_predict, "eval": _cmd_eval, "synth": _cmd_synth}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        return 0 if err.code == 0 else 1
    try:
        return _COMMANDS[args.command](args)
    except (FileNotFoundError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except NumericalError as err:
        print(f"numerical error: {err}", file=sys.stderr)
        return 2


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()

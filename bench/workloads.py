"""The three benchmark workloads and the loop that runs one of them.

Each run draws one data set from ``--seed`` with ``evaluate.synth_generate``
and repeats the same work on it until ``--seconds`` have passed.  A
*repetition* writes and reads the data tensor as text and as binary, fits,
predicts held-out cells in one batch, and times 100 single-index queries;
``cli-probit-60`` runs the fit and the prediction through ``cli.main``.
Every repetition does identical work (the fit is deterministic and runs at
its caps), so the fastest of its samples is the operation's cost with the
least interference from other tenants of the host; report.py builds the
end-to-end times from those floors.  Quality is scored once, from the first
repetition, so it depends on the seed alone.

After each fit the short operations are rerun round-robin for
``SAMPLE_BUDGET_S`` when a round of them is short.  After the last whole
repetition, operations are rerun singly: first any with fewer samples than
its minimum (a repetition of ``cli-probit-60`` takes over half a run, so its
second predict and fit come from here), then, round-robin, each one that is
expected to end in time.  Set-up is repeated at the start and after every
repetition, so its median spans the run.

A traced run does every repetition twice, first untraced and then with the
layer wrappers of :mod:`spans` installed, so the difference of the two is
the tracing overhead.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import shutil
import tempfile
from collections import defaultdict
from dataclasses import dataclass, field, replace
from functools import partial
from pathlib import Path
from statistics import median
from time import perf_counter

import numpy as np

from tensorgp import cli, evaluate, inference, prediction, tensorio
from tensorgp.distributions import std_normal_cdf
from tensorgp.evaluate import ExperimentSpec
from tensorgp.inference import ModelConfig
from tensorgp.kernels import KernelSpec

from checks import AUC_MIN, MSE_TO_BASELINE_MAX, Gate
from spans import NullTracer, Tracer

SETUP_REPEATS = 3
# After each fit, short operations are rerun for this long (see _resample).
SAMPLE_BUDGET_S = 1.0
# A repetition or rerun starts only if it is expected to end within this
# multiple of --seconds.
OVERRUN = 1.1
# Fewest samples a run takes of a fit or a batch prediction, of the file IO
# and of the query round.
MIN_SAMPLES = 2
MIN_IO_SAMPLES = 3
MIN_QUERY_ROUNDS = 5
EM_REL_TOL = 1e-5
QUERIES = 100
# One prediction is moved by this relative amount when the gate is tested.
PERTURBATION = 1e-6
IO_OPS = ("write_text", "write_binary", "read_text", "read_binary")
SPAN_NAMES = {
    "fit_s": "op.fit",
    "predict_s": "op.predict",
    "query": "prediction.query",
    **{op: f"tensorio.{op}" for op in IO_OPS},
}


@dataclass(frozen=True)
class Workload:
    name: str
    dims: tuple[int, ...]
    noise: str
    process: str
    max_em_iters: int
    mstep_max_iters: int
    batch_cells: int | None = None  # held-out cells predicted in batch; None = all
    via_cli: bool = False
    latent_scale: float = 1.0


WORKLOADS = {
    # The C5 acceptance setup: caps bind, so EM cycle count and per-call
    # Python overhead set the time.
    "em-converge-8": Workload(
        "em-converge-8", (8, 8, 8), "gaussian", "gaussian_process",
        max_em_iters=40, mstep_max_iters=100,
    ),
    # Full-tensor mode products in the M-step dominate; queries bypass the
    # batch path.
    "fit-kernel-60": Workload(
        "fit-kernel-60", (60, 60, 60), "gaussian", "t_process",
        max_em_iters=5, mstep_max_iters=30, batch_cells=4000,
    ),
    # Batch prediction of all 43,200 missing cells and file IO dominate;
    # covers the probit E-step and model JSON save/load.
    "cli-probit-60": Workload(
        "cli-probit-60", (60, 60, 60), "probit", "t_process",
        max_em_iters=3, mstep_max_iters=10, via_cli=True, latent_scale=3.0,
    ),
}

# Smoke-test sizes: the same code paths in well under a second each.
TINY = {
    "em-converge-8": dict(dims=(6, 6, 6), max_em_iters=8, mstep_max_iters=20),
    "fit-kernel-60": dict(dims=(7, 7, 7), max_em_iters=3, mstep_max_iters=5, batch_cells=40),
    "cli-probit-60": dict(dims=(8, 8, 8), max_em_iters=3, mstep_max_iters=5),
}


def tiny(w: Workload) -> Workload:
    return replace(w, **TINY[w.name])


# Originals captured before any tracing wrapper is installed: the benchmark
# times its own file IO and helper loads under its own span names.
_write_tensor = tensorio.write_tensor
_read_tensor = tensorio.read_tensor
_load_model = tensorio.load_model


@dataclass
class Dataset:
    seed: int
    y: np.ndarray
    truth: np.ndarray  # the noise-free latent tensor
    mask: np.ndarray
    held: list[tuple[int, ...]]  # cells predicted in batch, in row-major order
    query_pos: np.ndarray  # positions in ``held`` of the single-index queries


@dataclass
class Rep:
    """Timed samples and held-out predictions of one repetition."""

    samples: dict[str, list[float]] = field(default_factory=lambda: defaultdict(list))
    # Per sample of a split operation (see _timed_split): its stretches, in seconds.
    stretches: dict[str, list[np.ndarray]] = field(default_factory=lambda: defaultdict(list))
    # Seconds of each single-index query, by position in Dataset.query_pos.
    query: dict[int, list[float]] = field(default_factory=lambda: defaultdict(list))
    file_bytes: dict[str, int] = field(default_factory=dict)
    pred: np.ndarray | None = None  # predictive mean, or P(y = 1) for probit
    var: np.ndarray | None = None
    objective_trace: list[float] = field(default_factory=list)

    @property
    def times(self) -> dict[str, float]:
        """Median seconds per operation; io_s sums the four file operations."""
        times = {key: median(values) for key, values in self.samples.items()}
        if all(op in times for op in IO_OPS):
            times["io_s"] = sum(times[op] for op in IO_OPS)
        return times

    @property
    def query_ms(self) -> list[float]:
        return [s * 1e3 for values in self.query.values() for s in values]


def make_dataset(w: Workload, seed: int, tracer) -> Dataset:
    ds_seed = int(np.random.SeedSequence([seed, 0]).generate_state(1)[0])
    spec = ExperimentSpec(
        dims=w.dims, generator="gp_latent", noise=w.noise, sigma=0.1,
        latent_scale=w.latent_scale, gen_rank=3, gen_gamma=0.3,
        holdout_fraction=0.2, seed=ds_seed,
    )
    with tracer.span("evaluate.synth_generate"):
        y, truth, mask = evaluate.synth_generate(spec, np.random.default_rng(ds_seed))
    missing = np.flatnonzero(~mask.ravel())
    rng = np.random.default_rng(np.random.SeedSequence([ds_seed, 1]))
    if w.batch_cells is not None and w.batch_cells < missing.size:
        missing = np.sort(rng.choice(missing, w.batch_cells, replace=False))
    coords = np.stack(np.unravel_index(missing, w.dims), axis=1) + 1
    held = [tuple(row) for row in coords.tolist()]
    query_pos = np.sort(rng.choice(len(held), min(QUERIES, len(held)), replace=False))
    return Dataset(ds_seed, y, truth, mask, held, query_pos)


def model_config(w: Workload, seed: int) -> ModelConfig:
    return ModelConfig(
        noise=w.noise, process=w.process, nu=10.0, rank=3,
        kernel=KernelSpec("gaussian", 0.3), l1_lambda=0.1,
        gaussian_sigma=0.1 if w.noise == "gaussian" else 1.0,
        max_em_iters=w.max_em_iters, em_rel_tol=EM_REL_TOL,
        mstep_max_iters=w.mstep_max_iters, seed=seed,
    )


def config_text(w: Workload) -> str:
    """The CLI config file equivalent to :func:`model_config` (seed comes by flag)."""
    return (
        f"noise = {w.noise}\nprocess = {w.process}\nnu = 10\nrank = 3\n"
        "kernel = gaussian\ngamma = 0.3\nl1_lambda = 0.1\n"
        f"max_em_iters = {w.max_em_iters}\nem_rel_tol = {EM_REL_TOL!r}\n"
        f"mstep_max_iters = {w.mstep_max_iters}\n"
    )


def _quiet_cli(argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


# ---------------------------------------------------------------------------
# One repetition
# ---------------------------------------------------------------------------


# Names whose calls split a long operation into stretches (see _timed_split):
# gram_matrix runs a few times per M-step evaluation, e_step_m once per EM
# cycle, and the CLI fit calls parse_config after reading the data file and
# save_model after fitting.
SPLIT_AT = (
    (inference, "gram_matrix"),
    (inference, "e_step_m"),
    (tensorio, "parse_config"),
    (tensorio, "save_model"),
)
# Modules whose files are opened through _marked_open while an operation is split.
SPLIT_FILES = (tensorio, cli)
# Batch predictions are split every this many cells.
CELLS_PER_STRETCH = 256


def _marked_open(marks: list[float]):
    """``open`` as the builtin does it, over a raw file that notes the clock at
    each buffer-sized read or write (every few KiB, not every call)."""

    class MarkedFile(io.FileIO):
        def readinto(self, b):
            marks.append(perf_counter())
            return super().readinto(b)

        def write(self, b):
            marks.append(perf_counter())
            return super().write(b)

    def open_(file, mode="r", buffering=-1, encoding=None, errors=None, newline=None):
        raw = MarkedFile(file, mode.replace("b", "").replace("t", ""))
        if buffering < 0:
            buffering = io.DEFAULT_BUFFER_SIZE
            blksize = os.fstat(raw.fileno()).st_blksize
            if blksize > 1:
                buffering = blksize
        if "+" in mode:
            buffered = io.BufferedRandom(raw, buffering)
        elif raw.writable():
            buffered = io.BufferedWriter(raw, buffering)
        else:
            buffered = io.BufferedReader(raw, buffering)
        if "b" in mode:
            return buffered
        return io.TextIOWrapper(buffered, encoding, errors, newline)

    return open_


class _MarkedCells(list):
    """Cell indices for predict_batch; iterating notes the clock every CELLS_PER_STRETCH cells."""

    def __init__(self, cells, marks: list[float]):
        super().__init__(cells)
        self.marks = marks

    def __iter__(self):
        for i, cell in enumerate(super().__iter__()):
            if i and i % CELLS_PER_STRETCH == 0:
                self.marks.append(perf_counter())
            yield cell


def _timed_split(rep: Rep, tracer, gate: Gate, key: str, fn, *args):
    """Time one long operation whole and in stretches.

    Stretch boundaries are calls of the SPLIT_AT names, every
    CELLS_PER_STRETCH cells of a batch prediction and every buffer of file
    data the SPLIT_FILES modules read or write; the wrappers that find them
    only read the clock.  A repetition repeats the same calls in the
    same order, so the stretches line up across repetitions and
    report.py can take the fastest sample of each.
    """
    marks: list[float] = []

    def marked(inner):
        def call(*a, **kw):
            marks.append(perf_counter())
            return inner(*a, **kw)

        return call

    def marked_batch(model, indices, *a, **kw):
        return inner_batch(model, _MarkedCells(indices, marks), *a, **kw)

    saved = [(mod, attr, getattr(mod, attr)) for mod, attr in SPLIT_AT]
    saved_open = [(mod, vars(mod).get("open")) for mod in SPLIT_FILES]
    inner_batch = prediction.predict_batch
    gate.count()
    try:
        for mod, attr, inner in saved:
            setattr(mod, attr, marked(inner))
        prediction.predict_batch = marked_batch
        for mod in SPLIT_FILES:
            mod.open = _marked_open(marks)
        with tracer.span(SPAN_NAMES[key]):
            start = perf_counter()
            out = fn(*args)
            end = perf_counter()
    finally:
        for mod, attr, inner in saved:
            setattr(mod, attr, inner)
        prediction.predict_batch = inner_batch
        for mod, original in saved_open:
            if original is None:
                vars(mod).pop("open", None)
            else:
                mod.open = original
    rep.samples[key].append(end - start)
    rep.stretches[key].append(np.diff([start, *marks, end]))
    return out


class Rerun:
    """An operation that can run again with no arguments; keeps its longest time.

    ``key`` names its samples in Rep.samples, of which a run takes at least
    ``min_samples`` (see _fill).
    """

    def __init__(self, fn, key: str, min_samples: int = 0):
        self.fn, self.key, self.min_samples = fn, key, min_samples
        self.cost_s = 0.0

    def __call__(self):
        start = perf_counter()
        out = self.fn()
        self.cost_s = max(self.cost_s, perf_counter() - start)
        return out


def _io(ds: Dataset, work: Path, tracer, gate: Gate, rep: Rep) -> list:
    """Write the data tensor as text and binary, read both back, compare.

    Returns the rerun of the four file operations.
    """
    paths = {kind: work / f"data.{kind}" for kind in ("text", "binary")}

    def io_round() -> None:
        for kind in paths:
            binary = kind == "binary"
            _timed_split(rep, tracer, gate, f"write_{kind}", _write_tensor, paths[kind], ds.y, ds.mask, binary)
            rep.file_bytes[kind] = paths[kind].stat().st_size
        for kind in paths:
            y_back, mask_back = _timed_split(rep, tracer, gate, f"read_{kind}", _read_tensor, paths[kind])
            gate.roundtrip(f"{kind}_roundtrip_bit_identical", ds.y, ds.mask, y_back, mask_back)

    rerun = Rerun(io_round, "write_text", MIN_IO_SAMPLES)
    rerun()
    return [rerun]


def _queries(model, ds: Dataset, tracer, gate: Gate, rep: Rep, query) -> np.ndarray:
    """One round of the single-index queries; rep.samples["query"] gets the round's time."""
    out = []
    round_start = perf_counter()
    for pos in ds.query_pos:
        gate.count()
        with tracer.span(SPAN_NAMES["query"]):
            start = perf_counter()
            out.append(query(model, ds.held[pos]))
            rep.query[int(pos)].append(perf_counter() - start)
    rep.samples["query"].append(perf_counter() - round_start)
    return np.array(out, dtype=np.float64)


def _perturb(values: np.ndarray, pos: int) -> None:
    values[pos] += PERTURBATION * max(1.0, abs(values[pos]))


def _library_rep(w, ds, work, tracer, gate, rep, perturb) -> list:
    config = model_config(w, ds.seed)
    model = _timed_split(rep, tracer, gate, "fit_s", inference.fit, ds.y, ds.mask, config)
    rep.objective_trace = model.objective_trace
    gate.objective_trace(model.objective_trace)
    # Looked up at call time, so the split wrapper is the one called.
    batch = partial(lambda *a: prediction.predict_batch(*a), model, ds.held)
    predict = Rerun(partial(_timed_split, rep, tracer, gate, "predict_s", batch), "predict_s", MIN_SAMPLES)
    query_round = partial(_queries, model, ds, tracer, gate, rep, prediction.predict_gaussian)
    queries = Rerun(query_round, "query", MIN_QUERY_ROUNDS)
    moments = predict()
    rep.pred = np.array([m.mean for m in moments])
    rep.var = np.array([m.variance for m in moments])
    if perturb:
        _perturb(rep.pred, ds.query_pos[0])
    single = queries()
    gate.agree("batch_vs_single_mean", rep.pred[ds.query_pos], single[:, 0])
    gate.agree("batch_vs_single_variance", rep.var[ds.query_pos], single[:, 1])
    gate.check(
        "variance_finite_positive",
        bool(np.all(np.isfinite(rep.var)) and np.all(rep.var > 0)),
        f"min variance {float(np.min(rep.var)):.3e}",
    )
    return [predict, queries]


def _cli_rep(w, ds, work, tracer, gate, rep, perturb) -> list:
    """CLI fit and predict, then single-index queries on the saved model."""
    model_path, preds_path = work / "model.json", work / "predictions.txt"
    fit_args = ["fit", "--data", str(work / "data.text"), "--config", str(work / "model.cfg"),
                "--out", str(model_path), "--seed", str(ds.seed)]
    pred_args = ["predict", "--model", str(model_path), "--indices", "all-missing", "--out", str(preds_path)]

    def fit_command() -> None:
        code = _timed_split(rep, tracer, gate, "fit_s", _quiet_cli, fit_args)
        gate.check("cli_fit_exit_code", code == 0, f"exit code {code}")
        rep.file_bytes["model"] = model_path.stat().st_size

    def predict_command() -> None:
        code = _timed_split(rep, tracer, gate, "predict_s", _quiet_cli, pred_args)
        gate.check("cli_predict_exit_code", code == 0, f"exit code {code}")

    fit = Rerun(fit_command, "fit_s", MIN_SAMPLES)
    predict = Rerun(predict_command, "predict_s", MIN_SAMPLES)
    fit()
    predict()

    rows = np.loadtxt(preds_path, ndmin=2)
    gate.check(
        "cli_predict_cells",
        rows.shape == (len(ds.held), len(w.dims) + 1) and np.array_equal(rows[:, :-1], np.array(ds.held)),
        f"prediction file has shape {rows.shape}",
    )
    rep.pred = rows[:, -1].copy()
    if perturb:
        _perturb(rep.pred, ds.query_pos[0])
    gate.count()
    model = _load_model(model_path)
    rep.objective_trace = model.objective_trace
    gate.objective_trace(model.objective_trace)
    query_round = partial(_queries, model, ds, tracer, gate, rep, prediction.predict_probit)
    queries = Rerun(query_round, "query", MIN_QUERY_ROUNDS)
    single = queries()
    gate.agree("batch_vs_single_probability", rep.pred[ds.query_pos], single)
    gate.check(
        "probability_in_unit_interval",
        bool(np.all((rep.pred >= 0.0) & (rep.pred <= 1.0))),
        f"range [{float(np.min(rep.pred))}, {float(np.max(rep.pred))}]",
    )
    return [predict, fit, queries]


def _resample(reruns: list[Rerun]) -> None:
    """Rerun the short operations round-robin for SAMPLE_BUDGET_S, if a round is short.

    Operations that take a good part of the budget keep their single sample.
    """
    if sum(op.cost_s for op in reruns) > SAMPLE_BUDGET_S / 4:
        return
    start = perf_counter()
    while perf_counter() - start < SAMPLE_BUDGET_S:
        for op in reruns:
            op()


def _fill(reruns: list[Rerun], reps: list[Rep], start: float, limit: float) -> None:
    """Rerun operations after the last whole repetition.

    First, round-robin, each operation with fewer than its minimum samples
    in the run, whatever the time; then, round-robin, each one expected to
    end by ``limit`` seconds after ``start``.
    """
    while True:
        short = [op for op in reruns if sum(len(r.samples.get(op.key, ())) for r in reps) < op.min_samples]
        if not short:
            break
        for op in short:
            op()
    while True:
        due = [op for op in reruns if perf_counter() - start + op.cost_s <= limit]
        if not due:
            return
        for op in due:
            if perf_counter() - start + op.cost_s <= limit:
                op()


def run_rep(w: Workload, ds: Dataset, work: Path, tracer, gate: Gate, perturb: bool) -> tuple[Rep | None, list]:
    """One repetition; returns it with the reruns of its operations.

    Short operations are resampled only when untraced.
    """
    rep = Rep()
    with gate.guard(f"{w.name} repetition"):
        rerun_io = _io(ds, work, tracer, gate, rep)
        reruns = (_cli_rep if w.via_cli else _library_rep)(w, ds, work, tracer, gate, rep, perturb)
        if isinstance(tracer, NullTracer) and not w.via_cli:
            _resample(rerun_io + reruns)
        # The CLI's long commands come first, so they are rerun while time allows.
        return rep, (reruns + rerun_io if w.via_cli else rerun_io + reruns)
    return None, []
# ---------------------------------------------------------------------------
# Quality
# ---------------------------------------------------------------------------


def score(w: Workload, ds: Dataset, rep: Rep, gate: Gate) -> dict[str, float]:
    """Held-out quality, checked against the acceptance-suite floor.

    Squared error is taken against held-out y for Gaussian noise.  Binary y
    would make it the Brier score, whose irreducible part swings with how
    separable a seed's latent draw is; for probit it is therefore taken
    against the true probability Phi(latent), the Brier score's excess over
    the Bayes predictor in expectation.
    """
    idx = tuple((np.array(ds.held) - 1).T)
    actual = ds.y[idx]
    if w.noise == "probit":
        p = np.clip(rep.pred, 1e-12, 1.0 - 1e-12)
        nlpd = -(actual * np.log(p) + (1.0 - actual) * np.log1p(-p))
        auc = evaluate.auc(rep.pred, actual.astype(int))
        gate.check("auc_floor", auc > AUC_MIN, f"AUC {auc:.4f} <= {AUC_MIN}")
        mse = float(np.mean((rep.pred - std_normal_cdf(ds.truth[idx])) ** 2))
    else:
        sq_err = (rep.pred - actual) ** 2
        mse = float(np.mean(sq_err))
        nlpd = 0.5 * np.log(2.0 * math.pi * rep.var) + sq_err / (2.0 * rep.var)
        # AUC of the predicted mean at telling positive from negative y.
        auc = evaluate.auc(rep.pred, (actual > 0.0).astype(int))
        ratio = mse / float(np.mean((actual - ds.y[ds.mask].mean()) ** 2))
        gate.check("mse_to_baseline_floor", ratio < MSE_TO_BASELINE_MAX, f"MSE/baseline {ratio:.4f}")
    return {"heldout_mse": mse, "heldout_nlpd": float(np.mean(nlpd)), "heldout_auc": auc}


# ---------------------------------------------------------------------------
# The run
# ---------------------------------------------------------------------------


@dataclass
class RunOutcome:
    gate: Gate
    setup_s: list[float]
    reps: list[Rep]  # untraced
    traced: list[Rep]
    quality: dict[str, float] | None
    tracer: Tracer | None
    cells: int  # cells predicted in one batch


def run_workload(
    w: Workload, seed: int, seconds: float, trace: bool, out_dir: Path, perturb: bool = False
) -> RunOutcome:
    gate = Gate()
    tracer = Tracer() if trace else None
    setup_tracer = tracer or NullTracer()
    with gate.guard("dense oracle cross-check"):
        gate.dense_oracle(seed)
    out_dir.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"work-{w.name}-", dir=out_dir))
    setup_s: list[float] = []

    def set_up() -> Dataset:
        start = perf_counter()
        ds = make_dataset(w, seed, setup_tracer)
        (work / "model.cfg").write_text(config_text(w))
        setup_s.append(perf_counter() - start)
        return ds

    try:
        for _ in range(SETUP_REPEATS):
            ds = set_up()

        reps, traced, quality = [], [], None
        start = perf_counter()
        limit = seconds * OVERRUN
        longest = 0.0
        reruns: list = []
        # Whole repetitions (or traced pairs), at least one, while one is expected to fit.
        while longest == 0.0 or perf_counter() - start + longest <= limit:
            rep_start = perf_counter()
            rep, rep_reruns = run_rep(w, ds, work, NullTracer(), gate, perturb)
            if rep is not None:
                reps.append(rep)
                reruns = rep_reruns
                if quality is None:
                    with gate.guard("scoring"):
                        quality = score(w, ds, rep, gate)
            if tracer is not None:
                with tracer.installed():
                    rep, _ = run_rep(w, ds, work, tracer, gate, perturb)
                if rep is not None:
                    traced.append(rep)
            longest = max(longest, perf_counter() - rep_start)
            set_up()
        if tracer is None and reruns:
            with gate.guard(f"{w.name} reruns"):
                _fill(reruns, reps, start, limit)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return RunOutcome(gate, setup_s, reps, traced, quality, tracer, len(ds.held))

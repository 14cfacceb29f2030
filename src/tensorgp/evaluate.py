"""Synthetic data generation, metrics, splitting, and the experiment driver.

Observation masks are boolean arrays over the full grid: True marks an
observed cell.  Experiments draw all randomness from seeds derived with
``numpy.random.SeedSequence`` from the experiment seed, so folds and repeats
are reproducible and order-independent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .distributions import (
    TensorNormalParams,
    TensorTParams,
    sample_tensor_normal,
    sample_tensor_t,
)
from .errors import ShapeError
from .inference import ModelConfig, fit, init_factors
from .kernels import KernelSpec, gram_matrix
from .prediction import predict_batch

GENERATORS = ("gp_latent", "t_latent", "rank1", "file")


@dataclass
class ExperimentSpec:
    """One evaluation run: a data source, a model family, and a protocol."""

    dims: tuple[int, ...] = (8, 8, 8)
    generator: str = "gp_latent"
    noise: str = "gaussian"
    process: str = "gaussian_process"
    holdout_fraction: float = 0.2
    folds: int = 5
    repeats: int = 1
    seed: int = 0
    gamma_grid: list[float] = field(default_factory=lambda: [0.3])
    lambda_grid: list[float] = field(default_factory=lambda: [1.0])
    rank_grid: list[int] = field(default_factory=lambda: [3])
    kernel_family: str = "gaussian"
    nu: float = 10.0
    sigma: float = 0.1
    model_sigma: float = 0.1  # noise scale the model assumes, on the normalized scale
    latent_scale: float = 1.0
    gen_gamma: float = 0.3
    gen_rank: int = 3
    data_file: str | None = None
    max_em_iters: int = 50
    em_rel_tol: float = 1e-4
    mstep_max_iters: int = 50

    def __post_init__(self):
        if self.generator not in GENERATORS:
            raise ValueError(f"unknown generator {self.generator!r}")
        if not 0.0 < self.holdout_fraction < 1.0:
            raise ValueError("holdout_fraction must lie in (0, 1)")
        if self.folds < 2:
            raise ValueError("folds must be at least 2")


def random_mask(
    dims: Sequence[int], holdout_fraction: float, rng: np.random.Generator
) -> np.ndarray:
    """Observed-cell mask hiding round(holdout_fraction * n) cells."""
    n = int(np.prod(dims))
    n_holdout = int(round(holdout_fraction * n))
    mask = np.ones(n, dtype=bool)
    mask[rng.choice(n, size=n_holdout, replace=False)] = False
    return mask.reshape(tuple(dims))


def _generator_grams(spec: ExperimentSpec, rng: np.random.Generator):
    kspec = KernelSpec(spec.kernel_family, spec.gen_gamma)
    factors = init_factors(spec.dims, [spec.gen_rank] * len(spec.dims), rng)
    return [gram_matrix(kspec, u) for u in factors]


def _draw_latent(spec: ExperimentSpec, grams, rng: np.random.Generator) -> np.ndarray:
    zero = np.zeros(spec.dims)
    if spec.generator == "t_latent":
        latent = sample_tensor_t(rng, TensorTParams(spec.nu, zero, list(grams)))
    else:
        latent = sample_tensor_normal(rng, TensorNormalParams(zero, list(grams)))
    return spec.latent_scale * latent


def synth_generate(
    spec: ExperimentSpec, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Draw (observations, latent truth, observed mask) from the model.

    Gaussian noise adds N(0, sigma^2) to the latent tensor; probit draws
    z ~ N(latent, 1) and thresholds at zero.
    """
    if spec.generator == "file":
        raise ValueError("file-backed experiments load data via the io layer, not synth_generate")
    if spec.generator == "rank1":
        # smooth positive mode vectors keep every fibre informative
        vecs = [rng.uniform(0.5, 1.5, size=d) for d in spec.dims]
        truth = vecs[0]
        for v in vecs[1:]:
            truth = np.multiply.outer(truth, v)
        truth = spec.latent_scale * truth
    else:
        grams = _generator_grams(spec, rng)
        truth = _draw_latent(spec, grams, rng)

    if spec.noise == "probit":
        z = truth + rng.standard_normal(spec.dims)
        y = (z > 0.0).astype(np.float64)
    else:
        y = truth + spec.sigma * rng.standard_normal(spec.dims)
    mask = random_mask(spec.dims, spec.holdout_fraction, rng)
    return y, truth, mask


def mse(pred: Sequence[float], truth: Sequence[float]) -> float:
    pred = np.asarray(pred, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.float64)
    if pred.shape != truth.shape or pred.size == 0:
        raise ShapeError(f"mse needs equal nonempty lists, got {pred.shape} vs {truth.shape}")
    return float(np.mean((pred - truth) ** 2))


def _average_ranks(x: np.ndarray) -> np.ndarray:
    """1-based ranks of ``x``; tied values share the mean of their ranks."""
    if np.isnan(x).any():
        return np.full(x.shape, np.nan)
    order = np.argsort(x, kind="stable")
    ordered = x[order]
    starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    ends = np.r_[starts[1:], x.size]
    ranks = np.empty(x.size)
    ranks[order] = np.repeat(0.5 * (starts + 1 + ends), ends - starts)
    return ranks


def auc(scores: Sequence[float], labels: Sequence[int]) -> float:
    """Probability a random positive outscores a random negative; ties count 1/2."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    pos = labels == 1
    neg = labels == 0
    n_pos, n_neg = int(pos.sum()), int(neg.sum())
    if n_pos == 0 or n_neg == 0:
        raise ValueError("auc needs both classes present")
    ranks = _average_ranks(scores)
    return float((ranks[pos].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def cv_splits(
    mask: np.ndarray, folds: int, repeats: int, seed: int
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Partition the observed cells into test folds, once per repeat.

    Returns repeats * folds pairs (train mask, test mask); within one repeat
    the test masks are disjoint and union to the observed set.
    """
    mask = np.asarray(mask, dtype=bool)
    observed = np.flatnonzero(mask.ravel())
    if observed.size < folds:
        raise ValueError(f"{observed.size} observed cells cannot make {folds} folds")
    out = []
    for rep in range(repeats):
        rng = np.random.default_rng(np.random.SeedSequence([seed, rep]))
        perm = rng.permutation(observed)
        for f, chunk in enumerate(np.array_split(perm, folds)):
            test = np.zeros(mask.size, dtype=bool)
            test[chunk] = True
            test = test.reshape(mask.shape)
            out.append((mask & ~test, test))
    return out


def normalize_tensor(
    y: np.ndarray, mask: np.ndarray
) -> tuple[np.ndarray, float, float]:
    """Shift/scale so observed cells have zero mean, unit population variance."""
    y = np.asarray(y, dtype=np.float64)
    mask = np.asarray(mask, dtype=bool)
    obs = y[mask]
    if obs.size < 2:
        raise ValueError("normalization needs at least 2 observed entries")
    mean = float(obs.mean())
    std = float(obs.std())  # population (1/N) convention
    if std == 0.0:
        raise ValueError("normalization needs nonzero variance")
    return (y - mean) / std, mean, std


# ---------------------------------------------------------------------------
# Experiment driver
# ---------------------------------------------------------------------------


@dataclass
class FoldRecord:
    repeat: int
    fold: int
    gamma: float
    l1_lambda: float
    rank: int
    metric: float


@dataclass
class ExperimentReport:
    metric_name: str
    records: list[FoldRecord]
    mean: float
    stderr: float

    def to_text(self) -> str:
        lines = []
        for r in self.records:
            lines.append(
                f"fold repeat={r.repeat} fold={r.fold} gamma={r.gamma!r} "
                f"lambda={r.l1_lambda!r} rank={r.rank} {self.metric_name}={r.metric!r}"
            )
        lines.append(f"{self.metric_name} {self.mean!r} ± {self.stderr!r}")
        return "\n".join(lines) + "\n"


def _model_config(spec: ExperimentSpec, gamma: float, lam: float, rank: int, seed: int) -> ModelConfig:
    return ModelConfig(
        noise=spec.noise,
        process=spec.process,
        nu=spec.nu,
        rank=rank,
        kernel=KernelSpec(spec.kernel_family, gamma),
        l1_lambda=lam,
        gaussian_sigma=spec.model_sigma if spec.noise == "gaussian" else 1.0,
        max_em_iters=spec.max_em_iters,
        em_rel_tol=spec.em_rel_tol,
        mstep_max_iters=spec.mstep_max_iters,
        seed=seed,
    )


def _fit_and_score(
    y: np.ndarray,
    train_mask: np.ndarray,
    test_mask: np.ndarray,
    config: ModelConfig,
    metric_name: str,
) -> float:
    model = fit(y, train_mask, config)
    test_idx = np.stack(np.unravel_index(np.flatnonzero(test_mask.ravel()), y.shape), axis=1) + 1
    moments = predict_batch(model, test_idx)
    preds = np.array([m.mean for m in moments])
    actual = y[test_mask]
    if metric_name == "auc":
        return auc(preds, actual.astype(int))
    return mse(preds, actual)


def _select_hypers(
    y: np.ndarray,
    train_mask: np.ndarray,
    spec: ExperimentSpec,
    metric_name: str,
    seed: int,
) -> tuple[float, float, int]:
    grid = [
        (g, l, r)
        for g in spec.gamma_grid
        for l in spec.lambda_grid
        for r in spec.rank_grid
    ]
    if len(grid) == 1:
        return grid[0]
    inner = cv_splits(train_mask, 2, 1, seed)
    best = None
    for g, l, r in grid:
        config = _model_config(spec, g, l, r, seed)
        scores = [
            _fit_and_score(y, tr, te, config, metric_name) for tr, te in inner
        ]
        score = float(np.mean(scores))
        better = (
            best is None
            or (metric_name == "auc" and score > best[0])
            or (metric_name != "auc" and score < best[0])
        )
        if better:
            best = (score, (g, l, r))
    return best[1]


def run_experiment(spec: ExperimentSpec, y=None, mask=None) -> ExperimentReport:
    """Full protocol: generate (or take) data, CV over folds, aggregate.

    Gaussian-noise data are normalized over the observed cells first; the
    reported metric is MSE on that normalized scale.  Probit data are scored
    with AUC.  Hyperparameter grids with more than one point are resolved on
    a nested 2-fold split of each training fold.
    """
    metric_name = "auc" if spec.noise == "probit" else "mse"
    if y is None:
        if spec.generator == "file":
            raise ValueError("generator 'file' requires data passed in or loaded by the CLI")
        y, _, mask = synth_generate(spec, np.random.default_rng(spec.seed))
    else:
        y = np.asarray(y, dtype=np.float64)
        mask = (
            np.ones(y.shape, dtype=bool)
            if mask is None
            else np.asarray(mask, dtype=bool)
        )
        spec = replace(spec, dims=y.shape)
    if spec.noise == "gaussian":
        y, _, _ = normalize_tensor(y, mask)

    records = []
    for split_id, (train, test) in enumerate(
        cv_splits(mask, spec.folds, spec.repeats, spec.seed)
    ):
        rep, fold = divmod(split_id, spec.folds)
        fold_seed = int(
            np.random.SeedSequence([spec.seed, rep, fold]).generate_state(1)[0]
        )
        g, l, r = _select_hypers(y, train, spec, metric_name, fold_seed)
        config = _model_config(spec, g, l, r, fold_seed)
        metric = _fit_and_score(y, train, test, config, metric_name)
        records.append(
            FoldRecord(repeat=rep, fold=fold, gamma=g, l1_lambda=l, rank=r, metric=metric)
        )

    metrics = np.array([r.metric for r in records])
    stderr = (
        float(metrics.std(ddof=1) / math.sqrt(metrics.size)) if metrics.size > 1 else 0.0
    )
    return ExperimentReport(
        metric_name=metric_name,
        records=records,
        mean=float(metrics.mean()),
        stderr=stderr,
    )

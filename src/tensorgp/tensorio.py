"""File formats: coordinate tensor files, model serialization, run configs.

Coordinate tensor files are line-oriented text:

    tensor K n1 n2 ... nK [dense]
    i1 i2 ... iK value
    ...

Indices are 1-based; unlisted cells are missing unless the header says
``dense`` (then every cell must appear exactly once).  ``#`` starts a comment
that runs to the end of the line; blank lines are ignored.  Values are written
with 17 significant digits so 64-bit floats round-trip exactly.  An optional
binary container (``tensorbin`` magic) stores the same records as
little-endian int32 indices and float64 values for large tensors.  Both
formats share one record validator, which reports the first fault in file
order (``line N`` or ``record N``).

Model files are JSON with a format/version tag and hold only what prediction
reads: the factors, the final E-step target and tau*; a file whose dims,
factor rows, target shape and mask length disagree is rejected.  A loaded
model rebuilds its Gram matrices deterministically from the stored factors,
so predictions from a round-tripped model are bit-identical to the original's.

Run configuration files are flat ``key = value`` text with ``#`` comments;
unknown keys are rejected.
"""

from __future__ import annotations

import json
from array import array
from dataclasses import asdict, fields

import numpy as np

from .errors import ConfigError, ModelFormatError, TensorFormatError
from .evaluate import ExperimentSpec
from .inference import FittedModel, ModelConfig, VariationalState
from .kernels import KernelSpec, gram_matrix

MODEL_FORMAT = "tensorgp-model"
MODEL_VERSION = 2

_TEXT_MAGIC = "tensor"
_BINARY_MAGIC = b"tensorbin"


def _record_dtype(order: int) -> np.dtype:
    """One packed binary record: ``order`` int32 indices then a float64 value."""
    return np.dtype([("idx", "<i4", (order,)), ("val", "<f8")])


def write_tensor(path, t: np.ndarray, mask: np.ndarray | None = None, binary: bool = False) -> None:
    """Write the observed cells of ``t`` (all cells when mask is None)."""
    t = np.asarray(t, dtype=np.float64)
    if mask is None:
        mask = np.ones(t.shape, dtype=bool)
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != t.shape:
        raise TensorFormatError(f"mask shape {mask.shape} != tensor shape {t.shape}")
    dims = t.shape
    dense = bool(mask.all())
    flat_idx = np.flatnonzero(mask.ravel())
    coords = np.stack(np.unravel_index(flat_idx, dims), axis=1) + 1
    values = t.ravel()[flat_idx]

    magic = _BINARY_MAGIC.decode() if binary else _TEXT_MAGIC
    header = f"{magic} {len(dims)} " + " ".join(map(str, dims))
    if dense:
        header += " dense"

    if binary:
        rec = np.empty(len(values), dtype=_record_dtype(len(dims)))
        rec["idx"] = coords
        rec["val"] = values
        with open(path, "wb") as fh:
            fh.write(header.encode() + b"\n")
            fh.write(np.array(len(values), dtype="<i8").tobytes())
            fh.write(rec.tobytes())
        return

    with open(path, "w") as fh:
        fh.write(header + "\n")
        np.savetxt(fh, np.column_stack([coords, values]), fmt="%d " * len(dims) + "%.17g")


def _parse_header(tokens: list[str], lineno: int) -> tuple[tuple[int, ...], bool]:
    if len(tokens) < 2:
        raise TensorFormatError(f"line {lineno}: header needs an order and dimensions")
    try:
        order = int(tokens[1])
    except ValueError:
        raise TensorFormatError(f"line {lineno}: bad tensor order {tokens[1]!r}") from None
    rest = tokens[2:]
    dense = False
    if rest and rest[-1] == "dense":
        dense = True
        rest = rest[:-1]
    if len(rest) != order:
        raise TensorFormatError(
            f"line {lineno}: header declares order {order} but lists {len(rest)} dimensions"
        )
    try:
        dims = tuple(int(x) for x in rest)
    except ValueError:
        raise TensorFormatError(f"line {lineno}: non-integer dimension in header") from None
    if order < 1 or any(d < 1 for d in dims):
        raise TensorFormatError(f"line {lineno}: dims must be positive, got {dims}")
    return dims, dense


def _flat_positions(idx: np.ndarray, dims: tuple[int, ...], where) -> np.ndarray:
    """Flat grid positions of 1-based index rows, one row per record.

    The first out-of-range or duplicate record in file order raises, labelled
    by ``where(r)`` for the 0-based record number r.
    """
    bad = np.argwhere((idx < 1) | (idx > np.asarray(dims)))
    first_bad = int(bad[0, 0]) if bad.size else len(idx)
    # Records before the first out-of-range one are checked for duplicates,
    # so whichever fault comes first in the file is the one reported.
    flat = np.ravel_multi_index(tuple((idx[:first_bad].astype(np.intp) - 1).T), dims)
    order = np.argsort(flat, kind="stable")
    repeats = order[1:][flat[order[1:]] == flat[order[:-1]]]
    if repeats.size:
        r = int(repeats.min())
        raise TensorFormatError(f"{where(r)}: duplicate index {tuple(idx[r].tolist())}")
    if bad.size:
        r, m = bad[0]
        raise TensorFormatError(
            f"{where(r)}: index {idx[r, m]} out of range [1, {dims[m]}] in mode {m + 1}"
        )
    return flat


def _grid(flat: np.ndarray, vals: np.ndarray, dims: tuple[int, ...], dense: bool):
    """The tensor and observed mask filled from validated records."""
    t = np.zeros(dims)
    mask = np.zeros(dims, dtype=bool)
    np.put(t, flat, vals)
    np.put(mask, flat, True)
    if dense and not mask.all():
        missing = np.unravel_index(int(np.argmin(mask)), dims)
        raise TensorFormatError(
            f"dense tensor file does not cover the grid: no record for index "
            f"{tuple(int(i) + 1 for i in missing)}"
        )
    return t, mask


def read_tensor(path) -> tuple[np.ndarray, np.ndarray]:
    """Read a coordinate file; returns (tensor, observed mask).

    Missing cells hold 0.0 in the returned tensor and False in the mask.
    """
    with open(path, "rb") as fh:
        first = fh.readline()
        if first.startswith(_BINARY_MAGIC):
            return _read_binary(fh, first)

    # Tokenize up to the first malformed line; the records before it are
    # validated first, so the fault reported is the first one in the file.
    idx, vals, lines = array("i"), array("d"), array("i")
    dims = fault = pending = None
    with open(path, "r") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            tokens = line.split()
            if dims is None:
                if tokens[0] != _TEXT_MAGIC:
                    raise TensorFormatError(
                        f"line {lineno}: expected '{_TEXT_MAGIC}' header, got {tokens[0]!r}"
                    )
                dims, dense = _parse_header(tokens, lineno)
                continue
            if len(tokens) != len(dims) + 1:
                fault = f"line {lineno}: expected {len(dims)} indices and a value, got {len(tokens)} fields"
                break
            try:
                row = [int(x) for x in tokens[:-1]]
            except ValueError:
                fault = f"line {lineno}: malformed index {' '.join(tokens[:-1])!r}"
                break
            try:
                idx.fromlist(row)  # unchanged if an index overflows a C int
                vals.append(float(tokens[-1]))
            except (OverflowError, ValueError):
                fault, pending = f"line {lineno}: malformed record {line!r}", row
                break
            lines.append(lineno)
    if dims is None:
        raise TensorFormatError("line 1: empty file, no header")
    rows = np.frombuffer(idx, dtype=np.intc).reshape(-1, len(dims))
    flat = _flat_positions(rows[: len(vals)], dims, lambda r: f"line {lines[r]}")
    if fault:
        if pending:  # a line whose indices parsed reports their range fault first
            _flat_positions(np.array([pending]), dims, lambda r: f"line {lineno}")
        raise TensorFormatError(fault)
    return _grid(flat, np.frombuffer(vals), dims, dense)


def _read_binary(fh, first_line: bytes) -> tuple[np.ndarray, np.ndarray]:
    """Decode every record at once; an error names the first bad record in file order."""
    dims, dense = _parse_header(first_line.decode().split(), 1)
    head = fh.read(8)
    if len(head) != 8:
        raise TensorFormatError("truncated binary tensor file: no record count")
    count = int(np.frombuffer(head, dtype="<i8")[0])
    if count < 0:
        raise TensorFormatError(f"negative record count {count} in binary tensor file")
    dtype = _record_dtype(len(dims))
    # Read what the file holds, not what a corrupt count asks for.
    buf = fh.read()
    complete = min(count, len(buf) // dtype.itemsize)
    rec = np.frombuffer(buf, dtype=dtype, count=complete)
    flat = _flat_positions(rec["idx"], dims, lambda r: f"record {r + 1}")
    if complete < count:
        raise TensorFormatError(f"record {complete + 1}: truncated binary tensor file")
    if len(buf) > count * dtype.itemsize:
        raise TensorFormatError(f"binary tensor file has bytes past its {count} declared records")
    return _grid(flat, rec["val"], dims, dense)


def read_indices(path, dims: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Read a file of 1-based indices, one per line; ``#`` starts a comment."""
    out = []
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            tokens = line.split()
            if len(tokens) != len(dims):
                raise TensorFormatError(
                    f"line {lineno}: expected {len(dims)} indices, got {len(tokens)}"
                )
            try:
                idx = tuple(int(x) for x in tokens)
            except ValueError:
                raise TensorFormatError(f"line {lineno}: malformed index {' '.join(tokens)!r}") from None
            for k, (i, d) in enumerate(zip(idx, dims)):
                if not 1 <= i <= d:
                    raise TensorFormatError(f"line {lineno}: index {i} out of range [1, {d}] in mode {k + 1}")
            out.append(idx)
    return out


# ---------------------------------------------------------------------------
# Model serialization
# ---------------------------------------------------------------------------


def _config_to_dict(config: ModelConfig) -> dict:
    d = asdict(config)
    kernel = config.kernel
    if isinstance(kernel, KernelSpec):
        d["kernel"] = {"family": kernel.family, "gamma": kernel.gamma}
    else:
        d["kernel"] = [{"family": k.family, "gamma": k.gamma} for k in kernel]
    return d


def _config_from_dict(d: dict) -> ModelConfig:
    # Files written before these options were removed still carry them.
    d.pop("truncation_energy", None)
    d.pop("n_restarts", None)
    kernel = d["kernel"]
    if isinstance(kernel, dict):
        d["kernel"] = KernelSpec(**kernel)
    else:
        d["kernel"] = [KernelSpec(**k) for k in kernel]
    return ModelConfig(**d)


def save_model(path, model: FittedModel) -> None:
    state = model.state
    payload = {
        "format": MODEL_FORMAT,
        "version": MODEL_VERSION,
        "config": _config_to_dict(model.config),
        "dims": list(model.dims),
        "factors": [u.tolist() for u in model.factors],
        "state": {
            "ez": state.ez.tolist(),
            "beta1": state.beta1,
            "beta2": state.beta2,
            "tau": state.tau,
        },
        "tau_star": model.tau_star,
        "objective_trace": model.objective_trace,
        "mask": None if model.mask is None else model.mask.ravel().astype(int).tolist(),
        "mstep_warnings": model.mstep_warnings,
    }
    with open(path, "w") as fh:
        json.dump(payload, fh)
        fh.write("\n")


def load_model(path) -> FittedModel:
    try:
        with open(path) as fh:
            payload = json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError) as err:
        raise ModelFormatError(f"corrupt model file {path}: {err}") from None
    if not isinstance(payload, dict) or payload.get("format") != MODEL_FORMAT:
        raise ModelFormatError(f"{path} is not a {MODEL_FORMAT} file")
    # Version 1 also stored mu, ups_diag and zbar_loc, which prediction never reads.
    if payload.get("version") not in (1, MODEL_VERSION):
        raise ModelFormatError(
            f"model version {payload.get('version')} is incompatible with {MODEL_VERSION}"
        )
    try:
        config = _config_from_dict(payload["config"])
        dims = tuple(payload["dims"])
        factors = [np.asarray(u, dtype=np.float64) for u in payload["factors"]]
        s = payload["state"]
        state = VariationalState(
            ez=np.asarray(s["ez"], dtype=np.float64),
            mu=None,
            ups_diag=None,
            beta1=s["beta1"],
            beta2=s["beta2"],
            tau=s["tau"],
        )
        mask = payload["mask"]
        if [u.shape[0] if u.ndim == 2 else None for u in factors] != list(dims):
            raise ValueError(f"factor shapes {[u.shape for u in factors]} do not match dims {dims}")
        if state.ez.shape != dims:
            raise ValueError(f"target shape {state.ez.shape} does not match dims {dims}")
        if mask is not None and len(mask) != state.ez.size:
            raise ValueError(f"mask has {len(mask)} entries for {state.ez.size} cells")
        mask = None if mask is None else np.asarray(mask, dtype=bool).reshape(dims)
        specs = config.kernels(len(dims))
        grams = [gram_matrix(spec, u) for spec, u in zip(specs, factors)]
        return FittedModel(
            factors=factors,
            mode_grams=grams,
            config=config,
            state=state,
            tau_star=payload["tau_star"],
            objective_trace=list(payload["objective_trace"]),
            mask=mask,
            mstep_warnings=payload.get("mstep_warnings", 0),
        )
    except (KeyError, TypeError, ValueError) as err:
        raise ModelFormatError(f"corrupt model file {path}: {err}") from None


# ---------------------------------------------------------------------------
# Run configuration
# ---------------------------------------------------------------------------

_MODEL_KEYS = {
    "noise": str,
    "process": str,
    "nu": float,
    "rank": "int_list",
    "kernel": str,
    "gamma": float,
    "l1_lambda": float,
    "gaussian_sigma": float,
    "max_em_iters": int,
    "em_rel_tol": float,
    "mstep_max_iters": int,
    "seed": int,
}

_EXPERIMENT_KEYS = {
    "dims": "int_list",
    "generator": str,
    "holdout_fraction": float,
    "folds": int,
    "repeats": int,
    "gamma_grid": "float_list",
    "lambda_grid": "float_list",
    "rank_grid": "int_list",
    "latent_scale": float,
    "gen_gamma": float,
    "gen_rank": int,
    "model_sigma": float,
    "data_file": str,
}

CONFIG_KEYS = {**_MODEL_KEYS, **_EXPERIMENT_KEYS}


def _coerce(key: str, raw: str, lineno: int):
    kind = CONFIG_KEYS[key]
    try:
        if kind == "int_list":
            return [int(x) for x in raw.replace(",", " ").split()]
        if kind == "float_list":
            return [float(x) for x in raw.replace(",", " ").split()]
        return kind(raw)
    except ValueError:
        raise ConfigError(f"line {lineno}: bad value {raw!r} for key {key!r}") from None


def parse_config(path) -> dict:
    """Read a flat key=value config file into a typed dict."""
    out: dict = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
            key, _, value = line.partition("=")
            key = key.strip()
            value = value.strip()
            if key not in CONFIG_KEYS:
                raise ConfigError(f"line {lineno}: unknown key {key!r}")
            if key in out:
                raise ConfigError(f"line {lineno}: duplicate key {key!r}")
            out[key] = _coerce(key, value, lineno)
    return out


def model_config_from_dict(d: dict, seed_override: int | None = None) -> ModelConfig:
    kwargs = {key: d[key] for key in _MODEL_KEYS if key in d and key not in ("kernel", "gamma")}
    if "rank" in d:
        kwargs["rank"] = d["rank"][0] if len(d["rank"]) == 1 else d["rank"]
    if seed_override is not None:
        kwargs["seed"] = seed_override
    default = ModelConfig.kernel
    try:
        kwargs["kernel"] = KernelSpec(d.get("kernel", default.family), d.get("gamma", default.gamma))
        return ModelConfig(**kwargs)
    except (ValueError, TypeError) as err:
        raise ConfigError(str(err)) from None


# Config keys whose ExperimentSpec field has another name; every other
# config key that names a field fills it directly.
_SPEC_RENAMES = {"kernel": "kernel_family", "gaussian_sigma": "sigma"}
# Model keys that eval searches over: without its grid key, a value is a
# one-point grid.
_SPEC_GRIDS = {"gamma": "gamma_grid", "l1_lambda": "lambda_grid", "rank": "rank_grid"}


def experiment_spec_from_dict(d: dict, seed_override: int | None = None) -> ExperimentSpec:
    spec_fields = {f.name for f in fields(ExperimentSpec)}
    kwargs = {}
    for key in CONFIG_KEYS:
        attr = _SPEC_RENAMES.get(key, key)
        if key in d and attr in spec_fields:
            kwargs[attr] = tuple(d[key]) if key == "dims" else d[key]
    for key, grid in _SPEC_GRIDS.items():
        if key in d and grid not in d:
            if key == "rank" and len(d[key]) > 1:
                raise ConfigError("eval takes one rank per run; list several in rank_grid")
            kwargs[grid] = list(d[key]) if key == "rank" else [d[key]]
    if seed_override is not None:
        kwargs["seed"] = seed_override
    try:
        return ExperimentSpec(**kwargs)
    except (ValueError, TypeError) as err:
        raise ConfigError(str(err)) from None

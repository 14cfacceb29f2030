"""File formats: coordinate tensor files, model serialization, run configs.

Coordinate tensor files are line-oriented text:

    tensor K n1 n2 ... nK [dense]
    i1 i2 ... iK value
    ...

Indices are 1-based; unlisted cells are missing unless the header says
``dense`` (then every cell must appear exactly once).  ``#`` starts a comment
that runs to the end of the line; blank lines are ignored.  Values are written
with 17 significant digits so 64-bit floats round-trip exactly.

Text files move a block of _BLOCK_ROWS rows at a time.  The writer formats a
block with one ``%`` format over its ``tolist()`` columns and writes it with
one call, never building a whole-file string; prediction files from the CLI
use the same writer.  The reader cuts comments, splits and counts the fields
of each line of a block, then converts the block's values and indices with
one ``float`` and one ``int`` pass; a block that fails to convert is
converted again line by line, with the same ``int``/``float``, to find the
first bad line.

An optional binary container (``tensorbin`` magic) stores the same records
as little-endian int32 indices and float64 values for large tensors.  Both
formats share one record validator, which reports the first fault in file
order (``line N`` or ``record N``).

Model files are JSON with a format/version tag and hold only what prediction
reads: the factors, the final E-step target and tau*.  They are written in
pieces, each from ``json.dumps``: the small keys whole, the target tensor and
the mask a block at a time, with the bytes ``json.dump`` would give.  A file
whose dims, factor rows, target shape and mask length disagree, or whose mask
holds an entry other than 0 or 1, is rejected.  A loaded model rebuilds its
Gram matrices deterministically from the stored factors, so predictions from
a round-tripped model are bit-identical to the original's.

Run configuration files are flat ``key = value`` text with ``#`` comments;
unknown keys are rejected.
"""

from __future__ import annotations

import json
from array import array
from dataclasses import asdict, fields
from itertools import islice

import numpy as np

from .errors import ConfigError, IndexRangeError, ModelFormatError, TensorFormatError
from .evaluate import ExperimentSpec
from .inference import FittedModel, ModelConfig, VariationalState
from .kernels import KernelSpec, gram_matrix
from .tensors import flat_positions

MODEL_FORMAT = "tensorgp-model"
MODEL_VERSION = 2

_TEXT_MAGIC = "tensor"
_BINARY_MAGIC = b"tensorbin"
# Rows per formatted write and per tokenized read of a text file, and about
# the entries per write of a model file's target tensor and mask.
_BLOCK_ROWS = 4096


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
    coords = [c + 1 for c in np.unravel_index(flat_idx, dims)]
    values = t.ravel()[flat_idx]

    magic = _BINARY_MAGIC.decode() if binary else _TEXT_MAGIC
    header = f"{magic} {len(dims)} " + " ".join(map(str, dims))
    if dense:
        header += " dense"

    if binary:
        rec = np.empty(len(values), dtype=_record_dtype(len(dims)))
        rec["idx"] = np.column_stack(coords)
        rec["val"] = values
        with open(path, "wb") as fh:
            fh.write(header.encode() + b"\n")
            fh.write(np.array(len(values), dtype="<i8").tobytes())
            fh.write(rec.tobytes())
        return

    with open(path, "w") as fh:
        fh.write(header + "\n")
        _write_rows(fh, [*coords, values], "%d " * len(dims) + "%.17g")


def _write_rows(fh, columns: list[np.ndarray], fmt: str) -> None:
    """Write one ``fmt`` line per row of the equal-length ``columns``.

    Each block of _BLOCK_ROWS rows is formatted by one ``%`` over its
    interleaved ``tolist()`` values and written with one call, so no
    whole-file string is built.  ``%d`` of an int and ``%.17g`` of a float
    give the same bytes as formatting row by row.
    """
    width = len(columns)
    for lo in range(0, len(columns[0]), _BLOCK_ROWS):
        block = [c[lo : lo + _BLOCK_ROWS].tolist() for c in columns]
        rows = len(block[0])
        flat = [None] * (rows * width)
        for k, col in enumerate(block):
            flat[k::width] = col
        fh.write((fmt + "\n") * rows % tuple(flat))


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


def _record_positions(idx: np.ndarray, dims: tuple[int, ...], where) -> np.ndarray:
    """Flat grid positions of a tensor file's index rows, one row per record.

    Beyond the range rule of :func:`flat_positions`, no cell may appear
    twice.  The first fault in file order raises.
    """
    try:
        flat, off_grid = flat_positions(idx, dims, where), None
    except IndexRangeError as err:  # a repeat before the off-grid record comes first
        flat, off_grid = flat_positions(idx[: err.row], dims, where), err
    order = np.argsort(flat, kind="stable")
    repeats = order[1:][flat[order[1:]] == flat[order[:-1]]]
    if repeats.size:
        r = int(repeats.min())
        raise TensorFormatError(f"{where(r)}: duplicate index {tuple(idx[r].tolist())}")
    if off_grid:
        raise off_grid
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

    with open(path, "r") as fh:
        return _read_text(fh)


def _read_text(fh) -> tuple[np.ndarray, np.ndarray]:
    """Tokenize a block of lines at a time up to the first malformed line.

    Each line costs the comment cut, the split and the field-count check; a
    block's value tokens and index tokens are then converted by one
    ``float`` and one ``int`` pass.  The records before a malformed line are
    validated first, so the fault reported is the first one in the file.
    """
    idx, vals, lines = array("i"), array("d"), array("i")
    dims = fault = pending = None
    for lineno, raw in enumerate(fh, start=1):
        tokens = raw.split("#", 1)[0].split()
        if tokens:
            if tokens[0] != _TEXT_MAGIC:
                raise TensorFormatError(f"line {lineno}: expected '{_TEXT_MAGIC}' header, got {tokens[0]!r}")
            dims, dense = _parse_header(tokens, lineno)
            break
    if dims is None:
        raise TensorFormatError("line 1: empty file, no header")
    order = len(dims)
    while fault is None and (block := list(islice(fh, _BLOCK_ROWS))):
        start, toks, nums = lineno + 1, [], array("i")
        for lineno, raw in enumerate(block, start):
            tokens = raw.split("#", 1)[0].split()
            if not tokens:
                continue
            if len(tokens) != order + 1:
                fault = f"line {lineno}: expected {order} indices and a value, got {len(tokens)} fields"
                break
            toks += tokens
            nums.append(lineno)
        try:
            block_vals = array("d", map(float, toks[order :: order + 1]))
            del toks[order :: order + 1]
            block_idx = array("i", map(int, toks))
        except (OverflowError, ValueError):
            fault, pending, lineno = _convert_lines(block, start, nums, idx, vals, lines)
            break
        idx += block_idx
        vals += block_vals
        lines += nums
    rows = np.frombuffer(idx, dtype=np.intc).reshape(-1, order)
    flat = _record_positions(rows, dims, lambda r: f"line {lines[r]}")
    if fault:
        if pending:  # a line whose indices parsed reports their range fault first
            flat_positions(np.array([pending]), dims, lambda r: f"line {lineno}")
        raise TensorFormatError(fault)
    return _grid(flat, np.frombuffer(vals), dims, dense)


def _convert_lines(block: list[str], start: int, nums, idx, vals, lines):
    """Convert the records of a block one line at a time, as far as the first
    that fails; returns its fault, its parsed indices (or None) and its line."""
    for lineno in nums:
        line = block[lineno - start].split("#", 1)[0].strip()
        tokens = line.split()
        try:
            row = [int(x) for x in tokens[:-1]]
        except ValueError:
            return f"line {lineno}: malformed index {' '.join(tokens[:-1])!r}", None, lineno
        try:
            value = float(tokens[-1])
            idx.fromlist(row)  # unchanged if an index overflows a C int
        except (OverflowError, ValueError):
            return f"line {lineno}: malformed record {line!r}", row, lineno
        vals.append(value)
        lines.append(lineno)
    raise AssertionError("a block that failed to convert converted line by line")


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
    flat = _record_positions(rec["idx"], dims, lambda r: f"record {r + 1}")
    if complete < count:
        raise TensorFormatError(f"record {complete + 1}: truncated binary tensor file")
    if len(buf) > count * dtype.itemsize:
        raise TensorFormatError(f"binary tensor file has bytes past its {count} declared records")
    return _grid(flat, rec["val"], dims, dense)


def read_indices(path, dims: tuple[int, ...]) -> np.ndarray:
    """Read a file of 1-based indices, one per line; ``#`` starts a comment.

    Returns the flat row-major grid position of each index, in file order;
    an index may repeat.  The scan stops at the first line that cannot be
    parsed, and the lines before it are range-checked first, so the fault
    reported is the first one in the file.
    """
    rows, lines, fault = [], [], None
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            tokens = raw.split("#", 1)[0].split()
            if not tokens:
                continue
            if len(tokens) != len(dims):
                fault = f"line {lineno}: expected {len(dims)} indices, got {len(tokens)}"
                break
            try:
                rows.append([int(x) for x in tokens])
            except ValueError:
                fault = f"line {lineno}: malformed index {' '.join(tokens)!r}"
                break
            lines.append(lineno)
    idx = np.array(rows, dtype=object).reshape(len(rows), len(dims))
    flat = flat_positions(idx, dims, lambda r: f"line {lines[r]}")
    if fault:
        raise TensorFormatError(fault)
    return flat


# ---------------------------------------------------------------------------
# Model serialization
# ---------------------------------------------------------------------------


def _write_json_list(fh, a: np.ndarray) -> None:
    """Write ``json.dumps(a.tolist())`` a block of first-axis slices at a time.

    A block is one slice, or as many slices as make up about _BLOCK_ROWS
    entries, so a 1-D array goes _BLOCK_ROWS entries per write.
    """
    step = max(1, _BLOCK_ROWS * len(a) // max(a.size, 1))
    fh.write("[")
    for lo in range(0, len(a), step):
        fh.write((", " if lo else "") + json.dumps(a[lo : lo + step].tolist())[1:-1])
    fh.write("]")


def save_model(path, model: FittedModel) -> None:
    """Write the model file: the bytes of ``json.dump(payload)`` and a newline.

    The small keys go through ``json.dumps``; the target tensor and the mask
    are written a block at a time, so no whole-document string is built.
    """
    state = model.state
    head = {
        "format": MODEL_FORMAT,
        "version": MODEL_VERSION,
        "config": asdict(model.config),
        "dims": list(model.dims),
        "factors": [u.tolist() for u in model.factors],
    }
    state_tail = {"beta1": state.beta1, "beta2": state.beta2, "tau": state.tau}
    tail = {"tau_star": model.tau_star, "objective_trace": model.objective_trace}
    with open(path, "w") as fh:
        fh.write(json.dumps(head)[:-1] + ', "state": {"ez": ')
        _write_json_list(fh, state.ez)
        fh.write(", " + json.dumps(state_tail)[1:] + ", " + json.dumps(tail)[1:-1] + ', "mask": ')
        if model.mask is None:
            fh.write("null")
        else:
            _write_json_list(fh, model.mask.ravel().astype(int))
        fh.write(", " + json.dumps({"mstep_warnings": model.mstep_warnings})[1:] + "\n")


def load_model(path) -> FittedModel:
    try:
        with open(path) as fh:
            payload = json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError) as err:
        raise ModelFormatError(f"corrupt model file {path}: {err}") from None
    if not isinstance(payload, dict) or payload.get("format") != MODEL_FORMAT:
        raise ModelFormatError(f"{path} is not a {MODEL_FORMAT} file")
    if payload.get("version") != MODEL_VERSION:
        raise ModelFormatError(
            f"model version {payload.get('version')} is incompatible with {MODEL_VERSION}"
        )
    try:
        config = ModelConfig(**{**payload["config"], "kernel": KernelSpec(**payload["config"]["kernel"])})
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
        if mask is not None:
            if not set(mask) <= {0, 1}:
                bad = next(v for v in mask if v not in (0, 1))
                raise ValueError(f"mask entry {bad!r} is not 0 or 1")
            mask = np.asarray(mask, dtype=bool).reshape(dims)
        grams = [gram_matrix(config.kernel, u) for u in factors]
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

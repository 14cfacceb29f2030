"""Benchmark command for tensorgp: one workload, one seed, one run.

    python3 bench/run.py --workload em-converge-8 --seed 0 --seconds 25 --trace 0

Run from the root of a source checkout.  The package is imported from
``src/`` of that checkout, never from an installed copy, and everything runs
in this one process.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``: every
end-to-end metric with ``--trace 0``, every per-layer metric with
``--trace 1``.  The lines before it are a readable summary, and the full
record (provenance, per-repetition times, failures and, when traced, the
spans) goes to ``bench/out/``.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

# BLAS threads are pinned before numpy is first imported.  One thread: on a
# shared host a call split over two cores waits for the slower of the two.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = Path(__file__).resolve().parent / "out"
if (SRC / "tensorgp" / "__init__.py").is_file():
    sys.path.insert(0, str(SRC))

import argparse  # noqa: E402
import gzip  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def cache_sizes() -> dict[int, int]:
    """Data or unified cache bytes per level as seen by CPU 0 (Linux sysfs, read only)."""
    out = {}
    for index in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
        try:
            if (index / "type").read_text().strip() == "Instruction":
                continue
            size = (index / "size").read_text().strip()
            scale = {"K": 1 << 10, "M": 1 << 20}.get(size[-1], 1)
            out[int((index / "level").read_text())] = int(size.rstrip("KM")) * scale
        except (OSError, ValueError):
            continue
    return out


def provenance(seed: int, dims) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    caches = cache_sizes()
    l2, l3 = caches.get(2), caches.get(3)
    tensor_mb = 8 * math.prod(dims) / 1e6
    l2_text = f"{l2 / 1e6:.2f} MB L2 per core" if l2 else "an unreported L2"
    return {
        "nproc": os.cpu_count(),
        "blas_threads": BLAS_THREADS,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "git_commit": git_commit(),
        "seed": seed,
        "l2_cache_bytes": l2,
        "l3_cache_bytes": l3,
        "working_set": (
            f"one {'x'.join(map(str, dims))} float64 tensor is {tensor_mb:.2f} MB against {l2_text}: "
            "the kernels are not bandwidth-bound and no bandwidth figure is claimed "
            "(mode-product bytes are computed from shapes, not measured)"
        ),
    }


def write_spans(path: Path, spans) -> None:
    with gzip.open(path, "wt", compresslevel=1) as fh:
        fh.write(json.dumps({"fields": ["name", "start_s", "end_s", "parent"]}) + "\n")
        for span in spans:
            fh.write(json.dumps(span) + "\n")


def main(argv=None) -> int:
    if not (SRC / "tensorgp" / "__init__.py").is_file():
        print(f"error: no tensorgp sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2

    import report
    from workloads import IO_OPS, WORKLOADS, run_workload

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    w = WORKLOADS[args.workload]
    out = run_workload(w, args.seed, args.seconds, bool(args.trace), OUT_DIR)
    e2e = report.end_to_end(out)
    layer = report.per_layer(w, out) if args.trace else {}
    values, gated = (layer, report.PER_LAYER) if args.trace else (e2e, report.END_TO_END)
    printed = gated if args.trace else gated | report.REPORTED_ONLY
    gate = out.gate
    record = {
        "workload": w.name,
        "trace": args.trace,
        "provenance": provenance(args.seed, w.dims),
        "repetitions": {"untraced": len(out.reps), "traced": len(out.traced)},
        "attempted": gate.attempted,
        "failed": gate.failed,
        "fail_ratio": gate.failed / max(gate.attempted, 1),
        "failures": gate.failures,
        "end_to_end": e2e,
        "per_layer": layer,
        "setup_s": out.setup_s,
        "rep_times": [r.times for r in out.reps],
        "stretches_per_sample": {
            key: sorted({len(x) for r in out.reps for x in r.stretches.get(key, ())}) for key in ("fit_s", "predict_s")
        },
        "traced_rep_times": [r.times for r in out.traced],
        "samples": {
            key: sum(len(r.samples.get(key, ())) for r in out.reps) for key in ("fit_s", "predict_s", "query", *IO_OPS)
        },
    }
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    stem = OUT_DIR / f"{w.name}-seed{args.seed}-trace{args.trace}"
    if out.tracer is not None:
        record["solver_calls"] = [vars(c) for c in out.tracer.solver_calls]
        record["span_summary"] = out.tracer.summary()
        write_spans(stem.with_suffix(".spans.jsonl.gz"), out.tracer.spans)
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1) + "\n")

    prov = record["provenance"]
    print(f"{w.name} seed={args.seed} trace={args.trace} reps={len(out.reps)}+{len(out.traced)} traced")
    print(f"  nproc={prov['nproc']} blas_threads={BLAS_THREADS} {prov['blas']} numpy {prov['numpy']} "
          f"scipy {prov['scipy']} python {prov['python']} commit {prov['git_commit']}")
    print(f"  {prov['working_set']}")
    for name, unit in printed.items():
        print(f"  {name:40s} {values[name]!r:>24} {unit}")
    print(f"  {'fail_ratio':40s} {record['fail_ratio']!r:>24} ({gate.failed}/{gate.attempted})")
    for failure in gate.failures:
        print(f"  FAILED {failure}")
    print(f"  record: {stem.with_suffix('.json').relative_to(ROOT)}")
    result = {
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in gated.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

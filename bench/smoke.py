"""Smoke test of the benchmark itself, at tiny sizes (a few seconds in all).

    python3 bench/smoke.py

For every workload it checks that an untraced run emits every end-to-end
metric of BENCHMARK.json with its unit and passes the correctness gate, that
a traced run emits every per-layer metric, and that the gate trips when one
batch prediction is altered.  Exits 0 when all of that holds.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys

from run import OUT_DIR, ROOT, main as run_main
import report
from workloads import WORKLOADS, run_workload, tiny


def _emitted(argv: list[str]) -> dict:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = run_main(argv)
    if code != 0:
        raise AssertionError(f"{argv} exited with {code}")
    return json.loads(buf.getvalue().strip().splitlines()[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    if declared[0] != report.END_TO_END or declared[1] != report.PER_LAYER:
        problems.append("BENCHMARK.json metrics differ from report.END_TO_END / report.PER_LAYER")
    if sorted(w["name"] for w in spec["workloads"]) != sorted(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from workloads.WORKLOADS")
    for name, full in WORKLOADS.items():
        WORKLOADS[name] = tiny(full)
        try:
            for trace in (0, 1):
                result = _emitted(["--workload", name, "--seed", "3", "--seconds", "0", "--trace", str(trace)])
                metrics = result["metrics"]
                for metric, unit in declared[trace].items():
                    got = metrics.get(metric)
                    if got is None or got.get("unit") != unit or not isinstance(got.get("value"), (int, float)):
                        problems.append(f"{name} trace={trace}: {metric} emitted as {got}")
                if set(metrics) != set(declared[trace]):
                    problems.append(f"{name} trace={trace}: extra metrics {set(metrics) - set(declared[trace])}")
                if not result["correct"] or result["failed"]:
                    problems.append(f"{name} trace={trace}: gate failed on unaltered output: {result}")
            perturbed = run_workload(WORKLOADS[name], 3, 0.0, False, OUT_DIR, perturb=True)
            if not any(f.startswith("batch_vs_single") for f in perturbed.gate.failures):
                problems.append(f"{name}: gate did not trip on an altered prediction")
        finally:
            WORKLOADS[name] = full

    for p in problems:
        print(f"FAIL {p}")
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

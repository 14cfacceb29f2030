"""The benchmark's own smoke test, run as a tier-1 test.

The benchmark traces a run by rebinding names in the package modules
(``bench/spans.py``) and gates it on the package's outputs, so a refactor
that renames or stops calling one of those names breaks it without breaking
any unit test.  ``bench/smoke.py`` runs every workload at tiny sizes, traced
and untraced, in about ten seconds.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_bench_smoke():
    proc = subprocess.run(
        [sys.executable, "bench/smoke.py"], cwd=ROOT, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "smoke: ok" in proc.stdout

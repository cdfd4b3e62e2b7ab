"""The benchmark's self-check, run as a tier-1 test.

``bench/run.py --selfcheck`` runs every benchmark workload at a tiny size
through the package in ``src/`` and checks each output against the
benchmark's own numpy recomputations, then plants one fault (perturbed
weights) that the checks must catch.  A change under ``src/`` that breaks
a benchmark check fails here.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_selfcheck_catches_only_the_planted_fault():
    out = subprocess.run([sys.executable, "bench/run.py", "--selfcheck"], cwd=ROOT,
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 1
    assert "unexpected failure" not in out.stderr

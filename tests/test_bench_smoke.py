"""Runs the benchmark's self-test on the ``riquier`` workload: every
solver answer up to interior size 300 checked against the benchmark's
numpy oracle, and every check shown to reject a perturbed answer."""

import subprocess
import sys
from pathlib import Path

SELFTEST = Path(__file__).resolve().parent.parent / "bench" / "selftest.py"


def test_bench_selftest_riquier():
    proc = subprocess.run([sys.executable, str(SELFTEST), "--workloads", "riquier"],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]

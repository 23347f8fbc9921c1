"""Runs the benchmark's self-test on the ``riquier``, ``montecarlo`` and
``cli`` workloads: every solver answer up to interior size 300, every
simulation (z-scores, the first-visit series, one shard against three
bit for bit) and every CLI report (``polyharm --json`` subprocesses up
to interior size 390) checked against the benchmark's numpy oracle, and
every check shown to reject a perturbed answer."""

import subprocess
import sys
from pathlib import Path

SELFTEST = Path(__file__).resolve().parent.parent / "bench" / "selftest.py"


def _selftest(workload):
    proc = subprocess.run([sys.executable, str(SELFTEST), "--workloads", workload],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]


def test_bench_selftest_riquier():
    _selftest("riquier")


def test_bench_selftest_montecarlo():
    _selftest("montecarlo")


def test_bench_selftest_cli():
    _selftest("cli")

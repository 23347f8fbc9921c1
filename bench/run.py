"""Benchmark of polyharm: one seeded workload per call, or all of them.

    python3 bench/run.py --workload riquier --seed 1 --seconds 15 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 15

Run from the root of a source checkout; the package is imported from
``src/``.  Each workload runs in its own process, one process at a time,
with single-threaded BLAS.  The last line printed is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer ones with
``--trace 1``.  See ``bench/README.md`` for what each workload and
metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
WORKLOADS = ("riquier", "spectral", "montecarlo", "cli")
SETUP_SAMPLES = 3      # set-up is timed in this many processes; the median is reported
DEADLINE_S = 170.0     # the whole command ends within this

# OpenBLAS threads spin on the 2-CPU machines this runs on and make both
# speed and spread worse; every process, CLI subprocesses included, gets one
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class RunError(Exception):
    pass


def worker(args, env, deadline, setup_only=False):
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--outdir", str(HERE / "out"), "--t0", repr(time.monotonic())]
    if setup_only:
        cmd.append("--setup-only")
    left = deadline - time.monotonic()
    if left <= 0:
        raise RunError("out of time before the workload could start")
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, timeout=left,
                              text=True)
    except subprocess.TimeoutExpired:
        raise RunError(f"{args.workload} did not finish within {DEADLINE_S:.0f} s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RunError(f"{args.workload} worker exited with {proc.returncode}")
    return json.loads(lines[-1])


def run_workload(args, env, deadline):
    setups = []
    if not args.trace:
        for _ in range(SETUP_SAMPLES - 1):
            setups.append(worker(args, env, deadline, setup_only=True))
    main = worker(args, env, deadline)
    problems = main["problems"] + [p for s in setups for p in s["problems"]]
    for p in problems[:10]:
        print(f"check failed: {p}", file=sys.stderr)
    metrics = dict(main["metrics"])
    if not args.trace:
        setup = statistics.median([s["setup_s"] for s in setups] + [main["setup_s"]])
        metrics["setup_s"] = {"value": setup, "unit": "s"}
    return {"correct": not problems, "attempted": main["attempted"],
            "failed": main["failed"], "metrics": metrics}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "polyharm" / "__init__.py").is_file():
        print(f"error: no polyharm source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    env = {**os.environ, **BLAS_ENV, "PYTHONPATH": str(ROOT / "src"), "PYTHONHASHSEED": "0"}
    (HERE / "out").mkdir(exist_ok=True)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    deadline = time.monotonic() + DEADLINE_S * len(names)
    for name in names:
        args.workload = name
        try:
            result = run_workload(args, env, deadline)
        except RunError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        if len(names) > 1:
            print(f"{name}: correct={result['correct']} attempted={result['attempted']} "
                  f"failed={result['failed']}")
            for key, m in result["metrics"].items():
                print(f"  {key:44s} {m['value']:14.6g} {m['unit']}")
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Steadiness of the benchmark: run each workload on several seeds and
print the median and quartiles of every end-to-end metric.

    python3 bench/steady.py --runs 10 --seed 100
    python3 bench/steady.py --runs 10 --seed 200 --save bench/out/b.json \\
        --against bench/out/a.json

The spread of a metric is (q3 - q1) / median over the runs, with the
quartiles of ``statistics.quantiles(values, n=4)``.  It is compared with
the metric's bound in ``BENCHMARK.json``: "steady" below a third of it.
``--against`` compares the medians with an earlier saved set, in the
direction in which the metric gets worse.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload, seed, seconds):
    proc = subprocess.run([sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                          cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=200)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=100, help="first seed; run i uses seed + i")
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--save", help="write every run's result here (JSON)")
    ap.add_argument("--against", help="an earlier --save file to compare medians with")
    args = ap.parse_args()

    metrics = {m["name"]: m for m in spec["end_to_end"]}
    before = json.loads(Path(args.against).read_text()) if args.against else {}
    saved, ok = {}, True
    for workload in args.workloads.split(","):
        runs = []
        for i in range(args.runs):
            runs.append(run_once(workload, args.seed + i, args.seconds))
            print(f"  {workload} seed {args.seed + i}: {json.dumps(runs[-1])}", file=sys.stderr)
        saved[workload] = runs
        shares = sorted({r["failed"] / r["attempted"] for r in runs})
        correct = all(r["correct"] for r in runs)
        print(f"{workload}: {args.runs} runs, correct={correct}, failed share {shares}, "
              f"attempted {min(r['attempted'] for r in runs)}..{max(r['attempted'] for r in runs)}")
        print(f"  {'metric':18s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} "
              f"{'bound':>6s}  verdict")
        ok &= correct and len(shares) == 1
        for name, m in metrics.items():
            values = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            verdict = "steady" if spread < m["bound"] / 3 else (
                "within bound" if spread <= m["bound"] else "WIDER THAN BOUND")
            if name == "setup_s":
                verdict += " (not gated)"
            elif spread > m["bound"]:
                ok = False
            line = (f"  {name:18s} {med:12.5g} {q1:12.5g} {q3:12.5g} {spread:8.2%} "
                    f"{m['bound']:6.0%}  {verdict}")
            if workload in before:
                old = statistics.median(r["metrics"][name]["value"] for r in before[workload])
                worse = (med / old - 1) if m["better"] == "lower" else (old / med - 1)
                line += f"   vs earlier median {old:.5g}: worse by {worse:+.2%}"
                ok &= worse <= m["bound"]
            print(line)
    if args.save:
        Path(args.save).write_text(json.dumps(saved, indent=1))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

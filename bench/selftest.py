"""Self-test of the benchmark's checks.

Runs every operation of every workload once and shows that its answer
passes the check, then feeds the check a perturbed copy of the answer
and shows that it is reported as failed.  Operations of the known eigen
fault must fail unperturbed.

    python3 bench/selftest.py [--seed 7] [--workloads riquier,cli]

Exits 0 when every check behaved as expected.
"""

from __future__ import annotations

import argparse
import os
import shutil
import sys
from pathlib import Path

from run import BLAS_ENV, ROOT, WORKLOADS

os.environ.update(BLAS_ENV)
os.environ["PYTHONPATH"] = str(ROOT / "src")
sys.path.insert(0, str(ROOT / "src"))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--workloads", default=",".join(WORKLOADS))
    args = ap.parse_args()

    import warnings

    import polyharm as ph

    from workloads import WORKLOADS as BUILD

    warnings.filterwarnings("ignore", "characteristic-polynomial", RuntimeWarning)
    scratch = Path(__file__).resolve().parent / "out" / f"selftest-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    bad = 0
    try:
        for name in args.workloads.split(","):
            wl = BUILD[name](ph, args.seed, str(scratch))
            for op in wl.round:
                try:
                    out = op.run()
                except Exception as exc:  # a failed operation is a verdict too
                    out, probs = None, [f"{type(exc).__name__}: {exc}"]
                else:
                    probs = op.check(out)
                if op.fault:
                    verdict = "fails (known fault)" if probs else "UNEXPECTEDLY PASSES"
                    bad += not probs
                elif probs:
                    verdict = f"WRONG: {probs[0]}"
                    bad += 1
                else:
                    poked = op.check(op.poke(out))
                    verdict = f"passes; perturbed answer fails: {poked[0]}" if poked \
                        else "passes; PERTURBED ANSWER ALSO PASSES"
                    bad += not poked
                print(f"{name:10s} {op.name:38s} {verdict[:110]}")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print("self-test", "failed" if bad else "passed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())

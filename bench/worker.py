"""One workload in one process: set-up, warm-up, timed rounds, metrics.

Started by ``run.py`` with single-threaded BLAS already in the
environment.  Prints one JSON object on its last line of output.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import warnings

MIN_OPS = 40          # fewest operations a run times, however short --seconds is

PER_LAYER = {
    "chain.build_chain.self_ms": ("chain.build_chain", "self_ms", "ms"),
    "chain.sub_chain.calls": ("chain.sub_chain", "calls", "count"),
    "chain.boundary_distance.calls": ("chain.boundary_distance", "calls", "count"),
    "formats.load_chain.self_ms": ("formats.load_chain", "self_ms", "ms"),
    "linalg.lu_factor.calls": ("linalg.lu_factor", "calls", "count"),
    "linalg.lu_factor.self_ms": ("linalg.lu_factor", "self_ms", "ms"),
    "linalg.lu_solve.rhs_columns": ("linalg.lu_solve", "rhs_columns", "count"),
    "linalg.lu_solve.self_ms": ("linalg.lu_solve", "self_ms", "ms"),
    "linalg.eigenvalues.calls": ("linalg.eigenvalues", "calls", "count"),
    "linalg.eigenvalues.self_ms": ("linalg.eigenvalues", "self_ms", "ms"),
    "linalg.determinant.calls": ("linalg.determinant", "calls", "count"),
    "linalg.nullspace_info.self_ms": ("linalg.nullspace_info", "self_ms", "ms"),
    "bvp.green.calls": ("bvp.green", "calls", "count"),
    "bvp.green.self_ms": ("bvp.green", "self_ms", "ms"),
    "bvp.solve_riquier.self_ms": ("bvp.solve_riquier", "self_ms", "ms"),
    "martin.martin_kernel.self_ms": ("martin.martin_kernel", "self_ms", "ms"),
    "martin.riquier_via_kernels.self_ms": ("martin.riquier_via_kernels", "self_ms", "ms"),
    "spectral.jordan_basis.self_ms": ("spectral.jordan_basis", "self_ms", "ms"),
    "spectral.network_spectrum_check.self_ms": ("spectral.network_spectrum_check", "self_ms", "ms"),
    "simulate.simulate_hitting.self_ms": ("simulate.simulate_hitting", "self_ms", "ms"),
    "simulate.steps": ("simulate.simulate_hitting", "steps", "count"),
    "simulate.simulate_hitting.peak_alloc_mb": ("simulate.simulate_hitting", "peak_alloc_mb", "MB"),
    "tree.tree_green.self_ms": ("tree.tree_green", "self_ms", "ms"),
    "tree.section_kernel.self_ms": ("tree.section_kernel", "self_ms", "ms"),
    "tree.kernel_consistency_check.self_ms": ("tree.kernel_consistency_check", "self_ms", "ms"),
    "tree.audit_binomial_identities.self_ms": ("tree.audit_binomial_identities", "self_ms", "ms"),
    "cli.main.self_ms": ("cli.main", "self_ms", "ms"),
}


def cpu_seconds():
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


class Record:
    """Latency, CPU time and verdict of every operation run."""

    def __init__(self, tracer=None):
        self.latency, self.cpu = [], []
        self.failed = 0
        self.problems = []      # failures outside the known faults
        self.tracer = tracer

    def run(self, op):
        if self.tracer is not None:
            self.tracer.op = len(self.latency)
        c0, t0 = cpu_seconds(), time.perf_counter()
        try:
            out, err = op.run(), None
        except Exception as exc:  # the program failed this operation; count it, go on
            out, err = None, f"{type(exc).__name__}: {exc}"
        self.latency.append(time.perf_counter() - t0)
        self.cpu.append(cpu_seconds() - c0)
        if self.tracer is not None:
            self.tracer.op = None
        probs = [err] if err else op.check(out)
        if probs:
            self.failed += 1
            if not op.fault:
                self.problems.append(f"{op.name}: {'; '.join(map(str, probs[:3]))}")

    def rounds(self, ops, seconds, min_rounds):
        """Whole rounds until ``seconds`` have passed, at least ``min_rounds``."""
        start, done = time.perf_counter(), 0
        while done < min_rounds or time.perf_counter() - start < seconds:
            for op in ops:
                self.run(op)
            done += 1


def end_to_end(rec, k, children_rss):
    """``k`` operations per round; the latencies are whole rounds in order."""
    lat = rec.latency
    # the median over the round's operations of each one's mean latency: a
    # pooled median hops between neighbouring operations as the machine's
    # speed drifts (bench/README.md, Metrics)
    per_op = [statistics.fmean(lat[i::k]) for i in range(k)]
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if children_rss:
        rss = max(rss, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return {
        "ops_per_s": (len(lat) / sum(lat), "1/s"),
        "latency_p50_ms": (statistics.median(per_op) * 1e3, "ms"),
        "cpu_ms_per_op": (sum(rec.cpu) / len(lat) * 1e3, "ms"),
        "peak_rss_mb": (rss / 1024.0, "MB"),
    }


def import_ms(samples=3):
    times = []
    for _ in range(samples):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import polyharm"], check=True, timeout=60)
        times.append((time.perf_counter() - t0) * 1e3)
    return statistics.median(times)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--t0", type=float, required=True, help="time.monotonic() at spawn")
    ap.add_argument("--outdir", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    import polyharm as ph

    from spans import Tracer
    from workloads import WORKLOADS

    # the spectral workload goes past the eigen route's dimension warning on purpose
    warnings.filterwarnings("ignore", "characteristic-polynomial", RuntimeWarning)
    scratch = os.path.join(args.outdir, f"run-{os.getpid()}")
    os.makedirs(scratch, exist_ok=True)
    tracer = None
    if args.trace:
        import polyharm.cli  # noqa: F401  (bind every module before wrapping)
        import polyharm.formats  # noqa: F401
        tracer = Tracer()
        tracer.install()
        tracer.op = "setup"
    try:
        extra = {"in_process": True} if args.trace and args.workload == "cli" else {}
        wl = WORKLOADS[args.workload](ph, args.seed, scratch, **extra)
        if tracer is not None:
            tracer.uninstall()
            tracer.op = None
        warm = Record()
        warm.rounds(wl.round, 0, 1)
        setup_s = time.monotonic() - args.t0
        result = {"setup_s": setup_s, "problems": warm.problems}
        if not args.setup_only:
            result.update(measure(args, wl, tracer, warm))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(json.dumps(result))
    return 0


def measure(args, wl, tracer, warm):
    if not args.trace:
        rec = Record()
        rec.rounds(wl.round, args.seconds, -(-MIN_OPS // len(wl.round)))
        metrics = end_to_end(rec, len(wl.round), args.workload == "cli")
    else:
        # untraced and traced rounds alternate, so both see the same machine
        rec = Record()
        untraced = traced = 0.0
        traced_ops, n, start = set(), 0, time.perf_counter()
        while n < 1 or time.perf_counter() - start < args.seconds:
            first = len(rec.latency)
            rec.rounds(wl.round, 0, 1)
            untraced += sum(rec.latency[first:])
            first = len(rec.latency)
            tracer.install()
            rec.tracer = tracer
            rec.rounds(wl.round, 0, 1)
            rec.tracer = None
            tracer.uninstall()
            traced += sum(rec.latency[first:])
            traced_ops.update(range(first, len(rec.latency)))
            n += 1
        layers = tracer.layers(traced_ops)
        setup = tracer.layers({"setup"})
        metrics = {}
        for name, (span, key, unit) in PER_LAYER.items():
            source = setup if name == "chain.build_chain.self_ms" else layers
            total = source[span][key] if span in source else 0.0
            per = 1 if source is setup or key.startswith("peak") else n
            metrics[name] = (total / per, unit)
        metrics["cli.import_ms"] = (import_ms(), "ms")
        metrics["trace.overhead_pct"] = ((traced / untraced - 1.0) * 100.0, "%")
        metrics["trace.spans"] = (sum(s[4] in traced_ops for s in tracer.spans) / n, "count")
        tracer.dump(os.path.join(args.outdir, f"trace-{args.workload}-{args.seed}.jsonl"))
    problems = warm.problems + rec.problems
    return {
        "correct": not problems,
        "attempted": len(rec.latency),
        "failed": rec.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "problems": problems,
    }


if __name__ == "__main__":
    sys.exit(main())

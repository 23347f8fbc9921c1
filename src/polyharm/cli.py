"""Command-line surface.

Every subcommand runs the relevant solver on one input file and emits a
run report: command echo, content digest of the input, numeric results,
residuals, the tolerances in force and one pass/fail verdict per check.
``--json`` switches from the table rendering to machine-readable JSON.

:func:`main` does the steps every subcommand shares, each once: it reads
and parses the input file, parses ``--lambda`` where the subcommand
takes it, and maps each exception to an exit code.  A subcommand
declares its file parser, whether it takes ``--lambda`` and the verdict
a solver refusal fails where its parser is built, so a ``cmd_*`` body
holds only solver calls and report lines.

Exit codes: 0 all verdicts pass; 1 a verdict failed, including a solver
refusal (a :class:`~polyharm.errors.PolyharmError` such as a spectral
parameter), which fails the verdict its subcommand names; 2 an input
problem (a malformed, missing or unreadable file, a bad flag value, a
request too large for memory), and any refusal in ``validate`` and
``tree``, which name no verdict.  No exit prints a traceback.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time

import numpy as np

from . import bvp, martin, simulate, spectral, tree as treemod
from .chain import boundary_distance
from .errors import PolyharmError
from .formats import (
    FormatError,
    _from_json,
    chain_from_doc,
    chain_to_doc,
    jsonable,
    load_vector,
    parse_complex,
    tree_from_doc,
)
from .linalg import CLUSTER_TOL, PIVOT_RTOL

USAGE_ERROR = 2


def _scalar(text: str, flag: str) -> complex:
    """:func:`parse_complex`, naming the flag the text came from."""
    try:
        return parse_complex(text)
    except FormatError as exc:
        raise FormatError(f"{flag}: {exc}") from None


def _positive(text: str) -> float:
    """Type of the float flags: a positive finite number, or a usage
    error that argparse reports under the flag's name (exit 2)."""
    try:
        x = float(text)
    except ValueError:
        x = float("nan")
    if not 0.0 < x < float("inf"):
        raise argparse.ArgumentTypeError(f"{text!r} is not a positive finite number")
    return x


class Report:
    def __init__(self, argv):
        self.doc = {
            "command": " ".join(argv),
            "input_digest": None,
            "results": {},
            "residuals": {},
            "tolerances": {},
            "verdicts": {},
            "elapsed_seconds": None,
        }
        self._t0 = time.perf_counter()

    def load(self, path: str, parse):
        """``parse(doc, path)`` of the JSON input file at ``path``, whose
        bytes are read once for both the parse and the digest."""
        with open(path, "rb") as fh:
            return _from_json(self._digest(fh.read()), path, parse)

    def _digest(self, data: bytes) -> bytes:
        """Record the digest of ``data`` and pass it on.  Held by no local
        here, the bytes are freed by ``_from_json`` once decoded, before
        the parse starts."""
        self.doc["input_digest"] = hashlib.sha256(data).hexdigest()
        return data

    def result(self, key, value):
        self.doc["results"][key] = value

    def residual(self, key, value):
        self.doc["residuals"][key] = value

    def tolerance(self, key, value):
        self.doc["tolerances"][key] = value

    def verdict(self, key, ok):
        self.doc["verdicts"][key] = bool(ok)

    def fail(self, key, error: Exception):
        self.doc["verdicts"][key] = False
        self.doc["results"][f"{key}_error"] = f"{type(error).__name__}: {error}"

    def finish(self, as_json: bool) -> int:
        self.doc["elapsed_seconds"] = time.perf_counter() - self._t0
        doc = jsonable(self.doc)
        if as_json:
            print(json.dumps(doc, indent=2, sort_keys=True))
        else:
            _render_table(doc)
        return 0 if all(self.doc["verdicts"].values()) else 1


def _render_table(doc):
    print(f"command:  {doc['command']}")
    if doc["input_digest"]:
        print(f"input:    sha256:{doc['input_digest'][:16]}...")
    for section in ("results", "residuals", "tolerances"):
        if doc[section]:
            print(f"{section}:")
            for k, v in doc[section].items():
                print(f"  {k:<28} {_fmt(v)}")
    print("verdicts:")
    for k, v in doc["verdicts"].items():
        print(f"  {k:<28} {'PASS' if v else 'FAIL'}")
    print(f"elapsed:  {doc['elapsed_seconds']:.4f} s")


def _fmt(v):
    if isinstance(v, float):
        return f"{v:.9g}"
    if isinstance(v, list) and len(v) == 2 and all(isinstance(x, (int, float)) for x in v):
        return f"{v[0]:.9g}{v[1]:+.9g}i"
    if isinstance(v, dict):
        return "{" + ", ".join(f"{k}: {_fmt(x)}" for k, x in v.items()) + "}"
    return str(v)


def _vector_result(chain, values) -> dict:
    return {vid: complex(z) for vid, z in zip(chain.vertices, values)}


# ------------------------------------------------------------ subcommands

def cmd_validate(args, rep: Report, chain) -> None:
    rep.result("vertices", len(chain.vertices))
    rep.result("interior", list(chain.interior_ids))
    rep.result("boundary", list(chain.boundary_ids))
    rep.result("boundary_distance", boundary_distance(chain))
    rep.verdict("valid_chain", True)
    if args.emit:
        with open(args.emit, "w") as fh:
            json.dump(jsonable(chain_to_doc(chain)), fh, indent=2, sort_keys=True)
        rep.result("emitted", args.emit)


def cmd_spectrum(args, rep: Report, chain) -> None:
    rep.tolerance("cluster_tol", args.cluster_tol)
    ispec = spectral.interior_spectrum(chain, cluster_tol=args.cluster_tol)
    rep.result("eigenvalues", list(ispec.spectrum.eigenvalues))
    rep.result("multiplicities", list(ispec.spectrum.alg_mult))
    rep.result("rho", ispec.rho)
    rep.verdict("spectral_radius_below_one", ispec.rho < 1.0 - spectral.RHO_MARGIN)


def _solution_report(rep: Report, sol) -> None:
    """Residual, smallest pivot ratio, their limits and the verdicts of a
    solve."""
    rep.result("min_pivot_ratio", sol.min_pivot_ratio)
    rep.residual("max_residual", sol.max_residual)
    rep.tolerance("residual_tol", sol.tol)
    rep.tolerance("pivot_rtol", PIVOT_RTOL)
    rep.verdict("solved", True)
    rep.verdict("residual_within_tol", sol.residual_ok)


def cmd_dirichlet(args, rep: Report, chain) -> None:
    sol = bvp.solve_dirichlet(chain, args.lam, load_vector(args.g))
    rep.result("values", _vector_result(chain, sol.values))
    _solution_report(rep, sol)


def cmd_riquier(args, rep: Report, chain) -> None:
    gs = [load_vector(p) for p in args.g]
    sol = bvp.solve_riquier(bvp.RiquierProblem(args.lam, tuple(
        bvp.boundary_vector(chain, g) for g in gs)), chain)
    rep.result("values", _vector_result(chain, sol.values))
    rep.result("order", sol.order)
    rep.result("nth_interior", list(sol.nth_interior))
    _solution_report(rep, sol)


def cmd_global_basis(args, rep: Report, chain) -> None:
    rep.tolerance("cluster_tol", CLUSTER_TOL)
    if abs(args.lam - 1.0) <= CLUSTER_TOL:
        # at lam = 1 the global space is the classical harmonic one
        basis = bvp.free_polyharmonic_space(chain, 1.0, args.n)
    else:
        basis = spectral.global_polyharmonic_basis(chain, args.lam, args.n)
    rep.result("dimension", len(basis))
    for i, v in enumerate(basis):
        rep.result(f"basis_{i}", _vector_result(chain, v))
    rep.verdict("basis_computed", True)


def cmd_martin(args, rep: Report, chain) -> None:
    mk = martin.martin_kernel(chain, args.lam, args.origin, n=args.order)
    for j, w in enumerate(chain.boundary_ids):
        rep.result(f"K(.,{w})", {vid: complex(mk.k[i, j])
                                 for i, vid in enumerate(chain.vertices)})
    for r in range(2, args.order + 1):
        for j, w in enumerate(chain.boundary_ids):
            rep.result(f"K{r}(.,{w})", {vid: complex(mk.higher[r - 1][i, j])
                                        for i, vid in enumerate(chain.interior_ids)})
    off = float(np.abs(mk.k[chain.vertex_index(args.origin)] - 1.0).max())
    rep.residual("origin_normalisation", off)
    rep.verdict("kernel_computed", True)
    rep.verdict("origin_row_is_one", off == 0.0)


def cmd_simulate(args, rep: Report, chain) -> None:
    cfg = simulate.SimConfig(trials=args.trials, seed=args.seed,
                             max_steps=args.max_steps, start=args.start)
    est = simulate.simulate_hitting(chain, cfg)
    for key, values, kind in (("counts", est.counts, int),
                              ("hit_fraction", est.hit_fraction, float),
                              ("std_error", est.std_error, float)):
        rep.result(key, {w: kind(x) for w, x in zip(chain.boundary_ids, values)})
    rep.result("censored", est.censored)
    rep.result("steps", est.steps)
    rep.verdict("censoring_below_1e-3", not est.censor_flagged)
    if not args.compare:
        return
    gm = bvp.green(chain, _scalar(args.compare_lambda, "--compare-lambda"))
    cmp_rep = simulate.compare_to_analytic(est, gm)
    if cmp_rep.underpowered:
        rep.result("underpowered", True)
    if cmp_rep.mode == "hitting":
        rep.result("z_scores", dict(cmp_rep.z_scores))
        rep.tolerance("abs_z_limit", 5.0)
        rep.verdict("z_within_5_sigma",
                    (not cmp_rep.underpowered) and cmp_rep.max_abs_z <= 5.0)
    else:
        for w, s in cmp_rep.series.items():
            rep.result(f"series_{w}", {
                "empirical": s.empirical, "analytic": s.analytic,
                "sigma": s.sigma, "truncation_bound": s.truncation_bound,
            })
        rep.verdict("series_within_3_sigma", cmp_rep.all_series_within)


def cmd_check_derivative(args, rep: Report, chain) -> None:
    h = args.h if args.h is not None else 1e-4 * (1 + abs(args.lam))
    rep.tolerance("step", h)
    limit = args.limit if args.limit is not None else max(1e-6, 100.0 * h * h)
    rep.tolerance("deviation_limit", limit)
    dev = martin.derivative_identity_check(chain, args.lam, args.r, h)
    rep.result("max_deviation", dev)
    rep.verdict("derivative_identity", dev <= limit)


_TREE_FLAGS = {"green": ("x", "y"), "kr": ("x", "w"), "ktr": ("x", "arc"),
               "eval": ("nu", "x"), "identity-check": ("w",)}


def cmd_tree(args, rep: Report, loaded) -> None:
    tree, stored_section = loaded
    section = args.section.split(",") if args.section else stored_section
    if args.subop in ("green", "kr", "identity-check") and not section:
        raise ValueError("this tree operation needs a section "
                         "(in the file or via --section)")
    missing = [f"--{n}" for n in _TREE_FLAGS[args.subop] if getattr(args, n) is None]
    if missing:
        raise ValueError(f"tree {args.subop} needs {', '.join(missing)}")
    if args.subop == "green":
        val = treemod.tree_green(tree, section, args.lam, args.x, args.y)
        gm = bvp.green(treemod.restrict_to_section(tree, section), args.lam)
        general = complex(gm.g[gm.chain.interior.index(gm.chain.vertex_index(args.x)),
                               gm.chain.interior.index(gm.chain.vertex_index(args.y))])
        tol = 1e-12 * (1 + abs(val))
        rep.result("green", val)
        rep.result("general_solver", general)
        rep.residual("closed_vs_general", abs(val - general))
        rep.tolerance("agreement_tol", tol)
        rep.verdict("closed_form_matches", abs(val - general) <= tol)
    elif args.subop == "kr":
        rep.result("kernel", treemod.section_kernel(tree, section, args.lam, args.r,
                                                    args.x, args.w))
        rep.verdict("computed", True)
    elif args.subop == "ktr":
        rep.result("kernel", treemod.boundary_kernel(tree, args.lam, args.r, args.x, args.arc))
        rep.verdict("computed", True)
    elif args.subop == "eval":
        nus = [load_vector(p) for p in args.nu]
        rep.result("value", treemod.eval_polyharmonic(tree, args.lam, nus, args.x))
        rep.verdict("computed", True)
    else:  # identity-check
        out = treemod.kernel_consistency_check(tree, section, args.lam, args.n, args.w)
        limit = 1e-10 * (1 + max((abs(v) for v in out.lhs.values()), default=0.0))
        rep.result("lhs", dict(out.lhs))
        rep.result("rhs", dict(out.rhs))
        rep.residual("max_deviation", out.max_deviation)
        rep.tolerance("deviation_limit", limit)
        rep.result("alternate_identity_ok", out.alternate_identity_ok)
        if out.alternate_counterexample:
            a, b, n, l, r = out.alternate_counterexample
            rep.result("alternate_counterexample",
                       f"|x|={a} |w|={b} n={n}: {l} != {r}")
        rep.verdict("derived_identity_exact", out.derived_identity_ok)
        rep.verdict("kernel_expansion_matches", out.max_deviation <= limit)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="polyharm",
        description="Boundary-value solvers on finite absorbing Markov chains",
    )
    ap.add_argument("--json", action="store_true", help="emit the report as JSON")
    sub = ap.add_subparsers(dest="command", required=True)

    def command(name, func, help, parse=chain_from_doc, lam=False, verdict=None):
        """A subcommand of one input file read by ``parse``, taking
        ``--lambda`` when ``lam``.  A solver's PolyharmError fails
        ``verdict`` (exit 1); with ``verdict=None`` it is a usage error."""
        p = sub.add_parser(name, help=help)
        # --json may follow the subcommand too; SUPPRESS keeps this
        # parser's default from clobbering a --json given before it
        p.add_argument("--json", action="store_true", default=argparse.SUPPRESS,
                       help=argparse.SUPPRESS)
        p.add_argument("input", metavar="tree" if parse is tree_from_doc else "chain")
        if lam:
            p.add_argument("--lambda", dest="lam", required=True)
        p.set_defaults(func=func, parse=parse, verdict=verdict)
        return p

    p = command("validate", cmd_validate, "validate a chain (or network) file")
    p.add_argument("--emit", help="write the canonical chain JSON here")

    p = command("spectrum", cmd_spectrum, "interior spectrum and spectral radius",
                verdict="spectral_radius_below_one")
    p.add_argument("--cluster-tol", type=_positive, default=CLUSTER_TOL)

    p = command("dirichlet", cmd_dirichlet, "solve the boundary extension problem",
                lam=True, verdict="solved")
    p.add_argument("--g", required=True, help="boundary data file")

    p = command("riquier", cmd_riquier, "solve the order-n tower", lam=True, verdict="solved")
    p.add_argument("--g", required=True, type=lambda s: s.split(","),
                   help="comma-separated boundary data files g1.json,g2.json,...")

    p = command("global-basis", cmd_global_basis, "basis of global order-n solutions",
                lam=True, verdict="basis_computed")
    p.add_argument("--n", type=int, required=True)

    p = command("martin", cmd_martin, "Martin kernel at an origin", lam=True,
                verdict="kernel_computed")
    p.add_argument("--origin", required=True)
    p.add_argument("--order", type=int, default=1)

    p = command("tree", cmd_tree, "closed-form forward-tree operations",
                parse=tree_from_doc, lam=True)
    p.add_argument("subop", choices=list(_TREE_FLAGS))
    p.add_argument("--section", help="comma-separated section ids (overrides file)")
    p.add_argument("--x")
    p.add_argument("--y")
    p.add_argument("--w")
    p.add_argument("--arc")
    p.add_argument("--r", type=int, default=1)
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--nu", type=lambda s: s.split(","),
                   help="comma-separated distribution files")

    p = command("simulate", cmd_simulate, "Monte Carlo hitting estimates", verdict="compared")
    p.add_argument("--start", required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--max-steps", type=int, default=10_000)
    p.add_argument("--compare", action="store_true",
                   help="compare against the analytic hitting matrix")
    p.add_argument("--compare-lambda", default="1",
                   help="resolvent parameter for the comparison (default 1)")

    p = command("check-derivative", cmd_check_derivative, "finite-difference resolvent identity",
                lam=True, verdict="derivative_identity")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--h", type=_positive)
    p.add_argument("--limit", type=_positive, help="deviation limit (default 100 h^2)")
    return ap


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser().parse_args(argv)
    rep = Report(argv)
    try:
        loaded = rep.load(args.input, args.parse)
        if "lam" in args:
            args.lam = _scalar(args.lam, "--lambda")
        try:
            args.func(args, rep, loaded)
        except PolyharmError as exc:
            if args.verdict is None:
                raise
            rep.fail(args.verdict, exc)
    except (ValueError, OSError, MemoryError, PolyharmError) as exc:
        # input problems (FormatError, JSON errors and missing tree flags are
        # ValueErrors), and the refusals of a subcommand that names no verdict
        kind = f"{type(exc).__name__}: " if isinstance(exc, (PolyharmError, MemoryError)) else ""
        print(f"error: {kind}{exc}", file=sys.stderr)
        return USAGE_ERROR
    return rep.finish(args.json)


if __name__ == "__main__":
    sys.exit(main())

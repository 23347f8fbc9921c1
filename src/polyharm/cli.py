"""Command-line surface.

Every subcommand loads its input, runs the relevant solver, and emits a
run report: command echo, content digest of the input, numeric results,
residuals, the tolerances in force and one pass/fail verdict per check.
``--json`` switches from the table rendering to machine-readable JSON.

Exit codes: 0 all verdicts pass, 1 a numeric verdict failed (including
solver errors like a spectral parameter), 2 malformed input or usage.
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
    chain_to_doc,
    jsonable,
    load_chain,
    load_tree,
    load_vector,
    parse_complex,
)
from .linalg import CLUSTER_TOL

USAGE_ERROR = 2


class InputError(Exception):
    """Malformed input; exits with code 2."""


def _digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


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

    def digest(self, path):
        self.doc["input_digest"] = _digest(path)

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

def cmd_validate(args, rep: Report) -> None:
    chain = load_chain(args.chain)
    rep.digest(args.chain)
    rep.result("vertices", len(chain.vertices))
    rep.result("interior", list(chain.interior_ids))
    rep.result("boundary", list(chain.boundary_ids))
    rep.result("boundary_distance", boundary_distance(chain))
    rep.verdict("valid_chain", True)
    if args.emit:
        with open(args.emit, "w") as fh:
            json.dump(jsonable(chain_to_doc(chain)), fh, indent=2, sort_keys=True)
        rep.result("emitted", args.emit)


def cmd_spectrum(args, rep: Report) -> None:
    chain = load_chain(args.chain)
    rep.digest(args.chain)
    rep.tolerance("cluster_tol", args.cluster_tol)
    try:
        ispec = spectral.interior_spectrum(chain, cluster_tol=args.cluster_tol)
    except PolyharmError as exc:
        rep.fail("spectral_radius_below_one", exc)
        return
    rep.result("eigenvalues", list(ispec.spectrum.eigenvalues))
    rep.result("multiplicities", list(ispec.spectrum.alg_mult))
    rep.result("rho", ispec.rho)
    rep.verdict("spectral_radius_below_one", ispec.rho < 1.0 - spectral.RHO_MARGIN)


def cmd_dirichlet(args, rep: Report) -> None:
    chain = load_chain(args.chain)
    rep.digest(args.chain)
    lam = parse_complex(args.lam)
    g = load_vector(args.g)
    try:
        sol = bvp.solve_dirichlet(chain, lam, g)
    except PolyharmError as exc:
        rep.fail("solved", exc)
        return
    rep.result("values", _vector_result(chain, sol.values))
    rep.residual("max_residual", sol.max_residual)
    rep.tolerance("residual_tol", sol.tol)
    rep.verdict("solved", True)
    rep.verdict("residual_within_tol", sol.residual_ok)


def cmd_riquier(args, rep: Report) -> None:
    chain = load_chain(args.chain)
    rep.digest(args.chain)
    lam = parse_complex(args.lam)
    gs = [load_vector(p) for p in args.g]
    try:
        sol = bvp.solve_riquier(bvp.RiquierProblem(lam, tuple(
            bvp.boundary_vector(chain, g) for g in gs)), chain)
    except PolyharmError as exc:
        rep.fail("solved", exc)
        return
    rep.result("values", _vector_result(chain, sol.values))
    rep.result("order", sol.order)
    rep.result("nth_interior", list(sol.nth_interior))
    rep.residual("max_residual", sol.max_residual)
    rep.tolerance("residual_tol", sol.tol)
    rep.verdict("solved", True)
    rep.verdict("residual_within_tol", sol.residual_ok)


def cmd_global_basis(args, rep: Report) -> None:
    chain = load_chain(args.chain)
    rep.digest(args.chain)
    lam = parse_complex(args.lam)
    rep.tolerance("cluster_tol", CLUSTER_TOL)
    try:
        if abs(lam - 1.0) <= CLUSTER_TOL:
            # at lam = 1 the global space is the classical harmonic one
            basis = bvp.free_polyharmonic_space(chain, 1.0, args.n)
        else:
            basis = spectral.global_polyharmonic_basis(chain, lam, args.n)
    except PolyharmError as exc:
        rep.fail("basis_computed", exc)
        return
    rep.result("dimension", len(basis))
    for i, v in enumerate(basis):
        rep.result(f"basis_{i}", _vector_result(chain, v))
    rep.verdict("basis_computed", True)


def cmd_martin(args, rep: Report) -> None:
    chain = load_chain(args.chain)
    rep.digest(args.chain)
    lam = parse_complex(args.lam)
    try:
        mk = martin.martin_kernel(chain, lam, args.origin, n=args.order)
    except PolyharmError as exc:
        rep.fail("kernel_computed", exc)
        return
    for j, w in enumerate(chain.boundary_ids):
        rep.result(f"K(.,{w})", {vid: complex(mk.k[i, j])
                                 for i, vid in enumerate(chain.vertices)})
    for r in range(2, args.order + 1):
        for j, w in enumerate(chain.boundary_ids):
            rep.result(f"K{r}(.,{w})", {vid: complex(mk.higher[r - 1][i, j])
                                        for i, vid in enumerate(chain.interior_ids)})
    origin_row = mk.k[chain.vertex_index(args.origin)]
    rep.residual("origin_normalisation", float(np.abs(origin_row - 1.0).max()))
    rep.verdict("kernel_computed", True)
    rep.verdict("origin_row_is_one", bool(np.abs(origin_row - 1.0).max() == 0.0))


def cmd_simulate(args, rep: Report) -> None:
    chain = load_chain(args.chain)
    rep.digest(args.chain)
    cfg = simulate.SimConfig(trials=args.trials, seed=args.seed,
                             max_steps=args.max_steps, start=args.start)
    est = simulate.simulate_hitting(chain, cfg, shards=args.shards)
    rep.result("counts", {w: int(c) for w, c in zip(chain.boundary_ids, est.counts)})
    rep.result("hit_fraction", {w: float(p) for w, p
                                in zip(chain.boundary_ids, est.hit_fraction)})
    rep.result("std_error", {w: float(s) for w, s
                             in zip(chain.boundary_ids, est.std_error)})
    rep.result("censored", est.censored)
    rep.verdict("censoring_below_1e-3", not est.censor_flagged)
    if args.compare:
        lam = parse_complex(args.compare_lambda)
        try:
            gm = bvp.green(chain, lam)
        except PolyharmError as exc:
            rep.fail("compared", exc)
            return
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


def cmd_check_derivative(args, rep: Report) -> None:
    chain = load_chain(args.chain)
    rep.digest(args.chain)
    lam = parse_complex(args.lam)
    h = args.h if args.h is not None else 1e-4 * (1 + abs(lam))
    rep.tolerance("step", h)
    limit = args.limit if args.limit is not None else max(1e-6, 100.0 * h * h)
    rep.tolerance("deviation_limit", limit)
    try:
        dev = martin.derivative_identity_check(chain, lam, args.r, h)
    except PolyharmError as exc:
        rep.fail("derivative_identity", exc)
        return
    rep.result("max_deviation", dev)
    rep.verdict("derivative_identity", dev <= limit)


def _need(args, *names):
    missing = [f"--{n}" for n in names if getattr(args, n) is None]
    if missing:
        raise InputError(f"tree {args.subop} needs {', '.join(missing)}")


def cmd_tree(args, rep: Report) -> None:
    tree, stored_section = load_tree(args.tree)
    rep.digest(args.tree)
    section = args.section.split(",") if args.section else stored_section
    lam = parse_complex(args.lam)

    if args.subop in ("green", "kr", "identity-check") and not section:
        raise InputError("this tree operation needs a section "
                         "(in the file or via --section)")
    needed = {"green": ("x", "y"), "kr": ("x", "w"), "ktr": ("x", "arc"),
              "eval": ("nu", "x"), "identity-check": ("w",)}
    _need(args, *needed[args.subop])
    if args.subop == "green":
        val = treemod.tree_green(tree, section, lam, args.x, args.y)
        rep.result("green", val)
        gm = bvp.green(treemod.restrict_to_section(tree, section), lam)
        general = gm.g[gm.chain.interior.index(gm.chain.vertex_index(args.x)),
                       gm.chain.interior.index(gm.chain.vertex_index(args.y))]
        rep.result("general_solver", complex(general))
        rep.residual("closed_vs_general", abs(val - complex(general)))
        rep.tolerance("agreement_tol", 1e-12 * (1 + abs(val)))
        rep.verdict("closed_form_matches", abs(val - complex(general))
                    <= 1e-12 * (1 + abs(val)))
    elif args.subop == "kr":
        val = treemod.section_kernel(tree, section, lam, args.r, args.x, args.w)
        rep.result("kernel", val)
        rep.verdict("computed", True)
    elif args.subop == "ktr":
        val = treemod.boundary_kernel(tree, lam, args.r, args.x, args.arc)
        rep.result("kernel", val)
        rep.verdict("computed", True)
    elif args.subop == "eval":
        nus = [load_vector(p) for p in args.nu]
        val = treemod.eval_polyharmonic(tree, lam, nus, args.x)
        rep.result("value", val)
        rep.verdict("computed", True)
    elif args.subop == "identity-check":
        out = treemod.kernel_consistency_check(tree, section, lam, args.n, args.w)
        rep.result("lhs", dict(out.lhs))
        rep.result("rhs", dict(out.rhs))
        rep.residual("max_deviation", out.max_deviation)
        rep.tolerance("deviation_limit", 1e-10 * (1 + max(
            (abs(v) for v in out.lhs.values()), default=0.0)))
        rep.result("alternate_identity_ok", out.alternate_identity_ok)
        if out.alternate_counterexample:
            a, b, n, l, r = out.alternate_counterexample
            rep.result("alternate_counterexample",
                       f"|x|={a} |w|={b} n={n}: {l} != {r}")
        rep.verdict("derived_identity_exact", out.derived_identity_ok)
        rep.verdict("kernel_expansion_matches", out.max_deviation <= 1e-10 * (
            1 + max((abs(v) for v in out.lhs.values()), default=0.0)))
    else:  # pragma: no cover - argparse restricts choices
        raise InputError(f"unknown tree subop {args.subop}")


class _Subcommands:
    """Lets --json appear after the subcommand too, without the
    subparser default clobbering a flag given before it."""

    def __init__(self, sub):
        self._sub = sub

    def add_parser(self, *args, **kwargs):
        p = self._sub.add_parser(*args, **kwargs)
        p.add_argument("--json", action="store_true", default=argparse.SUPPRESS,
                       help=argparse.SUPPRESS)
        return p


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="polyharm",
        description="Boundary-value solvers on finite absorbing Markov chains",
    )
    ap.add_argument("--json", action="store_true", help="emit the report as JSON")
    sub = _Subcommands(ap.add_subparsers(dest="command", required=True))

    p = sub.add_parser("validate", help="validate a chain (or network) file")
    p.add_argument("chain")
    p.add_argument("--emit", help="write the canonical chain JSON here")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("spectrum", help="interior spectrum and spectral radius")
    p.add_argument("chain")
    p.add_argument("--cluster-tol", type=float, default=CLUSTER_TOL)
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("dirichlet", help="solve the boundary extension problem")
    p.add_argument("chain")
    p.add_argument("--lambda", dest="lam", required=True)
    p.add_argument("--g", required=True, help="boundary data file")
    p.set_defaults(func=cmd_dirichlet)

    p = sub.add_parser("riquier", help="solve the order-n tower")
    p.add_argument("chain")
    p.add_argument("--lambda", dest="lam", required=True)
    p.add_argument("--g", required=True, type=lambda s: s.split(","),
                   help="comma-separated boundary data files g1.json,g2.json,...")
    p.set_defaults(func=cmd_riquier)

    p = sub.add_parser("global-basis", help="basis of global order-n solutions")
    p.add_argument("chain")
    p.add_argument("--lambda", dest="lam", required=True)
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=cmd_global_basis)

    p = sub.add_parser("martin", help="Martin kernel at an origin")
    p.add_argument("chain")
    p.add_argument("--lambda", dest="lam", required=True)
    p.add_argument("--origin", required=True)
    p.add_argument("--order", type=int, default=1)
    p.set_defaults(func=cmd_martin)

    p = sub.add_parser("tree", help="closed-form forward-tree operations")
    p.add_argument("tree")
    p.add_argument("subop", choices=["green", "kr", "ktr", "eval", "identity-check"])
    p.add_argument("--lambda", dest="lam", required=True)
    p.add_argument("--section", help="comma-separated section ids (overrides file)")
    p.add_argument("--x")
    p.add_argument("--y")
    p.add_argument("--w")
    p.add_argument("--arc")
    p.add_argument("--r", type=int, default=1)
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--nu", type=lambda s: s.split(","),
                   help="comma-separated distribution files")
    p.set_defaults(func=cmd_tree)

    p = sub.add_parser("simulate", help="Monte Carlo hitting estimates")
    p.add_argument("chain")
    p.add_argument("--start", required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--max-steps", type=int, default=10_000)
    p.add_argument("--shards", type=int, default=1)
    p.add_argument("--compare", action="store_true",
                   help="compare against the analytic hitting matrix")
    p.add_argument("--compare-lambda", default="1",
                   help="resolvent parameter for the comparison (default 1)")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("check-derivative", help="finite-difference resolvent identity")
    p.add_argument("chain")
    p.add_argument("--lambda", dest="lam", required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--h", type=float)
    p.add_argument("--limit", type=float, help="deviation limit (default 100 h^2)")
    p.set_defaults(func=cmd_check_derivative)
    return ap


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    ap = build_parser()
    args = ap.parse_args(argv)
    rep = Report(argv)
    try:
        args.func(args, rep)
    except (FormatError, InputError, FileNotFoundError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except PolyharmError as exc:
        # structural input problems (bad chain/tree files) are usage errors
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    return rep.finish(args.json)


if __name__ == "__main__":
    sys.exit(main())

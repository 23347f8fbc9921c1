"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as
they go by; every tolerance asserted here is pinned in the test body.
"""

import time

import numpy as np

from polyharm import (
    RiquierProblem,
    SimConfig,
    build_chain,
    eigenvalues,
    free_polyharmonic_space,
    green,
    interior_spectrum,
    jordan_basis,
    martin_kernel,
    polyharmonic_residual,
    restrict_to_section,
    riquier_via_kernels,
    section_kernel,
    simulate_hitting,
    solve_dirichlet,
    solve_riquier,
    tree_green,
)
from polyharm.errors import NotInResStar
from polyharm.martin import derivative_identity_check
from polyharm.tree import audit_binomial_identities, boundary_kernel

from conftest import (
    oracle_problems,
    random_chain,
    random_resolvent_point,
    random_section,
    random_tree,
    span_projector,
)


def _report(num: int, name: str, ok: bool) -> None:
    print(f"\nACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} ({name}) failed"


def _p4():
    trans = [
        [1.0, 0.0, 0.0, 0.0],
        [0.5, 0.0, 0.5, 0.0],
        [0.0, 0.5, 0.0, 0.5],
        [0.0, 0.0, 0.0, 1.0],
    ]
    return build_chain(["w1", "a", "b", "w2"], ["a", "b"], ["w1", "w2"], trans)


def _path5():
    trans = [
        [1.0, 0.0, 0.0, 0.0, 0.0],
        [0.5, 0.0, 0.5, 0.0, 0.0],
        [0.0, 0.5, 0.0, 0.5, 0.0],
        [0.0, 0.0, 0.5, 0.0, 0.5],
        [0.0, 0.0, 0.0, 0.0, 1.0],
    ]
    return build_chain(["w1", "a", "b", "c", "w2"],
                       ["a", "b", "c"], ["w1", "w2"], trans)


def test_criterion_01_dirichlet_golden():
    c = _p4()
    sol = solve_dirichlet(c, 1.0, {"w1": 1.0, "w2": 0.0})
    ok = (abs(sol.value("a") - 2 / 3) <= 1e-12
          and abs(sol.value("b") - 1 / 3) <= 1e-12)
    const = solve_dirichlet(c, 1.0, {"w1": 1.0, "w2": 1.0})
    ok = ok and np.abs(const.values - 1.0).max() <= 1e-12
    g = {"w1": 1.0, "w2": 0.0}
    for _ in range(5):  # warm-up
        solve_dirichlet(c, 1.0, g)
    best = min(
        (lambda t0: (solve_dirichlet(c, 1.0, g), time.perf_counter() - t0)[1])(
            time.perf_counter())
        for _ in range(20)
    )
    ok = ok and best < 1e-3
    _report(1, f"dirichlet-golden (best solve {best * 1e6:.0f} us)", ok)


def test_criterion_02_hitting_mass():
    rng = np.random.default_rng(202)
    worst = 0.0
    for k in range(100):
        size = int(rng.integers(3, 51))
        c = random_chain(rng, size=size)
        gm = green(c, 1.0)
        worst = max(worst, float(np.abs(gm.f.sum(axis=1) - 1.0).max()))
    _report(2, f"hitting-mass (worst row-sum dev {worst:.2e})", worst <= 1e-9)


def test_criterion_03_riquier_golden():
    c = _p4()
    sol = solve_riquier(RiquierProblem(1.0, (
        np.zeros(2, dtype=complex), np.array([1.0, 0.0], dtype=complex))), c)
    expect = {"w1": 0.0, "a": 10 / 9, "b": 8 / 9, "w2": 0.0}
    ok = all(abs(sol.value(v) - x) <= 1e-12 for v, x in expect.items())
    # 100 random instances: the solver's own tower checks (TowerMismatch
    # beyond 1e-8) and numpy on the assembled n*k block system
    rng = np.random.default_rng(303)
    for _ in range(100):
        ch = random_chain(rng)
        rho = interior_spectrum(ch).rho
        lam = random_resolvent_point(rng, rho, margin=0.1, spread=1.5)
        n = int(rng.integers(1, 5))
        gs = tuple(rng.standard_normal(len(ch.boundary))
                   + 1j * rng.standard_normal(len(ch.boundary)) for _ in range(n))
        sol = solve_riquier(RiquierProblem(lam, gs), ch)
        ok = ok and oracle_problems(sol, ch, lam, gs) == []
    _report(3, "riquier-golden + tower checks + numpy block-system oracle", ok)


def test_criterion_04_polyharmonic_locality():
    c = _path5()
    sol = solve_riquier(RiquierProblem(1.0, (
        np.zeros(2, dtype=complex), np.array([1.0, 0.0], dtype=complex))), c)
    rep = polyharmonic_residual(c, 1.0, sol.values, 2)
    ok = set(rep.nth_interior) == {"b"} and rep.residual("b") <= 1e-9
    reported = {v: rep.residual(v) for v in ("a", "c")}
    _report(4, f"polyharmonic-locality (2nd-boundary residuals {reported})", ok)


def test_criterion_05_global_space_dimension():
    rng = np.random.default_rng(505)
    ok = True
    for k in range(50):
        c = random_chain(rng)
        lam_extra = random_resolvent_point(rng, 1.0, margin=0.1, spread=1.0)
        for n in range(1, 5):
            for lam in (1.0, lam_extra):
                basis = free_polyharmonic_space(c, lam, n)  # raises on bad rank
                ok = ok and len(basis) == len(c.boundary)
        # eigenvalue 1 of the full matrix: multiplicity |boundary|
        nb = len(c.boundary)
        tol = max(1e-8, 25 * float(np.finfo(float).eps) ** (1.0 / nb))
        spec = eigenvalues(c.trans, cluster_tol=tol)
        ok = ok and spec.mult_of(1.0, tol=max(tol, 1e-3)) == nb
    _report(5, "global-space-dimension (rank + multiplicity)", ok)


def test_criterion_06_spectral_radius():
    rng = np.random.default_rng(606)
    ok = True
    for _ in range(30):
        c = random_chain(rng)
        ok = ok and interior_spectrum(c).rho < 1.0 - 1e-10
    for _ in range(10):
        t = random_tree(rng)
        sec = random_section(rng, t)
        c = restrict_to_section(t, sec)
        p_int = c.p_int
        power = np.eye(p_int.shape[0])
        for _ in range(t.max_depth):
            power = power @ p_int
        ok = ok and np.array_equal(power, np.zeros_like(power))
    _report(6, "spectral-radius (rho < 1, exact nilpotency)", ok)


def test_criterion_07_jordan():
    trans = [[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 1.0]]
    c = build_chain(["o", "a", "w"], ["o", "a"], ["w"], trans)
    jb = jordan_basis(c, 0.0)
    ok = jb.geo_mult == 1 and jb.alg_mult == 2
    e_o = np.array([1.0, 0, 0])
    e_a = np.array([0, 1.0, 0])
    proj_dev = np.abs(
        span_projector(list(jb.chains[0])) - span_projector([e_o, e_a])).max()
    ok = ok and proj_dev <= 1e-8
    rng = np.random.default_rng(707)
    for _ in range(50):
        ch = random_chain(rng, max_interior=5, max_boundary=2, rational=True)
        spec = interior_spectrum(ch).spectrum
        for lam, mult in zip(spec.eigenvalues, spec.alg_mult):
            jbr = jordan_basis(ch, lam)
            ok = ok and sum(jbr.chain_lengths) == mult
    _report(7, f"jordan (projector dev {proj_dev:.2e}, chain sums)", ok)


def test_criterion_08_derivative_identity():
    c = _p4()
    dev = derivative_identity_check(c, 2.0, 2, h=1e-4)
    ok = dev <= 1e-6
    gm = green(c, 2.0)
    sq = gm.apply_green(np.eye(2), power=2)
    ok = ok and abs(sq[0, 0] - 68 / 225) <= 1e-12
    rng = np.random.default_rng(808)
    worst = dev
    for _ in range(10):
        ch = random_chain(rng)
        for r in (2, 3):
            d = derivative_identity_check(ch, 2.0, r, h=1e-3)
            worst = max(worst, d)
            ok = ok and d <= 1e-4
    _report(8, f"derivative-identity (worst dev {worst:.2e})", ok)


def test_criterion_09_kernel_equivalence():
    c = _p4()
    try:
        martin_kernel(c, 0.0, "a")
        ok = False  # must refuse
    except NotInResStar:
        ok = True
    rng = np.random.default_rng(909)
    done = 0
    while done < 100:
        ch = random_chain(rng)
        rho = interior_spectrum(ch).rho
        if done % 2 == 0:  # positive real points are always usable
            lam = complex(rho + 0.1 + rng.random())
        else:
            lam = random_resolvent_point(rng, rho, margin=0.1, spread=1.2)
        n = int(rng.integers(1, 4))
        gs = [rng.standard_normal(len(ch.boundary))
              + 1j * rng.standard_normal(len(ch.boundary)) for _ in range(n)]
        origin = ch.interior_ids[int(rng.integers(0, len(ch.interior)))]
        try:
            via = riquier_via_kernels(ch, lam, origin, gs)
        except NotInResStar:
            continue
        direct = solve_riquier(RiquierProblem(lam, tuple(gs)), ch)
        scale = 1.0 + float(np.abs(direct.values).max())
        ok = ok and np.abs(via.values - direct.values).max() <= 1e-8 * scale
        done += 1
    _report(9, "kernel-equivalence (100 instances + res* refusal)", ok)


def test_criterion_10_tree_closed_forms():
    rng = np.random.default_rng(1010)
    ok = True
    worst = 0.0
    for k in range(50):
        t = random_tree(rng, max_depth=4)
        sec = random_section(rng, t)
        c = restrict_to_section(t, sec)
        lam = random_resolvent_point(rng, rho=0.3, margin=0.3, spread=1.2)
        gm = green(c, lam)
        mk = martin_kernel(c, lam, t.root, n=4)
        for xi, x in enumerate(c.interior_ids):
            for yi, y in enumerate(c.interior_ids):
                dev = abs(tree_green(t, sec, lam, x, y) - gm.g[xi, yi])
                scale = 1 + abs(gm.g[xi, yi])
                worst = max(worst, dev / scale)
                ok = ok and dev <= 1e-9 * scale
            for wj, w in enumerate(c.boundary_ids):
                for r in range(1, 5):
                    closed = section_kernel(t, sec, lam, r, x, w)
                    general = mk.higher[r - 1][xi, wj]
                    scale = 1 + abs(closed) + abs(general)
                    dev = abs(closed - general)
                    worst = max(worst, dev / scale)
                    ok = ok and dev <= 1e-9 * scale
        # hitting values from the origin have an explicit closed form
        o_pos = c.interior_ids.index(t.root)
        for wj, w in enumerate(c.boundary_ids):
            closed = lam ** (-t.depth[w]) * t.measure[w]
            ok = ok and abs(gm.f[o_pos, wj] - closed) <= 1e-12 * (1 + abs(closed))
        # recursion of the unrestricted kernels along one ray
        frontier = [v for v in t.vertices if t.depth[v] == t.max_depth][0]
        ray = t.path_from_root(frontier)
        for r in range(2, 6):
            for i, x in enumerate(ray[:-1]):
                child = ray[i + 1]
                lhs = (lam * boundary_kernel(t, lam, r, x, frontier)
                       - t.forward_p[child] * boundary_kernel(t, lam, r, child, frontier))
                rhs = boundary_kernel(t, lam, r - 1, x, frontier)
                ok = ok and abs(lhs - rhs) <= 1e-10 * (1 + abs(rhs))
    _report(10, f"tree-closed-forms (worst scaled dev {worst:.2e})", ok)


def test_criterion_11_identity_audit():
    derived_ok, alternate_ok, counter = audit_binomial_identities(20, 8)
    ok = derived_ok and not alternate_ok and counter is not None
    a, b, n, lhs, rhs = counter
    _report(
        11,
        "identity-audit (derived exact; rejected variant fails at "
        f"|x|={a} |w|={b} n={n}: {lhs} != {rhs})",
        ok,
    )


def test_criterion_12_monte_carlo():
    c = _p4()
    cfg = SimConfig(trials=10**6, seed=2024, max_steps=10_000, start="a")
    t0 = time.perf_counter()
    est = simulate_hitting(c, cfg)
    elapsed = time.perf_counter() - t0
    p_hat = est.count_of("w1") / cfg.trials
    sigma = np.sqrt((2 / 3) * (1 / 3) / cfg.trials)
    ok = abs(p_hat - 2 / 3) <= 5 * sigma
    rerun = simulate_hitting(c, cfg)
    sharded = simulate_hitting(c, cfg, shards=6)
    ok = ok and np.array_equal(est.counts, rerun.counts)
    ok = ok and np.array_equal(est.counts, sharded.counts)
    ok = ok and np.array_equal(est.first_visit, sharded.first_visit)
    ok = ok and elapsed < 5.0
    _report(
        12,
        f"monte-carlo (p_hat {p_hat:.6f}, dev {abs(p_hat - 2 / 3) / sigma:.2f} sigma, "
        f"{elapsed:.2f} s)",
        ok,
    )

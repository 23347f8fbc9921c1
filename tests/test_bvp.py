import gc
import tracemalloc
import weakref

import numpy as np
import pytest

from polyharm import (
    RiquierProblem,
    build_chain,
    bvp,
    delta_matrix,
    free_polyharmonic_space,
    green,
    martin_kernel,
    polyharmonic_residual,
    riquier_via_kernels,
    solve_dirichlet,
    solve_riquier,
)
from polyharm.errors import ConsistencyError, LambdaInSpectrum, TowerMismatch
from polyharm.linalg import PIVOT_RTOL, LUFactorization

from conftest import oracle_problems, random_chain, random_resolvent_point


# ----------------------------------------------------------------- green

def test_green_p4_unit(p4):
    gm = green(p4, 1.0)
    assert np.allclose(gm.g, [[4 / 3, 2 / 3], [2 / 3, 4 / 3]], atol=1e-13)
    assert np.allclose(gm.f, [[2 / 3, 1 / 3], [1 / 3, 2 / 3]], atol=1e-13)
    assert np.allclose(gm.f.sum(axis=1), 1.0, atol=1e-9)


def test_green_p4_lambda2(p4):
    gm = green(p4, 2.0)
    assert gm.g[0, 0] == pytest.approx(8 / 15, abs=1e-13)
    assert gm.f[0, 0] == pytest.approx(4 / 15, abs=1e-13)


def test_green_rejects_spectral_lambda(p4):
    with pytest.raises(LambdaInSpectrum):
        green(p4, 0.5)


def test_green_inverse_identity_random():
    rng = np.random.default_rng(23)
    for _ in range(20):
        c = random_chain(rng)
        view_p = (np.ix_(c.interior, c.interior))
        p_int = c.trans[view_p]
        lam = random_resolvent_point(rng, rho=1.0)
        gm = green(c, lam)
        a = lam * np.eye(len(c.interior)) - p_int
        assert np.abs(a @ gm.g - np.eye(len(c.interior))).max() <= 1e-9


def test_hitting_rows_sum_to_one_random():
    rng = np.random.default_rng(29)
    for _ in range(30):
        c = random_chain(rng)
        gm = green(c, 1.0)
        assert np.abs(gm.f.sum(axis=1) - 1.0).max() <= 1e-9


# ------------------------------------------------------------- dirichlet

def test_dirichlet_constant(p4):
    sol = solve_dirichlet(p4, 1.0, {"w1": 1.0, "w2": 1.0})
    assert np.abs(sol.values - 1.0).max() <= 1e-12


def test_dirichlet_gamblers_ruin(p4):
    sol = solve_dirichlet(p4, 1.0, {"w1": 1.0, "w2": 0.0})
    assert sol.value("a") == pytest.approx(2 / 3, abs=1e-12)
    assert sol.value("b") == pytest.approx(1 / 3, abs=1e-12)
    assert sol.value("w1") == 1.0 and sol.value("w2") == 0.0
    assert sol.residual_ok


def test_dirichlet_lambda2(p4):
    sol = solve_dirichlet(p4, 2.0, {"w1": 1.0, "w2": 0.0})
    assert sol.value("a") == pytest.approx(4 / 15, abs=1e-12)
    assert sol.value("b") == pytest.approx(1 / 15, abs=1e-12)


def test_dirichlet_spectral_lambda_raises(p4):
    with pytest.raises(LambdaInSpectrum):
        solve_dirichlet(p4, -0.5, {"w1": 1.0, "w2": 0.0})


def test_maximum_principle_random():
    rng = np.random.default_rng(31)
    for _ in range(25):
        c = random_chain(rng)
        g = rng.standard_normal(len(c.boundary))
        sol = solve_dirichlet(c, 1.0, g.astype(complex))
        vals = sol.values.real
        assert vals.max() <= g.max() + 1e-12
        assert vals.min() >= g.min() - 1e-12


# --------------------------------------------------------------- riquier

def test_riquier_golden_p4(p4):
    prob = RiquierProblem(1.0, (
        np.zeros(2, dtype=complex),
        np.array([1.0, 0.0], dtype=complex),
    ))
    sol = solve_riquier(prob, p4)
    assert sol.value("a") == pytest.approx(10 / 9, abs=1e-12)
    assert sol.value("b") == pytest.approx(8 / 9, abs=1e-12)
    assert sol.value("w1") == 0.0 and sol.value("w2") == 0.0
    # second interior of P4 is empty
    assert sol.nth_interior == ()
    assert sol.residual_ok
    # hand check of the first tower stage
    assert sol.tower is not None and len(sol.tower) == 2
    f2 = sol.tower[0]
    assert f2[p4.vertex_index("a")] == pytest.approx(2 / 3, abs=1e-12)


def test_riquier_golden_path5(path5):
    prob = RiquierProblem(1.0, (
        np.zeros(2, dtype=complex),
        np.array([1.0, 0.0], dtype=complex),
    ))
    sol = solve_riquier(prob, path5)
    # hand inverse of the 3x3 system: f = (7/4, 2, 5/4) inside
    assert sol.value("a") == pytest.approx(7 / 4, abs=1e-12)
    assert sol.value("b") == pytest.approx(2.0, abs=1e-12)
    assert sol.value("c") == pytest.approx(5 / 4, abs=1e-12)
    assert set(sol.nth_interior) == {"b"}


def test_riquier_order1_equals_dirichlet(p4):
    g = np.array([0.3 + 0.2j, -1.0], dtype=complex)
    a = solve_riquier(RiquierProblem(1.5, (g,)), p4)
    b = solve_dirichlet(p4, 1.5, g)
    assert np.abs(a.values - b.values).max() <= 1e-14


def test_riquier_zero_second_layer(p4):
    prob = RiquierProblem(1.0, (
        np.array([1.0, 0.0], dtype=complex),
        np.zeros(2, dtype=complex),
    ))
    sol = solve_riquier(prob, p4)
    assert sol.value("a") == pytest.approx(2 / 3, abs=1e-12)
    assert sol.value("b") == pytest.approx(1 / 3, abs=1e-12)


def test_riquier_tower_vs_closed_random():
    rng = np.random.default_rng(37)
    for _ in range(100):
        c = random_chain(rng)
        rho = 1.0  # safe upper bound; sampling above it keeps us resolvent
        lam = random_resolvent_point(rng, rho)
        n = int(rng.integers(1, 5))
        gs = tuple(
            rng.standard_normal(len(c.boundary)) + 1j * rng.standard_normal(len(c.boundary))
            for _ in range(n)
        )
        sol = solve_riquier(RiquierProblem(lam, gs), c)  # raises TowerMismatch on fail
        assert sol.residual_ok
        assert oracle_problems(sol, c, lam, gs) == []


@pytest.mark.parametrize("size", [50, 150, 300])
@pytest.mark.parametrize("order", [1, 2, 3])
def test_riquier_against_block_system(size, order):
    """Values and every stage against numpy on the assembled n*k system,
    at interior sizes up to about 290; order 1 also through Dirichlet."""
    rng = np.random.default_rng(size + order)
    c = random_chain(rng, size=size)
    lam = random_resolvent_point(rng, rho=1.0)
    gs = tuple(rng.standard_normal(len(c.boundary)) + 1j * rng.standard_normal(len(c.boundary))
               for _ in range(order))
    assert oracle_problems(solve_riquier(RiquierProblem(lam, gs), c), c, lam, gs) == []
    if order == 1:
        assert oracle_problems(solve_dirichlet(c, lam, gs[0]), c, lam, gs) == []


def test_riquier_on_a_long_path_checks_the_nth_interior():
    """On a 40-vertex path with random steps the n-th interior is not
    empty, so the order-n check has rows to test."""
    rng = np.random.default_rng(44)
    m = 40
    names = ["w0"] + [f"x{i}" for i in range(1, m - 1)] + ["w1"]
    trans = np.zeros((m, m))
    trans[0, 0] = trans[m - 1, m - 1] = 1.0
    for i in range(1, m - 1):
        stay, left = 0.2 * rng.random(), 0.3 + 0.4 * rng.random()
        trans[i, i - 1:i + 2] = left * (1 - stay), stay, (1 - left) * (1 - stay)
    c = build_chain(names, names[1:-1], ["w0", "w1"], trans)
    for order in (1, 2, 3, 4):
        gs = tuple(rng.standard_normal(2) + 1j * rng.standard_normal(2) for _ in range(order))
        lam = 1.2 - 0.3j
        sol = solve_riquier(RiquierProblem(lam, gs), c)
        assert len(sol.nth_interior) == m - 2 * order
        assert oracle_problems(sol, c, lam, gs) == []
        assert polyharmonic_residual(c, lam, sol.values, order).ok


def _perturb_one_pivot(monkeypatch):
    """Every LU from now on has its smallest pivot scaled by 1 + 1e-6."""
    factor = bvp.lu_factor

    def perturbed(a):
        fac = factor(a)
        k = int(np.argmin(np.abs(np.diagonal(fac.lu))))
        fac.lu[k, k] *= 1 + 1e-6
        return fac

    monkeypatch.setattr(bvp, "lu_factor", perturbed)


def _skip_last_solve(monkeypatch, order):
    """The order-th back-substitution, the one giving f_1, returns its
    right-hand side unsolved."""
    solve, calls = LUFactorization.solve, [0]

    def skipping(self, b):
        calls[0] += 1
        return np.array(b, dtype=complex) if calls[0] == order else solve(self, b)

    monkeypatch.setattr(LUFactorization, "solve", skipping)


@pytest.mark.parametrize("fault", ["pivot", "skipped_solve"])
@pytest.mark.parametrize("size", [12, 40, 150, 300])
@pytest.mark.parametrize("order", [1, 2, 3])
def test_riquier_checks_catch_lu_faults(monkeypatch, fault, size, order):
    """The tower checks use P and Q, not the LU, so a wrong factorisation
    or a missing solve cannot pass them."""
    rng = np.random.default_rng(size)
    c = random_chain(rng, size=size)
    gs = tuple(rng.standard_normal(len(c.boundary)) + 1j * rng.standard_normal(len(c.boundary))
               for _ in range(order))
    if fault == "pivot":
        _perturb_one_pivot(monkeypatch)
    else:
        _skip_last_solve(monkeypatch, order)
    with pytest.raises(TowerMismatch, match="stage backward error"):
        solve_riquier(RiquierProblem(1.4 + 0.2j, gs), c)


def test_min_pivot_ratio_tracks_distance_to_spectrum():
    c = random_chain(np.random.default_rng(0), size=300)
    p_int = c.trans[np.ix_(c.interior, c.interior)]
    ev = np.linalg.eigvals(p_int)
    rho = float(ev[np.argmax(ev.real)].real)
    g = np.ones(len(c.boundary))
    near, nearer = (solve_dirichlet(c, rho + d, g).min_pivot_ratio for d in (1e-6, 1e-9))
    # measured 3.1e-4 and 3.1e-7: the smallest pivot shrinks with the distance
    assert 300 < near / nearer < 3000
    assert nearer > PIVOT_RTOL
    gm = green(c, rho + 1e-9)
    lu = gm._lu
    assert gm.min_pivot_ratio == lu.min_pivot_ratio == \
        np.abs(np.diagonal(lu.lu)).min() / lu.scale == nearer


# --------------------------------------------- one LU per (chain, lam)

@pytest.fixture
def factor_counts(monkeypatch):
    """Counts lu_factor calls made by ``green`` and keeps every right-hand
    side passed to LUFactorization.solve."""
    counts = {"factor": 0, "rhs": []}
    factor, solve = bvp.lu_factor, LUFactorization.solve

    def counting_factor(a):
        counts["factor"] += 1
        return factor(a)

    def keeping_solve(self, b):
        counts["rhs"].append(b)
        return solve(self, b)

    monkeypatch.setattr(bvp, "lu_factor", counting_factor)
    monkeypatch.setattr(LUFactorization, "solve", keeping_solve)
    return counts


def _every_solver(chain, lam, gs, origin):
    """Each consumer of the Green factorisation, once, at ``lam``, on the
    chain that ``chain()`` returns for that call."""
    return [solve_dirichlet(chain(), lam, gs[0])] + [
        solve_riquier(RiquierProblem(lam, tuple(gs[:n])), chain()) for n in (1, 2, 3)] + [
        martin_kernel(chain(), lam, origin, 2), riquier_via_kernels(chain(), lam, origin, gs[:2])]


def _arrays(results):
    for r in results:
        for name in ("values", "residuals", "k"):
            if hasattr(r, name):
                yield getattr(r, name)
        yield from (r.tower or []) if hasattr(r, "tower") else r.higher


def _random_problem(seed, size=60):
    rng = np.random.default_rng(seed)
    c = random_chain(rng, size=size)
    nb = len(c.boundary)
    gs = [rng.standard_normal(nb) + 1j * rng.standard_normal(nb) for _ in range(3)]
    return c, gs


def test_every_solver_shares_one_lu_and_one_f(factor_counts):
    c, gs = _random_problem(20)
    lam = 1.6 - 0.3j
    _every_solver(lambda: c, lam, gs, c.interior_ids[3])
    assert factor_counts["factor"] == 1
    # F = G Q, nb columns, is solved once for both kernel routes
    assert sum(b is c.q for b in factor_counts["rhs"]) == 1
    assert list(c._green) == [complex(lam)]


def test_green_shares_the_stored_factorisation(factor_counts, p4):
    gm = green(p4, 1)
    for again in (green(p4, 1.0), green(p4, np.complex128(1 + 0j))):
        assert again._lu is gm._lu and again.f is gm.f and again.g is gm.g
        assert again.lam == 1 + 0j and type(again.lam) is complex
    assert factor_counts["factor"] == 1
    assert sum(b is p4.q for b in factor_counts["rhs"]) == 1


def test_a_new_lambda_replaces_the_stored_factorisation(factor_counts, p4):
    first = green(p4, 1.0)
    second = green(p4, 2.0)
    assert second._lu is not first._lu and second.lam == 2.0
    assert list(p4._green) == [2.0]
    again = green(p4, 1.0)
    assert again._lu is not first._lu and list(p4._green) == [1.0]
    assert factor_counts["factor"] == 3
    assert np.array_equal(again.f, first.f) and np.array_equal(again.g, first.g)


def test_a_chain_no_longer_used_is_freed_at_once():
    """What the chain keeps does not refer back to it, so dropping the
    last reference frees the chain and its LU without a cycle collection."""
    c, _ = _random_problem(23, size=40)
    gm = green(c, 1.5)
    gm.f, gm.g
    refs = weakref.ref(c), weakref.ref(gm._lu)
    gc.disable()
    try:
        del c, gm
        assert [r() for r in refs] == [None, None]
    finally:
        gc.enable()


def test_a_spectral_lambda_is_refused_every_time_and_never_stored(factor_counts, p4):
    kept = green(p4, 1.0)
    for _ in range(3):
        with pytest.raises(LambdaInSpectrum):
            green(p4, 0.5)
        with pytest.raises(LambdaInSpectrum):
            solve_dirichlet(p4, 0.5, [1.0, 0.0])
    assert factor_counts["factor"] == 1 + 6
    assert list(p4._green) == [1.0] and green(p4, 1.0)._lu is kept._lu
    assert factor_counts["factor"] == 7


def test_shared_green_matrix_is_read_only(p4):
    gm = green(p4, 1.5)
    for a in (gm.f, gm.g, gm._lu.lu, gm._lu.perm):
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0] = 0


def test_the_kept_panel_inverses_are_read_only_and_follow_lam(monkeypatch):
    formed, inverses = [], LUFactorization._panel_inverses

    def counting(self):
        formed.append(self)
        return inverses(self)

    monkeypatch.setattr(LUFactorization, "_panel_inverses", counting)
    c, gs = _random_problem(24, size=150)  # 3 panels
    solve_dirichlet(c, 1.5, gs[0])
    solve_riquier(RiquierProblem(1.5, tuple(gs)), c)
    first = green(c, 1.5)._lu
    kept = first._inverses
    assert formed == [first] and len(kept) == 3
    for linv, uinv in kept:
        for a in (linv, uinv):
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[0, 0] = 0
    solve_dirichlet(c, -1.5j, gs[0])
    second = green(c, -1.5j)._lu
    assert formed == [first, second] and second._inverses is not kept
    assert first._inverses is kept


def test_shared_results_match_a_fresh_chain_bit_for_bit():
    c, gs = _random_problem(21, size=120)
    lam, origin = -1.2 + 0.7j, c.interior_ids[5]
    shared = [r for _ in range(2) for r in _every_solver(lambda: c, lam, gs, origin)]
    fresh = _every_solver(lambda: _random_problem(21, size=120)[0], lam, gs, origin)
    got, want = list(_arrays(shared)), 2 * list(_arrays(fresh))
    # values and residuals of 5 solutions, 1 + 2 + 3 tower stages, K, 2 kernel orders
    assert len(got) == len(want) == 2 * (10 + 6 + 3)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


# ---------------------------------------------------- residual reporting

def test_polyharmonic_residual_p4(p4):
    prob = RiquierProblem(1.0, (
        np.zeros(2, dtype=complex),
        np.array([1.0, 0.0], dtype=complex),
    ))
    sol = solve_riquier(prob, p4)
    rep = polyharmonic_residual(p4, 1.0, sol.values, 2)
    assert rep.nth_interior == ()
    assert rep.ok  # vacuously: nothing to check
    # residuals on the 2nd boundary are genuinely non-zero and reported
    assert rep.residual("a") > 0.1


def test_polyharmonic_residual_path5(path5):
    prob = RiquierProblem(1.0, (
        np.zeros(2, dtype=complex),
        np.array([1.0, 0.0], dtype=complex),
    ))
    sol = solve_riquier(prob, path5)
    rep = polyharmonic_residual(path5, 1.0, sol.values, 2)
    assert set(rep.nth_interior) == {"b"}
    assert rep.residual("b") <= 1e-9
    assert rep.residual("a") == pytest.approx(0.5, abs=1e-12)
    assert rep.ok


def test_dirichlet_residual_everywhere(p4):
    sol = solve_dirichlet(p4, 1.0, {"w1": 0.25, "w2": -1.5})
    rep = polyharmonic_residual(p4, 1.0, sol.values, 1)
    assert rep.residuals.max() <= 1e-9
    assert set(rep.nth_interior) == {"a", "b"}


# ---------------------------------------------------------- free space

def test_free_space_p4_lambda1_n3(p4):
    basis = free_polyharmonic_space(p4, 1.0, 3)
    assert len(basis) == 2
    # basis vectors are the harmonic extensions of the boundary deltas
    d1 = solve_dirichlet(p4, 1.0, {"w1": 1.0, "w2": 0.0})
    assert np.abs(basis[0] - d1.values).max() <= 1e-12


def test_free_space_lambda2_n2(p4):
    basis = free_polyharmonic_space(p4, 2.0, 2)
    assert len(basis) == 2
    dm = delta_matrix(p4, 2.0, 2)
    for v in basis:
        assert np.abs(dm @ v).max() <= 1e-10


def test_free_space_dimension_random():
    rng = np.random.default_rng(41)
    for _ in range(10):
        c = random_chain(rng)
        for n in (1, 2, 3, 4):
            basis = free_polyharmonic_space(c, 1.0, n)
            assert len(basis) == len(c.boundary)


def test_free_space_n1_matches_dirichlet_image(p4):
    basis = free_polyharmonic_space(p4, 1.0, 1)
    for j, v in enumerate(basis):
        g = {w: float(i == j) for i, w in enumerate(p4.boundary_ids)}
        sol = solve_dirichlet(p4, 1.0, g)
        assert np.abs(v - sol.values).max() <= 1e-12


def test_free_space_size300_against_numpy(monkeypatch):
    """One rank decision: the LU's.  No dense operator power, no
    nullspace; the basis is F against numpy and each vector's residual
    is small."""
    def refused(*args, **kwargs):
        raise AssertionError("free_polyharmonic_space made a second rank decision")

    monkeypatch.setattr(bvp, "delta_matrix", refused)
    c = random_chain(np.random.default_rng(0), size=300)
    ii, bb = list(c.interior), list(c.boundary)
    lam = 1.0
    f = np.linalg.solve(lam * np.eye(len(ii)) - c.trans[np.ix_(ii, ii)], c.trans[np.ix_(ii, bb)])
    basis = free_polyharmonic_space(c, lam, 2)
    assert len(basis) == len(bb) == 85
    for j, v in enumerate(basis):
        assert np.abs(v[ii] - f[:, j]).max() <= 1e-10
        assert np.array_equal(v[bb], np.eye(len(bb))[j])
        rep = polyharmonic_residual(c, lam, v, 2)
        assert rep.residuals.max() <= rep.tol


def test_free_space_refuses_a_wrong_basis(monkeypatch, p4):
    wrong = property(lambda self: self._lu.solve(self.chain.q) * (1 + 1e-6))
    monkeypatch.setattr(bvp.GreenMatrix, "f", wrong)
    with pytest.raises(ConsistencyError, match="order-2 residual"):
        free_polyharmonic_space(p4, 1.5, 2)


def test_delta_power_makes_no_complex_copy_of_the_real_blocks():
    """Delta_lam^3 of a complex function at k = 300 allocates less than
    one complex copy of P_int (16 k^2 bytes): the products with P_int and
    Q run in real arithmetic."""
    k, nb = 300, 8
    rng = np.random.default_rng(67)
    p, q = rng.random((k, k)) / k, rng.random((k, nb)) / k
    f = rng.random(k) + 1j * rng.random(k)
    g = rng.random(nb) + 1j * rng.random(nb)
    lam = 1.3 + 0.2j
    tracemalloc.start()
    try:
        got = bvp._delta_power(p, q, lam, f, g, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * k * k
    a = lam * np.eye(k) - p
    want = a @ a @ (a @ f - q @ g)
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

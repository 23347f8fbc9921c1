import numpy as np
import pytest

from polyharm import (
    RiquierProblem,
    derivative_identity_check,
    green,
    martin_kernel,
    riquier_via_kernels,
    solve_dirichlet,
    solve_riquier,
)
from polyharm.errors import LambdaInSpectrum, NotInResStar

from conftest import random_chain, random_resolvent_point


def test_kernel_values_p4(p4):
    mk = martin_kernel(p4, 1.0, "a")
    assert mk.entry("a", "w1") == 1.0
    assert mk.entry("a", "w2") == 1.0
    assert mk.entry("b", "w1") == pytest.approx(0.5, abs=1e-13)
    assert mk.entry("b", "w2") == pytest.approx(2.0, abs=1e-13)
    # boundary rows are scaled deltas
    assert mk.entry("w1", "w1") == pytest.approx(1 / (2 / 3), abs=1e-13)
    assert mk.entry("w1", "w2") == 0.0


def test_origin_row_exactly_one():
    rng = np.random.default_rng(79)
    for _ in range(10):
        c = random_chain(rng)
        origin = c.interior_ids[0]
        mk = martin_kernel(c, 1.0, origin)
        row = mk.k[c.vertex_index(origin)]
        assert np.abs(row - 1.0).max() == 0.0


def test_res_star_rejection_p4(p4):
    # lam = 0 is in the resolvent set but F(a, w1 | 0) = 0
    with pytest.raises(NotInResStar, match="w1"):
        martin_kernel(p4, 0.0, "a")


def test_kernel_column_solves_dirichlet(p4):
    gm = green(p4, 1.0)
    mk = martin_kernel(p4, 1.0, "a")
    for j, w in enumerate(p4.boundary_ids):
        f_ow = gm.f[p4.interior.index(p4.vertex_index("a")), j]
        g = {v: (1.0 / f_ow if v == w else 0.0) for v in p4.boundary_ids}
        sol = solve_dirichlet(p4, 1.0, g)
        assert np.abs(mk.k[:, j] - sol.values).max() <= 1e-12


def test_kernel_power_relation(p4):
    # applying (lam I - P_int)^(r-1) to the order-r kernel recovers order 1
    lam = 1.7
    mk = martin_kernel(p4, lam, "a", n=3)
    a = lam * np.eye(2) - p4.p_int
    for r in (2, 3):
        col = mk.higher[r - 1]
        back = col
        for _ in range(r - 1):
            back = a @ back
        assert np.abs(back - mk.higher[0]).max() <= 1e-8


def test_nu_recovery_round_trip():
    rng = np.random.default_rng(83)
    for _ in range(20):
        c = random_chain(rng)
        origin = c.interior_ids[0]
        lam = 1.0
        gm = green(c, lam)
        mk = martin_kernel(c, lam, origin)
        g = rng.standard_normal(len(c.boundary)) + 1j * rng.standard_normal(len(c.boundary))
        o_row = gm.f[c.interior.index(c.vertex_index(origin))]
        nu = g * o_row
        recovered = mk.k @ nu
        sol = solve_dirichlet(c, lam, g)
        assert np.abs(recovered - sol.values).max() <= 1e-9


def test_riquier_via_kernels_golden(p4):
    sol = riquier_via_kernels(p4, 1.0, "a",
                              [{"w1": 0.0, "w2": 0.0}, {"w1": 1.0, "w2": 0.0}])
    assert sol.value("a") == pytest.approx(10 / 9, abs=1e-12)
    assert sol.value("b") == pytest.approx(8 / 9, abs=1e-12)


def test_riquier_via_kernels_order1(p4):
    g = {"w1": 0.4, "w2": -0.1}
    a = riquier_via_kernels(p4, 1.3, "a", [g])
    b = solve_dirichlet(p4, 1.3, g)
    assert np.abs(a.values - b.values).max() <= 1e-12


def test_riquier_via_kernels_random():
    rng = np.random.default_rng(89)
    done = 0
    while done < 30:
        c = random_chain(rng)
        lam = random_resolvent_point(rng, rho=1.0)
        n = int(rng.integers(1, 4))
        gs = [rng.standard_normal(len(c.boundary))
              + 1j * rng.standard_normal(len(c.boundary)) for _ in range(n)]
        origin = c.interior_ids[int(rng.integers(0, len(c.interior)))]
        try:
            via = riquier_via_kernels(c, lam, origin, gs)
        except NotInResStar:
            continue  # random lam can hit a hitting-function zero
        direct = solve_riquier(RiquierProblem(lam, tuple(gs)), c)
        scale = 1.0 + np.abs(direct.values).max()
        assert np.abs(via.values - direct.values).max() <= 1e-8 * scale
        done += 1


# ---------------------------------------------------- derivative identity

def test_derivative_identity_p4_r2(p4):
    dev = derivative_identity_check(p4, 2.0, 2, h=1e-4)
    assert dev <= 1e-6
    # analytic cross-check: -G'(a,a|2) = (G(2)^2)(a,a) = 68/225
    gm = green(p4, 2.0)
    sq = gm.apply_green(np.eye(2), power=2)
    assert sq[0, 0] == pytest.approx(68 / 225, abs=1e-12)


def test_derivative_identity_p4_r3(p4):
    dev = derivative_identity_check(p4, 2.0, 3, h=1e-3)
    assert dev <= 1e-4


def test_derivative_identity_scalar_chain():
    from polyharm import build_chain

    c = build_chain(["x", "w"], ["x"], ["w"], [[0, 1], [0, 1]])
    # G = 1/lam; the identity is exact up to stencil error
    dev = derivative_identity_check(c, 2.0, 2, h=1e-5)
    assert dev <= 1e-9


def test_derivative_identity_random_chains():
    rng = np.random.default_rng(97)
    for _ in range(10):
        c = random_chain(rng)
        for r in (2, 3):
            dev = derivative_identity_check(c, 2.0, r, h=1e-3)
            assert dev <= 1e-4


def test_derivative_identity_spectrum_guard(p4):
    # a stencil node lands exactly on the spectrum at lam = 0.5 + h
    with pytest.raises(LambdaInSpectrum):
        derivative_identity_check(p4, 0.5, 2, h=1e-4)


def test_derivative_identity_fourth_order(p4):
    # r = 4 exercises the odd-order stencil with half-step offsets
    dev = derivative_identity_check(p4, 2.0, 4, h=1e-3)
    assert dev <= 1e-5

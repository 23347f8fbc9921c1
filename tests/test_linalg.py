import numpy as np
import pytest

from polyharm import RiquierProblem, build_network, bvp, martin, solve_riquier
from polyharm.errors import Singular, TowerMismatch
from polyharm import linalg, spectral
from polyharm.linalg import (
    PANEL,
    EchelonInfo,
    _echelon,
    LUFactorization,
    Spectrum,
    eigenvalues,
    lu_factor,
    lu_solve,
    nullspace,
    nullspace_info,
    real_matmul,
    residual_inf,
)

from conftest import backward_error, random_chain, solve_bound


def test_identity_solve():
    rng = np.random.default_rng(0)
    b = rng.random((4, 3)) + 1j * rng.random((4, 3))
    x = lu_solve(np.eye(4), b)
    assert np.allclose(x, b, atol=0, rtol=0)


def test_known_2x2_inverse():
    a = np.array([[1.0, -0.5], [-0.5, 1.0]])
    x = lu_solve(a, np.eye(2))
    assert np.allclose(x, [[4 / 3, 2 / 3], [2 / 3, 4 / 3]], atol=1e-14)


def test_nilpotent_is_singular():
    a = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(Singular):
        lu_solve(a, np.array([1.0, 1.0]))


def test_lu_residual_on_random_instances():
    rng = np.random.default_rng(42)
    for _ in range(5):
        a = rng.standard_normal((50, 50)) + 1j * rng.standard_normal((50, 50))
        a += 10 * np.eye(50)  # keep it well conditioned
        b = rng.standard_normal((50, 4)) + 1j * rng.standard_normal((50, 4))
        x = lu_solve(a, b)
        norm_a = np.abs(a).sum(axis=1).max()
        norm_x = np.abs(x).max()
        norm_b = np.abs(b).max()
        rel = residual_inf(a, x, b) / (norm_a * norm_x + norm_b)
        assert rel <= 1e-10


def test_lu_vector_rhs():
    a = np.array([[2.0, 1.0], [1.0, 3.0]])
    x = lu_solve(a, np.array([3.0, 4.0]))
    assert x.shape == (2,)
    assert np.allclose(a @ x, [3.0, 4.0])


def _unblocked_lu(a):
    """Reference: elimination one column at a time over the whole
    trailing block, the form the blocked factorisation must reproduce."""
    m = np.array(a, dtype=complex)
    n = m.shape[0]
    perm = np.arange(n)
    for k in range(n):
        p = k + int(np.argmax(np.abs(m[k:, k])))
        m[[k, p]] = m[[p, k]]
        perm[[k, p]] = perm[[p, k]]
        m[k + 1:, k] /= m[k, k]
        m[k + 1:, k + 1:] -= np.outer(m[k + 1:, k], m[k, k + 1:])
    return m, perm


def _random_matrix(rng, n, cplx):
    a = rng.standard_normal((n, n))
    return a + 1j * rng.standard_normal((n, n)) if cplx else a


# sizes on both sides of one and two panel widths
@pytest.mark.parametrize("n", [1, 47, 48, 49, 97, 150, 300])
@pytest.mark.parametrize("cplx", [False, True])
def test_blocked_lu_matches_numpy(n, cplx):
    rng = np.random.default_rng(n + 1000 * cplx)
    a = _random_matrix(rng, n, cplx)
    fac = lu_factor(a)
    for b in (_random_matrix(rng, n, cplx)[:, 0], _random_matrix(rng, n, cplx)[:, :20]):
        x = fac.solve(b)
        want = np.linalg.solve(a, b)
        assert x.shape == want.shape
        assert np.abs(x - want).max() <= 1e-9 * np.abs(want).max()


@pytest.mark.parametrize("n", [PANEL + 1, 2 * PANEL + 5])
def test_blocked_lu_pivots_as_unblocked(n):
    rng = np.random.default_rng(n)
    a = _random_matrix(rng, n, True)
    fac = lu_factor(a)
    ref, perm = _unblocked_lu(a)
    assert np.array_equal(fac.perm, perm)
    assert np.abs(fac.lu - ref).max() <= 1e-12 * np.abs(ref).max()


def test_singular_column_past_first_panel():
    rng = np.random.default_rng(60)
    a = rng.standard_normal((100, 100))
    a[:, 60] = a[:, 3] - 2.0 * a[:, 17] + 0.5 * a[:, 59]
    with pytest.raises(Singular, match=r"at column 60 "):
        lu_factor(a)


# one and two panel widths, either side of each, and the interior size of
# random_chain(default_rng(0), size=300)
@pytest.mark.parametrize("k", [1, 2, PANEL - 1, PANEL, PANEL + 1,
                               2 * PANEL - 1, 2 * PANEL, 2 * PANEL + 1, 215])
@pytest.mark.parametrize("cplx", [False, True])
def test_panel_solve_at_the_panel_edges(k, cplx):
    rng = np.random.default_rng(k + 1000 * cplx)
    a = _random_matrix(rng, k, cplx)
    fac = lu_factor(a)
    for b in (_random_matrix(rng, k, cplx)[:, 0], _random_matrix(rng, k, cplx)[:, :7]):
        x = fac.solve(b)
        want = np.linalg.solve(a, b)
        assert x.shape == want.shape
        assert np.abs(x - want).max() <= 1e-9 * np.abs(want).max()
        assert backward_error(a, x, b) <= solve_bound(k)


def _row_substitution_solve(fac, b):
    """Reference: the blocked solve with row-by-row substitution inside
    each diagonal panel, no kept inverses."""
    x = np.array(b, dtype=complex)[fac.perm]
    lu, n = fac.lu, len(fac.lu)
    starts = range(0, n, PANEL)
    for j0 in starts:
        j1 = min(j0 + PANEL, n)
        for k in range(j0 + 1, j1):
            x[k] -= lu[k, j0:k] @ x[j0:k]
        x[j1:] -= lu[j1:, j0:j1] @ x[j0:j1]
    for j0 in reversed(starts):
        j1 = min(j0 + PANEL, n)
        for k in range(j1 - 1, j0 - 1, -1):
            x[k] -= lu[k, k + 1:j1] @ x[k + 1:j1]
            x[k] /= lu[k, k]
        x[:j0] -= lu[:j0, j0:j1] @ x[j0:j1]
    return x


def _riquier_outcome(chain, lam, gs):
    try:
        solve_riquier(RiquierProblem(lam, gs), chain)
    except TowerMismatch:
        return "TowerMismatch"
    return "pass"


@pytest.mark.parametrize("size", [40, 300])
def test_near_spectrum_solves(size, monkeypatch):
    """lam at 1e-6, 1e-9 and 1e-11 (relative) from each of the four
    largest eigenvalues: the solve keeps its backward error, and a tower
    passes or fails its checks as it does with row substitution."""
    rng = np.random.default_rng(size)
    c = random_chain(rng, size=size)
    k, nb = len(c.interior), len(c.boundary)
    gs = tuple(rng.standard_normal(nb) + 1j * rng.standard_normal(nb) for _ in range(3))
    b = np.column_stack([c.q, rng.standard_normal(k)])
    ev = np.linalg.eigvals(c.p_int)
    panel_solve, ratios = LUFactorization.solve, []
    for z in ev[np.argsort(-np.abs(ev))[:4]]:
        for d in (1e-6, 1e-9, 1e-11):
            lam = z * (1 + d)
            a = lam * np.eye(k) - c.p_int
            fac = lu_factor(a)
            ratios.append(fac.min_pivot_ratio)
            assert backward_error(a, fac.solve(b), b) <= solve_bound(k)
            outcomes = []
            for solve in (_row_substitution_solve, panel_solve):
                monkeypatch.setattr(LUFactorization, "solve", solve)
                outcomes.append(_riquier_outcome(c, lam, gs))
            assert outcomes[0] == outcomes[1], (z, d)
    assert min(ratios) < 1e-8


@pytest.mark.parametrize("b", [np.float64(1.0), np.ones((3, 2, 1))])
def test_solve_refuses_a_rhs_that_is_not_a_vector_or_a_matrix(b):
    with pytest.raises(ValueError,
                       match=f"rhs must be a vector or a matrix, got ndim={np.ndim(b)}"):
        lu_factor(np.eye(3)).solve(b)


def test_the_empty_lu_has_no_small_pivot():
    fac = lu_factor(np.zeros((0, 0)))
    assert fac.min_pivot_ratio == float("inf")
    assert fac.solve(np.zeros(0)).shape == (0,)


def test_lu_factorizations_compare_by_identity():
    # numpy fields have no single truth value; == is identity, as on GreenMatrix
    a, b = lu_factor([[2, 1], [1, 3]]), lu_factor([[2, 1], [1, 3]])
    assert a == a and a != b


@pytest.fixture
def lu_counts(monkeypatch):
    """Counts lu_factor calls made by the solvers and the right-hand-side
    columns passed through LUFactorization.solve."""
    counts = {"factor": 0, "columns": 0}
    factor, solve = bvp.lu_factor, LUFactorization.solve

    def counting_factor(a):
        counts["factor"] += 1
        return factor(a)

    def counting_solve(self, b):
        counts["columns"] += 1 if np.ndim(b) == 1 else np.shape(b)[1]
        return solve(self, b)

    monkeypatch.setattr(bvp, "lu_factor", counting_factor)
    monkeypatch.setattr(LUFactorization, "solve", counting_solve)
    return counts


def test_one_factorisation_and_no_dense_green(lu_counts):
    c = random_chain(np.random.default_rng(8), size=60)
    nb, order = len(c.boundary), 2
    lam = 1.7 + 0.2j
    gs = [np.ones(nb), np.arange(nb, dtype=float)]
    martin.riquier_via_kernels(c, lam, c.interior_ids[0], gs)
    assert lu_counts["factor"] == 1
    # F takes nb columns, each further kernel order nb more, a Dirichlet
    # solve one; the dense G would take one per interior vertex
    for solve, most in ((lambda: bvp.solve_dirichlet(c, lam, gs[0]), nb + 1),
                        (lambda: martin.martin_kernel(c, lam, c.interior_ids[0]), nb),
                        (lambda: martin.martin_kernel(c, lam, c.interior_ids[0], order),
                         order * nb)):
        lu_counts["columns"] = 0
        solve()
        assert lu_counts["columns"] <= most < len(c.interior)


def test_one_solve_per_stage(lu_counts, monkeypatch):
    """A Dirichlet solve is one right-hand side and an order-n tower n;
    neither forms F (nb columns) nor the dense G."""
    def no_dense_green(self):
        raise AssertionError("the dense G was read")

    monkeypatch.setattr(bvp.GreenMatrix, "g", property(no_dense_green))

    def chain():  # a fresh chain for each solver: a chain keeps its LU
        return random_chain(np.random.default_rng(9), size=60)

    nb, lam = len(chain().boundary), 1.3 - 0.4j
    gs = [np.arange(nb, dtype=float) + r for r in range(3)]
    for solve, columns in [(lambda c: bvp.solve_dirichlet(c, lam, gs[0]), 1)] + [
            ((lambda c, n=n: bvp.solve_riquier(bvp.RiquierProblem(lam, tuple(gs[:n])), c)), n)
            for n in (1, 2, 3)]:
        c = chain()
        lu_counts["factor"] = lu_counts["columns"] = 0
        solve(c)
        assert (lu_counts["factor"], lu_counts["columns"]) == (1, columns)


# ------------------------------------------------------------- nullspace

def test_nullspace_full_rank_empty():
    a = np.array([[1.0, -0.5], [-0.5, 1.0]])
    assert nullspace(a, 1e-10) == []


def test_nullspace_known_kernel():
    p = np.array([[0.0, 0.5], [0.5, 0.0]])
    a = 0.5 * np.eye(2) - p
    basis = nullspace(a, 1e-10)
    assert len(basis) == 1
    v = basis[0]
    assert abs(abs(v[0]) - 1 / np.sqrt(2)) < 1e-12
    assert np.abs(a @ v).max() < 1e-12


def test_nullspace_zero_matrix():
    basis = nullspace(np.zeros((2, 2)), 1e-10)
    assert len(basis) == 2


def test_nullspace_quality_random():
    rng = np.random.default_rng(5)
    tol = 1e-10
    for _ in range(20):
        n = int(rng.integers(3, 9))
        r = int(rng.integers(1, n))
        # random rank-r matrix
        u = rng.standard_normal((n, r)) + 1j * rng.standard_normal((n, r))
        v = rng.standard_normal((r, n)) + 1j * rng.standard_normal((r, n))
        a = u @ v
        basis, info = nullspace_info(a, tol)
        assert len(basis) == n - r
        assert info.rank == r
        scale = np.abs(a).max()
        for i, x in enumerate(basis):
            assert np.abs(a @ x).max() <= 10 * tol * scale
            for y in basis[:i]:
                assert abs(y.conj() @ x) < 1e-10


def test_echelon_infos_compare_by_identity():
    (_, a), (_, b) = nullspace_info(np.eye(3), 1e-10), nullspace_info(np.eye(3), 1e-10)
    assert len(a.pivots) == 3
    assert a == a and a != b


def reference_nullspace_info(a, tol):
    """Complete-pivot elimination one matrix at a time, one
    back-substitution per free column, then modified Gram-Schmidt: the
    reference the batched elimination must match."""
    m = np.array(a, dtype=complex)
    nr, nc = m.shape
    scale = float(np.abs(m).max()) if m.size else 0.0
    thresh = tol * scale
    col_perm = np.arange(nc)
    piv_mags = []
    rank = 0
    largest_dropped = 0.0
    for k in range(min(nr, nc)):
        sub = np.abs(m[k:, k:])
        flat = int(np.argmax(sub))
        i, j = divmod(flat, nc - k)
        mag = float(sub[i, j])
        if mag <= thresh:
            largest_dropped = mag
            break
        i += k
        j += k
        if i != k:
            m[[k, i]] = m[[i, k]]
        if j != k:
            m[:, [k, j]] = m[:, [j, k]]
            col_perm[[k, j]] = col_perm[[j, k]]
        piv_mags.append(mag)
        rank += 1
        m[k + 1:, k:] -= np.outer(m[k + 1:, k] / m[k, k], m[k, k:])
    info = EchelonInfo(rank=rank, pivots=np.array(piv_mags),
                       smallest_kept=piv_mags[-1] if piv_mags else 0.0,
                       largest_dropped=largest_dropped, threshold=thresh)
    basis = []
    u = m[:rank, :]
    for j in range(rank, nc):
        y = np.zeros(nc, dtype=complex)
        y[j] = 1.0
        rhs = -u[:, j].copy()
        for k in range(rank - 1, -1, -1):
            y[k] = (rhs[k] - u[k, k + 1:rank] @ y[k + 1:rank]) / u[k, k]
        v = np.zeros(nc, dtype=complex)
        v[col_perm] = y
        basis.append(v)
    ortho = []
    for v in basis:
        for u_prev in ortho:
            v = v - (u_prev.conj() @ v) * u_prev
        nrm = np.linalg.norm(v)
        if nrm > 0:
            ortho.append(v / nrm)
    return ortho, info


def _mixed_rank_stack(rng, count, nr, nc, cplx):
    """Matrices of one shape and random rank 0..min(nr, nc), the zero
    matrix and a full-rank one among them."""
    out = []
    for b in range(count):
        r = [0, min(nr, nc)][b] if b < 2 else int(rng.integers(0, min(nr, nc) + 1))
        u, v = rng.standard_normal((nr, r)), rng.standard_normal((r, nc))
        if cplx:
            u = u + 1j * rng.standard_normal((nr, r))
            v = v + 1j * rng.standard_normal((r, nc))
        out.append(u @ v)
    return np.array(out, dtype=complex if cplx else float)


def _same_info(got, want, exact):
    assert got.rank == want.rank
    assert got.threshold == want.threshold
    if exact:
        assert np.array_equal(got.pivots, want.pivots)
        assert got.largest_dropped == want.largest_dropped
        assert got.smallest_kept == want.smallest_kept
        assert got.gap == want.gap
    else:
        # real arithmetic rounds the multipliers differently from complex
        # (numpy divides complex numbers through a reciprocal), so only the
        # kept pivots agree beyond rounding; the dropped one is noise
        np.testing.assert_allclose(got.pivots, want.pivots, rtol=1e-10)
        assert got.largest_dropped <= got.threshold
        assert (got.largest_dropped == 0.0) == (want.largest_dropped == 0.0)


@pytest.mark.parametrize("cplx", [True, False], ids=["complex", "real"])
@pytest.mark.parametrize("nr,nc", [(1, 1), (1, 5), (5, 1), (7, 7), (12, 9),
                                   (9, 12), (31, 31), (60, 60), (45, 60)])
def test_batched_echelon_matches_reference(nr, nc, cplx):
    """A batch of six matrices of one shape, each eliminated alone: the
    same ranks and thresholds as the reference loop, the same pivots bit
    for bit on complex input, and a U factor in place whose diagonal is
    those pivots."""
    rng = np.random.default_rng(1000 * nr + nc + cplx)
    tol = 1e-10
    batch = _mixed_rank_stack(rng, 6, nr, nc, cplx)
    ranks = []
    for a in batch:
        want = reference_nullspace_info(a, tol)[1]
        out = a.copy()
        perm, got = _echelon(out, tol)
        _same_info(got, want, exact=cplx)
        assert np.array_equal(np.sort(perm), np.arange(nc))
        assert np.array_equal(np.abs(np.diagonal(out[:got.rank, :got.rank])), got.pivots)
        ranks.append(got.rank)
    assert ranks[:2] == [0, min(nr, nc)]


@pytest.mark.parametrize("n", [1, 2, 5, 13, 27, 40, 60])
def test_nullspace_matches_reference(n):
    """Single matrices, sizes 1..60: the same rank decision bit for bit
    and a kernel basis spanning the reference's space.  QR with the
    phases of R's diagonal gives the Gram-Schmidt vectors themselves."""
    rng = np.random.default_rng(n)
    for a in _mixed_rank_stack(rng, 5, n, n, True):
        basis, info = nullspace_info(a, 1e-10)
        ref_basis, ref_info = reference_nullspace_info(a, 1e-10)
        _same_info(info, ref_info, exact=True)
        assert len(basis) == len(ref_basis) == n - info.rank
        if not basis:
            continue
        q, ref = np.column_stack(basis), np.column_stack(ref_basis)
        assert np.abs(q.conj().T @ q - np.eye(len(basis))).max() <= 1e-12
        assert np.abs(q @ (q.conj().T @ ref) - ref).max() <= 1e-12
        assert np.abs(ref @ (ref.conj().T @ q) - q).max() <= 1e-12
        assert np.abs(q - ref).max() <= 1e-12


@pytest.mark.parametrize("n", [1, 2, 5, 13, 27, 40, 60])
def test_real_nullspace_matches_complex(n):
    """A real matrix is eliminated in float64 and its kernel basis is
    float64; against the same matrix as complex128 the rank decision is
    the same, the pivots agree to 1e-13 of the largest one and the
    kernels' orthogonal projectors to 1e-12."""
    rng = np.random.default_rng(100 + n)
    for a in _mixed_rank_stack(rng, 5, n, n, False):
        basis, info = nullspace_info(a, 1e-10)
        cbasis, cinfo = nullspace_info(a.astype(complex), 1e-10)
        assert all(v.dtype == np.float64 for v in basis)
        assert all(v.dtype == np.complex128 for v in cbasis)
        assert (info.rank, info.threshold) == (cinfo.rank, cinfo.threshold)
        if info.rank:
            assert np.abs(info.pivots - cinfo.pivots).max() <= 1e-13 * cinfo.pivots.max()
        assert len(basis) == len(cbasis) == n - info.rank
        if basis:
            q, cq = np.column_stack(basis), np.column_stack(cbasis)
            assert np.abs(q @ q.T - cq @ cq.conj().T).max() <= 1e-12


def test_echelon_counts(monkeypatch):
    """nullspace_info is one elimination.  network_spectrum_check is one
    elimination per cluster, each on a matrix of that cluster's own
    eigenvectors, as many columns as its algebraic multiplicity, and no
    nullspace_info."""
    shapes, calls = [], {"nullspace": 0}

    def counting_echelon(m, tol):
        shapes.append(m.shape)
        return _echelon(m, tol)

    def counting_nullspace(a, tol):
        calls["nullspace"] += 1
        return nullspace_info(a, tol)

    monkeypatch.setattr(linalg, "_echelon", counting_echelon)
    monkeypatch.setattr(spectral, "_echelon", counting_echelon)
    monkeypatch.setattr(spectral, "nullspace_info", counting_nullspace)
    linalg.nullspace_info(np.ones((4, 4)), 1e-10)
    assert shapes == [(4, 4)]
    edges = [("c", "w", 1.0)]
    for k in range(4):  # four identical pendants: an eigenvalue of multiplicity 3
        edges += [("c", f"m{k}", 1.0), (f"m{k}", f"l{k}", 1.0)]
    shapes.clear()
    rep = spectral.network_spectrum_check(build_network(edges, ["w"]))
    assert 3 in rep.alg_mults
    assert shapes == [(9, mult) for mult in rep.alg_mults]
    assert calls["nullspace"] == 0


# ----------------------------------------------------------- eigenvalues

def test_eigenvalues_p4_interior():
    p = np.array([[0.0, 0.5], [0.5, 0.0]])
    spec = eigenvalues(p)
    assert sorted(z.real for z in spec.eigenvalues) == pytest.approx([-0.5, 0.5])
    assert spec.alg_mult == (1, 1)


def test_eigenvalues_nilpotent():
    spec = eigenvalues(np.array([[0.0, 1.0], [0.0, 0.0]]))
    assert spec.eigenvalues == (0j,)
    assert spec.alg_mult == (2,)


def test_eigenvalues_full_p4_multiplicity():
    trans = np.array([
        [1.0, 0.0, 0.0, 0.0],
        [0.5, 0.0, 0.5, 0.0],
        [0.0, 0.5, 0.0, 0.5],
        [0.0, 0.0, 0.0, 1.0],
    ])
    spec = eigenvalues(trans)
    assert spec.mult_of(1.0, tol=1e-6) == 2


def test_mult_of_reads_the_nearest_eigenvalue():
    """Both centres are within ``tol`` of 0.9e-6; the nearer one, 1.5e-6,
    has multiplicity 1."""
    spec = Spectrum((0j, 1.5e-6), (2, 1), 1e-8, 9.5e-7)
    assert spec.nearest(0.9e-6) == 1.5e-6
    assert spec.mult_of(0.9e-6, tol=1e-6) == 1
    assert spec.mult_of(0.2e-6, tol=1e-6) == 2
    assert spec.mult_of(3e-6, tol=1e-6) == 0
    assert Spectrum((), (), 1e-8, 1e-8).mult_of(0.0) == 0


def test_eigenvalue_trace_det_invariants():
    rng = np.random.default_rng(17)
    for _ in range(15):
        n = int(rng.integers(2, 9))
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        spec = eigenvalues(a)
        total = sum(z * m for z, m in zip(spec.eigenvalues, spec.alg_mult))
        norm_a = np.abs(a).sum(axis=1).max()
        assert abs(total - np.trace(a)) <= 1e-8 * max(1.0, norm_a)
        prod = complex(1.0)
        for z, m in zip(spec.eigenvalues, spec.alg_mult):
            prod *= z**m
        det = np.linalg.det(a)
        assert abs(prod - det) <= 1e-6 * max(1e-12, abs(det))


def test_eigenvalues_complex_defective():
    # one 3x3 Jordan block at 2+1j
    j = np.array([[2 + 1j, 1, 0], [0, 2 + 1j, 1], [0, 0, 2 + 1j]])
    spec = eigenvalues(j, cluster_tol=1e-4)
    assert len(spec.eigenvalues) == 1
    assert abs(spec.eigenvalues[0] - (2 + 1j)) < 1e-4
    assert spec.alg_mult == (3,)


def test_eigen_dimension_guard():
    with pytest.raises(ValueError):
        eigenvalues(np.eye(513))


def test_multiplicities_sum_to_dimension():
    rng = np.random.default_rng(19)
    for _ in range(10):
        n = int(rng.integers(1, 10))
        a = rng.standard_normal((n, n))
        spec = eigenvalues(a)
        assert sum(spec.alg_mult) == n


def test_no_convergence_on_bad_eigenpair(monkeypatch):
    from polyharm.errors import NoConvergence

    rng = np.random.default_rng(21)
    a = rng.standard_normal((8, 8))
    eig = np.linalg.eig

    def perturbed(m):
        z, v = eig(m)
        z = z.copy()
        z[3] += 1e-9 * np.abs(z).max()
        return z, v

    monkeypatch.setattr(np.linalg, "eig", perturbed)
    with pytest.raises(NoConvergence, match="residual"):
        eigenvalues(a)


def test_no_convergence_on_lapack_failure(monkeypatch):
    from polyharm.errors import NoConvergence

    def fail(m):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eig", fail)
    with pytest.raises(NoConvergence, match="LAPACK"):
        eigenvalues(np.eye(3))


def test_eigenvalues_rejects_non_square():
    with pytest.raises(ValueError, match="square"):
        eigenvalues(np.ones((2, 3)))


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), 0.0, -1.0])
@pytest.mark.parametrize("a", [np.diag([0.1, 0.2, 0.2]), np.zeros((0, 0))])
def test_eigenvalues_refuse_a_cluster_tol_not_positive_and_finite(a, tol):
    """NaN merged nothing (0.2 came back twice with radius NaN) and
    infinity merged everything into one eigenvalue."""
    with pytest.raises(ValueError, match="cluster_tol must be positive and finite"):
        eigenvalues(a, cluster_tol=tol)


@pytest.mark.parametrize("tol", [True, False, np.True_], ids=["true", "false", "np_true"])
def test_eigenvalues_refuse_a_boolean_cluster_tol(tol):
    """``True`` passed as 1.0 and merged 0.1 and 0.5 into one value."""
    with pytest.raises(ValueError, match="cluster_tol must be positive and finite"):
        eigenvalues(np.diag([0.1, 0.5]), cluster_tol=tol)


def test_eigenvalues_accurate_on_random_chains():
    # every returned z is an eigenvalue by an oracle apart from eig: the
    # smallest singular value of zI - P_int vanishes
    for n in range(2, 61):
        p = random_chain(np.random.default_rng(n), size=n).p_int
        spec = eigenvalues(p)
        assert sum(spec.alg_mult) == p.shape[0]
        for z in spec.eigenvalues:
            smin = np.linalg.svd(z * np.eye(p.shape[0]) - p, compute_uv=False)[-1]
            assert smin <= 1e-10, (n, z, smin)


# ------------------------------------------------- clustering reference

def _reference_cluster(roots, tol):
    """The Python clustering that preceded the numpy one, kept verbatim
    as the reference: each value joins the first running mean within
    ``tol``, repeated until nothing merges."""
    centers = [complex(z) for z in roots]
    mults = [1] * len(centers)
    changed = True
    while changed:
        changed = False
        merged_c: list[complex] = []
        merged_m: list[int] = []
        for z, m in zip(centers, mults):
            hit = next(
                (i for i, c in enumerate(merged_c) if abs(c - z) <= tol), None
            )
            if hit is None:
                merged_c.append(z)
                merged_m.append(m)
            else:
                tot = merged_m[hit] + m
                merged_c[hit] = (merged_c[hit] * merged_m[hit] + z * m) / tot
                merged_m[hit] = tot
                changed = True
        centers, mults = merged_c, merged_m
    order = sorted(range(len(centers)), key=lambda i: (centers[i].real, centers[i].imag))
    return [centers[i] for i in order], [mults[i] for i in order]


def _spectrum_and_reference(a, cluster_tol, monkeypatch):
    """``eigenvalues(a)``, the working radius computed here from the very
    values LAPACK gave it, and their reference clustering at that radius."""
    eig, seen = np.linalg.eig, []

    def recording(m):
        out = eig(m)
        seen.append(out[0])
        return out

    monkeypatch.setattr(np.linalg, "eig", recording)
    spec = eigenvalues(a, cluster_tol=cluster_tol)
    monkeypatch.setattr(np.linalg, "eig", eig)
    (roots,) = seen
    radius = max(cluster_tol, 32 * np.sqrt(np.finfo(float).eps) * (1 + np.abs(roots).max()))
    return spec, radius, _reference_cluster(roots, radius)


def _lazy_forward_block(k):
    """One Jordan block of size k at 1/2: (I + N) / 2."""
    return 0.5 * (np.eye(k) + np.eye(k, k=1))


_SPLIT_BLOCKS = [
    (np.array([[0.0, 1.0], [0.0, 0.0]]), 1e-8),
    (np.array([[2 + 1j, 1, 0], [0, 2 + 1j, 1], [0, 0, 2 + 1j]]), 1e-4),
    (_lazy_forward_block(5), 1e-2),
    (_lazy_forward_block(20), 0.2),
]


def _assert_clusters_as_reference(a, cluster_tol, monkeypatch):
    spec, radius, (centres, mults) = _spectrum_and_reference(a, cluster_tol, monkeypatch)
    assert spec.radius == radius
    assert spec.alg_mult == tuple(mults)
    assert max(abs(z - c) for z, c in zip(spec.eigenvalues, centres)) <= 1e-12
    # the returned centres are pairwise farther apart than the radius
    z = np.array(spec.eigenvalues)
    gaps = np.abs(z[:, None] - z[None, :]) + np.diag(np.full(len(z), np.inf))
    assert gaps.min(initial=np.inf) > spec.radius
    assert sum(spec.alg_mult) == len(a)


@pytest.mark.parametrize("size", [4, 5, 6, 8, 11, 16, 23, 35, 60, 100, 160, 250, 400])
def test_clustering_matches_the_reference_on_random_chains(size, monkeypatch):
    a = random_chain(np.random.default_rng(0), size=size).p_int
    _assert_clusters_as_reference(a, 1e-8, monkeypatch)


@pytest.mark.parametrize("a, cluster_tol", _SPLIT_BLOCKS)
def test_clustering_matches_the_reference_on_split_jordan_blocks(a, cluster_tol, monkeypatch):
    _assert_clusters_as_reference(a, cluster_tol, monkeypatch)
    assert len(eigenvalues(a, cluster_tol=cluster_tol).alg_mult) == 1


def test_clustering_does_not_depend_on_the_order_of_the_values():
    """Three values 0.9 apart at radius 1 are one chain of neighbours.
    The reference answers by listing order: {0, 0.9} and {1.8} in one
    order, {0} and {0.9, 1.8} in the other.  Single linkage merges all
    three, in either order, so 0.9 is never split from a neighbour within
    the radius."""
    pts = np.array([0.0, 0.9, 1.8], dtype=complex)
    assert _reference_cluster(pts, 1.0) == ([0.45, 1.8], [2, 1])
    assert _reference_cluster(pts[::-1], 1.0) == ([0.0, 1.35], [1, 2])
    for order in (pts, pts[::-1], pts[[1, 0, 2]]):
        assert linalg._cluster(order, 1.0) == ([0.9 + 0j], [3])


def test_clustering_merges_centres_within_the_radius_again():
    """A ring of 16 values at distance 2 from 0 is one component at
    radius 1 and 0 is another, but the ring's centre is 0: the second
    pass merges both."""
    ring = 2 * np.exp(2j * np.pi * np.arange(16) / 16)
    centres, mults = linalg._cluster(np.append(ring, 0), 1.0)
    assert mults == [17] and abs(centres[0]) <= 1e-15


def test_clustering_real_values_splits_them_at_gaps_wider_than_the_radius():
    """On real values single linkage is the network check's rule: the
    sorted values split at every gap wider than the radius, each run one
    cluster with its mean as centre and its length as multiplicity."""
    rng = np.random.default_rng(29)
    for _ in range(200):
        n = int(rng.integers(1, 30))
        # exact repeats when the jitter is 0
        w = np.round(rng.random(n), 1) + rng.choice([0.0, 1e-3]) * rng.standard_normal(n)
        tol = float(rng.choice([1e-9, 0.05, 0.1, 0.25]))
        centres, mults = linalg._cluster(w, tol)
        s = np.sort(w)
        runs = np.split(s, np.flatnonzero(np.diff(s) > tol) + 1)
        assert mults == [len(r) for r in runs]
        assert np.abs(np.array(centres) - [r.mean() for r in runs]).max() <= 1e-15
        assert all(z.imag == 0 for z in centres)


# ------------------------------------------------- real times complex

def _real_matmul_operands():
    rng = np.random.default_rng(41)
    x = rng.standard_normal((20, 7)) + 1j * rng.standard_normal((20, 7))
    wide = rng.standard_normal((7, 20)) + 1j * rng.standard_normal((7, 20))
    # vector, matrix, column slices (strided vector, strided matrix),
    # a transpose (Fortran order), real operands and empty ones
    return [x[:, 0].copy(), x, x[:, 3], x[:, ::2], x[:, 2:5], wide.T,
            x.real.copy(), x[:, 1].real, np.zeros((20, 0), dtype=complex)]


def test_real_matmul_matches_the_complex_product():
    a = np.random.default_rng(43).standard_normal((30, 20))
    eps = np.finfo(float).eps
    for x in _real_matmul_operands():
        got = real_matmul(a, x)
        want = a.astype(complex) @ x
        assert got.shape == want.shape
        assert got.dtype == (np.complex128 if np.iscomplexobj(x) else np.float64)
        bound = a.shape[1] * eps * np.linalg.norm(a) * np.linalg.norm(x)
        assert np.linalg.norm(got - want) <= bound


def test_real_matmul_leaves_other_inputs_to_numpy():
    rng = np.random.default_rng(47)
    a = rng.standard_normal((5, 4)) + 1j * rng.standard_normal((5, 4))
    x = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    assert np.array_equal(real_matmul(a, x), a @ x)
    real = a.real.copy()
    assert np.array_equal(real_matmul(real, x.real), real @ x.real)
    assert np.array_equal(real_matmul(real, x.astype(np.complex64)), real @ x.astype(np.complex64))


def test_residual_inf_of_real_a_and_complex_x():
    rng = np.random.default_rng(53)
    a = rng.standard_normal((12, 12))
    x = rng.standard_normal((12, 3)) + 1j * rng.standard_normal((12, 3))
    b = a.astype(complex) @ x + (1 + 1j) * 1e-3
    assert residual_inf(a, x, b) == pytest.approx(1e-3 * np.sqrt(2), rel=1e-9)

import numpy as np
import pytest

from polyharm import bvp, martin, sub_chain
from polyharm.errors import Singular
from polyharm.linalg import (
    PANEL,
    LUFactorization,
    eigenvalues,
    lu_factor,
    lu_solve,
    nullspace,
    nullspace_info,
    residual_inf,
)

from conftest import random_chain


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


def test_eigenvalues_accurate_on_random_chains():
    # every returned z is an eigenvalue by an oracle apart from eig: the
    # smallest singular value of zI - P_int vanishes
    for n in range(2, 61):
        p = sub_chain(random_chain(np.random.default_rng(n), size=n)).p
        spec = eigenvalues(p)
        assert sum(spec.alg_mult) == p.shape[0]
        for z in spec.eigenvalues:
            smin = np.linalg.svd(z * np.eye(p.shape[0]) - p, compute_uv=False)[-1]
            assert smin <= 1e-10, (n, z, smin)

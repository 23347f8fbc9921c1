import numpy as np
import pytest

from polyharm import (
    build_chain,
    build_network,
    eigenvalues,
    global_polyharmonic_basis,
    interior_spectrum,
    jordan_basis,
    network_spectrum_check,
    nullspace,
    sub_chain,
)
from polyharm.errors import NotAnEigenvalue

from conftest import random_chain, span_projector


def test_interior_spectrum_p4(p4):
    out = interior_spectrum(p4)
    got = sorted(z.real for z in out.spectrum.eigenvalues)
    assert got == pytest.approx([-0.5, 0.5], abs=1e-10)
    assert out.rho == pytest.approx(0.5, abs=1e-10)


def test_interior_spectrum_forward_path(forward_path):
    out = interior_spectrum(forward_path)
    assert out.spectrum.eigenvalues == (0j,)
    assert out.spectrum.alg_mult == (2,)
    assert out.rho == 0.0


def test_rho_below_one_random():
    rng = np.random.default_rng(53)
    for _ in range(30):
        c = random_chain(rng)
        out = interior_spectrum(c)
        assert out.rho < 1.0 - 1e-10


# ---------------------------------------------------------------- jordan

def test_jordan_forward_path(forward_path):
    jb = jordan_basis(forward_path, 0.0)
    assert jb.geo_mult == 1
    assert jb.alg_mult == 2
    assert jb.chain_lengths == (2,)
    f1, f2 = jb.chains[0]
    # eigenvector is supported on o, the generalised vector on a
    io, ia = forward_path.vertex_index("o"), forward_path.vertex_index("a")
    assert abs(abs(f1[io]) - 1.0) < 1e-12
    assert abs(f1[ia]) < 1e-12
    # chain relation with B = -P_int extended by zero
    p_int = sub_chain(forward_path).p
    b = -p_int
    assert np.abs(b @ f2[[io, ia]] - f1[[io, ia]]).max() < 1e-12
    # boundary values vanish
    iw = forward_path.vertex_index("w")
    assert f1[iw] == 0 and f2[iw] == 0
    # span equals span{1_o, 1_a}
    e_o = np.zeros(3); e_o[io] = 1
    e_a = np.zeros(3); e_a[ia] = 1
    proj_ref = span_projector([e_o, e_a])
    proj_got = span_projector([f1, f2])
    assert np.abs(proj_ref - proj_got).max() <= 1e-8


def test_jordan_p4_half(p4):
    jb = jordan_basis(p4, 0.5)
    assert jb.geo_mult == 1 and jb.alg_mult == 1
    v = jb.chains[0][0]
    ref = np.array([0, 1, 1, 0]) / np.sqrt(2)
    assert np.abs(span_projector([v]) - span_projector([ref])).max() <= 1e-8


def test_jordan_rejects_non_eigenvalue(p4):
    with pytest.raises(NotAnEigenvalue):
        jordan_basis(p4, 0.3)


def test_jordan_multiplicities_random():
    rng = np.random.default_rng(59)
    for _ in range(50):
        c = random_chain(rng, max_interior=5, max_boundary=2, rational=True)
        spec = interior_spectrum(c).spectrum
        for lam, mult in zip(spec.eigenvalues, spec.alg_mult):
            jb = jordan_basis(c, lam)
            assert sum(jb.chain_lengths) == mult
            assert jb.geo_mult == len(jb.chain_lengths)


def test_jordan_chain_relation_random():
    rng = np.random.default_rng(61)
    for _ in range(20):
        c = random_chain(rng, max_interior=5, max_boundary=2, rational=True)
        p_int = sub_chain(c).p
        spec = interior_spectrum(c).spectrum
        lam = spec.eigenvalues[int(rng.integers(0, len(spec.eigenvalues)))]
        jb = jordan_basis(c, lam)
        b = jb.lam * np.eye(p_int.shape[0]) - p_int
        ii = list(c.interior)
        for ch in jb.chains:
            scale = max(np.abs(v).max() for v in ch)
            assert np.abs(b @ ch[0][ii]).max() <= 1e-8 * scale
            for k in range(1, len(ch)):
                dev = np.abs(b @ ch[k][ii] - ch[k - 1][ii]).max()
                assert dev <= 1e-8 * scale


def test_defective_nonnilpotent_chain():
    trans = [
        [0.3, 0.5, 0.2],
        [0.0, 0.3, 0.7],
        [0.0, 0.0, 1.0],
    ]
    c = build_chain(["x", "y", "w"], ["x", "y"], ["w"], trans)
    jb = jordan_basis(c, 0.3)
    assert jb.alg_mult == 2 and jb.geo_mult == 1
    assert jb.chain_lengths == (2,)


# ----------------------------------------------------------- global basis

def test_global_basis_forward_path(forward_path):
    b1 = global_polyharmonic_basis(forward_path, 0.0, 1)
    assert len(b1) == 1
    b2 = global_polyharmonic_basis(forward_path, 0.0, 2)
    assert len(b2) == 2
    b9 = global_polyharmonic_basis(forward_path, 0.0, 9)
    assert len(b9) == 2  # chain length caps growth


def test_global_basis_p4_capped(p4):
    basis = global_polyharmonic_basis(p4, 0.5, 5)
    assert len(basis) == 1  # chain length 1


def test_global_basis_annihilated_and_independent():
    rng = np.random.default_rng(67)
    for _ in range(10):
        c = random_chain(rng, max_interior=5, max_boundary=2, rational=True)
        spec = interior_spectrum(c).spectrum
        lam = spec.eigenvalues[0]
        n = int(rng.integers(1, 4))
        basis = global_polyharmonic_basis(c, lam, n)
        op = complex(lam) * np.eye(c.n) - c.trans
        mat = np.column_stack(basis)
        for v in basis:
            w = v.copy()
            for _ in range(n):
                w = op @ w
            assert np.abs(w).max() <= 1e-8 * np.abs(v).max()
        # linear independence via rank of the stacked matrix
        assert np.linalg.matrix_rank(mat, tol=1e-8) == len(basis)
        # vanishing on the boundary
        assert all(np.abs(v[list(c.boundary)]).max() == 0 for v in basis)


def test_full_p_eigenvalue_one_multiplicity():
    rng = np.random.default_rng(71)
    for _ in range(10):
        c = random_chain(rng, max_interior=6, max_boundary=3)
        nb = len(c.boundary)
        # geometric multiplicity by rank: robust and tight
        kernel = nullspace(np.eye(c.n) - c.trans, 1e-8)
        assert len(kernel) == nb
        # algebraic multiplicity via clustering, tolerance matched to the
        # eps**(1/m) splitting of an m-fold root
        tol = max(1e-8, 25 * float(np.finfo(float).eps) ** (1.0 / nb))
        spec = eigenvalues(c.trans, cluster_tol=tol)
        assert spec.mult_of(1.0, tol=max(tol, 1e-3)) == nb


# --------------------------------------------------------------- networks

def test_network_spectrum_p4():
    net = build_network(
        [("w1", "a", 1.0), ("a", "b", 1.0), ("b", "w2", 1.0)], ["w1", "w2"]
    )
    rep = network_spectrum_check(net)
    assert rep.max_imag <= 1e-8
    assert rep.symmetry_deviation <= 1e-12
    assert rep.geo_mults == rep.alg_mults


def test_network_spectrum_random():
    rng = np.random.default_rng(73)
    for _ in range(10):
        n = int(rng.integers(5, 11))
        names = [f"v{k}" for k in range(n)]
        edges = [(names[i], names[i + 1], float(0.3 + rng.random()))
                 for i in range(n - 1)]
        for _ in range(n // 2):
            i, j = rng.integers(0, n, 2)
            if i != j:
                edges.append((names[i], names[j], float(0.3 + rng.random())))
        edges.append((names[0], names[-1], float(0.3 + rng.random())))
        net = build_network(edges, [names[0]])
        rep = network_spectrum_check(net)
        assert rep.max_imag <= 1e-8
        assert rep.geo_mults == rep.alg_mults


def test_network_check_refuses_chains(p4):
    with pytest.raises(TypeError):
        network_spectrum_check(p4)


def test_cycle_chain_has_complex_spectrum():
    # a directed 3-cycle with a leak is the canonical non-reversible case;
    # its interior spectrum is genuinely complex, which is exactly what the
    # network check's similarity argument rules out
    trans = [
        [0.0, 0.9, 0.0, 0.1],
        [0.0, 0.0, 0.9, 0.1],
        [0.9, 0.0, 0.0, 0.1],
        [0.0, 0.0, 0.0, 1.0],
    ]
    c = build_chain(["x", "y", "z", "w"], ["x", "y", "z"], ["w"], trans)
    spec = interior_spectrum(c).spectrum
    assert any(abs(z.imag) > 0.1 for z in spec.eigenvalues)
    assert interior_spectrum(c).rho == pytest.approx(0.9, abs=1e-9)


def test_triple_eigenvalue_two_blocks():
    # alg. mult 3, geo mult 2: chain lengths (2, 1); a defective
    # eigenvalue splits by ~eps**(1/m) in floating point, so recognising it
    # needs the coarse cluster knob; the cluster centre stays accurate
    trans = [
        [0.4, 0.3, 0.0, 0.3],
        [0.0, 0.4, 0.0, 0.6],
        [0.0, 0.0, 0.4, 0.6],
        [0.0, 0.0, 0.0, 1.0],
    ]
    c = build_chain(["x", "y", "z", "w"], ["x", "y", "z"], ["w"], trans)
    spec = interior_spectrum(c, cluster_tol=1e-4).spectrum
    assert spec.alg_mult == (3,)
    assert abs(spec.eigenvalues[0] - 0.4) < 1e-10
    jb = jordan_basis(c, 0.4, cluster_tol=1e-4)
    assert jb.geo_mult == 2 and jb.alg_mult == 3
    assert jb.chain_lengths == (2, 1)
    assert len(global_polyharmonic_basis(c, 0.4, 1, cluster_tol=1e-4)) == 2
    assert len(global_polyharmonic_basis(c, 0.4, 2, cluster_tol=1e-4)) == 3


def test_network_with_repeated_nonzero_eigenvalue():
    # four identical pendants force a nonzero eigenvalue of multiplicity 3;
    # it is semisimple, so it does not split and the default clustering
    # resolves it, as does the coarse knob
    edges = []
    for k in range(4):
        edges += [("c", f"m{k}", 1.0), (f"m{k}", f"l{k}", 1.0)]
    edges += [("c", "w", 1.0)]
    net = build_network(edges, ["w"])
    rep = network_spectrum_check(net)
    assert rep.geo_mults == rep.alg_mults
    assert 3 in rep.alg_mults
    rep = network_spectrum_check(net, cluster_tol=1e-4)
    assert rep.geo_mults == rep.alg_mults
    assert 3 in rep.alg_mults
    assert rep.max_imag <= 1e-8


# ------------------------------------------- eigenvalues from an oracle


def _path_network(n):
    edges = [(f"p{i}", f"p{i + 1}", 1.0) for i in range(n - 1)]
    return build_network(edges, ["p0", f"p{n - 1}"])


def _cornerless_grid_network(m):
    corners = {(0, 0), (0, m - 1), (m - 1, 0), (m - 1, m - 1)}
    cells = {(i, j) for i in range(m) for j in range(m)} - corners
    edges = [(f"g{i}_{j}", f"g{i + di}_{j + dj}", 1.0) for i, j in sorted(cells)
             for di, dj in ((1, 0), (0, 1)) if (i + di, j + dj) in cells]
    boundary = [f"g{i}_{j}" for i, j in cells if i in (0, m - 1) or j in (0, m - 1)]
    return build_network(edges, boundary)


@pytest.mark.parametrize("net", [_path_network(30), _cornerless_grid_network(8)],
                         ids=["path30", "grid8"])
def test_network_spectrum_unit_conductances(net):
    rep = network_spectrum_check(net)
    assert rep.geo_mults == rep.alg_mults
    # oracle: the block symmetrised by sqrt of the vertex weights
    view = sub_chain(rep.chain)
    weight = {}
    for u, v, a in net.edges:
        weight[u] = weight.get(u, 0.0) + a
        weight[v] = weight.get(v, 0.0) + a
    d = np.sqrt([weight[x] for x in view.interior])
    want = np.linalg.eigvalsh((d[:, None] * view.p) / d[None, :])
    got = np.repeat([z.real for z in rep.spectrum.eigenvalues], rep.alg_mults)
    assert got.size == want.size
    assert np.abs(np.sort(got) - want).max() <= 1e-10


def test_jordan_basis_at_true_eigenvalue_of_dense_chain():
    rng = np.random.default_rng(0)
    random_chain(rng, size=10)
    c = random_chain(rng, size=20)
    ev = np.linalg.eigvals(sub_chain(c).p)
    z = complex(ev[np.argmin(np.abs(ev - 0.1169))])
    assert abs(z - 0.1169) < 1e-3
    jb = jordan_basis(c, z)
    assert jb.alg_mult == 1 and jb.geo_mult == 1
    v = jb.chains[0][0]
    op = jb.lam * np.eye(c.n) - c.trans
    assert np.abs(op @ v).max() <= 1e-10

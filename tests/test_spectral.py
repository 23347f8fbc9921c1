import gc
import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest

from polyharm import linalg, spectral
from polyharm import (
    build_chain,
    build_network,
    build_tree,
    eigenvalues,
    from_network,
    global_polyharmonic_basis,
    interior_spectrum,
    jordan_basis,
    network_spectrum_check,
    nullspace,
    restrict_to_section,
)
from polyharm.errors import (IllConditioned, NoConvergence, NotAnEigenvalue,
                             ReportedViolation, SpectralRadiusViolation)

from conftest import random_chain, random_section, random_tree, span_projector


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


# ------------------------------------------------------ kept spectrum

def _count_eig(monkeypatch, fail_once=False):
    """Count ``np.linalg.eig`` calls; with ``fail_once`` the first raises
    LAPACK's ``LinAlgError``."""
    eig, calls = np.linalg.eig, [0]

    def counting(m):
        calls[0] += 1
        if fail_once and calls[0] == 1:
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return eig(m)

    monkeypatch.setattr(np.linalg, "eig", counting)
    return calls


def test_one_eigenvalue_call_per_chain(monkeypatch, p4):
    """Every spectral consumer reads the chain's kept spectrum; a new
    ``cluster_tol`` computes one more and replaces the kept one."""
    calls = _count_eig(monkeypatch)
    first = interior_spectrum(p4)
    jordan_basis(p4, 0.5)
    jordan_basis(p4, -0.5)
    global_polyharmonic_basis(p4, 0.5, 2)
    assert calls[0] == 1
    assert interior_spectrum(p4) is first
    coarse = interior_spectrum(p4, cluster_tol=1e-6)
    assert calls[0] == 2 and list(p4._spectrum) == [1e-6]
    assert coarse.spectrum.eigenvalues == first.spectrum.eigenvalues
    jordan_basis(p4, 0.5)
    assert calls[0] == 3 and len(p4._spectrum) == 1


def test_a_boolean_cluster_tol_is_refused_before_the_kept_spectrum(p4):
    """``True == 1.0`` as a dict key, so the spectrum kept for 1.0 came
    back for ``True``."""
    kept = interior_spectrum(p4, cluster_tol=1.0)
    with pytest.raises(ValueError, match="cluster_tol must be positive and finite"):
        interior_spectrum(p4, cluster_tol=True)
    assert interior_spectrum(p4, cluster_tol=1.0) is kept


def test_a_spectrum_refused_for_no_convergence_is_not_kept(monkeypatch, p4):
    calls = _count_eig(monkeypatch, fail_once=True)
    with pytest.raises(NoConvergence, match="LAPACK"):
        interior_spectrum(p4)
    assert p4._spectrum == {}
    spec = interior_spectrum(p4).spectrum
    assert calls[0] == 2 and spec.alg_mult == (1, 1)
    assert list(p4._spectrum) == [spec.cluster_tol]


def test_a_spectrum_refused_for_its_radius_is_not_kept(monkeypatch, p4):
    real, calls = spectral.eigenvalues, [0]

    def unit_radius_once(a, cluster_tol):
        calls[0] += 1
        spec = real(a, cluster_tol=cluster_tol)
        return replace(spec, eigenvalues=(-1 + 0j, 1 + 0j)) if calls[0] == 1 else spec

    monkeypatch.setattr(spectral, "eigenvalues", unit_radius_once)
    with pytest.raises(SpectralRadiusViolation, match="not strictly below 1"):
        jordan_basis(p4, 0.5)
    assert p4._spectrum == {}
    assert interior_spectrum(p4).rho == pytest.approx(0.5, abs=1e-10)
    assert jordan_basis(p4, 0.5).alg_mult == 1 and calls[0] == 2


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
    p_int = forward_path.p_int
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
        p_int = c.p_int
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

# |Im| of numpy's nonsymmetric eigenvalues beyond the symmetry bound, in
# units of n * eps: LAPACK's backward error on a matrix of norm <= 1
REAL_SLACK = 100


def _assert_real_spectrum(rep):
    """The reported eigenvalues are exactly real, and numpy's eigenvalues
    of P_int are real within the check's bound n * symmetry_deviation
    plus ``REAL_SLACK`` * n * eps."""
    assert all(z.imag == 0 for z in rep.spectrum.eigenvalues)
    n = len(rep.chain.interior_ids)
    bound = n * rep.symmetry_deviation + REAL_SLACK * n * np.finfo(float).eps
    assert np.abs(np.linalg.eigvals(rep.chain.p_int).imag).max() <= bound


def test_network_spectrum_p4():
    net = build_network(
        [("w1", "a", 1.0), ("a", "b", 1.0), ("b", "w2", 1.0)], ["w1", "w2"]
    )
    rep = network_spectrum_check(net)
    _assert_real_spectrum(rep)
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
        _assert_real_spectrum(rep)
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


def _triple_eigenvalue_chain():
    """Interior eigenvalue 0.4 of algebraic multiplicity 3 in two Jordan
    blocks, of sizes 2 and 1."""
    trans = [
        [0.4, 0.3, 0.0, 0.3],
        [0.0, 0.4, 0.0, 0.6],
        [0.0, 0.0, 0.4, 0.6],
        [0.0, 0.0, 0.0, 1.0],
    ]
    return build_chain(["x", "y", "z", "w"], ["x", "y", "z"], ["w"], trans)


def test_triple_eigenvalue_two_blocks():
    # alg. mult 3, geo mult 2: chain lengths (2, 1); a defective
    # eigenvalue splits by ~eps**(1/m) in floating point, so recognising it
    # needs the coarse cluster knob; the cluster centre stays accurate
    c = _triple_eigenvalue_chain()
    spec = interior_spectrum(c, cluster_tol=1e-4).spectrum
    assert spec.alg_mult == (3,)
    assert abs(spec.eigenvalues[0] - 0.4) < 1e-10
    jb = jordan_basis(c, 0.4, cluster_tol=1e-4)
    assert jb.geo_mult == 2 and jb.alg_mult == 3
    assert jb.chain_lengths == (2, 1)
    assert len(global_polyharmonic_basis(c, 0.4, 1, cluster_tol=1e-4)) == 2
    assert len(global_polyharmonic_basis(c, 0.4, 2, cluster_tol=1e-4)) == 3


def _four_pendants():
    edges = [("c", "w", 1.0)]
    for k in range(4):
        edges += [("c", f"m{k}", 1.0), (f"m{k}", f"l{k}", 1.0)]
    return build_network(edges, ["w"])


def test_network_with_repeated_nonzero_eigenvalue():
    # four identical pendants force a nonzero eigenvalue of multiplicity 3;
    # it is semisimple, so it does not split and the default clustering
    # resolves it, as does the coarse knob
    net = _four_pendants()
    rep = network_spectrum_check(net)
    assert rep.geo_mults == rep.alg_mults
    assert 3 in rep.alg_mults
    rep = network_spectrum_check(net, cluster_tol=1e-4)
    assert rep.geo_mults == rep.alg_mults
    assert 3 in rep.alg_mults
    _assert_real_spectrum(rep)


# ------------------------------------------- eigenvalues from an oracle


def _path_network(n):
    edges = [(f"p{i}", f"p{i + 1}", 1.0) for i in range(n - 1)]
    return build_network(edges, ["p0", f"p{n - 1}"])


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), 0.0, -1.0])
def test_network_check_refuses_a_cluster_tol_not_positive_and_finite(tol):
    """With NaN the unit path of 7 vertices was certified as one
    eigenvalue 0 of multiplicity 5; its spectrum is +-0.866, +-0.5 and 0."""
    with pytest.raises(ValueError, match="cluster_tol must be positive and finite"):
        network_spectrum_check(_path_network(7), cluster_tol=tol)


def test_network_check_refuses_a_boolean_cluster_tol():
    with pytest.raises(ValueError, match="cluster_tol must be positive and finite"):
        network_spectrum_check(_path_network(7), cluster_tol=True)


def test_network_check_builds_the_conductance_table_once(monkeypatch):
    from polyharm import chain as chainmod

    real, calls = chainmod.conductances, [0]

    def counting(network):
        calls[0] += 1
        return real(network)

    monkeypatch.setattr(chainmod, "conductances", counting)
    rep = network_spectrum_check(_path_network(7))
    assert calls[0] == 1
    assert sum(rep.alg_mults) == 5


def test_network_keeps_its_chain_across_checks(monkeypatch):
    from polyharm import chain as chainmod

    real, calls = chainmod.build_chain, [0]

    def counting(*args, **kwargs):
        calls[0] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(chainmod, "build_chain", counting)
    net = _path_network(7)
    first, second = network_spectrum_check(net), network_spectrum_check(net)
    assert calls[0] == 1
    assert first.chain is second.chain is from_network(net)
    assert calls[0] == 1
    assert first.spectrum == second.spectrum
    assert first.symmetry_deviation == second.symmetry_deviation
    assert first.geo_mults == second.geo_mults and first.alg_mults == second.alg_mults


def _cornerless_grid_network(m, rng=None):
    """The m x m grid without its corners, boundary its outer ring, with
    unit conductances or, given ``rng``, conductances in U[0.5, 2]."""
    corners = {(0, 0), (0, m - 1), (m - 1, 0), (m - 1, m - 1)}
    cells = {(i, j) for i in range(m) for j in range(m)} - corners
    pairs = [((i, j), (i + di, j + dj)) for i, j in sorted(cells)
             for di, dj in ((1, 0), (0, 1)) if (i + di, j + dj) in cells]
    conductances = np.ones(len(pairs)) if rng is None else rng.uniform(0.5, 2.0, len(pairs))
    edges = [(f"g{i}_{j}", f"g{k}_{l}", float(a))
             for ((i, j), (k, l)), a in zip(pairs, conductances)]
    boundary = [f"g{i}_{j}" for i, j in cells if i in (0, m - 1) or j in (0, m - 1)]
    return build_network(edges, boundary)


def _assert_spectrum_of_symmetrised_block(net, rep):
    """The certified spectrum against ``eigvalsh`` of the interior block
    symmetrised by the square roots of the vertex weights."""
    assert rep.geo_mults == rep.alg_mults
    weight = {}
    for u, v, a in net.edges:
        weight[u] = weight.get(u, 0.0) + a
        weight[v] = weight.get(v, 0.0) + a
    d = np.sqrt([weight[x] for x in rep.chain.interior_ids])
    want = np.linalg.eigvalsh((d[:, None] * rep.chain.p_int) / d[None, :])
    got = np.repeat([z.real for z in rep.spectrum.eigenvalues], rep.alg_mults)
    assert got.size == want.size
    assert np.abs(np.sort(got) - want).max() <= 1e-10


@pytest.mark.parametrize("net", [_path_network(30), _cornerless_grid_network(8)],
                         ids=["path30", "grid8"])
def test_network_spectrum_unit_conductances(net):
    _assert_spectrum_of_symmetrised_block(net, network_spectrum_check(net))


@pytest.mark.parametrize("seed", [None, 22], ids=["unit", "random"])
def test_network_spectrum_at_interior_400(seed):
    """The 22 x 22 grid without corners: interior 400.  With unit
    conductances P_int is a quarter of the 20 x 20 grid's adjacency, whose
    eigenvalue 0 has multiplicity 20."""
    rng = None if seed is None else np.random.default_rng(seed)
    net = _cornerless_grid_network(22, rng)
    rep = network_spectrum_check(net)
    assert len(rep.chain.interior) == 400
    _assert_spectrum_of_symmetrised_block(net, rep)
    if seed is None:
        assert max(rep.alg_mults) == 20


@pytest.mark.parametrize("net", [_path_network(30), _cornerless_grid_network(8), _four_pendants()],
                         ids=["path30", "grid8", "four-pendants"])
def test_network_check_makes_no_nonsymmetric_eigenvalue_call(monkeypatch, net):
    """The check is one symmetric eigendecomposition: it passes with
    ``spectral.eigenvalues`` and numpy's nonsymmetric ``eig`` refusing."""
    def refuse(*args, **kwargs):
        raise AssertionError("nonsymmetric eigenvalue call")

    monkeypatch.setattr(spectral, "eigenvalues", refuse)
    monkeypatch.setattr(np.linalg, "eig", refuse)
    rep = network_spectrum_check(net)
    assert rep.geo_mults == rep.alg_mults


def test_jordan_basis_at_true_eigenvalue_of_dense_chain():
    rng = np.random.default_rng(0)
    random_chain(rng, size=10)
    c = random_chain(rng, size=20)
    ev = np.linalg.eigvals(c.p_int)
    z = complex(ev[np.argmin(np.abs(ev - 0.1169))])
    assert abs(z - 0.1169) < 1e-3
    jb = jordan_basis(c, z)
    assert jb.alg_mult == 1 and jb.geo_mult == 1
    v = jb.chains[0][0]
    op = jb.lam * np.eye(c.n) - c.trans
    assert np.abs(op @ v).max() <= 1e-10


def _record_echelon_dtypes(monkeypatch):
    seen, real = [], linalg._echelon

    def recording(m, tol):
        seen.append(m.dtype)
        return real(m, tol)

    monkeypatch.setattr(linalg, "_echelon", recording)
    monkeypatch.setattr(spectral, "_echelon", recording)
    return seen


def test_real_eigenvalues_are_worked_in_float64(monkeypatch, forward_path):
    """At a real eigenvalue every elimination sees a float64 matrix, and
    the vectors come back complex128 with imaginary parts exactly 0."""
    seen = _record_echelon_dtypes(monkeypatch)
    c = random_chain(np.random.default_rng(3), size=12)
    ev = np.linalg.eigvals(c.p_int)
    z = float(ev[ev.imag == 0][0].real)
    for ch, lam in ((forward_path, 0.0), (_lazy_forward_path(6), 0.5), (c, z)):
        out = jordan_basis(ch, lam).vectors() + global_polyharmonic_basis(ch, lam, 2)
        assert all(v.dtype == np.complex128 and not v.imag.any() for v in out)
    assert seen and set(seen) == {np.dtype(np.float64)}


def test_complex_eigenvalues_are_worked_in_complex128(monkeypatch):
    seen = _record_echelon_dtypes(monkeypatch)
    c = random_chain(np.random.default_rng(0), size=10)
    ev = np.linalg.eigvals(c.p_int)
    z = complex(ev[np.argmax(ev.imag)])
    assert z.imag > 0.01
    jb = jordan_basis(c, z)
    assert all(v.dtype == np.complex128 for v in jb.vectors())
    assert jb.chains[0][0].imag.any()
    assert seen and set(seen) == {np.dtype(np.complex128)}


# --------------------------------------------- Jordan structure at size

def _lazy_forward_path(k):
    """k interior vertices that stay with probability 1/2 and otherwise
    step forward, the last one into the single boundary vertex: the
    interior block is (I + N)/2, one Jordan block of size k at 1/2."""
    names = [f"x{i}" for i in range(k)] + ["w"]
    trans = np.zeros((k + 1, k + 1))
    for i in range(k):
        trans[i, i] = trans[i, i + 1] = 0.5
    trans[k, k] = 1.0
    return build_chain(names, names[:k], ["w"], trans)


@pytest.mark.parametrize("k", [5, 20, 60, 120])
def test_lazy_forward_path_is_one_jordan_block(k):
    c = _lazy_forward_path(k)
    jb = jordan_basis(c, 0.5)
    assert (jb.alg_mult, jb.geo_mult, jb.chain_lengths) == (k, 1, (k,))
    op = 0.5 * np.eye(c.n) - c.trans
    prev = np.zeros(c.n)
    for v in jb.chains[0]:
        assert np.abs(op @ v - prev).max() <= 1e-12 * np.abs(v).max()
        prev = v


def _binary_section(depth, rng):
    """Binary forward tree of the given depth with seeded masses, restricted
    to its last generation: 2**depth - 1 interior vertices."""
    children, mass, frontier = {}, {"t0": 1.0}, ["t0"]
    for _ in range(depth):
        nxt = []
        for v in frontier:
            share = 0.5 + rng.random(2)
            kids = [f"t{len(mass) + j}" for j in range(2)]
            for kid, s in zip(kids, share / share.sum()):
                mass[kid] = mass[v] * float(s)
            children[v] = kids
            nxt += kids
        frontier = nxt
    return restrict_to_section(build_tree(children, measure=mass), frontier)


@pytest.mark.parametrize("depth", [6, 7])
def test_tree_section_kernel_dimensions(depth):
    """At lam = 0 the kernel of every power of P_int, read off the chain
    lengths, has the dimension numpy's SVD rank gives it."""
    c = _binary_section(depth, np.random.default_rng(depth))
    p = c.p_int
    m = p.shape[0]
    assert m == 2**depth - 1
    jb = jordan_basis(c, 0.0)
    assert jb.alg_mult == m and max(jb.chain_lengths) == depth
    for j in range(1, depth + 2):
        want = m - np.linalg.matrix_rank(np.linalg.matrix_power(p, j))
        assert sum(min(j, n) for n in jb.chain_lengths) == want


def _height_oracle(c):
    """Chain lengths at lam = 0 on a section restriction, from the support
    of P_int alone.  Row x of P_int^k is nonzero exactly when x has an
    interior descendant at distance k, and these rows have disjoint
    supports, so rank P_int^k = #{x : h(x) >= k} for the height h(x) of
    x inside the interior, and #{x : h(x) = k - 1} Jordan blocks have
    size >= k: the lengths are the conjugate partition of the height
    counts."""
    kids = [np.flatnonzero(row) for row in c.p_int > 0]
    height = {}

    def h(x):
        if x not in height:
            height[x] = max((h(y) + 1 for y in kids[x]), default=0)
        return height[x]

    counts = np.bincount([h(x) for x in range(len(kids))])
    return tuple(int(np.sum(counts > j)) for j in range(counts[0]))


def test_chain_lengths_match_the_height_oracle_on_random_sections():
    """Random sections of random trees (depth <= 7, branching <= 3); some
    of them have a level that wants no new chain top (a chain length
    missing below the longest)."""
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    skipped_levels = []

    @hyp.settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @hyp.given(seed=st.integers(0, 2**32 - 1))
    def check(seed):
        rng = np.random.default_rng(seed)
        tree = random_tree(rng, max_depth=7, max_branch=3)
        c = restrict_to_section(tree, random_section(rng, tree))
        want = _height_oracle(c)
        assert jordan_basis(c, 0.0).chain_lengths == want
        skipped_levels.append(len(set(range(1, want[0] + 1)) - set(want)))

    check()
    assert max(skipped_levels) > 0


def test_binary_section_of_depth_8():
    """Interior 255 at lam = 0: the chain lengths are the height oracle's,
    each chain satisfies the Jordan relation within 1e-12 of its largest
    entry, and the 255 vectors, each scaled to unit norm, have rank 255
    at the 1e-8 threshold of the global-basis test."""
    c = _binary_section(8, np.random.default_rng(8))
    jb = jordan_basis(c, 0.0)
    assert jb.chain_lengths == _height_oracle(c)
    b = -c.p_int
    ii = list(c.interior)
    for ch in jb.chains:
        scale = max(np.abs(v).max() for v in ch)
        prev = np.zeros(len(ii))
        for v in ch:
            assert np.abs(b @ v[ii] - prev).max() <= 1e-12 * scale
            prev = v[ii]
    vs = np.column_stack(jb.vectors())
    assert np.linalg.matrix_rank(vs / np.linalg.norm(vs, axis=0), tol=1e-8) == 255


def test_jordan_basis_keeps_its_rank_evidence(forward_path):
    """On the forward path and at interior 255: one kernel and one top
    elimination per level, every gap at least GAP_FACTOR, kernel ranks
    that match the chain lengths and, at level k, one top kept per chain
    of length k."""
    for c in (forward_path, _binary_section(8, np.random.default_rng(8))):
        jb = jordan_basis(c, 0.0)
        levels = range(1, max(jb.chain_lengths) + 1)
        assert len(jb.kernel_infos) == len(jb.top_infos) == len(levels)
        for info in jb.kernel_infos + jb.top_infos:
            assert info.gap >= spectral.GAP_FACTOR
        assert [len(c.interior) - info.rank for info in jb.kernel_infos] == [
            sum(min(k, n) for n in jb.chain_lengths) for k in levels]
        assert [info.rank for info in jb.top_infos] == [
            jb.chain_lengths.count(k) for k in levels]


def test_jordan_levels_eliminate_only_their_deflated_blocks(monkeypatch, forward_path):
    """On the forward path and at interior 63: level k's kernel
    elimination is square with side m - dim N_{k-1}, and its tops
    elimination, deepest level first, is square with side
    dim N_k - dim N_{k-1}, the level's new directions.  No elimination
    sees the whole m x m block after the first level."""
    kernel_shapes, top_shapes = [], []
    real_null, real_echelon = spectral.nullspace_info, spectral._echelon

    def null_recording(a, tol):
        kernel_shapes.append(np.shape(a))
        return real_null(a, tol)

    def echelon_recording(m, tol):
        top_shapes.append(m.shape)
        return real_echelon(m, tol)

    monkeypatch.setattr(spectral, "nullspace_info", null_recording)
    monkeypatch.setattr(spectral, "_echelon", echelon_recording)
    for c in (forward_path, _binary_section(6, np.random.default_rng(6))):
        kernel_shapes.clear()
        top_shapes.clear()
        jb = jordan_basis(c, 0.0)
        m, depth = len(c.interior), max(jb.chain_lengths)
        dims = [sum(min(k, n) for n in jb.chain_lengths) for k in range(depth + 1)]
        assert kernel_shapes == [(m - dims[k - 1],) * 2 for k in range(1, depth + 1)]
        assert top_shapes == [(dims[k] - dims[k - 1],) * 2 for k in range(depth, 0, -1)]


# ---------------------------------- global basis from the first n levels

def _assert_orthonormal_chain_span(c, lam, n, jb, cluster_tol=linalg.CLUSTER_TOL):
    """The order-n global basis spans the first n vectors of every Jordan
    chain, has their number, and its interior rows are orthonormal."""
    basis = global_polyharmonic_basis(c, lam, n, cluster_tol=cluster_tol)
    chains = np.column_stack(jb.vectors(max_order=n))
    assert len(basis) == chains.shape[1] == sum(min(n, k) for k in jb.chain_lengths)
    q = np.column_stack(basis)
    stacked = np.hstack([q, chains / np.linalg.norm(chains, axis=0)])
    assert np.linalg.matrix_rank(stacked, tol=1e-8) == len(basis)
    inner = q[c.interior_rows]
    assert np.abs(inner.conj().T @ inner - np.eye(len(basis))).max() <= 1e-12


def test_global_basis_spans_the_first_n_chain_vectors(p4, forward_path):
    """On the small chains, at the 3-fold eigenvalue 0.4 and at every
    eigenvalue of seeded random chains, for n = 1 .. 4."""
    cases = [(forward_path, 0.0, linalg.CLUSTER_TOL), (p4, 0.5, linalg.CLUSTER_TOL),
             (p4, -0.5, linalg.CLUSTER_TOL), (_triple_eigenvalue_chain(), 0.4, 1e-4)]
    rng = np.random.default_rng(79)
    for _ in range(12):
        c = random_chain(rng, max_interior=6, max_boundary=2, rational=True)
        cases += [(c, z, linalg.CLUSTER_TOL) for z in interior_spectrum(c).spectrum.eigenvalues]
    for c, lam, cluster_tol in cases:
        jb = jordan_basis(c, lam, cluster_tol=cluster_tol)
        for n in range(1, 5):
            _assert_orthonormal_chain_span(c, lam, n, jb, cluster_tol)


def test_global_basis_spans_the_first_n_chain_vectors_at_interior_255():
    """Depth 8: the Jordan vectors up to order n are far from orthogonal,
    the global basis is orthonormal within 1e-12."""
    c = _binary_section(8, np.random.default_rng(8))
    jb = jordan_basis(c, 0.0)
    for n in (1, 2, 3, 8):
        _assert_orthonormal_chain_span(c, 0.0, n, jb)


def test_global_basis_eliminates_only_its_levels(monkeypatch):
    """Interior 255 at n = 2: one kernel elimination per level used, two
    in all, and no chain-top elimination."""
    c = _binary_section(8, np.random.default_rng(8))
    interior_spectrum(c)
    kernels, eliminations = [0], [0]
    real_null, real_echelon = spectral.nullspace_info, linalg._echelon

    def counting_null(a, tol):
        kernels[0] += 1
        return real_null(a, tol)

    def counting_echelon(m, tol):
        eliminations[0] += 1
        return real_echelon(m, tol)

    monkeypatch.setattr(spectral, "nullspace_info", counting_null)
    monkeypatch.setattr(linalg, "_echelon", counting_echelon)
    monkeypatch.setattr(spectral, "_echelon", counting_echelon)
    assert len(global_polyharmonic_basis(c, 0.0, 2)) == sum(min(2, k) for k in _height_oracle(c))
    assert kernels[0] == eliminations[0] == 2


def _narrow_gap_at_level(monkeypatch, level, size=5):
    """On a chain of ``size`` interior vertices whose kernels grow by one
    direction a level (the lazy forward path, one Jordan block), B_level
    is the deflated block of side size + 1 - level: let its elimination
    report retained and discarded pivots a factor 2 apart.  Returns the
    list of the levels eliminated, in order."""
    real, levels = spectral.nullspace_info, []

    def narrow(a, tol):
        levels.append(size + 1 - len(a))
        basis, info = real(a, tol)
        if levels[-1] == level:
            info = replace(info, largest_dropped=info.smallest_kept / 2)
        return basis, info

    monkeypatch.setattr(spectral, "nullspace_info", narrow)
    return levels


@pytest.mark.parametrize("level", [1, 2])
def test_global_basis_refuses_an_ambiguous_rank_at_a_level_it_uses(monkeypatch, level):
    c = _lazy_forward_path(5)
    interior_spectrum(c)
    _narrow_gap_at_level(monkeypatch, level)
    with pytest.raises(IllConditioned, match=rf"rank of B\^{level} ambiguous"):
        global_polyharmonic_basis(c, 0.5, 2)


def test_global_basis_ignores_an_ambiguous_rank_below_order_n(monkeypatch):
    """A bad gap at level 3 refuses the Jordan chains, not the order-2
    basis, which never eliminates B_3.  A refused run is never kept:
    each Jordan basis runs the staircase from level 1 and is refused
    again at B_3, while the order-2 basis still answers from the two
    levels kept and eliminates nothing."""
    c = _lazy_forward_path(5)
    interior_spectrum(c)
    levels = _narrow_gap_at_level(monkeypatch, 3)
    first = global_polyharmonic_basis(c, 0.5, 2)
    assert len(first) == 2
    assert levels == [1, 2]
    for _ in range(2):
        levels.clear()
        with pytest.raises(IllConditioned, match=r"rank of B\^3 ambiguous"):
            jordan_basis(c, 0.5)
        assert levels == [1, 2, 3]
        again = global_polyharmonic_basis(c, 0.5, 2)
        assert levels == [1, 2, 3]
        assert all(np.array_equal(u, v) for u, v in zip(again, first))


# ------------------------------------- the staircase a chain keeps

def _answer(c, lam, n, cluster_tol=linalg.CLUSTER_TOL):
    """Everything ``jordan_basis`` (n None) or the order-n global basis
    returns, as bytes and numbers, or the refusal's type and message."""
    try:
        if n is None:
            jb = jordan_basis(c, lam, cluster_tol=cluster_tol)
            return (jb.lam, jb.geo_mult, jb.alg_mult, jb.chain_lengths,
                    [[v.tobytes() for v in ch] for ch in jb.chains],
                    [(i.rank, i.pivots.tobytes(), i.smallest_kept, i.largest_dropped,
                      i.threshold) for i in jb.kernel_infos + jb.top_infos])
        basis = global_polyharmonic_basis(c, lam, n, cluster_tol=cluster_tol)
        return [(v.dtype.name, v.tobytes()) for v in basis]
    except (IllConditioned, NotAnEigenvalue) as e:
        return type(e).__name__, str(e)


def _copy(c):
    return build_chain(c.vertices, c.interior_ids, c.boundary_ids, c.trans)


# None is the Jordan basis, an integer the order of a global basis
_ORDERS = {"ascending": (1, 2, 3, 8, None), "descending": (None, 8, 3, 2, 1),
           "mixed": (2, None, 1, 8, 3)}


def _kept_against_fresh(c, cluster_tol=linalg.CLUSTER_TOL):
    """Every eigenvalue of ``c`` in every call order, and each pair of
    neighbouring eigenvalues alternating, on one kept chain per sequence;
    each call is compared with the same call on a new chain.  Returns
    the number of calls and of refusals."""
    zs = interior_spectrum(c, cluster_tol).spectrum.eigenvalues
    runs = [[(z, n) for n in order] for z in zs for order in _ORDERS.values()]
    runs += [[(z, n) for pair in zip(_ORDERS["mixed"], _ORDERS["descending"])
              for z, n in zip((z1, z2), pair)] for z1, z2 in zip(zs, zs[1:])]
    calls = refused = 0
    for run in runs:
        kept = _copy(c)
        for z, n in run:
            got = _answer(kept, z, n, cluster_tol)
            assert got == _answer(_copy(c), z, n, cluster_tol), (z, n)
            assert len(kept._staircase) <= 1
            calls += 1
            refused += got[0] in ("IllConditioned", "NotAnEigenvalue")
    return calls, refused


def _near_pair_chain(gap):
    """Two interior vertices that stay with probability 0.4 and
    0.4 + ``gap``: the eigenvalues, exactly those, merge into one of
    multiplicity 2 at a ``cluster_tol`` above ``gap``."""
    trans = [[0.4, 0.0, 0.6], [0.0, 0.4 + gap, 0.6 - gap], [0.0, 0.0, 1.0]]
    return build_chain(["x", "y", "w"], ["x", "y"], ["w"], trans)


def test_a_kept_staircase_answers_as_a_new_chain(p4, forward_path):
    """Jordan bases and global bases of order 1, 2, 3 and 8, byte for
    byte and refusal for refusal, on seeded random chains, tree sections
    and the small chains, at every eigenvalue, in ascending, descending
    and mixed order, and with neighbouring eigenvalues alternating."""
    cases = [(forward_path, linalg.CLUSTER_TOL), (p4, linalg.CLUSTER_TOL),
             (_lazy_forward_path(5), linalg.CLUSTER_TOL),
             (_triple_eigenvalue_chain(), 1e-4), (_near_pair_chain(1e-5), 1e-4)]
    rng = np.random.default_rng(31)
    cases += [(random_chain(rng, max_interior=6, max_boundary=2, rational=True),
               linalg.CLUSTER_TOL) for _ in range(18)]
    cases += [(random_chain(rng, size=n), linalg.CLUSTER_TOL) for n in (12, 24)]
    cases += [(_binary_section(d, np.random.default_rng(d)), linalg.CLUSTER_TOL)
              for d in (3, 4, 5)]
    for _ in range(16):
        tree = random_tree(rng, max_depth=5, max_branch=3)
        cases.append((restrict_to_section(tree, random_section(rng, tree)),
                      linalg.CLUSTER_TOL))
    calls = refused = 0
    for c, cluster_tol in cases:
        n_calls, n_refused = _kept_against_fresh(c, cluster_tol)
        calls, refused = calls + n_calls, refused + n_refused
    assert len(cases) == 44
    assert calls > 2000 and refused > 0, (calls, refused)


def test_a_refused_level_is_never_kept(monkeypatch):
    """A gap below ``GAP_FACTOR`` at level 1 leaves the kept staircase of
    another eigenvalue in place, and the next call, unpatched, answers
    as on a new chain."""
    pair = _near_pair_chain(1e-3)
    z1, z2 = interior_spectrum(pair).spectrum.eigenvalues
    global_polyharmonic_basis(pair, z1, 1)
    before = dict(pair._staircase)
    levels = _narrow_gap_at_level(monkeypatch, 1, size=2)
    with pytest.raises(IllConditioned, match=r"rank of B\^1 ambiguous"):
        jordan_basis(pair, z2)
    assert levels == [1] and pair._staircase == before
    monkeypatch.undo()
    assert _answer(pair, z2, None) == _answer(_copy(pair), z2, None)


def test_a_new_eigenvalue_tol_or_cluster_tol_replaces_the_kept_staircase():
    """One entry at most: each call below has a new key, the last one
    because a coarser ``cluster_tol`` merges the two eigenvalues into
    one of multiplicity 2.  That call is refused (B at their mean has no
    kernel), so it keeps nothing and the entry before it stays."""
    c = _near_pair_chain(1e-5)
    z1, z2 = interior_spectrum(c, 1e-6).spectrum.eigenvalues
    keys = []
    for lam, tol, cluster_tol in ((z1, 1e-8, 1e-6), (z2, 1e-8, 1e-6), (z2, 1e-9, 1e-6),
                                  (z2, 1e-9, 1e-4)):
        try:
            jordan_basis(c, lam, tol=tol, cluster_tol=cluster_tol)
        except IllConditioned as e:
            assert cluster_tol == 1e-4, e
            assert "kernel dimensions [] never reach algebraic multiplicity 2" in str(e)
        assert len(c._staircase) == 1
        keys.append(next(iter(c._staircase)))
    assert keys == [(z1.real, 1, 1e-8), (z2.real, 1, 1e-8), (z2.real, 1, 1e-9),
                    (z2.real, 1, 1e-9)]


def test_which_calls_run_the_staircase_again(monkeypatch):
    """On a 4-level tree section: a global basis answers every order up
    to its own from the levels it kept; a deeper call runs the staircase
    again from level 1.  After the Jordan basis, which reaches the
    multiplicity, no call at that eigenvalue eliminates a level."""
    c = _binary_section(4, np.random.default_rng(4))
    interior_spectrum(c)
    levels = []
    real = spectral.nullspace_info

    def counting(a, tol):
        levels.append(len(a))
        return real(a, tol)

    monkeypatch.setattr(spectral, "nullspace_info", counting)
    ran = []
    for call in (lambda: global_polyharmonic_basis(c, 0.0, 2),
                 lambda: global_polyharmonic_basis(c, 0.0, 1),
                 lambda: global_polyharmonic_basis(c, 0.0, 3),
                 lambda: jordan_basis(c, 0.0),
                 lambda: global_polyharmonic_basis(c, 0.0, 8),
                 lambda: global_polyharmonic_basis(c, 0.0, 2),
                 lambda: jordan_basis(c, 0.0)):
        levels.clear()
        call()
        ran.append(len(levels))
    assert ran == [2, 0, 3, 4, 0, 0, 0]


def test_the_kept_staircase_is_read_only_and_frees_its_chain():
    """Every array kept is read-only, the Jordan basis hands out the kept
    rank evidence, frozen, and what the chain keeps does not refer back
    to it: dropping the last reference frees it without a cycle
    collection."""
    c = _binary_section(4, np.random.default_rng(4))
    jb = jordan_basis(c, 0.0)
    (kept,) = c._staircase.values()
    new, infos, dims = kept
    assert len(new) == max(jb.chain_lengths) == 4 and dims[-1] == jb.alg_mult
    assert all(i is j for i, j in zip(jb.kernel_infos, infos))
    with pytest.raises(AttributeError):
        jb.kernel_infos[0].rank = 0
    for a in new + [i.pivots for i in infos]:
        with pytest.raises(ValueError, match="read-only"):
            a[...] = 0
    global_polyharmonic_basis(c, 0.0, 1)[0][...] = 0  # a copy the caller owns
    ref = weakref.ref(c)
    gc.disable()
    try:
        del c, jb, kept, new, infos
        assert ref() is None
    finally:
        gc.enable()


@pytest.mark.parametrize("tol", [True, np.bool_(True), 0.0, -1e-8, np.inf, np.nan])
def test_a_malformed_tol_is_refused(tol):
    """Before this refusal, on a 7-interior tree section, ``tol=True``
    (equal to 1.0) was refused as an ambiguous rank of B^1 and
    ``tol=inf`` as chain tops that could not be separated."""
    c = _binary_section(3, np.random.default_rng(3))
    with pytest.raises(ValueError, match="tol must be positive and finite"):
        jordan_basis(c, 0.0, tol=tol)
    with pytest.raises(ValueError, match="tol must be positive and finite"):
        global_polyharmonic_basis(c, 0.0, 2, tol=tol)
    assert c._staircase == {}


@pytest.mark.parametrize("n", [True, False, np.bool_(True), 2.5, 2.0, np.float64(2.0), "2", None])
def test_an_order_that_is_not_an_integer_is_refused(n):
    """``n=2.5`` used to end in a bare ``TypeError`` and ``n=True`` to be
    answered as n = 1."""
    c = _binary_section(3, np.random.default_rng(3))
    with pytest.raises(ValueError, match="order must be an integer"):
        global_polyharmonic_basis(c, 0.0, n)
    assert c._staircase == {}


def test_an_integer_order_of_any_integer_type_is_accepted():
    c = _binary_section(3, np.random.default_rng(3))
    want = _answer(c, 0.0, 2)
    assert _answer(c, 0.0, np.int64(2)) == want
    with pytest.raises(ValueError, match="order must be >= 1"):
        global_polyharmonic_basis(c, 0.0, np.int32(0))


def _grid_network(m, rng=None):
    net = _cornerless_grid_network(m)
    if rng is None:
        return net
    edges = [(u, v, float(a)) for (u, v, _), a in
             zip(net.edges, rng.uniform(0.5, 2.0, len(net.edges)))]
    return build_network(edges, sorted(net.boundary))


@pytest.mark.parametrize("net", [
    _path_network(102),
    build_network([(f"p{i}", f"p{i + 1}", float(a)) for i, a in
                   enumerate(np.random.default_rng(4).uniform(0.5, 2.0, 101))],
                  ["p0", "p101"]),
    _grid_network(12),
    _grid_network(12, np.random.default_rng(5)),
], ids=["path102", "path102-random", "grid12", "grid12-random"])
def test_network_geometric_multiplicities_at_size(net):
    """Interior 100: each geometric multiplicity is the number of numpy
    eigenvalues at that point (up to 10 on the unit grid)."""
    rep = network_spectrum_check(net)
    want = np.linalg.eigvals(rep.chain.p_int).real
    assert want.size == 100
    counts = [int(np.sum(np.abs(want - z.real) <= 1e-6)) for z in rep.spectrum.eigenvalues]
    assert list(rep.geo_mults) == counts
    assert sum(counts) == want.size


def _alternating_path(n, small):
    """Path p0 .. p(n-1) with boundary {p0, p(n-1)} and conductances
    alternating 1 and ``small``: a pair of interior eigenvalues +-z with
    |z| (1e-8 here) inside the working cluster radius."""
    edges = [(f"p{i}", f"p{i + 1}", 1.0 if i % 2 == 0 else small) for i in range(n - 1)]
    return build_network(edges, ["p0", f"p{n - 1}"])


@pytest.mark.parametrize("net", [_alternating_path(10, 0.01), _alternating_path(12, 0.03)],
                         ids=["path10-0.01", "path12-0.03"])
def test_network_check_accepts_a_merged_pair(net):
    """Two distinct eigenvalues merged into one cluster of multiplicity 2
    are two independent eigenvectors, not a defective eigenvalue."""
    rep = network_spectrum_check(net)
    assert rep.geo_mults == rep.alg_mults
    assert 2 in rep.alg_mults


def test_network_multiplicities_on_the_unit_grid_20():
    """Interior 324 with multiplicities up to 18: each geometric
    multiplicity is the number of numpy eigenvalues at that point, within
    a 32 MB tracemalloc peak."""
    net = _grid_network(20)
    tracemalloc.start()
    try:
        rep = network_spectrum_check(net)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 32 * 2**20
    want = np.linalg.eigvals(rep.chain.p_int).real
    assert want.size == 324
    counts = [int(np.sum(np.abs(want - z.real) <= 1e-6)) for z in rep.spectrum.eigenvalues]
    assert list(rep.geo_mults) == counts
    assert sum(counts) == want.size and max(counts) >= 10


# how far numpy's eigenvalues, clustered at the report's radius, may put
# a cluster's centre from the reported one: numpy's forward error on
# P_int = D^-1 S D is at most cond(D) n eps |P_int|, and cond(D) reaches
# about 1e6 at conductances 10^U(-6, 6)
CENTRE_TOL = 1e-8


def test_random_networks_are_not_refused():
    """Random connected networks, interior up to 58, conductances
    10^U(-s, s) for s = 2, 4, 6: the check returns with equal
    multiplicities, and numpy's eigenvalues of P_int, split at every gap
    wider than the report's radius, give its multiplicities and, within
    ``CENTRE_TOL``, its centres."""
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies

    @hyp.settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @hyp.given(n=st.integers(5, 59), two_sided=st.booleans(), spread=st.sampled_from([2, 4, 6]),
               seed=st.integers(0, 2**32 - 1))
    def check(n, two_sided, spread, seed):
        rng = np.random.default_rng(seed)
        names = [f"v{k}" for k in range(n)]
        pairs = [(i, i + 1) for i in range(n - 1)] + [
            (int(i), int(j)) for i, j in rng.integers(0, n, (n // 2, 2)) if i != j]
        edges = [(names[i], names[j], float(10 ** rng.uniform(-spread, spread)))
                 for i, j in pairs]
        rep = network_spectrum_check(
            build_network(edges, [names[0], names[-1]] if two_sided else [names[0]]))
        assert rep.geo_mults == rep.alg_mults
        _assert_real_spectrum(rep)
        want = np.sort(np.linalg.eigvals(rep.chain.p_int).real)
        runs = np.split(want, np.flatnonzero(np.diff(want) > rep.spectrum.radius) + 1)
        assert tuple(len(r) for r in runs) == rep.alg_mults
        centres = np.array(rep.spectrum.eigenvalues).real
        assert np.abs([r.mean() for r in runs] - centres).max() <= CENTRE_TOL

    check()


# ------------------------------------- every refusal of the network check

def _weighted_path():
    return build_network([(f"p{i}", f"p{i + 1}", 1.0 + i) for i in range(9)], ["p0", "p9"])


def test_network_check_refuses_an_asymmetric_block(monkeypatch):
    net = _weighted_path()
    chain, m = net._walk
    # the network's chain as it is, the weights it symmetrises by skewed
    monkeypatch.setitem(net.__dict__, "_walk", (chain, {**m, "p4": m["p4"] * (1 + 1e-6)}))
    with pytest.raises(ReportedViolation, match="deviates from symmetry"):
        network_spectrum_check(net)


def test_network_check_refuses_an_inexact_eigenvector():
    with pytest.raises(ReportedViolation, match="relative residual"):
        network_spectrum_check(_weighted_path(), tol=1e-20)


def test_network_check_refuses_unequal_multiplicities(monkeypatch):
    """A repeated eigenpair passes the residual test, forms a cluster of
    two, and its two equal eigenvectors have rank 1."""
    real = np.linalg.eigh

    def repeat_first(a):
        w, v = real(a)
        w[1], v[:, 1] = w[0], v[:, 0]
        return w, v

    monkeypatch.setattr(np.linalg, "eigh", repeat_first)
    with pytest.raises(ReportedViolation, match="geometric multiplicity 1 != algebraic 2"):
        network_spectrum_check(_weighted_path())


# ------------------------- every refusal of jordan_basis and the global basis

def test_jordan_refuses_an_ambiguous_kernel_rank(monkeypatch, forward_path):
    real = spectral.nullspace_info

    def narrow_gap(a, tol):
        basis, info = real(a, tol)
        return basis, replace(info, largest_dropped=info.smallest_kept / 2)

    monkeypatch.setattr(spectral, "nullspace_info", narrow_gap)
    with pytest.raises(IllConditioned, match=r"rank of B\^1 ambiguous"):
        jordan_basis(forward_path, 0.0)


def test_jordan_refuses_kernels_short_of_the_multiplicity(monkeypatch, forward_path):
    real = spectral.eigenvalues

    def one_more(*args, **kwargs):
        spec = real(*args, **kwargs)
        return replace(spec, alg_mult=(spec.alg_mult[0] + 1,) + spec.alg_mult[1:])

    monkeypatch.setattr(spectral, "eigenvalues", one_more)
    with pytest.raises(IllConditioned, match=r"kernel dimensions \[1, 2\] never reach "
                                             r"algebraic multiplicity 3"):
        jordan_basis(forward_path, 0.0)


def test_jordan_refuses_fewer_tops_than_wanted(monkeypatch, forward_path):
    real = spectral._echelon

    def short_rank(m, tol):
        perm, info = real(m, tol)
        return perm, replace(info, rank=info.rank - 1)

    monkeypatch.setattr(spectral, "_echelon", short_rank)
    with pytest.raises(IllConditioned, match="could not separate 1 chain tops at level 2: rank 0"):
        jordan_basis(forward_path, 0.0)


def test_jordan_refuses_an_ambiguous_choice_of_tops(monkeypatch, forward_path):
    real = spectral._echelon

    def narrow_gap(m, tol):
        perm, info = real(m, tol)
        return perm, replace(info, largest_dropped=info.smallest_kept / 2)

    monkeypatch.setattr(spectral, "_echelon", narrow_gap)
    with pytest.raises(IllConditioned, match="could not separate 1 chain tops at level 2: rank 1"):
        jordan_basis(forward_path, 0.0)


def test_jordan_refuses_more_chains_than_new_kernel_vectors(monkeypatch):
    """One Jordan block of size 3 whose second deflated block, 2 x 2,
    is reported wholly singular: level 2 then has two new directions
    against one at level 1, and the total still reaches the multiplicity
    3.  The two chains started at level 2 have nowhere to go at level 1:
    a negative number of tops is wanted."""
    real = spectral.nullspace_info

    def widen_the_second_kernel(a, tol):
        basis, info = real(a, tol)
        return (list(np.eye(2)) if len(a) == 2 else basis), info

    monkeypatch.setattr(spectral, "nullspace_info", widen_the_second_kernel)
    with pytest.raises(IllConditioned, match="could not separate -1 chain tops at level 1"):
        jordan_basis(_lazy_forward_path(3), 0.5)


def test_global_basis_refuses_a_vector_not_annihilated(monkeypatch, forward_path):
    real = spectral._delta_power
    monkeypatch.setattr(spectral, "_delta_power", lambda p, q, lam, f_int, f_bnd, n: (
        real(p, q, lam, f_int, f_bnd, n) + 1e-6 * np.abs(f_int).max(axis=0)))
    with pytest.raises(IllConditioned, match=r"fails \(lam I - P\)\^2 annihilation"):
        global_polyharmonic_basis(forward_path, 0.0, 2)

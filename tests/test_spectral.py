import tracemalloc
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

from collections import deque

import numpy as np
import pytest

import polyharm
from polyharm import (
    boundary_distance,
    build_chain,
    build_network,
    build_tree,
    bvp,
    from_network,
    nth_boundary,
    nth_interior,
    restrict_to_section,
)
from polyharm import chain as chainmod
from polyharm.errors import (
    DeadInterior,
    EmptyPart,
    InactiveBoundary,
    NotAbsorbing,
    NotConnected,
    NotStochastic,
)

from conftest import random_chain


def test_p4_builds(p4):
    assert p4.interior_ids == ("a", "b")
    assert p4.boundary_ids == ("w1", "w2")
    assert np.allclose(p4.trans.sum(axis=1), 1.0)


def test_non_stochastic_row_rejected():
    trans = [
        [1.0, 0.0, 0.0, 0.0],
        [0.5, 0.0, 0.4, 0.0],  # sums to 0.9
        [0.0, 0.5, 0.0, 0.5],
        [0.0, 0.0, 0.0, 1.0],
    ]
    with pytest.raises(NotStochastic, match="a"):
        build_chain(["w1", "a", "b", "w2"], ["a", "b"], ["w1", "w2"], trans)


def test_negative_entry_rejected():
    trans = [[1.0, 0.0], [-0.5, 1.5]]
    with pytest.raises(NotStochastic):
        build_chain(["w", "x"], ["x"], ["w"], trans)


def test_boundary_row_must_be_unit():
    trans = [
        [0.9, 0.1, 0.0],
        [0.5, 0.0, 0.5],
        [0.0, 0.0, 1.0],
    ]
    with pytest.raises(NotAbsorbing):
        build_chain(["w1", "a", "w2"], ["a"], ["w1", "w2"], trans)


def test_dead_interior_detected():
    # x only loops to itself
    trans = [
        [1.0, 0.0, 0.0],
        [0.0, 1.0, 0.0],
        [0.5, 0.0, 0.5],
    ]
    with pytest.raises(DeadInterior, match="x"):
        build_chain(["w", "x", "y"], ["x", "y"], ["w"], trans)


def test_inactive_boundary_detected():
    trans = [
        [0.5, 0.5, 0.0],
        [0.0, 1.0, 0.0],
        [0.0, 0.0, 1.0],
    ]
    with pytest.raises(InactiveBoundary, match="w2"):
        build_chain(["x", "w1", "w2"], ["x"], ["w1", "w2"], trans)


def test_empty_parts_rejected():
    with pytest.raises(EmptyPart):
        build_chain(["a", "b"], ["a", "b"], [], np.eye(2))


def test_malformed_partition_rejected():
    with pytest.raises(ValueError):
        build_chain(["a", "w"], ["a", "w"], ["w"], np.eye(2))
    with pytest.raises(ValueError):
        build_chain(["a", "b", "w"], ["a"], ["w"], np.eye(3))


def test_sub_chain_p4(p4):
    assert np.allclose(p4.p_int, [[0.0, 0.5], [0.5, 0.0]])
    assert np.allclose(p4.q, [[0.5, 0.0], [0.0, 0.5]])
    assert p4.interior_ids == ("a", "b")


def test_sub_chain_single_interior():
    c = build_chain(["x", "w"], ["x"], ["w"], [[0, 1], [0, 1]])
    assert c.p_int.shape == (1, 1) and c.p_int[0, 0] == 0.0
    assert c.q[0, 0] == 1.0


def test_sub_chain_forward_path(forward_path):
    assert np.allclose(forward_path.p_int, [[0, 1], [0, 0]])
    assert np.allclose(forward_path.q, [[0], [1]])


def test_nth_boundary_p4(p4):
    assert nth_boundary(p4, 1) == {"w1", "w2"}
    assert nth_boundary(p4, 2) == {"w1", "w2", "a", "b"}


def test_nth_boundary_path5(path5):
    assert nth_boundary(path5, 2) == {"w1", "w2", "a", "c"}
    inner = set(path5.vertices) - nth_boundary(path5, 2)
    assert inner == {"b"}


def test_nth_boundary_monotone():
    rng = np.random.default_rng(11)
    for _ in range(20):
        c = random_chain(rng)
        prev = nth_boundary(c, 1)
        assert prev == set(c.boundary_ids)
        for n in range(2, 5):
            cur = nth_boundary(c, n)
            assert prev <= cur
            prev = cur


def test_rows_of_blocks_are_probability_vectors():
    rng = np.random.default_rng(7)
    for _ in range(20):
        c = random_chain(rng)
        stacked = np.hstack([c.p_int, c.q])
        assert np.all(stacked >= 0)
        assert np.allclose(stacked.sum(axis=1), 1.0, atol=1e-12)


# ------------------------------------------------------------- networks

def test_p4_from_unit_conductances(p4):
    net = build_network(
        [("w1", "a", 1.0), ("a", "b", 1.0), ("b", "w2", 1.0)], ["w1", "w2"]
    )
    c = from_network(net)
    assert c.interior_ids == ("a", "b")
    assert np.allclose(c.p_int, [[0.0, 0.5], [0.5, 0.0]])


def test_triangle_network_probabilities():
    net = build_network(
        [("x", "y", 2.0), ("x", "w", 1.0), ("y", "w", 1.0)], ["w"]
    )
    c = from_network(net)
    p = c.trans
    ix, iy, iw = (c.vertex_index(v) for v in ("x", "y", "w"))
    assert p[ix, iy] == pytest.approx(2 / 3)
    assert p[ix, iw] == pytest.approx(1 / 3)
    assert p[iy, ix] == pytest.approx(2 / 3)
    assert p[iy, iw] == pytest.approx(1 / 3)


def test_disconnected_network_rejected():
    with pytest.raises(NotConnected):
        build_network([("a", "b", 1.0), ("c", "d", 1.0)], ["b"])


def test_nonpositive_conductance_rejected():
    with pytest.raises(ValueError):
        build_network([("a", "b", 0.0)], ["b"])


def test_network_reversibility():
    rng = np.random.default_rng(3)
    for _ in range(10):
        n = int(rng.integers(4, 9))
        names = [f"v{k}" for k in range(n)]
        edges = []
        for i in range(n - 1):  # spanning path keeps it connected
            edges.append((names[i], names[i + 1], float(0.2 + rng.random())))
        for _ in range(n):
            i, j = rng.integers(0, n, 2)
            if i != j:
                edges.append((names[i], names[j], float(0.2 + rng.random())))
        nb = int(rng.integers(1, 3))
        for w in names[:nb]:  # every boundary vertex needs an interior neighbour
            edges.append((w, names[nb], float(0.2 + rng.random())))
        net = build_network(edges, names[:nb])
        c = from_network(net)
        weights = {v: 0.0 for v in names}
        for u, v, a in net.edges:
            weights[u] += a
            if u != v:
                weights[v] += a
        for x in c.interior_ids:
            for y in c.interior_ids:
                mx = weights[x] * c.trans[c.vertex_index(x), c.vertex_index(y)]
                my = weights[y] * c.trans[c.vertex_index(y), c.vertex_index(x)]
                assert mx == pytest.approx(my, abs=1e-12)


def test_boundary_distance(path5):
    dist = boundary_distance(path5)
    assert dist == {"w1": 0, "w2": 0, "a": 1, "b": 2, "c": 1}


def _distance_by_relaxation(c):
    """Fewest steps to the boundary by iterating "some successor is within
    k steps" on the support matrix, apart from any search code."""
    step = c.trans > 0.0
    np.fill_diagonal(step, False)
    within = np.zeros(c.n, dtype=bool)
    within[list(c.boundary)] = True
    dist = np.where(within, 0, -1)
    for k in range(1, c.n + 1):
        within = within | (step & within[None, :]).any(axis=1)
        dist[within & (dist < 0)] = k
    return {v: int(d) for v, d in zip(c.vertices, dist)}


def _sparse_chain(rng, n):
    """Random chain whose interior is a forward path to the boundary plus
    a few random edges, so distances range from 1 to the path length."""
    nb = int(rng.integers(1, 4))
    ni = n - nb
    names = [f"x{k}" for k in range(ni)] + [f"w{k}" for k in range(nb)]
    trans = np.zeros((n, n))
    for i in range(ni):
        trans[i, i + 1 if i + 1 < ni else ni] = 1.0
        for j in rng.integers(0, ni, size=2):
            trans[i, j] += rng.random()
        trans[i] /= trans[i].sum()
    for j in range(nb):
        trans[ni + j, ni + j] = 1.0
    for j in range(1, nb):  # every boundary vertex must be hit
        trans[ni - 1, ni + j] = 1.0
    trans[ni - 1] /= trans[ni - 1].sum()
    return build_chain(names, names[:ni], names[ni:], trans)


def test_boundary_distance_matches_relaxation():
    for n in range(2, 61):
        c = random_chain(np.random.default_rng(n), size=n)
        assert boundary_distance(c) == _distance_by_relaxation(c)
    rng = np.random.default_rng(61)
    for n in range(5, 61, 5):
        c = _sparse_chain(rng, n)
        assert boundary_distance(c) == _distance_by_relaxation(c)
        assert max(c.dist) > 1


def test_boundary_search_runs_once_per_chain(monkeypatch):
    c = random_chain(np.random.default_rng(3), size=20)
    calls = []
    real = chainmod._sweep_distances
    monkeypatch.setattr(chainmod, "_sweep_distances",
                        lambda *args: calls.append(1) or real(*args))
    g = np.ones(len(c.boundary))
    bvp.solve_riquier(bvp.RiquierProblem(1.5, (g, 2 * g, 3 * g)), c)
    bvp.solve_dirichlet(c, 1.5, g)
    assert calls == []


def test_nth_boundary_rejects_bad_order(p4):
    with pytest.raises(ValueError):
        nth_boundary(p4, 0)


def test_nth_interior_is_the_complement_of_nth_boundary():
    rng = np.random.default_rng(62)
    chains = [random_chain(np.random.default_rng(n), size=n) for n in (2, 9, 40)]
    chains += [_sparse_chain(rng, n) for n in (5, 20, 60)]
    for c in chains:
        for n in range(1, max(c.dist) + 2):
            assert nth_interior(c, n) == tuple(sorted(set(c.vertices) - nth_boundary(c, n)))
        assert nth_interior(c, max(c.dist) + 1) == ()
    with pytest.raises(ValueError):
        nth_interior(chains[0], 0)


# ------------------------------------------- sweeps against the old search

def _reference_search(vertices, interior, boundary, p):
    """The per-edge searches ``build_chain`` made before the frontier
    sweeps, kept as the reference: a reverse search from the boundary for
    the distances, then a forward search from the interior for the
    boundary vertices it hits."""
    n = len(vertices)
    succ = [list(np.nonzero(p[i] > 0.0)[0]) for i in range(n)]
    pred = [[] for _ in range(n)]
    for i, row in enumerate(succ):
        for j in row:
            if i != j:
                pred[j].append(i)
    dist = [-1] * n
    for w in boundary:
        dist[w] = 0
    queue = deque(boundary)
    while queue:
        v = queue.popleft()
        for u in pred[v]:
            if dist[u] < 0:
                dist[u] = dist[v] + 1
                queue.append(u)
    for x in interior:
        if dist[x] < 0:
            raise DeadInterior(f"interior vertex {vertices[x]} cannot reach the boundary")
    reached = set()
    queue = deque(interior)
    seen = set(interior)
    while queue:
        v = queue.popleft()
        for y in succ[v]:
            reached.add(y)
            if y not in seen:
                seen.add(y)
                if y in interior:
                    queue.append(y)
    for w in boundary:
        if w not in reached:
            raise InactiveBoundary(f"boundary vertex {vertices[w]} is never reached")
    return tuple(dist)


def _lazy_path(n):
    """Lazy walk on an n-vertex path, both ends absorbing: diameter n/2."""
    trans = np.zeros((n, n))
    trans[0, 0] = trans[-1, -1] = 1.0
    for i in range(1, n - 1):
        trans[i, i - 1:i + 2] = (0.25, 0.5, 0.25)
    ids = [f"v{i}" for i in range(n)]
    return build_chain(ids, ids[1:-1], [ids[0], ids[-1]], trans)


def _tree_section(depth):
    """Binary forward tree cut at its last generation."""
    children, frontier = {}, ["t"]
    for _ in range(depth):
        nxt = []
        for v in frontier:
            children[v] = [v + "0", v + "1"]
            nxt += children[v]
        frontier = nxt
    return restrict_to_section(build_tree(children, forward_probs={
        k: 0.5 for kids in children.values() for k in kids}), frontier)


def _sweep_test_chains():
    for n in list(range(2, 61)) + [100, 200, 400]:
        yield random_chain(np.random.default_rng(n), size=n)
    rng = np.random.default_rng(61)
    for n in list(range(5, 61, 5)) + [100, 200, 400]:
        yield _sparse_chain(rng, n)
    yield _lazy_path(400)
    yield _tree_section(5)
    yield _tree_section(6)


def test_sweep_distances_match_the_reference_search():
    for c in _sweep_test_chains():
        want = _reference_search(c.vertices, c.interior, c.boundary, c.trans)
        assert c.dist == want
        assert all(type(d) is int for d in c.dist)
    assert max(_lazy_path(400).dist) == 199


def _shuffled(rng, n):
    """Inputs to ``build_chain`` for a dense random chain with n // 3
    boundary vertices, in a shuffled vertex order, so that interior and
    boundary indices interleave."""
    nb = n // 3
    vertices = [f"x{k}" for k in range(n - nb)] + [f"w{k}" for k in range(nb)]
    trans = 0.1 + rng.random((n, n))
    trans /= trans.sum(axis=1, keepdims=True)
    trans[n - nb:] = np.eye(n)[n - nb:]
    perm = rng.permutation(n)
    return ([vertices[k] for k in perm], vertices[:n - nb], vertices[n - nb:],
            trans[np.ix_(perm, perm)])


def _structural_error(vertices, interior, boundary, trans):
    with pytest.raises((DeadInterior, InactiveBoundary)) as got:
        build_chain(vertices, interior, boundary, trans)
    index = {v: i for i, v in enumerate(vertices)}
    with pytest.raises(got.type, match="^" + str(got.value) + "$"):
        _reference_search(vertices, sorted(index[v] for v in interior),
                          sorted(index[v] for v in boundary), trans)
    return got.value


@pytest.mark.parametrize("n", [9, 30, 120])
def test_two_dead_interior_vertices_name_the_first(n):
    rng = np.random.default_rng(n)
    vertices, interior, boundary, trans = _shuffled(rng, n)
    dead = sorted(vertices.index(v) for v in rng.choice(interior, size=2, replace=False))
    for x in dead:  # the two walk only between themselves
        trans[x] = 0.0
        trans[x, dead] = 0.5
    exc = _structural_error(vertices, interior, boundary, trans)
    assert isinstance(exc, DeadInterior)
    assert str(exc) == f"interior vertex {vertices[dead[0]]} cannot reach the boundary"


@pytest.mark.parametrize("n", [9, 30, 120])
def test_two_unreached_boundary_vertices_name_the_first(n):
    rng = np.random.default_rng(n)
    vertices, interior, boundary, trans = _shuffled(rng, n)
    cold = sorted(vertices.index(w) for w in rng.choice(boundary, size=2, replace=False))
    rows = [vertices.index(x) for x in interior]
    trans[np.ix_(rows, cold)] = 0.0
    trans[rows] /= trans[rows].sum(axis=1, keepdims=True)
    exc = _structural_error(vertices, interior, boundary, trans)
    assert isinstance(exc, InactiveBoundary)
    assert str(exc) == f"boundary vertex {vertices[cold[0]]} is never reached"


# ------------------------------------------------------ blocks and embed

def test_blocks_are_formed_once_and_read_only():
    c = random_chain(np.random.default_rng(5), size=30)
    ii, bb = list(c.interior), list(c.boundary)
    assert c.p_int is c.p_int and c.q is c.q
    assert np.array_equal(c.p_int, c.trans[np.ix_(ii, ii)])
    assert np.array_equal(c.q, c.trans[np.ix_(ii, bb)])
    for block in (c.p_int, c.q):
        assert not block.flags.writeable
        with pytest.raises(ValueError):
            block[0, 0] = 0.5


def test_p_int_and_q_are_views_only_on_a_contiguous_layout():
    c = random_chain(np.random.default_rng(22), size=40)  # interior, then boundary
    for block in (c.p_int, c.q):
        assert np.shares_memory(block, c.trans) and not block.flags.writeable
    # the same chain with the boundary listed between interior vertices
    order = [*c.interior[:10], *c.boundary, *c.interior[10:]]
    ids = [c.vertices[i] for i in order]
    shuffled = build_chain(ids, c.interior_ids, c.boundary_ids, c.trans[np.ix_(order, order)])
    for block in (shuffled.p_int, shuffled.q):
        assert not np.shares_memory(block, shuffled.trans) and not block.flags.writeable
    assert np.array_equal(shuffled.p_int, c.p_int)
    assert np.array_equal(shuffled.q, c.q)
    lam = 1.3 + 0.1j
    assert np.abs(bvp.green(shuffled, lam).f - bvp.green(c, lam).f).max() < 1e-14


def test_green_twice_forms_p_int_once(monkeypatch):
    c = random_chain(np.random.default_rng(6), size=30)
    calls = []
    real = chainmod._block
    monkeypatch.setattr(chainmod, "_block",
                        lambda *args: calls.append(args[1:]) or real(*args))
    bvp.green(c, 1.5)
    bvp.green(c, 2.5)
    assert calls == [(c.interior, c.interior)]


@pytest.mark.parametrize("dtype", [float, complex])
def test_embed_round_trips(dtype):
    c = random_chain(np.random.default_rng(7), size=12)
    rng = np.random.default_rng(8)
    ii, bb = list(c.interior), list(c.boundary)
    ni, nb = len(ii), len(bb)

    def draw(*shape):
        x = rng.standard_normal(shape)
        return x + 1j * rng.standard_normal(shape) if dtype is complex else x

    x_int, x_bnd = draw(ni), draw(nb)
    v = c.embed(x_int, x_bnd)
    assert v.shape == (c.n,) and v.dtype == dtype
    assert np.array_equal(v[ii], x_int) and np.array_equal(v[bb], x_bnd)
    v = c.embed(x_int)
    assert v.dtype == dtype and np.array_equal(v[ii], x_int) and not v[bb].any()
    m_int, m_bnd = draw(ni, 3), draw(nb, 3)
    m = c.embed(m_int, m_bnd)
    assert m.shape == (c.n, 3) and m.dtype == dtype
    assert np.array_equal(m[ii], m_int) and np.array_equal(m[bb], m_bnd)
    assert np.array_equal(c.embed(m_int, 0.25)[bb], np.full((nb, 3), 0.25))


def test_sub_chain_names_are_gone():
    for name in ("sub_chain", "SubChainView"):
        assert name not in polyharm.__all__
        assert not hasattr(polyharm, name) and not hasattr(chainmod, name)


def test_from_network_parallel_edges_and_a_loop():
    net = build_network([("w", "a", 1.0), ("a", "b", 2.0), ("b", "a", 1.0),
                         ("b", "b", 0.5), ("b", "w2", 1.5)], ["w", "w2"])
    c = from_network(net)
    assert c.vertices == ("a", "b", "w", "w2")
    # m(a) = 1 + 3, m(b) = 3 + 0.5 + 1.5; the loop counts once
    assert np.array_equal(c.trans, [[0.0, 0.75, 0.25, 0.0],
                                    [0.6, 0.1, 0.0, 0.3],
                                    [0.0, 0.0, 1.0, 0.0],
                                    [0.0, 0.0, 0.0, 1.0]])


# ------------------------------------------------------ kept layouts

_LAYOUTS = {"p_int", "q", "interior_rows", "boundary_rows", "_nth"}


def _interleaved_chain(rng, n=9):
    """Dense chain whose interior and boundary alternate in vertex order,
    so neither part is one contiguous run of indices."""
    ids = [f"w{i}" if i % 2 == 0 else f"x{i}" for i in range(n)]
    trans = np.zeros((n, n))
    for i in range(n):
        if i % 2:
            row = 0.1 + rng.random(n)
            trans[i] = row / row.sum()
        else:
            trans[i, i] = 1.0
    return build_chain(ids, ids[1::2], ids[0::2], trans)


def test_a_new_chain_forms_no_layout():
    tree = build_tree({"o": ["a", "b"]}, measure={"o": 1.0, "a": 0.5, "b": 0.5})
    for c in (random_chain(np.random.default_rng(5), size=12),
              _interleaved_chain(np.random.default_rng(5)),
              restrict_to_section(tree, ["a", "b"])):
        assert not _LAYOUTS & set(vars(c))


def test_embed_through_an_index_layout_matches_fancy_indexing():
    rng = np.random.default_rng(71)
    c = _interleaved_chain(rng)
    assert isinstance(c.interior_rows, np.ndarray) and isinstance(c.boundary_rows, np.ndarray)
    k, nb = len(c.interior), len(c.boundary)
    vals = rng.random((k, 3)) + 1j * rng.random((k, 3))
    bvals = rng.random((nb, 3))
    for iv, bv in ((vals[:, 0], bvals[:, 0]), (vals, bvals), (vals.real, 2.5), (vals[:, 1], 0)):
        want = np.zeros((c.n,) + np.shape(iv)[1:], dtype=np.result_type(iv, bv))
        want[list(c.interior)] = iv
        want[list(c.boundary)] = bv
        got = c.embed(iv, bv)
        assert got.dtype == want.dtype and np.array_equal(got, want)


def test_contiguous_parts_embed_through_slices():
    tree = build_tree({"o": ["a", "b"]}, measure={"o": 1.0, "a": 0.5, "b": 0.5})
    for c in (random_chain(np.random.default_rng(7), size=12),
              restrict_to_section(tree, ["a", "b"])):
        assert isinstance(c.interior_rows, slice) and isinstance(c.boundary_rows, slice)
        vals = np.arange(len(c.interior)) + 1.0
        want = np.zeros(c.n)
        want[list(c.interior)] = vals
        want[list(c.boundary)] = -1.0
        assert np.array_equal(c.embed(vals, -1.0), want)


def test_nth_interior_is_kept_per_order():
    rng = np.random.default_rng(73)
    for c in (_sparse_chain(rng, 30), _interleaved_chain(rng)):
        for n in range(1, max(c.dist) + 2):
            first = nth_interior(c, n)
            assert nth_interior(c, n) is first
            assert first == tuple(sorted(v for v, d in zip(c.vertices, c.dist) if d >= n))
            ids, rows = chainmod.nth_layout(c, n)
            assert ids is first and not rows.flags.writeable
            assert sorted(c.vertices[i] for i in rows) == list(first)

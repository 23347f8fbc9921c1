import numpy as np
import pytest

from polyharm import (
    boundary_distance,
    build_chain,
    build_network,
    from_network,
    nth_boundary,
    sub_chain,
)
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
    view = sub_chain(p4)
    assert np.allclose(view.p, [[0.0, 0.5], [0.5, 0.0]])
    assert np.allclose(view.q, [[0.5, 0.0], [0.0, 0.5]])
    assert view.interior == ("a", "b")


def test_sub_chain_single_interior():
    c = build_chain(["x", "w"], ["x"], ["w"], [[0, 1], [0, 1]])
    view = sub_chain(c)
    assert view.p.shape == (1, 1) and view.p[0, 0] == 0.0
    assert view.q[0, 0] == 1.0


def test_sub_chain_forward_path(forward_path):
    view = sub_chain(forward_path)
    assert np.allclose(view.p, [[0, 1], [0, 0]])
    assert np.allclose(view.q, [[0], [1]])


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
        view = sub_chain(c)
        stacked = np.hstack([view.p, view.q])
        assert np.all(stacked >= 0)
        assert np.allclose(stacked.sum(axis=1), 1.0, atol=1e-12)


# ------------------------------------------------------------- networks

def test_p4_from_unit_conductances(p4):
    net = build_network(
        [("w1", "a", 1.0), ("a", "b", 1.0), ("b", "w2", 1.0)], ["w1", "w2"]
    )
    c = from_network(net)
    assert c.interior_ids == ("a", "b")
    view = sub_chain(c)
    assert np.allclose(view.p, [[0.0, 0.5], [0.5, 0.0]])


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
    from polyharm import bvp, chain as chainmod

    c = random_chain(np.random.default_rng(3), size=20)
    calls = []
    real = chainmod._support_edges
    monkeypatch.setattr(chainmod, "_support_edges",
                        lambda trans: calls.append(1) or real(trans))
    g = np.ones(len(c.boundary))
    bvp.solve_riquier(bvp.RiquierProblem(1.5, (g, 2 * g, 3 * g)), c)
    bvp.solve_dirichlet(c, 1.5, g)
    assert calls == []


def test_nth_boundary_rejects_bad_order(p4):
    with pytest.raises(ValueError):
        nth_boundary(p4, 0)

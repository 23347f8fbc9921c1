"""Finite absorbing Markov chains with an interior/boundary partition.

A chain is a vertex set split into a non-empty interior and a non-empty
boundary, together with a row-stochastic transition matrix P in which
every boundary vertex is absorbing (unit self-loop), every interior
vertex can reach the boundary, and every boundary vertex is reachable
from the interior.  All numeric work downstream is phrased in terms of
the interior block of P and the interior-to-boundary coupling Q.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import (
    DeadInterior,
    EmptyPart,
    InactiveBoundary,
    NotAbsorbing,
    NotConnected,
    NotStochastic,
    ZeroDegree,
)

ROW_SUM_TOL = 1e-12
# entries below this magnitude are treated as JSON round-trip noise
ENTRY_CLIP = 1e-15


@dataclass(frozen=True, eq=False)
class Chain:
    """Validated absorbing chain.

    Immutable after construction; the transition matrix is stored with
    the write flag cleared so instances can be shared freely.

    Attributes
    ----------
    vertices : tuple of str
        Vertex ids in matrix order.
    interior, boundary : tuple of int
        Index sets of the two parts, each ascending.
    trans : ndarray
        Row-stochastic |X| x |X| matrix, boundary rows exact unit vectors.
    dist : tuple of int
        Fewest steps from each vertex to the boundary, in vertex order.
    """

    vertices: tuple[str, ...]
    interior: tuple[int, ...]
    boundary: tuple[int, ...]
    trans: np.ndarray
    index: dict[str, int] = field(repr=False)
    dist: tuple[int, ...] = field(repr=False)

    @property
    def n(self) -> int:
        return len(self.vertices)

    @property
    def interior_ids(self) -> tuple[str, ...]:
        return tuple(self.vertices[i] for i in self.interior)

    @property
    def boundary_ids(self) -> tuple[str, ...]:
        return tuple(self.vertices[i] for i in self.boundary)

    def vertex_index(self, vid: str) -> int:
        try:
            return self.index[vid]
        except KeyError:
            raise ValueError(f"unknown vertex id {vid!r}") from None


@dataclass(frozen=True)
class Network:
    """Finite resistive network: undirected positive conductances plus a
    designated boundary set."""

    edges: tuple[tuple[str, str, float], ...]
    boundary: tuple[str, ...]


@dataclass(frozen=True)
class SubChainView:
    """Interior restriction of a chain: the interior block ``p`` and the
    interior-to-boundary coupling ``q``, with the index maps that tie the
    blocks back to vertex ids."""

    p: np.ndarray
    q: np.ndarray
    interior: tuple[str, ...]
    boundary: tuple[str, ...]


def _support_edges(trans: np.ndarray) -> list[list[int]]:
    n = trans.shape[0]
    return [list(np.nonzero(trans[i] > 0.0)[0]) for i in range(n)]


def build_chain(
    vertices: Sequence[str],
    interior: Iterable[str],
    boundary: Iterable[str],
    trans,
) -> Chain:
    """Validate and build a :class:`Chain`.

    Parameters
    ----------
    vertices : sequence of str
        All vertex ids, defining matrix order.
    interior, boundary : iterables of str
        The two parts of the vertex set.
    trans : array-like
        |X| x |X| real matrix of transition probabilities.

    Raises
    ------
    EmptyPart, NotStochastic, NotAbsorbing, DeadInterior, InactiveBoundary
        On the corresponding structural violation.
    ValueError
        On malformed index sets or dimension mismatch.
    """
    vertices = tuple(str(v) for v in vertices)
    if len(set(vertices)) != len(vertices):
        raise ValueError("duplicate vertex ids")
    index = {v: i for i, v in enumerate(vertices)}

    interior_ids = set(map(str, interior))
    boundary_ids = set(map(str, boundary))
    unknown = (interior_ids | boundary_ids) - set(vertices)
    if unknown:
        raise ValueError(f"ids not in vertex list: {sorted(unknown)}")
    if interior_ids & boundary_ids:
        raise ValueError(
            f"interior and boundary overlap: {sorted(interior_ids & boundary_ids)}"
        )
    if interior_ids | boundary_ids != set(vertices):
        missing = set(vertices) - interior_ids - boundary_ids
        raise ValueError(f"vertices in neither part: {sorted(missing)}")
    if not interior_ids or not boundary_ids:
        raise EmptyPart("interior and boundary must both be non-empty")

    p = np.array(trans, dtype=float)
    n = len(vertices)
    if p.shape != (n, n):
        raise ValueError(f"transition matrix shape {p.shape}, expected {(n, n)}")
    if not np.all(np.isfinite(p)):
        raise NotStochastic("non-finite transition entries")
    p = p.copy()
    p[np.abs(p) < ENTRY_CLIP] = 0.0
    if np.any(p < 0.0):
        i, j = np.argwhere(p < 0.0)[0]
        raise NotStochastic(
            f"negative probability p({vertices[i]},{vertices[j]}) = {p[i, j]}"
        )
    row_sums = p.sum(axis=1)
    bad = np.nonzero(np.abs(row_sums - 1.0) > ROW_SUM_TOL)[0]
    if bad.size:
        i = int(bad[0])
        raise NotStochastic(f"row {vertices[i]} sums to {row_sums[i]!r}")

    interior_idx = tuple(sorted(index[v] for v in interior_ids))
    boundary_idx = tuple(sorted(index[v] for v in boundary_ids))

    for w in boundary_idx:
        off = np.abs(p[w]).sum() - np.abs(p[w, w])
        if abs(p[w, w] - 1.0) > ROW_SUM_TOL or off > ROW_SUM_TOL:
            raise NotAbsorbing(f"boundary row {vertices[w]} is not absorbing")
        p[w] = 0.0
        p[w, w] = 1.0

    succ = _support_edges(p)

    # every interior vertex must reach the boundary: a reverse search,
    # which also gives each vertex its distance to the boundary
    pred: list[list[int]] = [[] for _ in range(n)]
    for i, row in enumerate(succ):
        for j in row:
            if i != j:
                pred[j].append(i)
    dist = [-1] * n
    for w in boundary_idx:
        dist[w] = 0
    queue = deque(boundary_idx)
    while queue:
        v = queue.popleft()
        for u in pred[v]:
            if dist[u] < 0:
                dist[u] = dist[v] + 1
                queue.append(u)
    for x in interior_idx:
        if dist[x] < 0:
            raise DeadInterior(f"interior vertex {vertices[x]} cannot reach the boundary")

    # every boundary vertex must be hit from the interior (forward search)
    reached: set[int] = set()
    queue = deque(interior_idx)
    seen = set(interior_idx)
    while queue:
        v = queue.popleft()
        for y in succ[v]:
            reached.add(y)
            if y not in seen:
                seen.add(y)
                if y in interior_idx:
                    queue.append(y)
    for w in boundary_idx:
        if w not in reached:
            raise InactiveBoundary(f"boundary vertex {vertices[w]} is never reached")

    p.setflags(write=False)
    return Chain(vertices, interior_idx, boundary_idx, p, index, tuple(dist))


def build_network(edges: Iterable[tuple[str, str, float]], boundary: Iterable[str]) -> Network:
    """Validate and build a :class:`Network` (connected, positive
    conductances, boundary a non-empty proper vertex subset)."""
    edge_list = tuple((str(u), str(v), float(a)) for u, v, a in edges)
    boundary_ids = tuple(sorted({str(w) for w in boundary}))
    if not edge_list:
        raise ValueError("network has no edges")
    for u, v, a in edge_list:
        if not (a > 0.0) or not np.isfinite(a):
            raise ValueError(f"conductance a({u},{v}) = {a} must be positive")
    vertex_set = {u for u, _, _ in edge_list} | {v for _, v, _ in edge_list}
    vertex_set |= set(boundary_ids)
    if not boundary_ids:
        raise EmptyPart("network boundary is empty")
    if set(boundary_ids) >= vertex_set:
        raise EmptyPart("network boundary leaves no interior")

    adj: dict[str, set[str]] = {v: set() for v in vertex_set}
    for u, v, _ in edge_list:
        adj[u].add(v)
        adj[v].add(u)
    start = next(iter(vertex_set))
    seen = {start}
    queue = deque([start])
    while queue:
        u = queue.popleft()
        for v in adj[u]:
            if v not in seen:
                seen.add(v)
                queue.append(v)
    if seen != vertex_set:
        raise NotConnected(f"network is disconnected: {sorted(vertex_set - seen)} unreachable")
    return Network(edge_list, boundary_ids)


def from_network(network: Network) -> Chain:
    """Convert a resistive network into an absorbing chain.

    Interior transition probabilities are conductances normalised by the
    vertex weight m(x) = sum of incident conductances; boundary rows are
    absorbing.  The result is reversible on the interior:
    m(x) p(x,y) = m(y) p(y,x).
    """
    vertex_set: set[str] = set(network.boundary)
    cond: dict[tuple[str, str], float] = {}
    for u, v, a in network.edges:
        vertex_set.update((u, v))
        # parallel edges accumulate
        cond[(u, v)] = cond.get((u, v), 0.0) + a
        if u != v:
            cond[(v, u)] = cond.get((v, u), 0.0) + a
    vertices = sorted(vertex_set)
    index = {v: i for i, v in enumerate(vertices)}
    boundary_ids = set(network.boundary)
    n = len(vertices)

    m = np.zeros(n)
    for (u, v), a in cond.items():
        m[index[u]] += a
    p = np.zeros((n, n))
    for x in vertices:
        xi = index[x]
        if x in boundary_ids:
            p[xi, xi] = 1.0
            continue
        if m[xi] <= 0.0:
            raise ZeroDegree(f"vertex {x} has zero total conductance")
        for (u, v), a in cond.items():
            if u == x:
                p[xi, index[v]] += a / m[xi]
    interior_ids = [v for v in vertices if v not in boundary_ids]
    return build_chain(vertices, interior_ids, sorted(boundary_ids), p)


def boundary_distance(chain: Chain) -> dict[str, int]:
    """Minimum number of steps from each vertex to the boundary along
    positive-probability edges (0 on the boundary itself)."""
    return dict(zip(chain.vertices, chain.dist))


def nth_boundary(chain: Chain, n: int) -> frozenset[str]:
    """Vertices from which the boundary is reachable in at most n-1 steps.

    n=1 gives the boundary itself; the complement of the result is the
    n-th interior, the set where an order-n solution is genuinely
    polyharmonic.
    """
    if n < 1:
        raise ValueError(f"order must be >= 1, got {n}")
    dist = boundary_distance(chain)
    return frozenset(v for v, d in dist.items() if d <= n - 1)


def sub_chain(chain: Chain) -> SubChainView:
    """Extract the interior block and boundary coupling of the chain."""
    p = chain.trans
    rows = np.ix_(chain.interior, chain.interior)
    cols = np.ix_(chain.interior, chain.boundary)
    return SubChainView(
        p=p[rows].copy(),
        q=p[cols].copy(),
        interior=chain.interior_ids,
        boundary=chain.boundary_ids,
    )


# ------------------------------------------------------- vector plumbing

def boundary_vector(chain: Chain, g) -> np.ndarray:
    """Coerce ``g`` (mapping id -> value, or sequence in boundary order)
    into a complex vector over the boundary.  A mapping must give a value
    for every boundary vertex and for nothing else."""
    k = len(chain.boundary)
    if isinstance(g, Mapping):
        missing = [w for w in chain.boundary_ids if w not in g]
        if missing:
            raise ValueError(f"boundary values missing for {missing}")
        if len(g) != k:
            extra = sorted(map(str, set(g) - set(chain.boundary_ids)))
            raise ValueError(f"boundary values given for ids that are not "
                             f"boundary vertices: {extra}")
        return np.array([complex(g[w]) for w in chain.boundary_ids])
    vec = np.asarray(g, dtype=complex)
    if vec.shape != (k,):
        raise ValueError(f"boundary vector shape {vec.shape}, expected ({k},)")
    return vec.copy()


def full_vector(chain: Chain, f) -> np.ndarray:
    """Coerce ``f`` (mapping id -> value, or sequence in vertex order)
    into a complex vector over all of X."""
    if isinstance(f, Mapping):
        missing = [v for v in chain.vertices if v not in f]
        if missing:
            raise ValueError(f"values missing for {missing}")
        return np.array([complex(f[v]) for v in chain.vertices])
    vec = np.asarray(f, dtype=complex)
    if vec.shape != (chain.n,):
        raise ValueError(f"vector shape {vec.shape}, expected ({chain.n},)")
    return vec.copy()

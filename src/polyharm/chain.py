"""Finite absorbing Markov chains with an interior/boundary partition.

A chain is a vertex set split into a non-empty interior and a non-empty
boundary, together with a row-stochastic transition matrix P in which
every boundary vertex is absorbing (unit self-loop), every interior
vertex can reach the boundary, and every boundary vertex is reachable
from the interior.  All numeric work downstream is phrased in terms of
the interior block of P and the interior-to-boundary coupling Q.

This module is the only one that knows how the two parts are laid out
in P.  :attr:`Chain.p_int` and :attr:`Chain.q` are those two blocks,
each formed once, on first read, and read-only: a view of P when the
block's rows and columns are each one contiguous run of indices, a copy
otherwise.  :meth:`Chain.embed` puts interior (and boundary) values back
into vertex order, through row layouts that are also formed on first use.
:func:`build_chain` answers its reachability questions with frontier
sweeps over one boolean support matrix: the sweeps give every vertex
its distance to the boundary (``Chain.dist``), and one ``any`` over the
interior-to-boundary block finds a boundary vertex no walk can hit.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import cached_property
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
    the write flag cleared so instances can be shared freely.  The
    mutable slot ``_green`` is written only by :func:`polyharm.bvp.green`:
    it keeps the chain's latest LU of lam I - P_int, with F and G once
    formed.  ``_spectrum`` is written only by
    :func:`polyharm.spectral.interior_spectrum`: it keeps the chain's
    latest interior spectrum, keyed by ``cluster_tol``, one entry at
    most and never a refused one.  ``_nth`` is written only by
    :func:`nth_layout`.  Nothing kept refers back to the chain.

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
    p_int, q : ndarray
        The interior block of ``trans`` and the interior-to-boundary
        coupling, read-only, each formed on first read.  Each is a view
        sharing memory with ``trans`` when its rows and its columns are
        one contiguous run of indices (interior listed before boundary,
        or after it), and a copy otherwise.
    interior_rows, boundary_rows : slice or ndarray
        Each part's rows, formed on first read: a slice when the part is
        one contiguous run of indices, a read-only index array otherwise.
    """

    vertices: tuple[str, ...]
    interior: tuple[int, ...]
    boundary: tuple[int, ...]
    trans: np.ndarray
    index: dict[str, int] = field(repr=False)
    dist: tuple[int, ...] = field(repr=False)
    # complex(lam) -> (LU, formed F and G) of the latest green(); one entry at most
    _green: dict = field(default_factory=dict, init=False, repr=False)
    # cluster_tol -> InteriorSpectrum of the latest interior_spectrum(); one entry at most
    _spectrum: dict = field(default_factory=dict, init=False, repr=False)

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

    @cached_property
    def p_int(self) -> np.ndarray:
        """Interior block P_int: transitions between interior vertices."""
        return _block(self.trans, self.interior, self.interior)

    @cached_property
    def q(self) -> np.ndarray:
        """Coupling Q: transitions from interior to boundary vertices."""
        return _block(self.trans, self.interior, self.boundary)

    @cached_property
    def interior_rows(self) -> slice | np.ndarray:
        return _rows(self.interior)

    @cached_property
    def boundary_rows(self) -> slice | np.ndarray:
        return _rows(self.boundary)

    @cached_property
    def _nth(self) -> dict:
        # n -> (n-th interior, its rows), formed per n by nth_layout
        return {}

    def embed(self, interior_vals, boundary_vals=0) -> np.ndarray:
        """Values over X in vertex order: ``interior_vals`` on the interior
        rows and ``boundary_vals`` on the boundary rows.

        A vector of interior values gives a vector over X; a matrix with
        one row per interior vertex gives a matrix with one row per
        vertex.  ``boundary_vals`` is a scalar, a vector in boundary order
        or, for a matrix, one row per boundary vertex.
        """
        interior_vals = np.asarray(interior_vals)
        out = np.zeros((self.n,) + interior_vals.shape[1:],
                       dtype=np.result_type(interior_vals, boundary_vals))
        out[self.interior_rows] = interior_vals
        out[self.boundary_rows] = boundary_vals
        return out


@dataclass(frozen=True)
class Network:
    """Finite resistive network: undirected positive conductances plus a
    designated boundary set."""

    edges: tuple[tuple[str, str, float], ...]
    boundary: tuple[str, ...]


def _rows(idx: tuple[int, ...]) -> slice | np.ndarray:
    """Ascending ``idx`` as a slice when it is one contiguous run, else
    as a read-only index array."""
    if idx[-1] - idx[0] + 1 == len(idx):
        return slice(idx[0], idx[-1] + 1)
    out = np.array(idx)
    out.setflags(write=False)
    return out


def _block(trans: np.ndarray, rows: tuple[int, ...], cols: tuple[int, ...]) -> np.ndarray:
    """``trans`` restricted to ``rows`` x ``cols`` (each ascending),
    read-only: a basic-slice view when both are one contiguous run of
    indices, a copy otherwise."""
    if rows[-1] - rows[0] + 1 == len(rows) and cols[-1] - cols[0] + 1 == len(cols):
        out = trans[rows[0]:rows[-1] + 1, cols[0]:cols[-1] + 1]
    else:
        out = trans[np.ix_(rows, cols)]
    out.setflags(write=False)
    return out


def _sweep_distances(step: np.ndarray, boundary: tuple[int, ...]) -> np.ndarray:
    """Fewest steps from each vertex to ``boundary`` along the support
    matrix ``step`` (``step[i, j]`` when p(i, j) > 0), -1 where the
    boundary is never reached.  Sweep d marks the vertices not yet
    reached that have an edge into the frontier, the vertices at d - 1."""
    dist = np.full(step.shape[0], -1)
    dist[list(boundary)] = 0
    frontier = dist == 0
    unseen = ~frontier
    d = 0
    while frontier.any():
        d += 1
        frontier = unseen & step[:, frontier].any(axis=1)
        dist[frontier] = d
        unseen &= ~frontier
    return dist


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

    step = p > 0.0
    # every interior vertex must reach the boundary; the sweeps also give
    # each vertex its distance to the boundary
    dist = _sweep_distances(step, boundary_idx)
    dead = np.flatnonzero(dist < 0)
    if dead.size:
        raise DeadInterior(f"interior vertex {vertices[dead[0]]} cannot reach the boundary")
    # every boundary vertex must be hit in one step from the interior
    hit = step[np.ix_(interior_idx, boundary_idx)].any(axis=0)
    if not hit.all():
        w = boundary_idx[int(np.argmin(hit))]
        raise InactiveBoundary(f"boundary vertex {vertices[w]} is never reached")

    p.setflags(write=False)
    return Chain(vertices, interior_idx, boundary_idx, p, index, tuple(dist.tolist()))


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


def conductances(network: Network) -> tuple[dict[tuple[str, str], float], dict[str, float]]:
    """The symmetric conductance table, parallel edges summed, and the
    vertex weights m(x) = sum of the conductances at x (a loop counts
    once)."""
    cond: dict[tuple[str, str], float] = {}
    for u, v, a in network.edges:
        cond[(u, v)] = cond.get((u, v), 0.0) + a
        if u != v:
            cond[(v, u)] = cond.get((v, u), 0.0) + a
    return cond, _vertex_weights(cond)


def _vertex_weights(cond: dict[tuple[str, str], float]) -> dict[str, float]:
    m: dict[str, float] = {}
    for (u, _), a in cond.items():
        m[u] = m.get(u, 0.0) + a
    return m


def from_network(network: Network) -> Chain:
    """Convert a resistive network into an absorbing chain.

    Interior transition probabilities are conductances normalised by the
    vertex weight m(x) = sum of incident conductances; boundary rows are
    absorbing.  The result is reversible on the interior:
    m(x) p(x,y) = m(y) p(y,x).
    """
    return _network_chain(network, conductances(network)[0])


def _network_chain(network: Network, cond: dict[tuple[str, str], float]) -> Chain:
    """:func:`from_network` from the network's conductance table."""
    m = _vertex_weights(cond)
    vertices = sorted(set(network.boundary) | set(m))
    index = {v: i for i, v in enumerate(vertices)}
    boundary_ids = set(network.boundary)
    n = len(vertices)

    interior_ids = [v for v in vertices if v not in boundary_ids]
    for x in interior_ids:
        if m[x] <= 0.0:
            raise ZeroDegree(f"vertex {x} has zero total conductance")
    p = np.zeros((n, n))
    for w in boundary_ids:
        p[index[w], index[w]] = 1.0
    for (u, v), a in cond.items():
        if u not in boundary_ids:
            p[index[u], index[v]] = a / m[u]
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
    return frozenset(v for v, d in zip(chain.vertices, chain.dist) if d <= n - 1)


def nth_interior(chain: Chain, n: int) -> tuple[str, ...]:
    """The complement of :func:`nth_boundary`, sorted: the vertices at
    least n steps from the boundary.  The chain keeps it, so every call
    with the same n returns the same tuple."""
    return nth_layout(chain, n)[0]


def nth_layout(chain: Chain, n: int) -> tuple[tuple[str, ...], np.ndarray]:
    """The n-th interior, sorted, and its rows (a read-only index array),
    formed on the first call for the chain and n and kept by the chain."""
    if n < 1:
        raise ValueError(f"order must be >= 1, got {n}")
    kept = chain._nth.get(n)
    if kept is None:
        kept = chain._nth[n] = _form_nth_layout(chain, n)
    return kept


def _form_nth_layout(chain: Chain, n: int) -> tuple[tuple[str, ...], np.ndarray]:
    rows = np.flatnonzero(np.array(chain.dist) >= n)
    rows.setflags(write=False)
    return tuple(sorted(chain.vertices[i] for i in rows)), rows


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

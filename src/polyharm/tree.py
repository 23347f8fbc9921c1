"""Forward-only trees: arc measures, sections, and closed-form kernels.

A forward-only tree carries a strictly positive additive mass
Prob(arc below x) on its boundary arcs; transitions run parent-to-child
with probability mass(child)/mass(parent).  Restricting to a section
(a vertex set met exactly once by every root-to-depth path) produces a
finite absorbing chain whose interior block is nilpotent, and on which
Green matrices, Martin kernels and the higher-order kernels all have
closed forms in the depth, the distance and the masses.  Those closed
forms are the independent oracles against which the general dense
solvers are validated.

A section is validated once per tree and sequence of ids, in one
breadth-first pass that records the restriction's interior and boundary.
That record is the domain of every closed form on the section and the
vertex layout of :func:`restrict_to_section`, so the two cannot differ.
It also holds each of its vertices' preorder interval, depth and mass,
so a closed-form entry is a few dict reads: ``x`` is an ancestor of
``y`` exactly when ``tin(x) <= tin(y) < tout(x)``.
"""

from __future__ import annotations

import functools
import math
from collections import deque, namedtuple
from dataclasses import dataclass, field
from typing import Collection, Iterable, Mapping

import numpy as np

from .chain import Chain, build_chain
from .errors import (
    AdditivityViolation,
    NonPositiveMass,
    NotASection,
    ZeroLambda,
)

ADDITIVITY_TOL = 1e-12


def binomial(a: int, k: int) -> int:
    """Generalised binomial coefficient via the falling factorial;
    exact for any integer ``a`` (including negatives) and k >= 0."""
    if k < 0:
        return 0
    num = 1
    for i in range(k):
        num *= a - i
    return num // math.factorial(k)


_NO_LAST = (object(), None, None)  # no caller's section is this object


@dataclass(eq=False)
class ForwardTree:
    """Rooted tree truncated at depth D with an additive arc measure.

    Every vertex of depth < D has at least one child (no interior
    leaves); vertices at depth D are the storage frontier.  Both the
    measure and the equivalent forward probabilities are kept, and each
    vertex's preorder interval ``[tin, tout)``: the preorder numbers of
    its subtree, so ancestry is one comparison.  The tree is not changed
    after :func:`build_tree`, so the sections it has accepted are
    remembered by their set of ids and not walked again.  The last
    section accepted as a ``list`` is also kept with a copy of its ids: a
    call that passes that same list object, with contents still equal to
    the copy, skips the lookup by ids.
    """

    root: str
    vertices: tuple[str, ...]           # breadth-first order
    parent: dict[str, str | None] = field(repr=False)
    children: dict[str, tuple[str, ...]] = field(repr=False)
    depth: dict[str, int] = field(repr=False)
    measure: dict[str, float] = field(repr=False)
    forward_p: dict[str, float] = field(repr=False)  # p(parent(x), x), x != root
    max_depth: int = 0
    _interval: dict[str, tuple[int, int]] = field(default_factory=dict, repr=False)
    # accepted sections, keyed by their set of ids
    _sections: dict[frozenset, "_Section"] = field(default_factory=dict, init=False, repr=False)
    # (list, copy of its ids, record) of the last section accepted as a list
    _last: tuple = field(default=_NO_LAST, init=False, repr=False)

    def is_ancestor(self, x: str, y: str) -> bool:
        """True when ``x`` lies on the root path of ``y`` (x == y counts).
        An unknown id raises ``ValueError``."""
        try:
            tx, ox = self._interval[x]
            ty = self._interval[y][0]
        except KeyError as exc:
            raise ValueError(f"unknown vertex {exc.args[0]!r}") from None
        return tx <= ty < ox

    def path_from_root(self, x: str) -> list[str]:
        path = [x]
        while self.parent[path[-1]] is not None:
            path.append(self.parent[path[-1]])  # type: ignore[arg-type]
        path.reverse()
        return path


def build_tree(
    children_spec: Mapping[str, Iterable[str]],
    measure: Mapping[str, float] | None = None,
    forward_probs: Mapping[str, float] | None = None,
) -> ForwardTree:
    """Build a validated :class:`ForwardTree`.

    Exactly one of ``measure`` (arc mass per vertex, root mass 1,
    additive across children) or ``forward_probs`` (p(parent, x) per
    non-root vertex, children summing to 1) must be given; the other
    representation is derived.

    Raises
    ------
    NonPositiveMass
        Any mass or probability <= 0.
    AdditivityViolation
        Children masses do not sum to the parent mass (or probabilities
        do not sum to 1) within 1e-12, or the root mass is not 1.
    ValueError
        Structural problems: cycles, several parents, interior leaves.
    """
    kids = {str(k): tuple(str(c) for c in v) for k, v in children_spec.items()}
    parent: dict[str, str | None] = {}
    for p, cs in kids.items():
        for c in cs:
            if c in parent:
                raise ValueError(f"vertex {c!r} has more than one parent")
            parent[c] = p
    all_ids = set(kids) | set(parent)
    roots = [v for v in all_ids if v not in parent]
    if len(roots) != 1:
        raise ValueError(f"expected exactly one root, found {sorted(roots)}")
    root = roots[0]
    parent[root] = None

    # breadth-first order; also detects unreachable parts / cycles
    order: list[str] = []
    depth = {root: 0}
    queue = deque([root])
    while queue:
        v = queue.popleft()
        order.append(v)
        for c in kids.get(v, ()):
            depth[c] = depth[v] + 1
            queue.append(c)
    if len(order) != len(all_ids):
        raise ValueError("children spec is not a single connected tree")
    max_depth = max(depth.values())
    for v in order:
        if depth[v] < max_depth and not kids.get(v, ()):
            raise ValueError(
                f"vertex {v!r} at depth {depth[v]} has no children but the "
                f"tree is stored to depth {max_depth}"
            )
    children = {v: kids.get(v, ()) for v in order}
    # preorder intervals: subtree sizes bottom-up, then each child starts
    # right after its parent and earlier siblings' subtrees
    size = dict.fromkeys(order, 1)
    for v in reversed(order[1:]):
        size[parent[v]] += size[v]  # type: ignore[index]
    tin = {root: 0}
    for v in order:
        t = tin[v] + 1
        for c in children[v]:
            tin[c] = t
            t += size[c]
    interval = {v: (tin[v], tin[v] + size[v]) for v in order}

    if (measure is None) == (forward_probs is None):
        raise ValueError("give exactly one of measure or forward_probs")

    if measure is not None:
        mass = {str(k): float(x) for k, x in measure.items()}
        missing = [v for v in order if v not in mass]
        if missing:
            raise ValueError(f"measure missing for {missing}")
        for v in order:
            if not mass[v] > 0.0:
                raise NonPositiveMass(f"mass at {v!r} is {mass[v]}")
        if abs(mass[root] - 1.0) > ADDITIVITY_TOL:
            raise AdditivityViolation(f"root mass {mass[root]!r} != 1")
        for v in order:
            if children[v]:
                s = sum(mass[c] for c in children[v])
                if abs(s - mass[v]) > ADDITIVITY_TOL:
                    raise AdditivityViolation(
                        f"children of {v!r} carry mass {s!r}, parent has {mass[v]!r}"
                    )
        fp = {c: mass[c] / mass[p] for c, p in parent.items() if p is not None}
    else:
        fp = {str(k): float(x) for k, x in forward_probs.items()}
        missing = [v for v in order if v != root and v not in fp]
        if missing:
            raise ValueError(f"forward probability missing for {missing}")
        for v, p in fp.items():
            if not p > 0.0:
                raise NonPositiveMass(f"forward probability into {v!r} is {p}")
        for v in order:
            if children[v]:
                s = sum(fp[c] for c in children[v])
                if abs(s - 1.0) > ADDITIVITY_TOL:
                    raise AdditivityViolation(
                        f"forward probabilities out of {v!r} sum to {s!r}"
                    )
        mass = {root: 1.0}
        for v in order:
            for c in children[v]:
                mass[c] = mass[v] * fp[c]

    return ForwardTree(
        root=root,
        vertices=tuple(order),
        parent=parent,
        children=children,
        depth=depth,
        measure=mass,
        forward_p=fp,
        max_depth=max_depth,
        _interval=interval,
    )


@dataclass(eq=False)
class BoundaryDistribution:
    """Finitely additive complex set function on boundary arcs, stored as
    one value per vertex (the mass of the arc below it)."""

    tree: ForwardTree
    values: dict[str, complex]

    def __post_init__(self):
        missing = [v for v in self.tree.vertices if v not in self.values]
        if missing:
            raise ValueError(f"distribution missing arcs {missing}")
        scale = max((abs(x) for x in self.values.values()), default=0.0)
        tol = ADDITIVITY_TOL * max(1.0, scale)
        for v in self.tree.vertices:
            cs = self.tree.children[v]
            if cs:
                s = sum(self.values[c] for c in cs)
                if abs(s - self.values[v]) > tol:
                    raise AdditivityViolation(
                        f"distribution not additive at {v!r}: children sum "
                        f"{s!r} vs {self.values[v]!r}"
                    )

    @classmethod
    def from_measure(cls, tree: ForwardTree) -> "BoundaryDistribution":
        return cls(tree, {v: complex(m) for v, m in tree.measure.items()})


# An accepted section and the restriction it cuts out, in the breadth-first
# order of the tree: ``interior`` (the vertices strictly above the section)
# and ``boundary`` (the section) as tuples, ``inner`` and ``ids`` as the same
# two sets, each a dict from vertex to (tin, tout, depth, mass).
_Section = namedtuple("_Section", "interior inner boundary ids")


def _check_section(tree: ForwardTree, section: Collection[str]) -> _Section:
    """The record of an accepted section: from the last-list memo, else
    by its ids, else from a new walk; the record fixes the domain of
    every closed form on that section.  The two per-entry closed forms
    test the memo inline, and call this only when it misses."""
    last = tree._last
    if section is last[0] and section == last[1]:
        return last[2]
    key = frozenset(section)
    rec = tree._sections.get(key)
    if rec is None:  # a rejected section raises here on every call
        rec = tree._sections[key] = _walk_section(tree, key)
    if type(section) is list:
        tree._last = (section, list(section), rec)
    return rec


def _walk_section(tree: ForwardTree, key: frozenset) -> _Section:
    """Validate a section in one breadth-first pass over the tree and
    record its restriction."""
    sec = frozenset(str(s) for s in key)
    unknown = [s for s in sec if s not in tree.depth]
    if unknown:
        raise NotASection(f"unknown section vertices {sorted(unknown)}")
    if tree.root in sec:
        raise NotASection("the root cannot belong to a section")
    # every root-to-frontier path must cross the section exactly once;
    # a parent comes before its children, so its hit count is known
    hits: dict[str | None, int] = {None: 0}
    interior, boundary = [], []
    for v in tree.vertices:
        h = hits[v] = hits[tree.parent[v]] + (v in sec)
        if h > 1:
            raise NotASection(f"path through {v!r} meets the section twice")
        if not tree.children[v] and h != 1:
            raise NotASection(f"path ending at {v!r} misses the section")
        if h == 0:
            interior.append(v)
        elif v in sec:
            boundary.append(v)
    iv, depth, mass = tree._interval, tree.depth, tree.measure
    inner, ids = ({v: (*iv[v], depth[v], mass[v]) for v in vs} for vs in (interior, boundary))
    return _Section(tuple(interior), inner, tuple(boundary), ids)


def restrict_to_section(tree: ForwardTree, section: Collection[str]) -> Chain:
    """Finite absorbing chain on the part of the tree at or above a
    section: section vertices absorb, strict ancestors keep their
    forward transition probabilities.  The interior block is nilpotent.
    """
    rec = _check_section(tree, section)
    vertices = rec.interior + rec.boundary
    index = {v: i for i, v in enumerate(vertices)}
    n = len(vertices)
    p = np.zeros((n, n))
    for v in rec.interior:
        for c in tree.children[v]:
            p[index[v], index[c]] = tree.measure[c] / tree.measure[v]
    for w in rec.boundary:
        p[index[w], index[w]] = 1.0
    return build_chain(vertices, rec.interior, rec.boundary, p)


def _require_nonzero(lam: complex) -> complex:
    if type(lam) is not complex:
        lam = complex(lam)
    if lam == 0:
        raise ZeroLambda("closed-form tree kernels need lam != 0")
    return lam


def tree_green(tree: ForwardTree, section: Collection[str], lam: complex,
               x: str, y: str) -> complex:
    """Closed-form Green value on the section-restricted chain:
    lam^(-d(x,y)-1) mass(y)/mass(x) when x is an ancestor of y (or x == y),
    zero off-path."""
    last = tree._last
    if type(lam) is complex and lam and section is last[0] and section == last[1]:
        inner = last[2].inner
    else:
        lam = _require_nonzero(lam)
        inner = _check_section(tree, section).inner
    try:
        tx, ox, dx, mx = inner[x]
        ty, _, dy, my = inner[y]
    except KeyError as exc:
        raise ValueError(
            f"{exc.args[0]!r} is not an interior vertex of the restriction") from None
    if not tx <= ty < ox:
        return 0j
    return lam ** (dx - dy - 1) * (my / mx)


def section_kernel(tree: ForwardTree, section: Collection[str], lam: complex,
                   r: int, x: str, w: str) -> complex:
    """Closed-form order-r kernel of the section restriction:
    lam^(|x|-r+1) C(d(x,w)+r-2, r-1) / mass(x) when w sits below x, zero
    otherwise.  Order 1 is the Martin kernel itself.  ``x`` must be a
    vertex of the restriction: interior or on the section."""
    last = tree._last
    if type(lam) is complex and lam and section is last[0] and section == last[1]:
        rec = last[2]
    else:
        lam = _require_nonzero(lam)
        rec = _check_section(tree, section)
    if r < 1:
        raise ValueError(f"order must be >= 1, got {r}")
    fw = rec.ids.get(w)
    if fw is None:
        raise ValueError(f"{w!r} is not a section vertex")
    fx = rec.inner.get(x) or rec.ids.get(x)
    if fx is None:
        raise ValueError(f"{x!r} is not a vertex of the restriction")
    tx, ox, dx, mx = fx
    tw, _, dw, _ = fw
    if not tx <= tw < ox:
        return 0j
    a = dw - dx + r - 2
    c = math.comb(a, r - 1) if a >= 0 else binomial(a, r - 1)
    return lam ** (dx - r + 1) * c / mx


def boundary_kernel(tree: ForwardTree, lam: complex, r: int, x: str,
                    arc_vertex: str) -> complex:
    """Closed-form order-r kernel of the unrestricted tree, evaluated on
    the boundary arc below ``arc_vertex``:
    (-1)^(r-1) lam^(|x|-(r-1)) C(|x|, r-1) / mass(x) when the arc lies
    below x, zero when the rays miss x.

    The value is constant over the arc only when ``arc_vertex`` is not a
    strict ancestor of ``x``; that ambiguous case raises ``ValueError``.
    """
    lam = _require_nonzero(lam)
    if r < 1:
        raise ValueError(f"order must be >= 1, got {r}")
    if tree.is_ancestor(x, arc_vertex):
        dx = tree.depth[x]
        return ((-1) ** (r - 1)) * lam ** (dx - (r - 1)) * binomial(dx, r - 1) \
            / tree.measure[x]
    if tree.is_ancestor(arc_vertex, x):
        raise ValueError(
            f"kernel at {x!r} is not constant on the arc below {arc_vertex!r}; "
            "pass a descendant of x"
        )
    return 0j


def eval_polyharmonic(tree: ForwardTree, lam: complex, distributions, x: str) -> complex:
    """Evaluate the canonical order-n representation at a vertex:
    f(x) = sum_r (-1)^(r-1) lam^(|x|-(r-1)) C(|x|, r-1)
           nu_r(arc below x)/mass(x).

    ``distributions`` is an ordered list nu_1 .. nu_n, each a
    :class:`BoundaryDistribution` or a mapping vertex -> complex
    (validated for additivity).  With n = 1 and nu_1 equal to the arc
    measure, f(x) = lam^|x|.
    """
    lam = _require_nonzero(lam)
    nus = [
        d if isinstance(d, BoundaryDistribution)
        else BoundaryDistribution(tree, {k: complex(v) for k, v in d.items()})
        for d in distributions
    ]
    if not nus:
        raise ValueError("need at least one distribution")
    try:
        dx = tree.depth[x]
    except KeyError:
        raise ValueError(f"unknown vertex {x!r}") from None
    total = 0j
    for r, nu in enumerate(nus, start=1):
        coeff = ((-1) ** (r - 1)) * lam ** (dx - (r - 1)) * binomial(dx, r - 1)
        total += coeff * nu.values[x] / tree.measure[x]
    return total


@dataclass(eq=False)
class KernelConsistencyReport:
    """Outcome of the kernel-consistency audit at one section vertex.

    ``max_deviation`` compares the unrestricted order-n kernel against
    its expansion in section kernels along the root path.  The two
    binomial forms behind that expansion are audited in exact integer
    arithmetic over 0 <= a < b <= 20, n <= 8: ``derived_identity_ok``
    covers the form this module uses; ``alternate_identity_ok`` covers a
    rejected variant (sign (-1)^(n-r) with offset b-a-r-2) that is kept
    only to document why it is not used, with a counterexample recorded
    when it fails.
    """

    lam: complex
    order: int
    section_vertex: str
    lhs: dict[str, complex]
    rhs: dict[str, complex]
    max_deviation: float
    derived_identity_ok: bool
    alternate_identity_ok: bool
    alternate_counterexample: tuple[int, int, int, int, int] | None


def _derived_identity_holds(a: int, b: int, n: int) -> bool:
    lhs = binomial(a, n - 1)
    rhs = sum(
        ((-1) ** (r - 1)) * binomial(b - a + r - 2, r - 1) * binomial(b, n - r)
        for r in range(1, n + 1)
    )
    return lhs == rhs


def _alternate_identity_values(a: int, b: int, n: int) -> tuple[int, int]:
    lhs = binomial(b, n - 1)
    rhs = sum(
        ((-1) ** (n - r)) * binomial(b - a - r - 2, r - 1) * binomial(b, n - r)
        for r in range(1, n + 1)
    )
    return lhs, rhs


def audit_binomial_identities(max_depth: int = 20, max_order: int = 8):
    """Exact integer audit of the two candidate binomial identities over
    all 0 <= a < b <= max_depth, 1 <= n <= max_order.

    Returns (derived_ok, alternate_ok, alternate_counterexample).  The
    audit is a pure function of its bounds and runs once per pair of
    bounds in a process."""
    return _audit(max_depth, max_order)


@functools.cache
def _audit(max_depth: int, max_order: int):
    derived_ok = True
    alternate_ok = True
    counterexample = None
    for b in range(1, max_depth + 1):
        for a in range(0, b):
            for n in range(1, max_order + 1):
                if not _derived_identity_holds(a, b, n):
                    derived_ok = False
                alt_l, alt_r = _alternate_identity_values(a, b, n)
                if alt_l != alt_r and alternate_ok:
                    alternate_ok = False
                    counterexample = (a, b, n, alt_l, alt_r)
    return derived_ok, alternate_ok, counterexample


def kernel_consistency_check(tree: ForwardTree, section: Collection[str],
                             lam: complex, n: int, w: str) -> KernelConsistencyReport:
    """Check that the unrestricted order-n kernel on the ray through a
    section vertex ``w`` matches its Riquier expansion on the section
    restriction.

    The expansion solves the restricted problem with boundary data
    g_r = (order-(n+1-r) unrestricted kernel at w) carried by the weight
    rule nu_r(v) = lam^(-|v|) g_r(v) mass(v); the comparison is reported
    for every vertex on the root path of ``w``.  The implied pure-integer
    binomial identity (and its rejected variant) is audited exactly.
    """
    lam = _require_nonzero(lam)
    sec = _check_section(tree, section).ids
    if n < 1:
        raise ValueError(f"order must be >= 1, got {n}")
    if w not in sec:
        raise ValueError(f"{w!r} is not a section vertex")

    dw = tree.depth[w]
    lhs: dict[str, complex] = {}
    rhs: dict[str, complex] = {}
    for x in tree.path_from_root(w):
        lhs[x] = boundary_kernel(tree, lam, n, x, w)
        total = 0j
        for r in range(1, n + 1):
            g_r = boundary_kernel(tree, lam, n + 1 - r, w, w)
            nu_r = lam ** (-dw) * g_r * tree.measure[w]
            total += section_kernel(tree, section, lam, r, x, w) * nu_r
        rhs[x] = total
    dev = max(abs(lhs[x] - rhs[x]) for x in lhs)

    derived_ok, alternate_ok, counter = audit_binomial_identities()
    return KernelConsistencyReport(
        lam=lam,
        order=n,
        section_vertex=w,
        lhs=lhs,
        rhs=rhs,
        max_deviation=float(dev),
        derived_identity_ok=derived_ok,
        alternate_identity_ok=alternate_ok,
        alternate_counterexample=counter,
    )

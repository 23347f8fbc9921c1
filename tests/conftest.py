"""Shared fixtures: canonical small chains and random instance generators."""

import tempfile

import numpy as np
import pytest

from polyharm import Chain, ForwardTree, build_chain, build_tree

try:  # the property tests skip when hypothesis is missing
    from hypothesis.configuration import set_hypothesis_home_dir
except ImportError:
    pass
else:
    # hypothesis caches the constants it reads from the source in its home
    # directory (by default ./.hypothesis) while pytest collects; point it at
    # a directory that is removed when the interpreter exits
    _HYPOTHESIS_HOME = tempfile.TemporaryDirectory(prefix="hypothesis-")
    set_hypothesis_home_dir(_HYPOTHESIS_HOME.name)


@pytest.fixture
def p4() -> Chain:
    """Path w1 - a - b - w2 with simple random walk inside."""
    trans = [
        [1.0, 0.0, 0.0, 0.0],
        [0.5, 0.0, 0.5, 0.0],
        [0.0, 0.5, 0.0, 0.5],
        [0.0, 0.0, 0.0, 1.0],
    ]
    return build_chain(["w1", "a", "b", "w2"], ["a", "b"], ["w1", "w2"], trans)


@pytest.fixture
def path5() -> Chain:
    """Path w1 - a - b - c - w2 with simple random walk inside."""
    trans = [
        [1.0, 0.0, 0.0, 0.0, 0.0],
        [0.5, 0.0, 0.5, 0.0, 0.0],
        [0.0, 0.5, 0.0, 0.5, 0.0],
        [0.0, 0.0, 0.5, 0.0, 0.5],
        [0.0, 0.0, 0.0, 0.0, 1.0],
    ]
    return build_chain(["w1", "a", "b", "c", "w2"], ["a", "b", "c"], ["w1", "w2"], trans)


@pytest.fixture
def forward_path() -> Chain:
    """Forward path o -> a -> w; the interior block is nilpotent."""
    trans = [
        [0.0, 1.0, 0.0],
        [0.0, 0.0, 1.0],
        [0.0, 0.0, 1.0],
    ]
    return build_chain(["o", "a", "w"], ["o", "a"], ["w"], trans)


@pytest.fixture
def binary_tree() -> ForwardTree:
    """Uniform binary tree stored to depth 2."""
    kids = {"o": ["u1", "u2"], "u1": ["v11", "v12"], "u2": ["v21", "v22"]}
    measure = {"o": 1.0, "u1": 0.5, "u2": 0.5,
               "v11": 0.25, "v12": 0.25, "v21": 0.25, "v22": 0.25}
    return build_tree(kids, measure=measure)


DEPTH2_SECTION = ["v11", "v12", "v21", "v22"]


def random_chain(rng: np.random.Generator, max_interior: int = 6,
                 max_boundary: int = 3, rational: bool = False,
                 size: int | None = None) -> Chain:
    """Dense random valid chain: every interior row charges every vertex,
    so all reachability conditions hold and the spectral radius stays
    comfortably below 1."""
    if size is None:
        ni = int(rng.integers(1, max_interior + 1))
        nb = int(rng.integers(1, max_boundary + 1))
    else:
        nb = int(rng.integers(1, max(2, size // 3)))
        ni = size - nb
    names = [f"x{k}" for k in range(ni)] + [f"w{k}" for k in range(nb)]
    n = ni + nb
    trans = np.zeros((n, n))
    for i in range(ni):
        if rational:
            row = rng.integers(1, 9, size=n).astype(float)
        else:
            row = 0.1 + rng.random(n)
        trans[i] = row / row.sum()
    for j in range(nb):
        trans[ni + j, ni + j] = 1.0
    return build_chain(names, names[:ni], names[ni:], trans)


def random_tree(rng: np.random.Generator, max_depth: int = 5,
                max_branch: int = 4) -> ForwardTree:
    """Random forward tree with equal-ish children masses (keeps kernel
    magnitudes sane for comparisons)."""
    depth = int(rng.integers(2, max_depth + 1))
    children: dict[str, list[str]] = {}
    measure = {"o": 1.0}
    frontier = ["o"]
    counter = 0
    for level in range(depth):
        nxt = []
        for v in frontier:
            k = int(rng.integers(1, max_branch + 1))
            kids = []
            shares = 0.5 + rng.random(k)
            shares /= shares.sum()
            for j in range(k):
                counter += 1
                cid = f"n{counter}"
                kids.append(cid)
                measure[cid] = measure[v] * float(shares[j])
            children[v] = kids
            nxt.extend(kids)
        frontier = nxt
    return build_tree(children, measure=measure)


def random_section(rng: np.random.Generator, tree: ForwardTree,
                   cut_prob: float = 0.3) -> list[str]:
    """Random section: walk down from the root, cutting each branch at a
    random depth >= 1 (always by the storage frontier)."""
    section: list[str] = []
    stack = list(tree.children[tree.root])
    while stack:
        v = stack.pop()
        at_frontier = not tree.children[v]
        if at_frontier or rng.random() < cut_prob:
            section.append(v)
        else:
            stack.extend(tree.children[v])
    return section


def random_resolvent_point(rng: np.random.Generator, rho: float,
                           margin: float = 0.1, spread: float = 1.5) -> complex:
    """Random complex point of modulus in (rho + margin, rho + spread]."""
    r = rho + margin + (spread - margin) * rng.random()
    phi = 2 * np.pi * rng.random()
    return complex(r * np.cos(phi), r * np.sin(phi))


def span_projector(vectors) -> np.ndarray:
    """Orthogonal projector onto the span (independent oracle via QR)."""
    v = np.column_stack([np.asarray(x, dtype=complex) for x in vectors])
    q, r = np.linalg.qr(v)
    keep = np.abs(np.diag(r)) > 1e-12 * max(1.0, float(np.abs(r).max()))
    q = q[:, keep]
    return q @ q.conj().T


def tower_oracle(chain: Chain, lam: complex, gs) -> list[np.ndarray]:
    """Stages f_1 .. f_n of the order-n tower on the interior, from one
    ``numpy.linalg.solve`` of the assembled n*k block-bidiagonal system

        [A -I          ] [f_1]   [Q g_1]
        [   A -I       ] [f_2] = [Q g_2]
        [      ...     ] [...]   [ ... ]
        [            A ] [f_n]   [Q g_n],   A = lam I - P_int,

    built from the transition matrix alone, so the package's LU plays no
    part in it."""
    ii, bb = list(chain.interior), list(chain.boundary)
    p, q = chain.trans[np.ix_(ii, ii)], chain.trans[np.ix_(ii, bb)]
    k, n = len(ii), len(gs)
    big = np.zeros((n * k, n * k), dtype=complex)
    rhs = np.zeros(n * k, dtype=complex)
    for r in range(n):
        rows = slice(r * k, (r + 1) * k)
        big[rows, rows] = lam * np.eye(k) - p
        if r + 1 < n:
            big[rows, (r + 1) * k:(r + 2) * k] = -np.eye(k)
        rhs[rows] = q @ np.asarray(gs[r], dtype=complex)
    x = np.linalg.solve(big, rhs)
    return [x[r * k:(r + 1) * k] for r in range(n)]


def oracle_problems(sol, chain: Chain, lam: complex, gs, rel: float = 1e-8) -> list[str]:
    """Where a Riquier or Dirichlet solution departs from
    :func:`tower_oracle`: its values, and every stage of ``sol.tower``
    when it has one, each within rel * (1 + max|oracle|)."""
    want = tower_oracle(chain, lam, gs)
    ii, bb = list(chain.interior), list(chain.boundary)
    pairs = [("values", sol.values[ii], want[0]),
             ("boundary values", sol.values[bb], np.asarray(gs[0], dtype=complex))]
    if sol.tower is not None:  # stages f_n .. f_1 on all of X
        pairs += [(f"stage f_{r}", full[ii], want[r - 1])
                  for r, full in zip(range(len(gs), 0, -1), sol.tower)]
    out = []
    for what, got, ref in pairs:
        dev = float(np.abs(got - ref).max())
        if not dev <= rel * (1.0 + float(np.abs(ref).max())):
            out.append(f"{what} off by {dev:.3e}")
    if sol.tower is not None and len(sol.tower) != len(gs):
        out.append(f"{len(sol.tower)} stages for order {len(gs)}")
    return out


def backward_error(a, x, b) -> float:
    """Worst normwise backward error over the columns of a solution:
    |Ax - b|_inf / (|A|_inf |x|_inf + |b|_inf)."""
    k = len(a)
    x, b = np.reshape(x, (k, -1)), np.reshape(b, (k, -1))
    norm_a = np.abs(a).sum(axis=1).max()
    resid = np.abs(a @ x - b).max(axis=0)
    return float((resid / (norm_a * np.abs(x).max(axis=0) + np.abs(b).max(axis=0))).max())


def solve_bound(k: int) -> float:
    """The backward error a solve with a k x k LU must stay within."""
    return max(k, 4) * float(np.finfo(float).eps)

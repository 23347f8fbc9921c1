"""Green matrices and boundary-value solvers on absorbing chains.

For a resolvent parameter ``lam`` outside the interior spectrum, the
Green matrix is G(lam) = (lam I - P_int)^-1 and the hitting matrix is
F(lam) = G(lam) Q.  At lam = 1, F(x, w) is the probability that the walk
started at x is absorbed at w.  :func:`green` only factors
lam I - P_int; F and G are formed from that LU when first read.  The
chain keeps its latest factorisation, with F and G once formed, so
every solver called on the same chain and lam shares one LU (and one
F), across calls.  The Dirichlet problem is one solve on it, the
order-n Riquier tower n, and the tower is checked by products with
P_int and Q, never with the LU.  Those real blocks multiply complex
vectors in real arithmetic (:func:`real_matmul`), never copied to
complex.  Besides its LU a chain keeps only layouts, each formed on its
first use: P_int and Q, the rows :meth:`Chain.embed` writes through, and
the n-th interior (ids and rows) of each order n asked for.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .chain import Chain, boundary_vector, full_vector, nth_interior, nth_layout
from .errors import ConsistencyError, LambdaInSpectrum, Singular, TowerMismatch
from .linalg import LUFactorization, lu_factor, real_matmul

RESIDUAL_RTOL = 1e-9
TOWER_TOL = 1e-8


def _scale(lam: complex, n: int, *vectors: np.ndarray) -> float:
    """(1 + |lam|)^n max(1, max|v|).  The rows of |lam I - P| sum to at
    most 1 + |lam|, so this bounds Delta_lam^n applied to the vectors.
    A power past the float range raises ``ValueError``: no check can use it."""
    big = max((float(np.abs(v).max()) for v in vectors if v.size), default=0.0)
    try:
        return (1.0 + abs(lam)) ** n * max(big, 1.0)
    except OverflowError:
        raise ValueError(f"(1 + |lam|)^{n} is past the float range at lam = {lam}") from None


def residual_tol(lam: complex, *vectors: np.ndarray) -> float:
    """Uniform scale-invariant residual tolerance used by all solvers."""
    return RESIDUAL_RTOL * _scale(lam, 1, *vectors)


def _delta_power(p: np.ndarray, q: np.ndarray, lam: complex,
                 f_int: np.ndarray, f_bnd: np.ndarray, n: int) -> np.ndarray:
    """Interior rows of Delta_lam^n applied to (f_int, f_bnd): A^n f_int -
    A^(n-1) Q f_bnd with A = lam I - P_int, by n products with P_int.
    Vectors or matrices (one column per function) alike."""
    r = (lam * f_int - real_matmul(p, f_int)) - real_matmul(q, f_bnd)
    for _ in range(n - 1):
        r = lam * r - real_matmul(p, r)
    return r


@dataclass(eq=False)
class GreenMatrix:
    """Green and hitting matrices at a fixed resolvent parameter.

    Holds the LU factorisation of lam I - P_int.  ``f`` (interior x
    boundary, F = G Q, one solve per boundary vertex) and ``g`` (interior
    x interior, one solve per interior vertex) are formed from it when
    first read; :meth:`apply_green` applies powers of G by repeated
    solves.  Every instance that :func:`green` returns for one chain and
    lam shares the LU, ``f`` and ``g``, so all three are read-only.
    """

    chain: Chain
    lam: complex
    _lu: LUFactorization = field(repr=False)
    # F and G once formed, shared with every GreenMatrix on this LU
    _formed: dict = field(default_factory=dict, repr=False)

    @property
    def f(self) -> np.ndarray:
        """Hitting matrix F(lam) = G(lam) Q, by back-substitution of Q."""
        return self._form("f", lambda: self._lu.solve(self.chain.q))

    @property
    def g(self) -> np.ndarray:
        """Dense G(lam), by back-substitution of the identity."""
        return self._form("g", lambda: self._lu.solve(
            np.eye(len(self.chain.interior), dtype=complex)))

    def _form(self, name: str, solve) -> np.ndarray:
        if name not in self._formed:
            out = solve()
            out.setflags(write=False)
            self._formed[name] = out
        return self._formed[name]

    @property
    def min_pivot_ratio(self) -> float:
        """Smallest LU pivot over max|lam I - P_int|; lam is refused as
        spectral at ``PIVOT_RTOL`` or below."""
        return self._lu.min_pivot_ratio

    def apply_green(self, b: np.ndarray, power: int = 1) -> np.ndarray:
        """G(lam)^power @ b via repeated solves."""
        x = np.asarray(b, dtype=complex)
        for _ in range(power):
            x = self._lu.solve(x)
        return x


def green(chain: Chain, lam: complex) -> GreenMatrix:
    """Factor lam I - P_int, or raise :class:`LambdaInSpectrum` when
    ``lam`` sits on the interior spectrum (detected by a pivot failure).

    The chain keeps its latest factorisation: a second call with the same
    chain and lam (compared as ``complex(lam)``) does not factor again,
    and its result shares the LU, F and G (once formed) with the first.
    A new lam replaces the kept one, so a chain holds at most one LU
    (plus F and G once read).  What the chain keeps does not refer back
    to it, so a chain no longer used is freed at once, with its LU.  A
    spectral lam is never kept and is refused on every call.
    """
    key = complex(lam)
    if key not in chain._green:
        a = lam * np.eye(len(chain.interior), dtype=complex) - chain.p_int
        try:
            lu = lu_factor(a)
        except Singular as exc:
            raise LambdaInSpectrum(f"lam = {lam} is in the interior spectrum: {exc}") from exc
        lu.lu.setflags(write=False)
        lu.perm.setflags(write=False)
        chain._green.clear()
        chain._green[key] = (lu, {})
    lu, formed = chain._green[key]
    return GreenMatrix(chain=chain, lam=key, _lu=lu, _formed=formed)


@dataclass(frozen=True)
class RiquierProblem:
    """Ordered boundary data g_1 .. g_n for an order-n tower."""

    lam: complex
    boundary_functions: tuple[np.ndarray, ...]

    def __post_init__(self):
        if len(self.boundary_functions) < 1:
            raise ValueError("need at least one boundary function")

    @property
    def order(self) -> int:
        return len(self.boundary_functions)


@dataclass(eq=False)
class Solution:
    """Solved boundary-value problem.

    ``values`` lives on all of X with the first boundary function copied
    verbatim onto the boundary.  ``residuals`` holds per-vertex absolute
    residuals of the defining equations (max over tower stages for
    Riquier solutions); ``nth_interior`` lists the vertices where the
    order-n operator was verified to annihilate the solution.
    ``min_pivot_ratio`` is the LU's smallest pivot over max|lam I - P_int|
    (see :attr:`GreenMatrix.min_pivot_ratio`).
    """

    chain: Chain
    lam: complex
    order: int
    values: np.ndarray
    residuals: np.ndarray
    nth_interior: tuple[str, ...]
    tol: float
    tower: list[np.ndarray] | None = None
    min_pivot_ratio: float | None = None

    @property
    def residual_ok(self) -> bool:
        return bool(self.max_residual <= self.tol)

    @property
    def max_residual(self) -> float:
        return float(self.residuals.max()) if self.residuals.size else 0.0

    def value(self, vid: str) -> complex:
        return complex(self.values[self.chain.vertex_index(vid)])

    def as_dict(self) -> dict[str, complex]:
        return {v: complex(x) for v, x in zip(self.chain.vertices, self.values)}


def solve_dirichlet(chain: Chain, lam: complex, g) -> Solution:
    """Unique lam-harmonic extension of the boundary data ``g``.

    Interior values are G(lam) Q g, one solve on the LU; the boundary
    values are copied, not solved, so the boundary condition holds
    exactly.
    """
    gv = boundary_vector(chain, g)
    gm = green(chain, lam)
    p, q = chain.p_int, chain.q
    h_int = gm.apply_green(real_matmul(q, gv))
    values = chain.embed(h_int, gv)
    return Solution(
        chain=chain,
        lam=complex(lam),
        order=1,
        values=values,
        residuals=chain.embed(np.abs(_delta_power(p, q, lam, h_int, gv, 1))),
        nth_interior=nth_interior(chain, 1),
        tol=residual_tol(lam, values),
        min_pivot_ratio=gm.min_pivot_ratio,
    )


def solve_riquier(problem: RiquierProblem, chain: Chain) -> Solution:
    """Solve the order-n tower for the given boundary functions.

    One LU and n solves, top equation first: (lam I - P_int) f_n = Q g_n,
    then (lam I - P_int) f_r = Q g_r + f_{r+1}; the values are f_1 with
    g_1 on the boundary.  Two checks use P_int and Q, never the LU, so a
    wrong factorisation cannot confirm itself (else :class:`TowerMismatch`):

    - each stage's residual e = (lam f_r - P_int f_r) - (Q g_r + f_{r+1}),
      row by row over |lam| |f_r| + P_int |f_r| + Q |g_r| + |f_{r+1}|
      (the componentwise backward error of Oettli and Prager; Higham,
      *Accuracy and Stability of Numerical Algorithms*, Thm 7.3), at most
      ``TOWER_TOL``;
    - Delta_lam^n of the solution on the n-th interior, at most
      ``TOWER_TOL`` (1 + |lam|)^n max(1, max|f_r|, max|g_r|): the scale
      of :func:`residual_tol` with one factor 1 + |lam| per application.

    ``residuals`` holds the largest |e| per vertex over the stages.
    """
    lam = problem.lam
    gs = [boundary_vector(chain, g) for g in problem.boundary_functions]
    n = len(gs)
    gm = green(chain, lam)
    p, q = chain.p_int, chain.q

    stages: list[np.ndarray] = []  # f_n .. f_1 on the interior
    above = np.zeros(len(chain.interior), dtype=complex)  # f_{r+1}; none above f_n
    stage_res = np.zeros(len(chain.interior))
    backward = 0.0
    for g_r in reversed(gs):
        f_r = gm.apply_green(real_matmul(q, g_r) + above)
        res = np.abs(_delta_power(p, q, lam, f_r, g_r, 1) - above)
        bound = abs(lam) * np.abs(f_r) + p @ np.abs(f_r) + q @ np.abs(g_r) + np.abs(above)
        # a zero bound means every term of that row is exactly zero
        ratio = np.divide(res, bound, out=np.zeros_like(res), where=bound > 0)
        backward = max(backward, float(ratio.max()))
        stage_res = np.maximum(stage_res, res)
        stages.append(f_r)
        above = f_r

    inner, rows = nth_layout(chain, n)
    top_res = chain.embed(np.abs(_delta_power(p, q, lam, stages[-1], gs[0], n)))
    top = float(top_res[rows].max(initial=0.0))
    lim_top = TOWER_TOL * _scale(lam, n, *stages, *gs)
    if backward > TOWER_TOL or top > lim_top:
        raise TowerMismatch(
            f"tower check failed: stage backward error {backward:.3e} (limit {TOWER_TOL:.0e}), "
            f"order-{n} residual on the n-th interior {top:.3e} (limit {lim_top:.3e})"
        )

    values = chain.embed(stages[-1], gs[0])
    return Solution(
        chain=chain,
        lam=complex(lam),
        order=n,
        values=values,
        residuals=chain.embed(stage_res),
        nth_interior=inner,
        tol=residual_tol(lam, values),
        tower=[chain.embed(f_r, g_r) for f_r, g_r in zip(stages, reversed(gs))],
        min_pivot_ratio=gm.min_pivot_ratio,
    )


@dataclass(eq=False)
class ResidualReport:
    """Per-vertex |Delta_lam^n f| plus the verdict on the n-th interior."""

    chain: Chain
    lam: complex
    order: int
    residuals: np.ndarray
    nth_interior: tuple[str, ...]
    max_on_interior: float
    tol: float

    @property
    def ok(self) -> bool:
        return bool(self.max_on_interior <= self.tol)

    def residual(self, vid: str) -> float:
        return float(self.residuals[self.chain.vertex_index(vid)])


def polyharmonic_residual(chain: Chain, lam: complex, f, n: int) -> ResidualReport:
    """Apply the order-n operator to ``f`` and report where it vanishes.

    The block form of the n-th power acts on the interior as
    A^n f_int - A^(n-1) Q f_bnd with A = lam I - P_int, and is zero on
    boundary rows by construction.  Vanishing is asserted only on the
    n-th interior; residuals on the n-th boundary are reported as-is.
    """
    if n < 1:
        raise ValueError(f"order must be >= 1, got {n}")
    fv = full_vector(chain, f)
    r = _delta_power(chain.p_int, chain.q, lam,
                     fv[chain.interior_rows], fv[chain.boundary_rows], n)
    residuals = chain.embed(np.abs(r))
    inner, rows = nth_layout(chain, n)
    return ResidualReport(
        chain=chain,
        lam=complex(lam),
        order=n,
        residuals=residuals,
        nth_interior=inner,
        max_on_interior=float(residuals[rows].max(initial=0.0)),
        tol=residual_tol(lam, fv),
    )


def delta_matrix(chain: Chain, lam: complex, n: int = 1) -> np.ndarray:
    """Dense |X| x |X| matrix of the order-n operator in vertex order:
    interior rows carry [A^n, -A^(n-1) Q], boundary rows are zero."""
    p, q = chain.p_int, chain.q
    k, nb = q.shape
    out = np.zeros((chain.n, chain.n), dtype=complex)
    out[np.ix_(chain.interior, chain.interior)] = _delta_power(
        p, q, lam, np.eye(k), np.zeros((nb, k)), n)
    out[np.ix_(chain.interior, chain.boundary)] = _delta_power(
        p, q, lam, np.zeros((k, nb)), np.eye(nb), n)
    return out


def free_polyharmonic_space(chain: Chain, lam: complex, n: int) -> list[np.ndarray]:
    """Basis of {f : Delta_lam^n f = 0 on all of X} for resolvent lam.

    On the interior Delta_lam^n f = A^(n-1) (A f_int - Q f_bnd) with
    A = lam I - P_int, which the LU's pivot test certified invertible, so
    the space is spanned by the harmonic extensions of the boundary
    indicators (the columns of F extended by deltas) and its dimension is
    the boundary size.  Each basis vector's residual over ``RESIDUAL_RTOL``
    (1 + |lam|)^n max(1, max|v|) raises :class:`ConsistencyError`.
    """
    if n < 1:
        raise ValueError(f"order must be >= 1, got {n}")
    gm = green(chain, lam)
    eye = np.eye(len(chain.boundary), dtype=complex)
    res = np.abs(_delta_power(chain.p_int, chain.q, lam, gm.f, eye, n)).max(axis=0)
    basis = []
    for j, w in enumerate(chain.boundary_ids):
        v = chain.embed(gm.f[:, j], eye[j])
        limit = RESIDUAL_RTOL * _scale(lam, n, v)
        if res[j] > limit:
            raise ConsistencyError(
                f"order-{n} residual {res[j]:.3e} of the basis vector for {w} "
                f"exceeds {limit:.3e}"
            )
        basis.append(v)
    return basis

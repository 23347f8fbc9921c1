"""Green matrices and boundary-value solvers on absorbing chains.

For a resolvent parameter ``lam`` outside the interior spectrum, the
Green matrix is G(lam) = (lam I - P_int)^-1 and the hitting matrix is
F(lam) = G(lam) Q.  At lam = 1, F(x, w) is the probability that the walk
started at x is absorbed at w.  The Dirichlet problem extends boundary
data harmonically; the order-n Riquier problem solves a tower of n such
problems, with closed form sum_r G(lam)^r Q g_r.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .chain import Chain, boundary_vector, full_vector, nth_boundary, sub_chain
from .errors import ConsistencyError, LambdaInSpectrum, Singular, TowerMismatch
from .linalg import LUFactorization, lu_factor, nullspace

RESIDUAL_RTOL = 1e-9
TOWER_TOL = 1e-8


def residual_tol(lam: complex, *vectors: np.ndarray) -> float:
    """Uniform scale-invariant residual tolerance used by all solvers."""
    scale = max((float(np.abs(v).max()) for v in vectors if v.size), default=0.0)
    return RESIDUAL_RTOL * (1.0 + abs(lam)) * max(scale, 1.0)


@dataclass(eq=False)
class GreenMatrix:
    """Green and hitting matrices at a fixed resolvent parameter.

    ``g`` is interior x interior, ``f`` interior x boundary.  The LU
    factorisation of (lam I - P_int) is kept so that powers of G are
    applied by repeated back-substitution instead of explicit inverses;
    the dense ``g`` costs one solve per interior vertex and is formed
    only when first read.  ``_p`` and ``_q`` are the interior block and
    the boundary coupling the operator was built from.
    """

    chain: Chain
    lam: complex
    f: np.ndarray
    _lu: LUFactorization = field(repr=False)
    _p: np.ndarray = field(repr=False)
    _q: np.ndarray = field(repr=False)

    @cached_property
    def g(self) -> np.ndarray:
        """Dense G(lam), by back-substitution of the identity."""
        return self._lu.solve(np.eye(self._p.shape[0], dtype=complex))

    def apply_green(self, b: np.ndarray, power: int = 1) -> np.ndarray:
        """G(lam)^power @ b via repeated solves."""
        x = np.asarray(b, dtype=complex)
        for _ in range(power):
            x = self._lu.solve(x)
        return x

    def f_entry(self, x: str, w: str) -> complex:
        """F(x, w | lam) extended to all of X (delta on the boundary)."""
        xi = self.chain.vertex_index(x)
        wj = self.chain.boundary_ids.index(w)
        if xi in self.chain.boundary:
            return 1.0 + 0j if self.chain.vertices[xi] == w else 0j
        return complex(self.f[self.chain.interior.index(xi), wj])


def green(chain: Chain, lam: complex) -> GreenMatrix:
    """Build the Green/hitting matrices, or raise
    :class:`LambdaInSpectrum` when ``lam`` sits on the interior
    spectrum (detected by a pivot failure)."""
    view = sub_chain(chain)
    k = view.p.shape[0]
    a = lam * np.eye(k, dtype=complex) - view.p
    try:
        lu = lu_factor(a)
    except Singular as exc:
        raise LambdaInSpectrum(f"lam = {lam} is in the interior spectrum: {exc}") from exc
    q = view.q.astype(complex)
    return GreenMatrix(chain=chain, lam=complex(lam), f=lu.solve(q), _lu=lu, _p=view.p, _q=q)


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
    """

    chain: Chain
    lam: complex
    order: int
    values: np.ndarray
    residuals: np.ndarray
    nth_interior: tuple[str, ...]
    tol: float
    tower: list[np.ndarray] | None = None

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


def _assemble(chain: Chain, interior_vals: np.ndarray, boundary_vals: np.ndarray) -> np.ndarray:
    out = np.zeros(chain.n, dtype=complex)
    out[list(chain.interior)] = interior_vals
    out[list(chain.boundary)] = boundary_vals
    return out


def solve_dirichlet(chain: Chain, lam: complex, g) -> Solution:
    """Unique lam-harmonic extension of the boundary data ``g``.

    Interior values are G(lam) Q g; the boundary values are copied, not
    solved, so the boundary condition holds exactly.
    """
    gv = boundary_vector(chain, g)
    gm = green(chain, lam)
    h_int = gm.apply_green(gm._q @ gv)
    defect = (lam * h_int - gm._p @ h_int) - gm._q @ gv
    values = _assemble(chain, h_int, gv)
    residuals = np.zeros(chain.n)
    residuals[list(chain.interior)] = np.abs(defect)
    return Solution(
        chain=chain,
        lam=complex(lam),
        order=1,
        values=values,
        residuals=residuals,
        nth_interior=tuple(sorted(set(chain.vertices) - nth_boundary(chain, 1))),
        tol=residual_tol(lam, values),
    )


def solve_riquier(problem: RiquierProblem, chain: Chain) -> Solution:
    """Solve the order-n tower for the given boundary functions.

    The returned values come from the back-substituted tower
    f_n, .., f_1; the closed form sum_r G^r Q g_r is evaluated
    independently through explicit matrix powers and the two routes must
    agree within ``TOWER_TOL`` (else :class:`TowerMismatch`).
    """
    lam = problem.lam
    gs = [boundary_vector(chain, g) for g in problem.boundary_functions]
    n = len(gs)
    gm = green(chain, lam)
    q = gm._q

    # tower route, top equation first: (lam I - P_int) f_n = Q g_n,
    # then (lam I - P_int) f_r = Q g_r + f_{r+1}
    tower_int: list[np.ndarray] = []
    rhs_prev = np.zeros(len(chain.interior), dtype=complex)
    for r in range(n, 0, -1):
        f_r = gm.apply_green(q @ gs[r - 1] + rhs_prev)
        tower_int.append(f_r)
        rhs_prev = f_r
    tower_int.reverse()  # now indexed f_1 .. f_n

    # independent closed form with explicit powers of the dense G
    power = np.eye(len(chain.interior), dtype=complex)
    closed = np.zeros(len(chain.interior), dtype=complex)
    for r in range(1, n + 1):
        power = power @ gm.g
        closed = closed + power @ (q @ gs[r - 1])
    dev = float(np.abs(tower_int[0] - closed).max())
    scale = 1.0 + float(np.abs(tower_int[0]).max())
    if dev > TOWER_TOL * scale:
        raise TowerMismatch(
            f"closed form and tower disagree by {dev:.3e} (scale {scale:.3e})"
        )

    # stage residuals: each f_r must solve its own boundary problem
    residuals = np.zeros(chain.n)
    tower_full: list[np.ndarray] = []
    for r in range(n, 0, -1):
        f_r = tower_int[r - 1]
        target = q @ gs[r - 1] + (tower_int[r] if r < n else 0.0)
        defect = np.abs((lam * f_r - gm._p @ f_r) - target)
        residuals[list(chain.interior)] = np.maximum(
            residuals[list(chain.interior)], defect
        )
        tower_full.append(_assemble(chain, f_r, gs[r - 1]))

    values = _assemble(chain, tower_int[0], gs[0])
    return Solution(
        chain=chain,
        lam=complex(lam),
        order=n,
        values=values,
        residuals=residuals,
        nth_interior=tuple(sorted(set(chain.vertices) - nth_boundary(chain, n))),
        tol=residual_tol(lam, values),
        tower=tower_full,  # stages ordered f_n .. f_1
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
    view = sub_chain(chain)
    f_int = fv[list(chain.interior)]
    f_bnd = fv[list(chain.boundary)]
    r = (lam * f_int - view.p @ f_int) - view.q @ f_bnd
    for _ in range(n - 1):
        r = lam * r - view.p @ r
    residuals = np.zeros(chain.n)
    residuals[list(chain.interior)] = np.abs(r)
    inner = tuple(sorted(set(chain.vertices) - nth_boundary(chain, n)))
    max_inner = max((residuals[chain.vertex_index(v)] for v in inner), default=0.0)
    return ResidualReport(
        chain=chain,
        lam=complex(lam),
        order=n,
        residuals=residuals,
        nth_interior=inner,
        max_on_interior=float(max_inner),
        tol=residual_tol(lam, fv),
    )


def delta_matrix(chain: Chain, lam: complex, n: int = 1) -> np.ndarray:
    """Dense |X| x |X| matrix of the order-n operator in vertex order:
    interior rows carry [A^n, -A^(n-1) Q], boundary rows are zero."""
    view = sub_chain(chain)
    k = view.p.shape[0]
    a = lam * np.eye(k, dtype=complex) - view.p
    a_pow = np.eye(k, dtype=complex)
    for _ in range(n - 1):
        a_pow = a_pow @ a
    top_int = a_pow @ a
    top_bnd = -a_pow @ view.q
    out = np.zeros((chain.n, chain.n), dtype=complex)
    out[np.ix_(chain.interior, chain.interior)] = top_int
    out[np.ix_(chain.interior, chain.boundary)] = top_bnd
    return out


def free_polyharmonic_space(chain: Chain, lam: complex, n: int,
                            tol: float = 1e-8) -> list[np.ndarray]:
    """Basis of {f : Delta_lam^n f = 0 on all of X} for resolvent lam.

    Any such f is already lam-harmonic, so the space is spanned by the
    harmonic extensions of the boundary indicators (the columns of F
    extended by deltas); its dimension is exactly the boundary size,
    which is re-verified by a rank computation on the full operator.
    """
    if n < 1:
        raise ValueError(f"order must be >= 1, got {n}")
    gm = green(chain, lam)
    nb = len(chain.boundary)
    basis = []
    for j in range(nb):
        e = np.zeros(nb, dtype=complex)
        e[j] = 1.0
        basis.append(_assemble(chain, gm.f[:, j], e))

    kernel = nullspace(delta_matrix(chain, lam, n), tol)
    if len(kernel) != nb:
        raise ConsistencyError(
            f"order-{n} kernel dimension {len(kernel)} != boundary size {nb}"
        )
    return basis

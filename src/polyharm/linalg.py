"""Dense complex linear algebra used by the solvers.

The factorisations that make rank decisions are implemented in this
module rather than delegated to LAPACK: the solvers need full control
over pivot thresholds, because "singular" is a semantic signal (the
resolvent parameter hit the spectrum), not just a numerical accident.
So the LU (:func:`lu_factor`, threshold ``PIVOT_RTOL``) and the
rank-revealing nullspace (:func:`nullspace_info`) are ours.

Eigenvalues carry no such meaning and come from LAPACK
(``numpy.linalg.eig``, Hessenberg QR, backward stable); this module only
checks every eigenpair's residual and clusters the values into
multiplicities.  Sizes are desk scale (a few hundred at most).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .errors import NoConvergence, Singular

log = logging.getLogger(__name__)

PIVOT_RTOL = 1e-12
CLUSTER_TOL = 1e-8
MAX_EIG_DIM = 512

_EPS = float(np.finfo(float).eps)
# every eigenpair must satisfy |Av - zv|_inf <= EIG_RTOL * |A|_inf * |v|_inf
EIG_RTOL = 1e3 * _EPS


def as_matrix(a) -> np.ndarray:
    """Coerce to a finite 2-d complex array (copy)."""
    m = np.array(a, dtype=complex)
    if m.ndim != 2:
        raise ValueError(f"expected a matrix, got ndim={m.ndim}")
    if not np.all(np.isfinite(m.real)) or not np.all(np.isfinite(m.imag)):
        raise ValueError("matrix has non-finite entries")
    return m


# ------------------------------------------------------------------- LU

# Columns per panel of the blocked LU and of its back-substitution.  Work
# inside a panel is per column; everything to its right or below is one
# matrix product, which is where BLAS earns its keep.
PANEL = 48


@dataclass
class LUFactorization:
    """Compact LU with partial pivoting (Doolittle, L unit lower)."""

    lu: np.ndarray
    perm: np.ndarray
    scale: float

    def solve(self, b) -> np.ndarray:
        """Back-substitute for one or many right-hand sides.

        Blocked like the factorisation: substitution inside each
        diagonal panel, one matrix product for the rows outside it.
        """
        rhs = np.array(b, dtype=complex)
        squeeze = rhs.ndim == 1
        if squeeze:
            rhs = rhs[:, None]
        lu = self.lu
        n = lu.shape[0]
        if rhs.shape[0] != n:
            raise ValueError(f"rhs has {rhs.shape[0]} rows, expected {n}")
        x = rhs[self.perm]
        starts = range(0, n, PANEL)
        for j0 in starts:  # forward: L y = P b
            j1 = min(j0 + PANEL, n)
            for k in range(j0 + 1, j1):
                x[k] -= lu[k, j0:k] @ x[j0:k]
            x[j1:] -= lu[j1:, j0:j1] @ x[j0:j1]
        for j0 in reversed(starts):  # backward: U x = y
            j1 = min(j0 + PANEL, n)
            for k in range(j1 - 1, j0 - 1, -1):
                x[k] -= lu[k, k + 1:j1] @ x[k + 1:j1]
                x[k] /= lu[k, k]
            x[:j0] -= lu[:j0, j0:j1] @ x[j0:j1]
        return x[:, 0] if squeeze else x


def lu_factor(a, pivot_rtol: float = PIVOT_RTOL) -> LUFactorization:
    """Factor a square matrix, raising :class:`Singular` when a pivot
    falls below ``pivot_rtol * max|A|``.

    Blocked right-looking elimination (Golub & Van Loan, *Matrix
    Computations*, 3.2.11).  Within a panel of ``PANEL`` columns each
    column is eliminated by rank-1 steps confined to the panel, so the
    pivot search and the threshold test see the fully updated column,
    as in unblocked elimination; the rows of U to the right of the
    panel and the trailing block are then updated by one triangular
    sweep and one matrix product.
    """
    m = as_matrix(a)
    n, nc = m.shape
    if n != nc:
        raise ValueError(f"matrix is {n}x{nc}, expected square")
    scale = float(np.abs(m).max()) if m.size else 0.0
    thresh = pivot_rtol * scale
    perm = np.arange(n)
    for j0 in range(0, n, PANEL):
        j1 = min(j0 + PANEL, n)
        for k in range(j0, j1):
            p = k + int(np.argmax(np.abs(m[k:, k])))
            if np.abs(m[p, k]) <= thresh:
                raise Singular(f"pivot {np.abs(m[p, k]):.3e} at column {k} "
                               f"(threshold {thresh:.3e})")
            if p != k:
                m[[k, p]] = m[[p, k]]
                perm[[k, p]] = perm[[p, k]]
            m[k + 1:, k] /= m[k, k]
            m[k + 1:, k + 1:j1] -= np.outer(m[k + 1:, k], m[k, k + 1:j1])
        for k in range(j0 + 1, j1):  # U12 = L11^-1 A12
            m[k, j1:] -= m[k, j0:k] @ m[j0:k, j1:]
        m[j1:, j1:] -= m[j1:, j0:j1] @ m[j0:j1, j1:]
    return LUFactorization(lu=m, perm=perm, scale=scale)


def lu_solve(a, b, pivot_rtol: float = PIVOT_RTOL) -> np.ndarray:
    """Solve A X = B by LU with partial pivoting.

    Raises :class:`Singular` when the factorisation meets a pivot below
    threshold; this is how callers detect a resolvent parameter sitting
    on the spectrum.
    """
    fac = lu_factor(a, pivot_rtol)
    x = fac.solve(b)
    if log.isEnabledFor(logging.DEBUG):
        log.debug("lu_solve residual %.3e", residual_inf(a, x, b))
    return x


def residual_inf(a, x, b) -> float:
    """Max-norm residual |A X - B|_inf."""
    return float(np.abs(np.asarray(a) @ np.asarray(x) - np.asarray(b)).max())


# ------------------------------------------------------------ nullspace

@dataclass
class EchelonInfo:
    """Rank decision diagnostics from complete-pivot elimination."""

    rank: int
    pivots: np.ndarray          # pivot magnitudes in elimination order
    smallest_kept: float
    largest_dropped: float      # 0.0 when full rank
    threshold: float

    @property
    def gap(self) -> float:
        """Ratio separating retained from discarded pivots.

        Infinite when nothing was discarded; when nothing was retained
        the distance of the discarded pivots below the threshold is used
        instead.  Small values mean the rank call was a coin toss.
        """
        if self.largest_dropped == 0.0:
            return float("inf")
        if self.rank == 0:
            return self.threshold / self.largest_dropped
        return self.smallest_kept / self.largest_dropped


def nullspace_info(a, tol: float) -> tuple[list[np.ndarray], EchelonInfo]:
    """Orthonormal kernel basis plus the pivot diagnostics that justified
    the rank decision.

    Elimination is Gaussian with complete (row and column) pivoting; the
    rank threshold is ``tol * max|A|``.  Kernel vectors come from
    back-substitution on the free columns and are then orthonormalised.
    """
    if not tol > 0:
        raise ValueError("tol must be positive")
    m = as_matrix(a)
    nr, nc = m.shape
    scale = float(np.abs(m).max()) if m.size else 0.0
    thresh = tol * scale
    col_perm = np.arange(nc)
    piv_mags: list[float] = []
    rank = 0
    largest_dropped = 0.0
    for k in range(min(nr, nc)):
        sub = np.abs(m[k:, k:])
        flat = int(np.argmax(sub))
        i, j = divmod(flat, nc - k)
        mag = float(sub[i, j])
        if mag <= thresh:
            largest_dropped = mag
            break
        i += k
        j += k
        if i != k:
            m[[k, i]] = m[[i, k]]
        if j != k:
            m[:, [k, j]] = m[:, [j, k]]
            col_perm[[k, j]] = col_perm[[j, k]]
        piv_mags.append(mag)
        rank += 1
        m[k + 1:, k:] -= np.outer(m[k + 1:, k] / m[k, k], m[k, k:])

    info = EchelonInfo(
        rank=rank,
        pivots=np.array(piv_mags),
        smallest_kept=piv_mags[-1] if piv_mags else 0.0,
        largest_dropped=largest_dropped,
        threshold=thresh,
    )

    basis: list[np.ndarray] = []
    u = m[:rank, :]
    for j in range(rank, nc):
        y = np.zeros(nc, dtype=complex)
        y[j] = 1.0
        # back-substitute U[:, :rank] x = -U[:, j]
        rhs = -u[:, j].copy()
        for k in range(rank - 1, -1, -1):
            y[k] = (rhs[k] - u[k, k + 1:rank] @ y[k + 1:rank]) / u[k, k]
        v = np.zeros(nc, dtype=complex)
        v[col_perm] = y
        basis.append(v)

    ortho: list[np.ndarray] = []
    for v in basis:  # modified Gram-Schmidt
        for u_prev in ortho:
            v = v - (u_prev.conj() @ v) * u_prev
        nrm = np.linalg.norm(v)
        if nrm > 0:
            ortho.append(v / nrm)
    return ortho, info


def nullspace(a, tol: float) -> list[np.ndarray]:
    """Orthonormal basis of the numerical kernel of ``a`` (empty list
    when full rank)."""
    basis, _ = nullspace_info(a, tol)
    return basis


# ----------------------------------------------------------- eigenvalues

@dataclass(frozen=True)
class Spectrum:
    """Clustered eigenvalues with algebraic multiplicities."""

    eigenvalues: tuple[complex, ...]
    alg_mult: tuple[int, ...]
    cluster_tol: float

    @property
    def rho(self) -> float:
        """Spectral radius."""
        return max((abs(z) for z in self.eigenvalues), default=0.0)

    def mult_of(self, lam: complex, tol: float | None = None) -> int:
        """Algebraic multiplicity of the eigenvalue nearest ``lam``
        within ``tol`` (0 if none)."""
        tol = self.cluster_tol if tol is None else tol
        for z, m in zip(self.eigenvalues, self.alg_mult):
            if abs(z - lam) <= tol:
                return m
        return 0

    def nearest(self, lam: complex) -> complex:
        return min(self.eigenvalues, key=lambda z: abs(z - lam))


def _cluster(roots: np.ndarray, tol: float) -> tuple[list[complex], list[int]]:
    """Single-linkage clustering at ``tol``, iterated on the centres so
    the returned eigenvalues are pairwise separated by more than tol."""
    centers = [complex(z) for z in roots]
    mults = [1] * len(centers)
    changed = True
    while changed:
        changed = False
        merged_c: list[complex] = []
        merged_m: list[int] = []
        for z, m in zip(centers, mults):
            hit = next(
                (i for i, c in enumerate(merged_c) if abs(c - z) <= tol), None
            )
            if hit is None:
                merged_c.append(z)
                merged_m.append(m)
            else:
                tot = merged_m[hit] + m
                merged_c[hit] = (merged_c[hit] * merged_m[hit] + z * m) / tot
                merged_m[hit] = tot
                changed = True
        centers, mults = merged_c, merged_m
    order = sorted(range(len(centers)), key=lambda i: (centers[i].real, centers[i].imag))
    return [centers[i] for i in order], [mults[i] for i in order]


def eigenvalues(a, cluster_tol: float = CLUSTER_TOL) -> Spectrum:
    """All eigenvalues of a square matrix with algebraic multiplicities.

    LAPACK computes the eigenpairs; each pair must satisfy
    |Av - zv|_inf <= EIG_RTOL * |A|_inf * |v|_inf, and a failed pair or a
    LAPACK failure raises :class:`NoConvergence`.  The values are then
    clustered.

    An eigenvalue of multiplicity m in a Jordan block of size m splits by
    roughly eps**(1/m) in floating point, so the working cluster radius
    is floored at a small multiple of sqrt(eps); ``cluster_tol`` only
    tightens the guarantee that *returned* eigenvalues are pairwise
    separated by more than it.  Pass a larger ``cluster_tol`` to recognise
    defective eigenvalues of multiplicity 3 or more.
    """
    m = as_matrix(a)
    n, nc = m.shape
    if n != nc:
        raise ValueError(f"matrix is {n}x{nc}, expected square")
    if n > MAX_EIG_DIM:
        raise ValueError(f"dimension {n} exceeds supported {MAX_EIG_DIM}")
    if n == 0:
        return Spectrum((), (), cluster_tol)

    # a real matrix stays real, so its real eigenvalues come out exactly real
    work = m.real if not m.imag.any() else m
    try:
        roots, vecs = np.linalg.eig(work)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"LAPACK eigenvalue iteration failed: {exc}") from None
    norm_a = float(np.abs(work).sum(axis=1).max())
    resid = np.abs(work @ vecs - vecs * roots).max(axis=0)
    limit = EIG_RTOL * norm_a * np.abs(vecs).max(axis=0)
    bad = int(np.argmax(resid - limit))
    if resid[bad] > limit[bad]:
        raise NoConvergence(
            f"eigenpair at {complex(roots[bad])} has residual {resid[bad]:.3e} "
            f"> {limit[bad]:.3e}"
        )

    scale_r = 1.0 + float(np.abs(roots).max())
    tol_eff = max(cluster_tol, 32.0 * np.sqrt(_EPS) * scale_r)
    centers, mults = _cluster(roots, tol_eff)
    return Spectrum(tuple(centers), tuple(mults), cluster_tol)

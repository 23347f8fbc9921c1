"""Dense complex linear algebra used by the solvers.

The factorisations that make rank decisions are implemented in this
module rather than delegated to LAPACK: the solvers need full control
over pivot thresholds, because "singular" is a semantic signal (the
resolvent parameter hit the spectrum), not just a numerical accident.
So the LU (:func:`lu_factor`, threshold ``PIVOT_RTOL``) and the
rank-revealing nullspace (:func:`nullspace_info`) are ours: pivot
search, threshold and rank.  The LU eliminates column by column inside
each panel; its solves are matrix products only, with the inverses of
the diagonal panels' triangles that each LU forms once (an explicit
triangular inverse is accurate to that block's condition: Du Croz &
Higham, IMA J. Numer. Anal. 1992).  The complete-pivot elimination
behind the nullspace takes one matrix at a time and stops at its own
threshold.  Steps that decide nothing are LAPACK's: the Householder QR
that orthonormalises a kernel basis.  The nullspace alone keeps real
input real: float64 elimination and a float64 kernel basis, and
:func:`real_matmul` multiplies real by complex in real arithmetic.

Eigenvalues carry no such meaning and come from LAPACK
(``numpy.linalg.eig``, Hessenberg QR, backward stable); this module only
checks every eigenpair's residual and clusters the values into
multiplicities, by single linkage in numpy: the connected components of
the boolean matrix |z_i - z_j| <= radius, each merged to its mean.
Sizes are desk scale (a few hundred at most).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

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
    return _finite_matrix(np.array(a, dtype=complex))


def _finite_matrix(m: np.ndarray) -> np.ndarray:
    if m.ndim != 2:
        raise ValueError(f"expected a matrix, got ndim={m.ndim}")
    if not np.isfinite(m).all():
        raise ValueError("matrix has non-finite entries")
    return m


# ------------------------------------------------------------------- LU

# Columns per panel of the blocked LU and of its back-substitution.  In
# the factorisation, work inside a panel is per column; everything to its
# right or below is one matrix product, which is where BLAS earns its
# keep.  A solve is all products: each diagonal panel's triangles are
# inverted once per LU.
PANEL = 48


@dataclass(eq=False)
class LUFactorization:
    """Compact LU with partial pivoting (Doolittle, L unit lower).

    The first :meth:`solve` inverts the unit-L and the U triangle of each
    ``PANEL``-wide diagonal block and keeps the inverses, read-only, for
    every later solve: at most 2 * k * PANEL complex numbers for a k x k
    LU (0.31 MB at k = 215).
    """

    lu: np.ndarray
    perm: np.ndarray
    scale: float
    _inverses: tuple | None = field(default=None, init=False, repr=False)

    @property
    def min_pivot_ratio(self) -> float:
        """min |u_kk| / max|A|: the number the :class:`Singular` test
        compares with ``pivot_rtol``.  Small means A is nearly singular
        (infinite for the empty matrix)."""
        if not self.lu.size:
            return float("inf")
        return float(np.abs(np.diagonal(self.lu)).min()) / self.scale

    def _panel_inverses(self) -> tuple:
        """(L11^-1, U11^-1) of every diagonal panel, by row substitution
        on the identity."""
        lu, out = self.lu, []
        for j0 in range(0, len(lu), PANEL):
            d = lu[j0:j0 + PANEL, j0:j0 + PANEL]
            linv, uinv = np.eye(len(d), dtype=complex), np.eye(len(d), dtype=complex)
            for k in range(1, len(d)):  # L11 X = I
                linv[k] -= d[k, :k] @ linv[:k]
            for k in range(len(d) - 1, -1, -1):  # U11 X = I
                uinv[k] -= d[k, k + 1:] @ uinv[k + 1:]
                uinv[k] /= d[k, k]
            linv.setflags(write=False)
            uinv.setflags(write=False)
            out.append((linv, uinv))
        return tuple(out)

    def solve(self, b) -> np.ndarray:
        """Back-substitute for one or many right-hand sides.

        Blocked like the factorisation: per diagonal panel, one product
        with its kept triangular inverse, then one matrix product for the
        rows outside it.
        """
        rhs = np.array(b, dtype=complex)
        if rhs.ndim not in (1, 2):
            raise ValueError(f"rhs must be a vector or a matrix, got ndim={rhs.ndim}")
        squeeze = rhs.ndim == 1
        if squeeze:
            rhs = rhs[:, None]
        lu = self.lu
        n = lu.shape[0]
        if rhs.shape[0] != n:
            raise ValueError(f"rhs has {rhs.shape[0]} rows, expected {n}")
        if self._inverses is None:
            self._inverses = self._panel_inverses()
        x = rhs[self.perm]
        panels = list(zip(range(0, n, PANEL), self._inverses))
        for j0, (linv, _) in panels:  # forward: L y = P b
            j1 = j0 + len(linv)
            x[j0:j1] = linv @ x[j0:j1]
            x[j1:] -= lu[j1:, j0:j1] @ x[j0:j1]
        for j0, (_, uinv) in reversed(panels):  # backward: U x = y
            j1 = j0 + len(uinv)
            x[j0:j1] = uinv @ x[j0:j1]
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
    return float(np.abs(real_matmul(np.asarray(a), np.asarray(x)) - np.asarray(b)).max())


def real_matmul(a: np.ndarray, x) -> np.ndarray:
    """``a @ x`` for a real matrix ``a``.  numpy would copy ``a`` to
    complex for a complex ``x``; a complex128 vector or matrix ``x`` is
    read instead as float64, each real part beside its imaginary part, so
    one real product gives the result's parts, read back as complex.  Any
    other input is a plain ``a @ x``."""
    x = np.asarray(x)
    if a.dtype != np.float64 or x.dtype != np.complex128 or x.ndim not in (1, 2):
        return a @ x
    xr = np.ascontiguousarray(x if x.ndim == 2 else x[:, None]).view(np.float64)
    out = (a @ xr).view(np.complex128)
    return out if x.ndim == 2 else out[:, 0]


# ------------------------------------------------------------ nullspace

@dataclass(eq=False)
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


def _echelon(m: np.ndarray, tol: float) -> tuple[np.ndarray, EchelonInfo]:
    """Gaussian elimination with complete pivoting on one matrix, in place.

    Stops at the first pivot at or below ``tol * max|A|``.  On return the
    first ``rank`` rows hold the U factor with columns in ``perm`` order
    (the entries below U are not cleared).  Returns ``perm`` and the
    :class:`EchelonInfo` of the rank decision.
    """
    nr, nc = m.shape
    thresh = tol * (float(np.abs(m).max()) if m.size else 0.0)
    perm = np.arange(nc)
    piv: list[float] = []
    dropped = 0.0
    for k in range(min(nr, nc)):
        sub = np.abs(m[k:, k:])
        i, j = divmod(int(sub.argmax()), nc - k)
        mag = float(sub[i, j])
        if mag <= thresh:
            dropped = mag
            break
        piv.append(mag)
        i += k
        j += k
        if i != k:
            row = m[k].copy()
            m[k], m[i] = m[i], row
        if j != k:
            col = m[:, k].copy()
            m[:, k], m[:, j] = m[:, j], col
            perm[k], perm[j] = perm[j], perm[k]
        m[k + 1:, k + 1:] -= np.outer(m[k + 1:, k] / m[k, k], m[k, k + 1:])
    info = EchelonInfo(rank=len(piv), pivots=np.array(piv),
                       smallest_kept=piv[-1] if piv else 0.0,
                       largest_dropped=dropped, threshold=thresh)
    return perm, info


def nullspace_info(a, tol: float) -> tuple[list[np.ndarray], EchelonInfo]:
    """Orthonormal kernel basis plus the pivot diagnostics that justified
    the rank decision.

    The rank decision is ours: Gaussian elimination with complete (row
    and column) pivoting, stopping at the first pivot at or below
    ``tol * max|A|``.  Kernel vectors come from one back-substitution
    that carries every free column at once; LAPACK's Householder QR then
    orthonormalises them, with each column's phase set so the basis is
    the Gram-Schmidt basis of the same vectors.  The QR makes no rank
    decision: the vectors are independent by construction.

    Real input (no complex dtype) is eliminated in float64 and its basis
    vectors are float64; complex input stays complex128 throughout.
    """
    if not tol > 0:
        raise ValueError("tol must be positive")
    m = _finite_matrix(np.array(a, dtype=complex if np.iscomplexobj(a) else float))
    nc = m.shape[1]
    perm, info = _echelon(m, tol)
    rank = info.rank
    if rank == nc:
        return [], info
    u = m[:rank]
    y = np.zeros((nc, nc - rank), dtype=m.dtype)
    y[rank:] = np.eye(nc - rank)
    for k in range(rank - 1, -1, -1):  # U[:, :rank] Y = -U[:, rank:]
        y[k] = -(u[k, rank:] + u[k, k + 1:rank] @ y[k + 1:rank]) / u[k, k]
    v = np.empty_like(y)
    v[perm] = y
    q, r = np.linalg.qr(v)
    d = np.diagonal(r)
    q *= d / np.abs(d)
    return list(q.T.copy()), info


def nullspace(a, tol: float) -> list[np.ndarray]:
    """Orthonormal basis of the numerical kernel of ``a`` (empty list
    when full rank)."""
    basis, _ = nullspace_info(a, tol)
    return basis


# ----------------------------------------------------------- eigenvalues

@dataclass(frozen=True)
class Spectrum:
    """Clustered eigenvalues with algebraic multiplicities.

    ``radius`` is the working cluster radius: computed eigenvalues within
    it of a cluster were merged into it, so a cluster stands for every
    eigenvalue that close to its centre.  It is ``cluster_tol``, floored
    at 32 sqrt(eps) (1 + max|z|) when there are eigenvalues (see
    :func:`eigenvalues`).
    """

    eigenvalues: tuple[complex, ...]
    alg_mult: tuple[int, ...]
    cluster_tol: float
    radius: float

    @property
    def rho(self) -> float:
        """Spectral radius."""
        return max((abs(z) for z in self.eigenvalues), default=0.0)

    def mult_of(self, lam: complex, tol: float | None = None) -> int:
        """Algebraic multiplicity of the eigenvalue nearest ``lam``, or 0
        when that eigenvalue is farther than ``tol`` (or there is none)."""
        tol = self.cluster_tol if tol is None else tol
        if not self.eigenvalues:
            return 0
        i = self._nearest(lam)
        return self.alg_mult[i] if abs(self.eigenvalues[i] - lam) <= tol else 0

    def nearest(self, lam: complex) -> complex:
        return self.eigenvalues[self._nearest(lam)]

    def _nearest(self, lam: complex) -> int:
        """Index of the eigenvalue nearest ``lam`` (the first on a tie)."""
        z = self.eigenvalues
        return min(range(len(z)), key=lambda i: abs(z[i] - lam))


def _check_cluster_tol(cluster_tol: float) -> None:
    """Refuse a ``cluster_tol`` that is not positive and finite: NaN
    would merge nothing and infinity everything.  A ``bool`` is refused
    too, although ``True`` compares (and hashes) equal to 1.0."""
    if isinstance(cluster_tol, (bool, np.bool_)) or not 0.0 < cluster_tol < np.inf:
        raise ValueError(f"cluster_tol must be positive and finite, got {cluster_tol!r}")


def _working_radius(values: np.ndarray, cluster_tol: float) -> float:
    """Radius within which computed eigenvalues ``values`` (not empty)
    merge: ``cluster_tol`` floored at 32 sqrt(eps) (1 + max|z|)."""
    return max(cluster_tol, 32.0 * np.sqrt(_EPS) * (1.0 + float(np.abs(values).max())))


def _cluster(roots: np.ndarray, tol: float) -> tuple[list[complex], list[int]]:
    """Single-linkage clustering at ``tol``, sorted by (real, imag).

    The values within ``tol`` of each other are joined; each connected
    component of that graph (found by sweeps in which every value takes
    the label of the smallest label among its neighbours, until no label
    changes) is merged to its multiplicity-weighted mean.  The same is
    repeated on the centres until they are pairwise separated by more
    than ``tol``.
    """
    centers = np.asarray(roots, dtype=complex)
    mults = np.ones(len(centers), dtype=int)
    while True:
        near = np.abs(centers[:, None] - centers[None, :]) <= tol
        k = len(centers)
        if np.count_nonzero(near) == k:  # only the diagonal
            break
        labels = idx = np.arange(k)
        while True:
            new = labels[np.where(near, labels, k).min(axis=1)]
            if (new == labels).all():
                break
            labels = new
        first = labels == idx  # each component is labelled by its smallest index
        weighted = centers * mults
        mults = np.bincount(labels, mults, k)[first].astype(int)
        centers = (np.bincount(labels, weighted.real, k)
                   + 1j * np.bincount(labels, weighted.imag, k))[first] / mults
    z, m = centers.tolist(), mults.tolist()
    order = sorted(range(len(z)), key=lambda i: (z[i].real, z[i].imag))
    return [z[i] for i in order], [m[i] for i in order]


def eigenvalues(a, cluster_tol: float = CLUSTER_TOL) -> Spectrum:
    """All eigenvalues of a square matrix with algebraic multiplicities.

    LAPACK computes the eigenpairs; each pair must satisfy
    |Av - zv|_inf <= EIG_RTOL * |A|_inf * |v|_inf, and a failed pair or a
    LAPACK failure raises :class:`NoConvergence`.  The values are then
    clustered by single linkage at the working radius, in numpy: the
    boolean matrix |z_i - z_j| <= radius (at most ``MAX_EIG_DIM`` squared
    entries), its connected components by label sweeps, each component
    merged to its multiplicity-weighted mean, and the same again on the
    centres while any two are within the radius.  The result does not
    depend on the order LAPACK lists the values in, and is sorted by
    (real, imag).

    An eigenvalue of multiplicity m in a Jordan block of size m splits by
    roughly eps**(1/m) in floating point, so the working cluster radius
    is floored at a small multiple of sqrt(eps); ``cluster_tol`` only
    tightens the guarantee that *returned* eigenvalues are pairwise
    separated by more than it.  Pass a larger ``cluster_tol`` to recognise
    defective eigenvalues of multiplicity 3 or more.  A ``cluster_tol``
    that is not positive and finite raises ``ValueError``.
    """
    _check_cluster_tol(cluster_tol)
    m = as_matrix(a)
    n, nc = m.shape
    if n != nc:
        raise ValueError(f"matrix is {n}x{nc}, expected square")
    if n > MAX_EIG_DIM:
        raise ValueError(f"dimension {n} exceeds supported {MAX_EIG_DIM}")
    if n == 0:
        return Spectrum((), (), cluster_tol, cluster_tol)

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

    radius = _working_radius(roots, cluster_tol)
    centers, mults = _cluster(roots, radius)
    return Spectrum(tuple(centers), tuple(mults), cluster_tol, radius)

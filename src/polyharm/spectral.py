"""Interior spectra and Jordan-chain bases.

For an eigenvalue lam of the interior block, the functions annihilated
by any power of (lam I - P) on the whole vertex set vanish on the
boundary and are spanned by the generalised eigenvectors of the
interior block.  This module computes that Jordan structure from nested
numerical kernels, with explicit rank-gap reporting: genuinely
ambiguous rank decisions raise instead of guessing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bvp import _delta_power
from .chain import Chain, Network, _network_chain, conductances
from .errors import (
    IllConditioned,
    NotAnEigenvalue,
    ReportedViolation,
    SpectralRadiusViolation,
)
from .linalg import (CLUSTER_TOL, EchelonInfo, Spectrum, _check_cluster_tol, _echelon,
                     _working_radius, eigenvalues, nullspace_info)

RHO_MARGIN = 1e-10
JORDAN_TOL = 1e-8
# minimum ratio between retained and discarded pivots for a clean rank call
GAP_FACTOR = 10.0


@dataclass(frozen=True)
class InteriorSpectrum:
    """Spectrum of the interior block plus its spectral radius."""

    spectrum: Spectrum
    rho: float


def interior_spectrum(chain: Chain, cluster_tol: float = CLUSTER_TOL) -> InteriorSpectrum:
    """Eigenvalues of the interior block with multiplicities.

    On a valid absorbing chain the spectral radius is strictly below 1;
    a violation indicates numeric trouble and raises
    :class:`SpectralRadiusViolation`.

    The chain keeps its latest spectrum: a second call with the same
    chain and ``cluster_tol`` computes nothing and returns the same
    object.  A new ``cluster_tol`` replaces the kept one.  A refused
    spectrum is never kept, so the next call computes it again.  A
    ``cluster_tol`` that is not positive and finite raises ``ValueError``.
    """
    _check_cluster_tol(cluster_tol)
    kept = chain._spectrum.get(cluster_tol)
    if kept is None:
        spec = eigenvalues(chain.p_int, cluster_tol=cluster_tol)
        rho = spec.rho
        if rho >= 1.0 - RHO_MARGIN:
            raise SpectralRadiusViolation(
                f"interior spectral radius {rho!r} is not strictly below 1"
            )
        kept = InteriorSpectrum(spectrum=spec, rho=rho)
        chain._spectrum.clear()
        chain._spectrum[cluster_tol] = kept
    return kept


@dataclass(eq=False)
class JordanBasis:
    """Jordan chains of the interior block at one eigenvalue.

    ``chains[j][k-1]`` is the k-th vector of the j-th chain as a full-X
    vector vanishing on the boundary; applying (lam I - P_int) to the
    k-th vector yields the (k-1)-th, and the first vector of each chain
    is an eigenvector.  The vectors are complex128.  The rank evidence
    of level k: ``kernel_infos[k-1]``, the elimination of the deflated
    block B_k whose kernel holds the new directions of ker B^k (its rank
    is m - dim ker B^k), and ``top_infos[k-1]``, the one that picked the
    level's chain tops; every gap in both is at least ``GAP_FACTOR``.
    """

    chain: Chain
    lam: complex
    geo_mult: int
    alg_mult: int
    chain_lengths: tuple[int, ...]
    chains: tuple[tuple[np.ndarray, ...], ...]
    kernel_infos: tuple[EchelonInfo, ...]
    top_infos: tuple[EchelonInfo, ...]

    def vectors(self, max_order: int | None = None) -> list[np.ndarray]:
        """Flatten chains, keeping at most ``max_order`` vectors each."""
        out = []
        for c in self.chains:
            cap = len(c) if max_order is None else min(max_order, len(c))
            out.extend(c[:cap])
        return out


def _chain_scale(first: np.ndarray) -> complex:
    """One scalar per chain: makes the eigenvector unit-norm with its
    largest entry real positive.  Scaling the whole chain by the same
    factor preserves the chain relation."""
    nrm = np.linalg.norm(first)
    if nrm == 0:
        return 1.0
    k = int(np.argmax(np.abs(first)))
    phase = first[k] / abs(first[k])
    return 1.0 / (nrm * phase)


def jordan_basis(chain: Chain, lam: complex, tol: float = JORDAN_TOL,
                 cluster_tol: float = CLUSTER_TOL) -> JordanBasis:
    """Jordan chain structure at an eigenvalue of the interior block.

    ``lam`` must be within ``cluster_tol`` of a computed eigenvalue (it
    is snapped to the computed value).  The nested kernels N_k = ker B^k
    of B = lam I - P_int come from staircase deflation, which forms no
    power of B (Kublanovskaya 1966; Golub & Wilkinson, SIAM Review 1976):
    B_1 = B, the kernel of B_k gives the new directions D_k of N_k beyond
    N_{k-1}, and B_{k+1} is B_k compressed to the orthonormal complement
    of that kernel.  The compressions are unitary, so every level keeps
    pivots above the same ``tol * max|B|``.  From the deepest level down,
    the chains found so far are carried one level by B; the unit vectors
    in the coordinates of D_k, with the carried members' part projected
    out, are the candidates, and the new chain tops are the columns our
    complete-pivot elimination picks from them, keeping pivots above
    ``tol`` itself (not relative to the largest entry: at a level that
    wants no new top they are pure rounding).  The output is
    deterministic given the pivot order, longest chains first.

    At an exactly real snapped eigenvalue B is real and all arithmetic is
    float64, otherwise complex128; the vectors returned are complex128
    either way (with imaginary parts exactly 0 at a real eigenvalue).

    A defective eigenvalue in a Jordan block of size m splits by roughly
    eps**(1/m) in floating point, so recognising one of multiplicity 3
    or more needs a correspondingly coarse ``cluster_tol`` (the cluster
    centre, the mean of the split values, stays accurate).  Semisimple
    eigenvalues do not split.

    Raises
    ------
    NotAnEigenvalue
        ``lam`` is not close to any computed eigenvalue.
    IllConditioned
        A rank decision has retained/discarded pivots closer than a
        factor of ``GAP_FACTOR``, or level dimensions are inconsistent.
    """
    spec = interior_spectrum(chain, cluster_tol=cluster_tol).spectrum
    i = spec._nearest(lam)
    nearest = spec.eigenvalues[i]
    if abs(nearest - lam) > spec.cluster_tol:
        raise NotAnEigenvalue(
            f"{lam} is not within {spec.cluster_tol} of the computed spectrum "
            f"{[complex(z) for z in spec.eigenvalues]}"
        )
    kappa = spec.alg_mult[i]
    # P is real, so at a real eigenvalue every matrix below is real
    lam0 = nearest.real if nearest.imag == 0 else nearest

    p_int = chain.p_int
    m = p_int.shape[0]
    b = lam0 * np.eye(m) - p_int
    dtype = b.dtype

    # staircase deflation: B_1 = B, and B_{k+1} = C^H B_k C for the
    # orthonormal complement C of ker B_k, so N_k = N_{k-1} + D_k with
    # D_k = C_{<k} ker B_k, C_{<k} the product of the earlier complements.
    # The compressions are unitary, so one absolute threshold tol * max|B|
    # serves every level; an empty kernel ends the search (B_k is then
    # invertible, so no later power has a larger kernel)
    block, comp = b, np.eye(m, dtype=dtype)
    new, kernel_infos, dims = [], [], [0]
    scale_b = float(np.abs(b).max())
    for k in range(1, m + 1):
        scale_k = float(np.abs(block).max(initial=0.0))
        basis, info = nullspace_info(block, tol * scale_b / scale_k if scale_k > 0 else tol)
        if info.gap < GAP_FACTOR:
            raise IllConditioned(
                f"rank of B^{k} ambiguous: retained pivot {info.smallest_kept:.3e} "
                f"vs discarded {info.largest_dropped:.3e}"
            )
        if not basis:
            break
        kernel_infos.append(info)
        kern = np.array(basis, dtype=dtype).T
        new.append(comp @ kern)
        dims.append(dims[-1] + len(basis))
        if dims[-1] >= kappa:
            break
        c = np.linalg.qr(kern, mode="complete")[0][:, len(basis):]
        comp, block = comp @ c, c.conj().T @ block @ c
    if dims[-1] != kappa:
        raise IllConditioned(
            f"kernel dimensions {dims[1:]} never reach algebraic multiplicity {kappa}"
        )

    # chain tops level by level, deepest first; column j of ``vecs`` is
    # chain j's member at the current level.  D_k is orthogonal to
    # N_{k-1}, so in its coordinates the candidates are the unit vectors
    # with the carried members' part projected out
    vecs = np.zeros((m, 0), dtype=dtype)
    members, top_infos = [], []
    for k in range(len(new), 0, -1):
        vecs = b @ vecs
        d_k, carried = new[k - 1], vecs.shape[1]
        q = np.linalg.qr(d_k.conj().T @ vecs)[0]
        cand = np.eye(d_k.shape[1], dtype=dtype) - q @ q.conj().T
        want = d_k.shape[1] - carried
        scale = float(np.abs(cand).max(initial=0.0))
        perm, info = _echelon(cand.copy(), tol / scale if scale > 0 else tol)
        if want < 0 or info.rank != want or info.gap < GAP_FACTOR:
            raise IllConditioned(
                f"could not separate {want} chain tops at level {k}: rank {info.rank}, "
                f"retained pivot {info.smallest_kept:.3e} vs discarded "
                f"{info.largest_dropped:.3e}"
            )
        tops = d_k @ cand[:, perm[:want]]
        vecs = np.hstack([vecs, tops / np.linalg.norm(tops, axis=0)])
        members.append(vecs)
        top_infos.append(info)

    members.reverse()  # eigenvectors first
    top_infos.reverse()
    # one scale per chain, from its eigenvector; one embedding per level
    alpha = np.array([_chain_scale(v) for v in members[0].T], dtype=complex)
    rows = [chain.embed(v * alpha[:v.shape[1]]).T.copy() for v in members]
    chains_full = tuple(tuple(r[j] for r in rows if len(r) > j) for j in range(dims[1]))
    return JordanBasis(
        chain=chain,
        lam=complex(lam0),
        geo_mult=dims[1],
        alg_mult=kappa,
        chain_lengths=tuple(len(c) for c in chains_full),
        chains=chains_full,
        kernel_infos=tuple(kernel_infos),
        top_infos=tuple(top_infos),
    )


def global_polyharmonic_basis(chain: Chain, lam: complex, n: int,
                              tol: float = JORDAN_TOL,
                              cluster_tol: float = CLUSTER_TOL) -> list[np.ndarray]:
    """Basis of {f on X : (lam I - P)^n f = 0 everywhere} for lam in the
    interior spectrum: the Jordan chain vectors up to position
    min(n, chain length), extended by zero on the boundary.

    Each returned vector is verified to be annihilated by the n-th power
    of the operator within 1e-8 relative.  The vectors vanish on the
    absorbing boundary, so only the interior rows can be nonzero: one
    application of Delta_lam^n to their stacked interior rows checks
    them all.
    """
    if n < 1:
        raise ValueError(f"order must be >= 1, got {n}")
    jb = jordan_basis(chain, lam, tol, cluster_tol=cluster_tol)
    basis = jb.vectors(max_order=n)
    v = np.array(basis).T
    res = np.abs(_delta_power(chain.p_int, chain.q, jb.lam, v[chain.interior_rows],
                              v[chain.boundary_rows], n)).max(axis=0)
    lim = 1e-8 * np.abs(v).max(axis=0)
    for r, bound in zip(res, lim):
        if r > bound:
            raise IllConditioned(
                f"basis vector fails (lam I - P)^{n} annihilation: {r:.3e} > {bound:.3e}"
            )
    return basis


@dataclass(eq=False)
class NetworkSpectrumReport:
    """Spectral sanity report for a chain built from a resistive network.

    Only passing checks produce a report; violations raise."""

    chain: Chain
    spectrum: Spectrum
    symmetry_deviation: float
    geo_mults: tuple[int, ...]
    alg_mults: tuple[int, ...]


def network_spectrum_check(network: Network, tol: float = JORDAN_TOL,
                           cluster_tol: float = CLUSTER_TOL) -> NetworkSpectrumReport:
    """Verify the reversible-chain spectral facts for a network.

    The similarity by D = diag(sqrt(m(x))) symmetrises the interior
    block, so the spectrum must be real and every eigenvalue must have
    equal geometric and algebraic multiplicity.  The certificate is one
    symmetric eigendecomposition (LAPACK ``eigh``) of S = D P_int D^-1,
    whose eigenvalues w are the whole spectrum: S is within
    ``symmetry_deviation`` entrywise of the symmetric matrix ``eigh``
    decomposes, so every eigenvalue of P_int lies within n times that of
    a real one (Bauer-Fike, 1960).  Each x = D^-1 v must have relative
    residual |P_int x - w x| / |x| at most ``tol``, which for a symmetric
    matrix bounds the distance to an eigenvalue (Parlett, *The Symmetric
    Eigenvalue Problem*, 1980).  The sorted w split at every gap wider
    than the working cluster radius; each run is a cluster with its mean
    as centre and its length as algebraic multiplicity, which must equal
    the rank of the run's eigenvectors by our complete-pivot elimination
    at ``tol``.  Numeric violations raise :class:`ReportedViolation`; a
    ``cluster_tol`` that is not positive and finite raises ``ValueError``.
    """
    if not isinstance(network, Network):
        raise TypeError("network_spectrum_check needs a Network, "
                        f"got {type(network).__name__}")
    _check_cluster_tol(cluster_tol)
    cond, m = conductances(network)
    ch = _network_chain(network, cond)
    p_int = ch.p_int
    d = np.sqrt([m[x] for x in ch.interior_ids])
    sym = (d[:, None] * p_int) / d[None, :]
    sym_dev = float(np.abs(sym - sym.T).max())
    if sym_dev > 1e-12:
        raise ReportedViolation(
            f"conjugated interior block deviates from symmetry by {sym_dev:.3e}"
        )
    w, v = np.linalg.eigh(sym)
    x = v / d[:, None]
    resid = np.abs(p_int @ x - x * w).max(axis=0) / np.abs(x).max(axis=0)
    bad = int(resid.argmax())
    if resid[bad] > tol:
        raise ReportedViolation(
            f"eigenvector of {w[bad]:.3e} has relative residual {resid[bad]:.3e} > {tol:.3e}"
        )
    radius = _working_radius(w, cluster_tol)
    runs = np.split(np.arange(w.size), np.flatnonzero(np.diff(w) > radius) + 1)
    centres = tuple(complex(w[r].mean()) for r in runs)
    mults = tuple(len(r) for r in runs)
    geo = tuple(_echelon(x[:, r], tol)[1].rank for r in runs)
    for z, g, mult in zip(centres, geo, mults):
        if g != mult:
            raise ReportedViolation(
                f"eigenvalue {z}: geometric multiplicity {g} != algebraic {mult}"
            )
    return NetworkSpectrumReport(
        chain=ch,
        spectrum=Spectrum(centres, mults, cluster_tol, radius),
        symmetry_deviation=sym_dev,
        geo_mults=geo,
        alg_mults=mults,
    )

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

from .chain import Chain, Network, from_network, sub_chain
from .errors import (
    IllConditioned,
    NotAnEigenvalue,
    ReportedViolation,
    SpectralRadiusViolation,
)
from .linalg import CLUSTER_TOL, Spectrum, eigenvalues, nullspace_info

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
    """
    spec = eigenvalues(sub_chain(chain).p, cluster_tol=cluster_tol)
    rho = spec.rho
    if rho >= 1.0 - RHO_MARGIN:
        raise SpectralRadiusViolation(
            f"interior spectral radius {rho!r} is not strictly below 1"
        )
    return InteriorSpectrum(spectrum=spec, rho=rho)


@dataclass(eq=False)
class JordanBasis:
    """Jordan chains of the interior block at one eigenvalue.

    ``chains[j][k-1]`` is the k-th vector of the j-th chain as a full-X
    vector vanishing on the boundary; applying (lam I - P_int) to the
    k-th vector yields the (k-1)-th, and the first vector of each chain
    is an eigenvector.
    """

    chain: Chain
    lam: complex
    geo_mult: int
    alg_mult: int
    chain_lengths: tuple[int, ...]
    chains: tuple[tuple[np.ndarray, ...], ...]

    def vectors(self, max_order: int | None = None) -> list[np.ndarray]:
        """Flatten chains, keeping at most ``max_order`` vectors each."""
        out = []
        for c in self.chains:
            cap = len(c) if max_order is None else min(max_order, len(c))
            out.extend(c[:cap])
        return out


def _embed(chain: Chain, interior_vec: np.ndarray) -> np.ndarray:
    v = np.zeros(chain.n, dtype=complex)
    v[list(chain.interior)] = interior_vec
    return v


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
    is snapped to the computed value).  Nested kernels of powers of
    (lam I - P_int) are computed by rank-revealing elimination; chain
    tops are kernel basis vectors of the deepest level orthogonalised
    against the previous level, which makes the output deterministic
    given the pivot order.

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
    ispec = interior_spectrum(chain, cluster_tol=cluster_tol)
    spec = ispec.spectrum
    nearest = spec.nearest(lam)
    if abs(nearest - lam) > spec.cluster_tol:
        raise NotAnEigenvalue(
            f"{lam} is not within {spec.cluster_tol} of the computed spectrum "
            f"{[complex(z) for z in spec.eigenvalues]}"
        )
    lam0 = nearest
    kappa = spec.mult_of(lam0)

    p_int = sub_chain(chain).p
    m = p_int.shape[0]
    b = lam0 * np.eye(m, dtype=complex) - p_int

    # nested kernels N_k = ker(B^k) until the dimension reaches the
    # algebraic multiplicity; rank thresholds stay relative to |B|^k,
    # not |B^k| (powers of near-nilpotent blocks have tiny norms)
    levels: list[list[np.ndarray]] = []
    bk = np.eye(m, dtype=complex)
    dims = [0]
    scale_b = max(float(np.abs(b).max()), 1e-300)
    for k in range(1, m + 1):
        bk = bk @ b
        scale_bk = float(np.abs(bk).max())
        tol_k = tol * scale_b**k / scale_bk if scale_bk > 0 else tol
        basis, info = nullspace_info(bk, tol_k)
        if info.gap < GAP_FACTOR:
            raise IllConditioned(
                f"rank of B^{k} ambiguous: retained pivot {info.smallest_kept:.3e} "
                f"vs discarded {info.largest_dropped:.3e}"
            )
        levels.append(basis)
        dims.append(len(basis))
        if len(basis) >= kappa:
            break
    if dims[-1] != kappa:
        raise IllConditioned(
            f"kernel dimensions {dims[1:]} never reach algebraic multiplicity {kappa}"
        )
    depth = len(levels)

    def project_out(v: np.ndarray, span: list[np.ndarray]) -> np.ndarray:
        for u in span:
            v = v - (u.conj() @ v) * u
        return v

    # pick chain tops level by level, longest chains first
    chains_int: list[list[np.ndarray]] = []
    carried: list[list[np.ndarray]] = [[] for _ in range(depth + 1)]
    for k in range(depth, 0, -1):
        blockers: list[np.ndarray] = []
        for u in (levels[k - 2] if k >= 2 else []):
            blockers.append(u)
        for u in carried[k]:
            w = project_out(u.astype(complex), blockers)
            nrm = np.linalg.norm(w)
            if nrm > 1e-12:
                blockers.append(w / nrm)
        want = (dims[k] - dims[k - 1]) - len(carried[k])
        picked = 0
        for cand in levels[k - 1]:
            if picked == want:
                break
            w = project_out(cand.astype(complex), blockers)
            nrm = np.linalg.norm(w)
            if nrm <= 1e-8:
                continue
            top = w / nrm
            blockers.append(top)
            picked += 1
            vecs = [top]
            for _ in range(k - 1):
                vecs.append(b @ vecs[-1])
            vecs.reverse()  # eigenvector first
            chains_int.append(vecs)
            for lvl in range(1, k):
                carried[lvl].append(vecs[lvl - 1])
        if picked != want:
            raise IllConditioned(
                f"could not separate {want} chain tops at level {k} (got {picked})"
            )

    chains_int.sort(key=len, reverse=True)
    chains_full = []
    for c in chains_int:
        alpha = _chain_scale(c[0])
        chains_full.append(tuple(_embed(chain, alpha * v) for v in c))
    chains_full = tuple(chains_full)
    lengths = tuple(len(c) for c in chains_full)
    if sum(lengths) != kappa:
        raise IllConditioned(
            f"chain lengths {lengths} sum to {sum(lengths)}, expected {kappa}"
        )
    return JordanBasis(
        chain=chain,
        lam=complex(lam0),
        geo_mult=dims[1],
        alg_mult=kappa,
        chain_lengths=lengths,
        chains=chains_full,
    )


def global_polyharmonic_basis(chain: Chain, lam: complex, n: int,
                              tol: float = JORDAN_TOL,
                              cluster_tol: float = CLUSTER_TOL) -> list[np.ndarray]:
    """Basis of {f on X : (lam I - P)^n f = 0 everywhere} for lam in the
    interior spectrum: the Jordan chain vectors up to position
    min(n, chain length), extended by zero on the boundary.

    Each returned vector is verified to be annihilated by the n-th power
    of the full-matrix operator within 1e-8 relative.
    """
    if n < 1:
        raise ValueError(f"order must be >= 1, got {n}")
    jb = jordan_basis(chain, lam, tol, cluster_tol=cluster_tol)
    basis = jb.vectors(max_order=n)
    op = jb.lam * np.eye(chain.n, dtype=complex) - chain.trans
    for v in basis:
        w = v.copy()
        for _ in range(n):
            w = op @ w
        lim = 1e-8 * float(np.abs(v).max())
        if float(np.abs(w).max()) > lim:
            raise IllConditioned(
                f"basis vector fails (lam I - P)^{n} annihilation: "
                f"{float(np.abs(w).max()):.3e} > {lim:.3e}"
            )
    return basis


@dataclass(eq=False)
class NetworkSpectrumReport:
    """Spectral sanity report for a chain built from a resistive network.

    Only passing checks produce a report; violations raise."""

    chain: Chain
    spectrum: Spectrum
    symmetry_deviation: float
    max_imag: float
    geo_mults: tuple[int, ...]
    alg_mults: tuple[int, ...]


def network_spectrum_check(network: Network, tol: float = JORDAN_TOL,
                           cluster_tol: float = CLUSTER_TOL) -> NetworkSpectrumReport:
    """Verify the reversible-chain spectral facts for a network.

    The similarity by diag(sqrt(m(x))) symmetrises the interior block, so
    the spectrum must be real and every eigenvalue must have equal
    geometric and algebraic multiplicity.  Numeric violations raise
    :class:`ReportedViolation`.  The interior block is similar to a
    symmetric matrix, so its eigenvalues are semisimple and repeated ones
    do not split: the default ``cluster_tol`` resolves them.
    """
    if not isinstance(network, Network):
        raise TypeError("network_spectrum_check needs a Network, "
                        f"got {type(network).__name__}")
    ch = from_network(network)
    view = sub_chain(ch)
    # m(x) up to global scale: reversibility makes row weights recoverable
    # from the conductances; rebuild them directly
    m_weights = _vertex_weights(network, view.interior)
    d = np.sqrt(m_weights)
    sym = (d[:, None] * view.p) / d[None, :]
    sym_dev = float(np.abs(sym - sym.T).max())
    if sym_dev > 1e-12:
        raise ReportedViolation(
            f"conjugated interior block deviates from symmetry by {sym_dev:.3e}"
        )
    spec = eigenvalues(view.p, cluster_tol=cluster_tol)
    max_imag = max((abs(z.imag) for z in spec.eigenvalues), default=0.0)
    if max_imag > 1e-8:
        raise ReportedViolation(f"eigenvalue imaginary part {max_imag:.3e} > 1e-8")
    geo = []
    for z, mult in zip(spec.eigenvalues, spec.alg_mult):
        b = z.real * np.eye(view.p.shape[0]) - view.p
        basis, _ = nullspace_info(b, tol)
        geo.append(len(basis))
        if len(basis) != mult:
            raise ReportedViolation(
                f"eigenvalue {z}: geometric multiplicity {len(basis)} != "
                f"algebraic {mult}"
            )
    return NetworkSpectrumReport(
        chain=ch,
        spectrum=spec,
        symmetry_deviation=sym_dev,
        max_imag=float(max_imag),
        geo_mults=tuple(geo),
        alg_mults=spec.alg_mult,
    )


def _vertex_weights(network: Network, interior_ids: tuple[str, ...]) -> np.ndarray:
    totals: dict[str, float] = {}
    for u, v, a in network.edges:
        totals[u] = totals.get(u, 0.0) + a
        if u != v:
            totals[v] = totals.get(v, 0.0) + a
    return np.array([totals[x] for x in interior_ids])

"""Martin kernels and the kernel form of the boundary-value solutions.

The Martin kernel at origin o is K(x, w | lam) = F(x, w | lam) /
F(o, w | lam); it is defined whenever lam is in the resolvent set and no
hitting value F(o, w | lam) vanishes.  Higher-order kernels are obtained
by applying powers of the Green matrix columnwise, and turn boundary
data into Riquier solutions through the weights nu_r(w) =
g_r(w) F(o, w | lam).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .bvp import GreenMatrix, Solution, green, polyharmonic_residual, residual_tol
from .chain import Chain, boundary_vector
from .errors import NotInResStar

RES_STAR_RTOL = 1e-12


@dataclass(eq=False)
class MartinKernel:
    """Martin kernel matrix plus optional higher-order kernels.

    ``k`` is |X| x |boundary| with K(o, w) = 1 for every w by
    construction and delta rows (scaled by 1/F(o, w)) on the boundary.
    ``higher[r-1]`` holds the order-r kernel on the interior; order 1 is
    the interior block of ``k``.
    """

    chain: Chain
    origin: str
    lam: complex
    k: np.ndarray
    higher: list[np.ndarray] = field(default_factory=list)

    def entry(self, x: str, w: str) -> complex:
        xi = self.chain.vertex_index(x)
        wj = self.chain.boundary_ids.index(w)
        return complex(self.k[xi, wj])


def _check_res_star(gm: GreenMatrix, origin_row: np.ndarray) -> None:
    scale = float(np.abs(origin_row).max())
    bad = np.nonzero(np.abs(origin_row) <= RES_STAR_RTOL * max(scale, 1e-300))[0]
    if bad.size:
        w = gm.chain.boundary_ids[int(bad[0])]
        raise NotInResStar(
            f"F(origin, {w} | {gm.lam}) = {origin_row[int(bad[0])]:.3e} vanishes; "
            "Martin kernel undefined"
        )


def martin_kernel(chain: Chain, lam: complex, origin: str, n: int = 1) -> MartinKernel:
    """Martin kernel at ``origin`` with higher-order kernels up to ``n``.

    Raises :class:`LambdaInSpectrum` for spectral ``lam`` and
    :class:`NotInResStar` when some F(origin, w | lam) vanishes (below
    1e-12 relative to the largest hitting value at the origin).
    """
    if n < 1:
        raise ValueError(f"order must be >= 1, got {n}")
    row = _origin_row(chain, origin)
    return _martin_kernel(green(chain, lam), origin, row, n)


def _origin_row(chain: Chain, origin: str) -> int:
    """Row of ``origin`` in the interior blocks; it must be interior."""
    oi = chain.vertex_index(origin)
    if oi not in chain.interior:
        raise ValueError(f"origin {origin!r} must be an interior vertex")
    return chain.interior.index(oi)


def _martin_kernel(gm: GreenMatrix, origin: str, row: int, n: int) -> MartinKernel:
    """Martin kernel from a Green matrix already built; ``row`` is the
    origin's interior row."""
    chain = gm.chain
    o_row = gm.f[row, :].copy()
    _check_res_star(gm, o_row)

    k_int = gm.f / o_row[None, :]
    k_int[row, :] = 1.0  # exact by construction, not by rounding luck
    k = chain.embed(k_int, np.diag(1.0 / o_row))
    higher = [k_int]
    for _ in range(1, n):
        higher.append(gm.apply_green(higher[-1]))
    return MartinKernel(chain=chain, origin=origin, lam=gm.lam, k=k, higher=higher)


def riquier_via_kernels(chain: Chain, lam: complex, origin: str, gs) -> Solution:
    """Riquier solution assembled from Martin kernels.

    The boundary data are folded into weights nu_r(w) = g_r(w)
    F(origin, w | lam) and paired with the order-r kernels; the result
    must agree with the direct tower solver (that comparison is the
    point of this route and lives in the tests).
    """
    g_vecs = [boundary_vector(chain, g) for g in gs]
    n = len(g_vecs)
    if n < 1:
        raise ValueError("need at least one boundary function")
    row = _origin_row(chain, origin)
    gm = green(chain, lam)
    mk = _martin_kernel(gm, origin, row, n)
    o_row = gm.f[row, :]

    f_int = np.zeros(len(chain.interior), dtype=complex)
    for r in range(1, n + 1):
        nu_r = g_vecs[r - 1] * o_row
        f_int = f_int + mk.higher[r - 1] @ nu_r

    values = chain.embed(f_int, g_vecs[0])
    report = polyharmonic_residual(chain, lam, values, n)
    return Solution(
        chain=chain,
        lam=complex(lam),
        order=n,
        values=values,
        residuals=report.residuals,
        nth_interior=report.nth_interior,
        tol=residual_tol(lam, values),
        min_pivot_ratio=gm.min_pivot_ratio,
    )


def derivative_identity_check(chain: Chain, lam: complex, r: int,
                              h: float | None = None) -> float:
    """Max deviation between the (r-1)-th finite-difference derivative of
    the Green matrix and the matching power identity.

    The d-th elementwise derivative of G at ``lam`` (d = r-1) is
    approximated by the symmetric d+1 point stencil with step ``h``
    along the real axis, scaled by (-1)^(r-1)/(r-1)!, and compared with
    G(lam)^r.  Expected deviation is O(h^2) plus conditioning.  Every
    stencil node must stay in the resolvent set, and h^(r-1) must be a
    normal float (else ``ValueError``).
    """
    if r < 2:
        raise ValueError(f"derivative order needs r >= 2, got {r}")
    d = r - 1
    if h is None:
        h = 1e-4 * (1.0 + abs(lam))
    try:
        hd = h**d
    except OverflowError:
        hd = math.inf
    if not sys.float_info.min <= hd < math.inf:
        raise ValueError(f"step h = {h!r} is out of range for a derivative of order {d}: "
                         f"h^{d} = {hd!r} is not a normal float")
    fd = None
    for k in range(d + 1):
        node = lam + (d / 2.0 - k) * h
        coeff = ((-1) ** k) * math.comb(d, k)
        g_node = green(chain, node).g
        fd = coeff * g_node if fd is None else fd + coeff * g_node
    fd = fd / hd
    scaled = ((-1) ** (r - 1)) / math.factorial(r - 1) * fd

    gm = green(chain, lam)
    power = gm.apply_green(np.eye(len(chain.interior), dtype=complex), power=r)
    return float(np.abs(scaled - power).max())

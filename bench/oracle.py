"""Independent reference computations for the benchmark's checks.

Nothing here calls into ``polyharm``: every reference value is built from
the benchmark's own copy of the input (its transition matrix, tree or
network) with plain numpy, so a wrong answer from the program cannot be
confirmed by the program itself.
"""

from __future__ import annotations

import math

import numpy as np

REL_TOL = 1e-8
Z_LIMIT = 5.0


class Problems(list):
    """Collected reasons why one answer is wrong; empty means correct."""

    def close(self, what, got, want, rel=REL_TOL):
        got = np.asarray(got, dtype=complex)
        want = np.asarray(want, dtype=complex)
        if got.shape != want.shape:
            self.append(f"{what}: shape {got.shape} != {want.shape}")
            return
        if not want.size:
            return
        dev = float(np.abs(got - want).max())
        lim = rel * (1.0 + float(np.abs(want).max()))
        if not dev <= lim:
            self.append(f"{what}: off by {dev:.3e} (limit {lim:.3e})")

    def equal(self, what, got, want):
        if got != want:
            self.append(f"{what}: {got!r} != {want!r}")

    def true(self, what, ok):
        if not ok:
            self.append(what)


class Blocks:
    """A chain as the benchmark itself built it: vertex ids, the interior
    and boundary ids, and the full transition matrix in that order."""

    def __init__(self, ids, interior, boundary, trans):
        self.ids = list(ids)
        self.interior = list(interior)
        self.boundary = list(boundary)
        pos = {v: i for i, v in enumerate(self.ids)}
        ii = [pos[v] for v in self.interior]
        bb = [pos[v] for v in self.boundary]
        t = np.asarray(trans, dtype=float)
        self.trans = t
        self.p = t[np.ix_(ii, ii)]
        self.q = t[np.ix_(ii, bb)]

    def a(self, lam):
        return lam * np.eye(len(self.interior)) - self.p

    def tower(self, lam, gs):
        """Stages f_1 .. f_n of (lam I - P_int) f_r = Q g_r + f_{r+1}."""
        out, nxt = [], np.zeros(len(self.interior), dtype=complex)
        for g in reversed(gs):
            nxt = np.linalg.solve(self.a(lam), self.q @ np.asarray(g) + nxt)
            out.append(nxt)
        return out[::-1]

    def hitting(self, lam):
        """F(lam) = (lam I - P_int)^-1 Q, interior x boundary."""
        return np.linalg.solve(self.a(lam), self.q.astype(complex))

    def green(self, lam):
        return np.linalg.inv(self.a(lam))


def values_by_id(chain, values, ids):
    """Reorder a program vector (in the program's vertex order) to ``ids``."""
    return np.array([values[chain.vertex_index(v)] for v in ids])


def kernel_dims(b, depth):
    """dim ker(B^j) for j = 1..depth, from numpy's SVD rank."""
    k = b.shape[0]
    dims, bj = [], np.eye(k, dtype=complex)
    for _ in range(depth):
        bj = bj @ b
        dims.append(k - int(np.linalg.matrix_rank(bj)))
    return dims


def match_spectrum(centres, mults, reference, tol):
    """Problems found when clustered eigenvalues ``centres`` with
    multiplicities ``mults`` are compared with numpy's eigenvalues: every
    reference value must lie within ``tol`` of a centre, and each centre
    must have as many reference values near it as its multiplicity."""
    probs = Problems()
    centres = np.asarray(centres, dtype=complex)
    reference = np.asarray(reference, dtype=complex)
    if not centres.size:
        probs.append("no eigenvalues")
        return probs
    worst = float(max(np.abs(centres - z).min() for z in reference))
    if not worst <= tol:
        probs.append(f"eigenvalue off by {worst:.3e} from numpy (limit {tol:.1e})")
    near = [int((np.abs(reference - c) <= tol).sum()) for c in centres]
    probs.equal("multiplicities", list(mults), near)
    return probs


def tree_kernel(depth_x, lam, r, mass_x):
    """Unrestricted order-r tree kernel on an arc below x (paper's closed
    form, evaluated in exact integer binomials)."""
    return ((-1) ** (r - 1)) * lam ** (depth_x - (r - 1)) \
        * math.comb(depth_x, r - 1) / mass_x


def hitting_z(counts, censored, trials, f_row):
    """Largest |z| of absorption counts against analytic probabilities.

    Censored trials may have ended anywhere, so each frequency is only
    known to lie in [c/N, (c + censored)/N]; z is the distance from that
    interval in units of the binomial standard error at the true value.
    """
    worst = 0.0
    for c, f in zip(counts, f_row):
        lo, hi = c / trials, (c + censored) / trials
        gap = max(lo - f, f - hi, 0.0)
        se = math.sqrt(max(f * (1.0 - f), 1.0 / trials) / trials)
        worst = max(worst, gap / se)
    return worst


def series_z(first_visit, censored, trials, max_steps, lam, f_row):
    """Largest |z| of the weighted first-visit series sum_t fv(t) lam^-t / N
    against F(lam), after the truncation allowance of censored trials: each
    is absorbed once, after max_steps, so adds at most lam^-(max_steps+1)."""
    t = np.arange(first_visit.shape[0], dtype=float)
    w = lam ** (-t)
    worst, emps = 0.0, []
    for j, f in enumerate(f_row):
        hist = first_visit[:, j].astype(float)
        emp = float(hist @ w) / trials
        var = max(float(hist @ (w * w)) / trials - emp * emp, 0.0) / trials
        trunc = censored / trials * lam ** (-(max_steps + 1))
        gap = max(abs(emp - f) - trunc, 0.0)
        worst = max(worst, gap / max(math.sqrt(var), 1e-300) if gap else 0.0)
        emps.append(emp)
    return worst, emps

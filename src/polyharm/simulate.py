"""Monte Carlo estimation of hitting objects, for cross-validation.

Trajectories run under the chain's transition matrix until absorption
(or a step cap).  The uniform variate consumed by trial t at step k is
the value at counter offset (k-1)*trials + t of a Philox stream keyed by
the seed, so every trial owns a fixed substream: a trial's path depends
only on the seed, its own id and the chain.  All trials run as one walk.

A step costs time and memory in proportion to the trials still walking,
not to trials x vertices: the next vertex is found by bisection in a
table of each row's cumulative sums at its support, absorbed trials
leave the live set, and each step draws the variates of the span from
the first to the last live trial only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bvp import GreenMatrix
from .chain import Chain

CENSOR_FLAG_RATE = 1e-3
UNDERPOWERED_TRIALS = 100


@dataclass(frozen=True)
class SimConfig:
    """Simulation parameters; ``seed`` pins the whole experiment."""

    trials: int
    seed: int
    max_steps: int
    start: str

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.max_steps < 1:
            raise ValueError("max_steps must be >= 1")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must fit in 64 bits")


@dataclass(eq=False)
class HittingEstimate:
    """Raw counts from absorbed trajectories.

    ``first_visit[t, j]`` counts trials first absorbed at boundary vertex
    j exactly at step t (row 0 is all zero: starts are interior);
    ``occupancy[t, i]`` counts trials sitting at vertex i at step t,
    absorbed trials included, so ``first_visit`` is the step-to-step
    growth of the boundary columns of ``occupancy``.  Rows stop at the
    last recorded step; the occupancy row is constant from there on.
    """

    chain: Chain
    config: SimConfig
    counts: np.ndarray
    censored: int
    first_visit: np.ndarray
    occupancy: np.ndarray

    @property
    def trials(self) -> int:
        return self.config.trials

    @property
    def hit_fraction(self) -> np.ndarray:
        return self.counts / self.trials

    @property
    def std_error(self) -> np.ndarray:
        p = self.hit_fraction
        return np.sqrt(p * (1.0 - p) / self.trials)

    @property
    def censor_flagged(self) -> bool:
        return self.censored / self.trials > CENSOR_FLAG_RATE

    @property
    def steps(self) -> int:
        """Steps run: the last step at which some trial was still walking,
        or ``max_steps``."""
        return self.occupancy.shape[0] - 1

    @property
    def live(self) -> np.ndarray:
        """Trials still walking at each step, 0 through ``steps``."""
        return self.occupancy[:, list(self.chain.interior)].sum(axis=1)

    def count_of(self, w: str) -> int:
        return int(self.counts[self.chain.boundary_ids.index(w)])


class _Stream:
    """The seed's Philox stream: each draw restores the initial state and
    advances to the requested counter."""

    def __init__(self, seed: int):
        self._bitgen = np.random.Philox(key=seed)
        self._initial = self._bitgen.state

    def uniforms(self, offset: int, picks: np.ndarray) -> np.ndarray:
        """The variates at counters ``offset + picks`` (ascending picks,
        the first 0): the whole span is drawn as raw words, and only the
        picked ones become doubles."""
        self._bitgen.state = self._initial
        # advance() moves the counter in whole 4-output blocks; skip the rest
        self._bitgen.advance(offset // 4)
        skip = offset % 4
        words = self._bitgen.random_raw(skip + int(picks[-1]) + 1)[skip:]
        # the conversion Generator.random applies to each 64-bit word
        return (words[picks] >> 11) * 2.0**-53


def _support_table(trans: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per row, the cumulative sums at the columns where they increase,
    padded with +inf to 2^L - 1 slots, and those columns.

    The last cumulative sum is set to 1 against rounding, so a row that
    sums to 1 - ulp still selects its last column.  Only a column where
    the cumulative sum increases can be the first one that exceeds a
    uniform, so dropping the others changes no choice.
    """
    cum = np.cumsum(trans, axis=1)
    cum[:, -1] = 1.0
    keep = np.diff(cum, axis=1, prepend=0.0) > 0.0
    width = (1 << int(keep.sum(axis=1).max()).bit_length()) - 1
    rows, cols = np.nonzero(keep)
    slots = (np.cumsum(keep, axis=1) - 1)[rows, cols]
    vals = np.full((trans.shape[0], width), np.inf)
    vals[rows, slots] = cum[rows, cols]
    targets = np.zeros((trans.shape[0], width), dtype=np.int64)
    targets[rows, slots] = cols
    return vals, targets


def _next_vertex(vals: np.ndarray, targets: np.ndarray, pos: np.ndarray,
                 u: np.ndarray) -> np.ndarray:
    """The first column of row ``pos`` whose cumulative sum exceeds ``u``,
    by a branchless bisection over the support table."""
    width = vals.shape[1]
    flat = vals.ravel()
    k = pos * width  # flat index of the row's first slot, then of the answer
    s = (width + 1) // 2
    while s:
        k += s * (flat[s - 1:][k] <= u)
        s //= 2
    return targets.ravel()[k]


def _walk(chain: Chain, config: SimConfig):
    """Walk every trial until absorption or ``max_steps``; the absorption
    counts, the censored count and the per-step occupancy rows."""
    n = chain.n
    boundary = list(chain.boundary)
    interior = np.zeros(n, dtype=bool)
    interior[list(chain.interior)] = True
    table = _support_table(chain.trans)
    stream = _Stream(config.seed)

    # the live set: ascending trial ids and their positions
    ids = np.arange(config.trials)
    pos = np.full(config.trials, chain.vertex_index(config.start), dtype=np.int64)
    # counts[j] is also the number of absorbed trials sitting at boundary j
    counts = np.zeros(len(boundary), dtype=np.int64)
    occupancy_rows = [np.bincount(pos, minlength=n)]

    step = 0
    while ids.size and step < config.max_steps:
        step += 1
        first = int(ids[0])
        u = stream.uniforms((step - 1) * config.trials + first, ids - first)
        pos = _next_vertex(*table, pos, u)
        # every trial was live before the step: those now on the boundary
        # are its first hits, and leave the live set
        occ = np.bincount(pos, minlength=n)
        first_hits = occ[boundary]
        if first_hits.any():
            counts += first_hits
            live = interior[pos]
            ids, pos = ids[live], pos[live]
        occ[boundary] = counts
        occupancy_rows.append(occ)

    return counts, int(ids.size), np.vstack(occupancy_rows)


def simulate_hitting(chain: Chain, config: SimConfig, shards: int = 1) -> HittingEstimate:
    """Run ``config.trials`` independent trajectories from
    ``config.start`` and tally absorption vertex, absorption time and
    per-step occupancy.

    All trials run as one walk.  ``shards`` changes nothing: every trial
    consumes its own counter-indexed substream, so no split of the trials
    could change a result.  It is kept for existing callers and must be
    at least 1.
    Trajectories still alive after ``max_steps`` are counted as censored
    (exponentially rare on a valid chain).
    """
    start_idx = chain.vertex_index(config.start)
    if start_idx not in chain.interior:
        raise ValueError(f"start vertex {config.start!r} must be interior")
    if shards < 1:
        raise ValueError("shards must be >= 1")

    counts, censored, occupancy = _walk(chain, config)
    # absorbed trials sit on the boundary: its occupancy grows by the new hits
    first_visit = np.diff(occupancy[:, list(chain.boundary)], axis=0, prepend=0)

    return HittingEstimate(
        chain=chain,
        config=config,
        counts=counts,
        censored=censored,
        first_visit=first_visit,
        occupancy=occupancy,
    )


@dataclass(eq=False)
class SeriesCheck:
    """One boundary vertex of the resolvent-series comparison."""

    empirical: float
    analytic: float
    sigma: float
    truncation_bound: float

    @property
    def within(self) -> bool:
        return abs(self.empirical - self.analytic) <= 3.0 * self.sigma + self.truncation_bound


@dataclass(eq=False)
class ComparisonReport:
    """Monte Carlo vs analytic hitting values.

    At lam = 1 the absorption frequencies are z-scored against the
    hitting matrix; for real lam above the spectral radius the weighted
    series sum_t first_visit(t) lam^-t is compared against F(start, w |
    lam) with a censoring-based truncation bound.
    """

    mode: str
    start: str
    lam: complex
    z_scores: dict[str, float]
    series: dict[str, SeriesCheck]
    censored_fraction: float
    underpowered: bool

    @property
    def max_abs_z(self) -> float:
        return max((abs(z) for z in self.z_scores.values()), default=0.0)

    @property
    def all_series_within(self) -> bool:
        return all(s.within for s in self.series.values())


def compare_to_analytic(estimate: HittingEstimate, gm: GreenMatrix) -> ComparisonReport:
    """Compare an estimate against the analytic hitting values carried by
    a Green matrix (must be built on the same chain)."""
    chain = estimate.chain
    if gm.chain is not chain and gm.chain.vertices != chain.vertices:
        raise ValueError("estimate and Green matrix use different chains")
    start = estimate.config.start
    x_row = chain.interior.index(chain.vertex_index(start))
    lam = gm.lam
    underpowered = estimate.trials < UNDERPOWERED_TRIALS
    censored_fraction = estimate.censored / estimate.trials

    z_scores: dict[str, float] = {}
    series: dict[str, SeriesCheck] = {}
    if abs(lam - 1.0) <= 1e-12:
        p_hat = estimate.hit_fraction
        se = estimate.std_error
        for j, w in enumerate(chain.boundary_ids):
            target = float(gm.f[x_row, j].real)
            if se[j] > 0:
                z = (p_hat[j] - target) / se[j]
            else:
                z = 0.0 if abs(p_hat[j] - target) < 1e-15 else float("inf")
            z_scores[w] = float(z)
    else:
        if abs(lam.imag) > 1e-12 or lam.real <= 0:
            raise ValueError("series comparison needs real positive lam")
        t = np.arange(estimate.first_visit.shape[0])
        weights = lam.real ** (-t.astype(float))
        n_trials = estimate.trials
        for j, w in enumerate(chain.boundary_ids):
            hist = estimate.first_visit[:, j].astype(float)
            emp = float((hist * weights).sum() / n_trials)
            second = float((hist * weights**2).sum() / n_trials)
            var = max(second - emp**2, 0.0) / n_trials
            if lam.real > 1.0:
                tail = lam.real ** (-(estimate.config.max_steps + 1))
                trunc = censored_fraction * tail / (1.0 - 1.0 / lam.real)
            else:
                trunc = censored_fraction  # crude but safe for lam <= 1
            analytic = float(gm.f[x_row, j].real)
            series[w] = SeriesCheck(
                empirical=emp,
                analytic=analytic,
                sigma=float(np.sqrt(var)),
                truncation_bound=float(trunc),
            )
    return ComparisonReport(
        mode="hitting" if abs(lam - 1.0) <= 1e-12 else "series",
        start=start,
        lam=lam,
        z_scores=z_scores,
        series=series,
        censored_fraction=float(censored_fraction),
        underpowered=underpowered,
    )

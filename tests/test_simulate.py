import hashlib
import time

import numpy as np
import pytest
from conftest import random_chain

from polyharm import (
    SimConfig,
    build_chain,
    compare_to_analytic,
    green,
    simulate_hitting,
)
from polyharm.simulate import _next_vertex, _support_table


def test_single_trajectory_deterministic(p4):
    cfg = SimConfig(trials=1, seed=1234, max_steps=100, start="a")
    a = simulate_hitting(p4, cfg)
    b = simulate_hitting(p4, cfg)
    assert np.array_equal(a.counts, b.counts)
    assert np.array_equal(a.first_visit, b.first_visit)
    assert np.array_equal(a.occupancy, b.occupancy)
    assert a.counts.sum() + a.censored == 1


def test_deterministic_across_worker_counts(p4):
    cfg = SimConfig(trials=5000, seed=99, max_steps=1000, start="a")
    ref = simulate_hitting(p4, cfg, shards=1)
    for shards in (2, 3, 8):
        got = simulate_hitting(p4, cfg, shards=shards)
        assert np.array_equal(ref.counts, got.counts)
        assert np.array_equal(ref.first_visit, got.first_visit)
        assert np.array_equal(ref.occupancy, got.occupancy)
        assert ref.censored == got.censored


def test_counts_partition_trials(p4):
    cfg = SimConfig(trials=2000, seed=4, max_steps=50, start="b")
    est = simulate_hitting(p4, cfg)
    assert est.counts.sum() + est.censored == cfg.trials
    # empirical distribution sums to one including the censored part
    total = est.hit_fraction.sum() + est.censored / cfg.trials
    assert total == pytest.approx(1.0, abs=0)


def test_hitting_frequency_three_sigma(p4):
    cfg = SimConfig(trials=10**6, seed=2024, max_steps=10_000, start="a")
    est = simulate_hitting(p4, cfg)
    p_hat = est.count_of("w1") / cfg.trials
    sigma = np.sqrt((2 / 3) * (1 / 3) / cfg.trials)
    assert abs(p_hat - 2 / 3) <= 3 * sigma
    assert est.censored == 0


def test_first_visit_times_odd_from_a(p4):
    cfg = SimConfig(trials=200_000, seed=5, max_steps=1000, start="a")
    est = simulate_hitting(p4, cfg)
    j = p4.boundary_ids.index("w1")
    hist = est.first_visit[:, j]
    even = hist[2::2].sum()
    assert even == 0  # parity: a sits at odd distance from w1
    # one-step mass is about 1/2
    p1 = hist[1] / cfg.trials
    assert abs(p1 - 0.5) <= 3 * np.sqrt(0.25 / cfg.trials)


def test_occupancy_estimates_step_probabilities(p4):
    cfg = SimConfig(trials=100_000, seed=6, max_steps=1000, start="a")
    est = simulate_hitting(p4, cfg)
    # time 0: everything at a
    assert est.occupancy[0, p4.vertex_index("a")] == cfg.trials
    # time 1: P(a->w1) = 1/2, P(a->b) = 1/2
    occ1 = est.occupancy[1] / cfg.trials
    assert occ1[p4.vertex_index("w1")] == pytest.approx(0.5, abs=0.01)
    assert occ1[p4.vertex_index("b")] == pytest.approx(0.5, abs=0.01)
    # rows always sum to the number of trials
    assert np.all(est.occupancy.sum(axis=1) == cfg.trials)


def test_censoring_forced():
    from polyharm import build_chain

    # sticky interior: absorption is slow, so a tiny cap censors a lot
    trans = [
        [0.99, 0.01, 0.0],
        [0.0, 0.99, 0.01],
        [0.0, 0.0, 1.0],
    ]
    c = build_chain(["x", "y", "w"], ["x", "y"], ["w"], trans)
    cfg = SimConfig(trials=500, seed=7, max_steps=3, start="x")
    est = simulate_hitting(c, cfg)
    assert est.censored > 0
    assert est.censor_flagged


def test_censoring_rare_with_generous_cap(p4):
    # max_steps = 100/(1-rho) with rho = 1/2
    cfg = SimConfig(trials=100_000, seed=8, max_steps=200, start="a")
    est = simulate_hitting(p4, cfg)
    assert est.censored / cfg.trials <= 1e-3


# ------------------------------------------------------------ comparison

def test_z_scores_within_budget(p4):
    cfg = SimConfig(trials=10**6, seed=2024, max_steps=10_000, start="a")
    est = simulate_hitting(p4, cfg)
    rep = compare_to_analytic(est, green(p4, 1.0))
    assert rep.mode == "hitting"
    assert rep.max_abs_z <= 5.0
    assert not rep.underpowered


def test_series_check_lambda2(p4):
    cfg = SimConfig(trials=400_000, seed=11, max_steps=10_000, start="a")
    est = simulate_hitting(p4, cfg)
    rep = compare_to_analytic(est, green(p4, 2.0))
    assert rep.mode == "series"
    chk = rep.series["w1"]
    assert chk.analytic == pytest.approx(4 / 15, abs=1e-12)
    assert chk.within
    assert rep.series["w2"].within


def test_underpowered_flag(p4):
    cfg = SimConfig(trials=50, seed=12, max_steps=100, start="a")
    est = simulate_hitting(p4, cfg)
    rep = compare_to_analytic(est, green(p4, 1.0))
    assert rep.underpowered


def test_start_must_be_interior(p4):
    with pytest.raises(ValueError):
        simulate_hitting(p4, SimConfig(trials=10, seed=1, max_steps=10, start="w1"))


def test_config_validation():
    with pytest.raises(ValueError):
        SimConfig(trials=0, seed=1, max_steps=10, start="a")
    with pytest.raises(ValueError):
        SimConfig(trials=1, seed=1, max_steps=0, start="a")
    with pytest.raises(ValueError):
        SimConfig(trials=1, seed=-1, max_steps=10, start="a")


def test_compare_rejects_mismatched_chain(p4, path5):
    cfg = SimConfig(trials=100, seed=1, max_steps=50, start="a")
    est = simulate_hitting(p4, cfg)
    with pytest.raises(ValueError):
        compare_to_analytic(est, green(path5, 1.0))


# ------------------------------------------------------------ bit identity

def _digest(a: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(a, dtype=np.int64).tobytes()).hexdigest()


# (chain, trials, seed, max_steps, shards, censored, (shape, sha256) of
# counts, first_visit and occupancy), recorded from the full-width step
# loop that compared every live trial with every column
GOLDEN = [
    ("p4", 3000, 7, 1000, 1, 0, (
        ((2,), "584922d770791fd625b5d40c1f607aef37d3d92a295782156ea86bb6a7f2d5e0"),
        ((12, 2), "0d107c3ad1ef8fd2312b76e797f50289d769e589219591277f334ca200bcf491"),
        ((12, 4), "163c45bfb81d795f27894103da5e2b7c3cb0f94c5e8495051038fe53edc14ea3"),
    )),
    ("p4", 3000, 7, 1000, 3, 0, (
        ((2,), "584922d770791fd625b5d40c1f607aef37d3d92a295782156ea86bb6a7f2d5e0"),
        ((12, 2), "0d107c3ad1ef8fd2312b76e797f50289d769e589219591277f334ca200bcf491"),
        ((12, 4), "163c45bfb81d795f27894103da5e2b7c3cb0f94c5e8495051038fe53edc14ea3"),
    )),
    ("p4", 3000, 7, 4, 1, 182, (
        ((2,), "1b0f6737341dc86f02fc3e76318397b0ee4d618f08c2bfaeae1161e4bdb2160d"),
        ((5, 2), "7d5f445896e392436d1a380a2a8fafe726b222a8cfa2fd6c0366939bc99730f5"),
        ((5, 4), "90aa556e7f306171d99c84ef0679863a995d7b2a794d960139427883d0a6eacf"),
    )),
    ("p4", 3000, 7, 4, 3, 182, (
        ((2,), "1b0f6737341dc86f02fc3e76318397b0ee4d618f08c2bfaeae1161e4bdb2160d"),
        ((5, 2), "7d5f445896e392436d1a380a2a8fafe726b222a8cfa2fd6c0366939bc99730f5"),
        ((5, 4), "90aa556e7f306171d99c84ef0679863a995d7b2a794d960139427883d0a6eacf"),
    )),
    ("r50", 2000, 8, 1000, 1, 0, (
        ((12,), "c74cbd4bb9051225bd23bb262488a2f17d2c5da6652bd47416e27cf06b09c45a"),
        ((36, 12), "a5bcaf5fbe4027d3706d891c26426ac5e70ef726096f19aafb6a6f9dc6ac66d9"),
        ((36, 50), "834c6377193027592ce6b9d055ed0a553ab3e792d78b59be4b33daf231bce3ab"),
    )),
    ("r50", 2000, 8, 1000, 3, 0, (
        ((12,), "c74cbd4bb9051225bd23bb262488a2f17d2c5da6652bd47416e27cf06b09c45a"),
        ((36, 12), "a5bcaf5fbe4027d3706d891c26426ac5e70ef726096f19aafb6a6f9dc6ac66d9"),
        ((36, 50), "834c6377193027592ce6b9d055ed0a553ab3e792d78b59be4b33daf231bce3ab"),
    )),
    ("r50", 2000, 8, 3, 1, 843, (
        ((12,), "dadfae6133d2a6d3679f18f58a0d224c5ba3a5775ac6fecf1b67509e364b9ae6"),
        ((4, 12), "7d4512153345bf2e2862d6019273704fb75f45c46777a3b67f038a43d2a1eae9"),
        ((4, 50), "fe9dad9db333bbfc02a3c969047ba4a47a53401b1a02ef172bf7f8f9ec6be95f"),
    )),
    ("r50", 2000, 8, 3, 3, 843, (
        ((12,), "dadfae6133d2a6d3679f18f58a0d224c5ba3a5775ac6fecf1b67509e364b9ae6"),
        ((4, 12), "7d4512153345bf2e2862d6019273704fb75f45c46777a3b67f038a43d2a1eae9"),
        ((4, 50), "fe9dad9db333bbfc02a3c969047ba4a47a53401b1a02ef172bf7f8f9ec6be95f"),
    )),
]


@pytest.mark.parametrize("name,trials,seed,max_steps,shards,censored,expected", GOLDEN)
def test_golden_digests(p4, name, trials, seed, max_steps, shards, censored, expected):
    chain = p4 if name == "p4" else random_chain(np.random.default_rng(50), size=50)
    start = "a" if name == "p4" else "x0"
    est = simulate_hitting(chain, SimConfig(trials=trials, seed=seed, max_steps=max_steps,
                                            start=start), shards=shards)
    assert est.censored == censored
    for field, (shape, digest) in zip(("counts", "first_visit", "occupancy"), expected):
        got = getattr(est, field)
        assert (got.shape, _digest(got)) == (shape, digest), field


def _reference_run(chain, config):
    """The full-width step loop: a fresh Philox per step, uniforms for
    every trial, every live trial compared with every column."""
    n, nb = chain.n, len(chain.boundary)
    boundary_col = np.full(n, -1, dtype=np.int64)
    boundary_col[list(chain.boundary)] = np.arange(nb)
    cum = np.cumsum(chain.trans, axis=1)
    cum[:, -1] = 1.0
    m = config.trials
    pos = np.full(m, chain.vertex_index(config.start), dtype=np.int64)
    active = np.ones(m, dtype=bool)
    counts = np.zeros(nb, dtype=np.int64)
    fv, occ = [np.zeros(nb, dtype=np.int64)], [np.bincount(pos, minlength=n)]
    step = 0
    while active.any() and step < config.max_steps:
        step += 1
        bitgen = np.random.Philox(key=config.seed)
        offset = (step - 1) * m
        bitgen.advance(offset // 4)
        if offset % 4:
            bitgen.random_raw(offset % 4)
        u = np.random.Generator(bitgen).random(m)
        idx = np.nonzero(active)[0]
        nxt = (u[idx, None] >= cum[pos[idx]]).sum(axis=1)
        pos[idx] = nxt
        hit = boundary_col[nxt] >= 0
        first_hits = np.zeros(nb, dtype=np.int64)
        np.add.at(counts, boundary_col[nxt[hit]], 1)
        np.add.at(first_hits, boundary_col[nxt[hit]], 1)
        active[idx[hit]] = False
        fv.append(first_hits)
        occ.append(np.bincount(pos, minlength=n))
    return counts, int(active.sum()), np.vstack(fv), np.vstack(occ)


def _assert_matches_reference(chain, config, shards):
    counts, censored, fv, occ = _reference_run(chain, config)
    est = simulate_hitting(chain, config, shards=shards)
    assert np.array_equal(est.counts, counts)
    assert est.censored == censored
    assert np.array_equal(est.first_visit, fv)
    assert np.array_equal(est.occupancy, occ)


def _awkward_chain():
    """Rows that start with zero-probability columns, rows of ten 0.1
    entries (cumulative sum 1 - ulp, so the rounding guard makes the last
    column reachable), and a row whose last column is its only large
    entry."""
    names = [f"x{k}" for k in range(10)] + ["w0", "w1"]
    trans = np.zeros((12, 12))
    trans[:10, :10] = 0.1  # ten entries of 0.1, last column w1 unused
    trans[3] = 0.0
    trans[3, 2:12] = 0.1  # leading zeros, the last column used
    trans[7] = 0.0
    trans[7, [5, 10, 11]] = [0.25, 0.25, 0.5]
    trans[10, 10] = trans[11, 11] = 1.0
    return build_chain(names, names[:10], names[10:], trans)


@pytest.mark.parametrize("size", range(2, 61))
def test_matches_reference_loop(size):
    chain = random_chain(np.random.default_rng(size), size=size)
    for shards in range(1, 8):
        cap = 1 + size % 9 if size % 2 else 500  # odd sizes censor
        cfg = SimConfig(trials=157 + size, seed=size, max_steps=cap,
                        start=chain.vertices[chain.interior[-1]])
        _assert_matches_reference(chain, cfg, shards)


@pytest.mark.parametrize("shards", range(1, 8))
def test_matches_reference_loop_awkward_rows(shards):
    chain = _awkward_chain()
    for start, cap in (("x0", 40), ("x3", 5), ("x7", 3)):
        _assert_matches_reference(chain, SimConfig(trials=500, seed=31 + shards,
                                                   max_steps=cap, start=start), shards)


def test_next_vertex_at_chosen_uniforms(p4):
    chains = [p4, _awkward_chain()] + [random_chain(np.random.default_rng(k), size=k)
                                       for k in (2, 5, 20, 60)]
    for chain in chains:
        cum = np.cumsum(chain.trans, axis=1)
        cum[:, -1] = 1.0
        vals, targets = _support_table(chain.trans)
        width = vals.shape[1]
        assert (width + 1) & width == 0  # 2^L - 1 slots
        for row in range(chain.n):
            u = np.concatenate([[0.0, np.nextafter(1.0, 0.0)], cum[row],
                                np.nextafter(cum[row], 0.0)])
            u = u[(u >= 0.0) & (u < 1.0)]
            pos = np.full(u.size, row, dtype=np.int64)
            expected = (u[:, None] >= cum[pos]).sum(axis=1)
            assert np.array_equal(_next_vertex(vals, targets, pos, u), expected)


def test_last_column_reachable_by_rounding_guard():
    chain = _awkward_chain()
    x0 = chain.vertex_index("x0")
    assert np.cumsum(chain.trans[x0])[-1] < 1.0
    vals, targets = _support_table(chain.trans)
    u = np.array([np.nextafter(1.0, 0.0)])
    assert _next_vertex(vals, targets, np.array([x0]), u)[0] == chain.n - 1


# ------------------------------------------------------------ shards, live curve

def test_huge_shard_count_is_clamped(p4):
    cfg = SimConfig(trials=300, seed=13, max_steps=100, start="a")
    t0 = time.perf_counter()
    many = simulate_hitting(p4, cfg, shards=10**12)
    assert time.perf_counter() - t0 < 1.0
    one = simulate_hitting(p4, cfg, shards=1)
    for field in ("counts", "first_visit", "occupancy"):
        assert np.array_equal(getattr(many, field), getattr(one, field))
    assert many.censored == one.censored


@pytest.mark.parametrize("max_steps", [3, 1000])
def test_steps_and_live_curve(max_steps):
    chain = random_chain(np.random.default_rng(7), size=12)
    cfg = SimConfig(trials=800, seed=21, max_steps=max_steps, start="x0")
    est = simulate_hitting(chain, cfg, shards=3)
    assert est.steps == est.occupancy.shape[0] - 1 == est.first_visit.shape[0] - 1
    assert est.live.shape == (est.steps + 1,)
    assert est.live[0] == cfg.trials
    assert est.live[-1] == est.censored
    assert np.all(np.diff(est.live) <= 0)
    assert np.array_equal(cfg.trials - est.live, np.cumsum(est.first_visit.sum(axis=1)))
    if max_steps == 3:
        assert est.steps == 3 and est.censored > 0

"""All trials of a simulation run as one walk; the ``shards`` keyword is
kept for existing callers and changes nothing."""

import numpy as np
import pytest

from polyharm import SimConfig, simulate, simulate_hitting


def test_one_stream_for_any_shards(p4, monkeypatch):
    made = []

    class Counting(simulate._Stream):
        def __init__(self, seed):
            made.append(seed)
            super().__init__(seed)

    monkeypatch.setattr(simulate, "_Stream", Counting)
    cfg = SimConfig(trials=300, seed=13, max_steps=100, start="a")
    three = simulate_hitting(p4, cfg, shards=3)
    assert made == [13]
    one = simulate_hitting(p4, cfg)
    for field in ("counts", "first_visit", "occupancy"):
        assert np.array_equal(getattr(three, field), getattr(one, field))


@pytest.mark.parametrize("shards", [0, -1])
def test_shards_below_one_refused(p4, shards):
    cfg = SimConfig(trials=10, seed=1, max_steps=10, start="a")
    with pytest.raises(ValueError, match="shards must be >= 1"):
        simulate_hitting(p4, cfg, shards=shards)

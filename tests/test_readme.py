"""The README's library tour, run as written."""

import pathlib
import re

import pytest

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_readme_tour_runs_and_its_comments_hold():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), flags=re.M | re.S)
    assert len(blocks) == 1
    ns = {}
    exec(compile(blocks[0], str(README), "exec"), ns)
    assert ns["sol"].value("a") == pytest.approx(2 / 3, abs=1e-12)  # gambler's ruin
    rho = ns["ph"].interior_spectrum(ns["chain"]).rho
    assert rho == pytest.approx(0.5, abs=1e-12) and rho < 1

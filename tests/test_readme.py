"""The README's library tour and its CLI lines, run as written."""

import argparse
import json
import pathlib
import re
import shlex

import pytest

from polyharm import formats
from polyharm.cli import build_parser, main

from test_cli import TREE_DOC

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def _blocks(lang):
    return re.findall(rf"^```{lang}\n(.*?)^```", README.read_text(), flags=re.M | re.S)


@pytest.fixture(scope="module")
def tour():
    """The names the README's one python block defines, once run."""
    blocks = _blocks("python")
    assert len(blocks) == 1
    ns = {}
    exec(compile(blocks[0], str(README), "exec"), ns)
    return ns


def test_readme_tour_runs_and_its_comments_hold(tour):
    assert tour["sol"].value("a") == pytest.approx(2 / 3, abs=1e-12)  # gambler's ruin
    rho = tour["ph"].interior_spectrum(tour["chain"]).rho
    assert rho == pytest.approx(0.5, abs=1e-12) and rho < 1


def test_readme_cli_lines_run(tour, tmp_path, monkeypatch, capsys):
    """Every ``polyharm`` line of the README, optional flags included, in
    a directory holding the files the lines name: the tour's chain, its
    Dirichlet and Riquier data, and a depth-2 binary tree.  Each exits 0
    with a report and no traceback, and every subcommand has a line."""
    chain, ws = tour["chain"], tour["chain"].boundary_ids
    files = {"chain.json": formats.chain_to_doc(chain),
             "g.json": {w: tour["sol"].value(w).real for w in ws},
             "tree.json": TREE_DOC}
    for i, g in enumerate(tour["prob"].boundary_functions, 1):
        files[f"g{i}.json"] = dict(zip(ws, map(float, g)))
    for name, doc in files.items():
        (tmp_path / name).write_text(json.dumps(doc))
    monkeypatch.chdir(tmp_path)
    lines = [line for block in _blocks("sh") for line in block.splitlines()
             if line.startswith("polyharm ")]
    for line in lines:
        argv = shlex.split(re.sub(r"[][]", "", line))[1:]
        assert main(argv) == 0, line
        out, err = capsys.readouterr()
        assert out and "Traceback" not in out + err, line
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert {shlex.split(line)[1] for line in lines} == set(sub.choices)

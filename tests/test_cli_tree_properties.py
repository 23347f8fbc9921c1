"""Property test of the ``polyharm tree`` contract: whatever ids, section,
orders and lam it is given, a command exits 0, 1 or 2 and writes no
traceback."""

import contextlib
import io
import json

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from polyharm.cli import main  # noqa: E402

from test_cli import TREE_DOC  # noqa: E402

NOT_ADDITIVE = {v: 1.0 for v in TREE_DOC["measure"]}

ids = st.one_of(st.sampled_from(sorted(TREE_DOC["measure"]) + ["bogus", ""]),
                st.text(alphabet="ouv12,-é", max_size=4))  # a fixed alphabet loads no charmap
flag_ids = st.one_of(st.none(), ids)


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("tree_cli")
    out = {}
    for name, doc in (("tree", TREE_DOC), ("nu", TREE_DOC["measure"]), ("bad_nu", NOT_ADDITIVE)):
        out[name] = str(root / f"{name}.json")
        with open(out[name], "w") as fh:
            json.dump(doc, fh)
    return out


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(subop=st.sampled_from(["green", "kr", "ktr", "eval", "identity-check"]),
       lam=st.sampled_from(["0", "1", "2,1"]),
       x=flag_ids, y=flag_ids, w=flag_ids, arc=flag_ids,
       section=st.one_of(st.none(), st.lists(ids, max_size=5)),
       r=st.integers(-2, 4), n=st.integers(-2, 4),
       nu=st.sampled_from(["nu", "bad_nu"]))
def test_tree_cli_exits_cleanly(files, subop, lam, x, y, w, arc, section, r, n, nu):
    argv = ["--json", "tree", files["tree"], subop, f"--lambda={lam}",
            f"--r={r}", f"--n={n}", f"--nu={files[nu]}"]
    for flag, value in (("x", x), ("y", y), ("w", w), ("arc", arc)):
        if value is not None:
            argv.append(f"--{flag}={value}")
    if section is not None:
        argv.append("--section=" + ",".join(section))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's own usage errors
            code = exc.code
    assert code in (0, 1, 2), argv
    assert "Traceback" not in out.getvalue() + err.getvalue(), argv

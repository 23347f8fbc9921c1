"""Property tests of the CLI contract for every subcommand but ``tree``
(see ``test_cli_tree_properties.py``): whatever argument vector or input
document a command is given, it exits 0, 1 or 2 and writes no traceback.

The documents are valid chain, network, tree and vector files with one
or two values replaced by arbitrary JSON: wrong types, bools, huge and
non-finite numbers, and nesting."""

import contextlib
import io
import json

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from polyharm.cli import main  # noqa: E402

from test_cli import P4_DOC, TREE_DOC  # noqa: E402

NET_DOC = {"boundary": ["w1", "w2"],
           "edges": [{"u": "w1", "v": "a", "a": 1.0}, {"u": "a", "v": "b", "a": 2.0},
                     {"u": "b", "v": "w2", "a": 1.0}]}
TREE_FP_DOC = {"children": TREE_DOC["children"],
               "forward_p": {v: 0.5 for v in TREE_DOC["measure"] if v != "o"}}
VECTOR_DOC = {"w1": 1.0, "w2": [0.0, 0.5]}
FILES = {"p4": P4_DOC, "net": NET_DOC, "tree": TREE_DOC, "g": {"w1": 1.0, "w2": 0.0},
         "g_extra": {"w1": 1, "w2": 0, "zz": 2}, "g_nan": {"w1": float("nan"), "w2": 0}}

SETTINGS = settings(max_examples=150, deadline=None, derandomize=True, database=None)


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli_fuzz")
    out = {"dir": str(root), "missing": str(root / "missing.json"),
           "doc": str(root / "doc.json")}
    for name, doc in FILES.items():
        out[name] = str(root / f"{name}.json")
        with open(out[name], "w") as fh:
            json.dump(doc, fh)
    return out


def _exits_cleanly(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's own usage errors
            code = exc.code
    assert code in (0, 1, 2), argv
    assert "Traceback" not in out.getvalue() + err.getvalue(), argv


# ------------------------------------------------------------ argument vectors

lams = st.sampled_from(["0", "1", "0.5", "-0.5", "2", "1.5,0.25", "0,1", "1e300", "1e-300",
                        "1e308,1e308", "-0", "nan", "x", "1,2,3"])
ids = st.sampled_from(["a", "b", "w1", "bogus"])
small = st.integers(-1, 5)
floats = st.sampled_from(["1e-8", "1e-3", "0.5", "0", "-1", "nan", "1e-300", "x"])


def _flag(flag, values, present=9):
    """``flag=value`` in ``present`` of ten draws, else nothing."""
    return st.tuples(st.integers(0, 9), values).map(
        lambda t: [f"{flag}={t[1]}"] if t[0] < present else [])


g_files = st.sampled_from(["g", "g", "g", "g_extra", "g_nan", "missing"])
ARGS = {
    "validate": st.tuples(_flag("--emit", st.sampled_from(["dir", "doc"]), 5)),
    "spectrum": st.tuples(_flag("--cluster-tol", floats, 5)),
    "dirichlet": st.tuples(_flag("--lambda", lams), _flag("--g", g_files)),
    "riquier": st.tuples(_flag("--lambda", lams),
                         _flag("--g", st.lists(g_files, min_size=1, max_size=3).map(",".join))),
    "global-basis": st.tuples(_flag("--lambda", lams), _flag("--n", small)),
    "martin": st.tuples(_flag("--lambda", lams), _flag("--origin", ids),
                        _flag("--order", small, 5)),
    "simulate": st.tuples(_flag("--start", ids), _flag("--trials", st.integers(-1, 60)),
                          _flag("--seed", st.sampled_from([-1, 0, 7, 2**64])),
                          _flag("--max-steps", st.integers(-1, 200), 5),
                          _flag("--compare", st.just(""), 5),
                          _flag("--compare-lambda", lams, 5)),
    "check-derivative": st.tuples(_flag("--lambda", lams), _flag("--r", small),
                                  _flag("--h", floats, 5), _flag("--limit", floats, 5)),
}
FILE_ARGS = {"--emit", "--g"}


@SETTINGS
@given(data=st.data(), command=st.sampled_from(sorted(ARGS)),
       chain=st.sampled_from(["p4", "p4", "net", "net", "tree", "missing", "dir"]),
       as_json=st.booleans())
def test_cli_argument_vectors_exit_cleanly(files, data, command, chain, as_json):
    argv = (["--json"] if as_json else []) + [command, files[chain]]
    for opt in data.draw(ARGS[command]):
        for item in opt:
            flag, _, value = item.partition("=")
            if flag in FILE_ARGS:
                value = ",".join(files[v] for v in value.split(","))
            argv.append(f"{flag}={value}" if value else flag)
    _exits_cleanly(argv)


# ------------------------------------------------------------ input documents

scalars = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 3),
    st.sampled_from([10**400, -10**400, 2**63, 0.5, 1e308, -1e-320]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(alphabet="abow12.", max_size=3))
json_values = st.recursive(
    scalars, lambda kids: st.one_of(
        st.lists(kids, max_size=3),
        st.dictionaries(st.text(alphabet="abow12", max_size=2), kids, max_size=3)),
    max_leaves=6)


def _locations(doc, at=()):
    """Every place in ``doc`` a value sits, the whole document included."""
    yield at
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(
        doc, list) else ()
    for k, v in items:
        yield from _locations(v, at + (k,))


def _replaced(doc, at, value):
    if not at:
        return value
    doc = json.loads(json.dumps(doc))
    parent = doc
    for k in at[:-1]:
        parent = parent[k]
    parent[at[-1]] = value
    return doc


DOCS = {"chain": P4_DOC, "network": NET_DOC, "tree": TREE_DOC, "tree_fp": TREE_FP_DOC,
        "vector": VECTOR_DOC}


@st.composite
def documents(draw):
    kind = draw(st.sampled_from(sorted(DOCS)))
    doc = DOCS[kind]
    for _ in range(draw(st.integers(1, 2))):
        doc = _replaced(doc, draw(st.sampled_from(list(_locations(doc)))), draw(json_values))
    return kind, doc


@SETTINGS
@given(drawn=documents())
def test_cli_input_documents_exit_cleanly(files, drawn):
    kind, doc = drawn
    with open(files["doc"], "w") as fh:
        json.dump(doc, fh)
    if kind in ("chain", "network"):
        argv = ["--json", "validate", files["doc"]]
    elif kind == "vector":
        argv = ["--json", "dirichlet", files["p4"], "--lambda=1", "--g", files["doc"]]
    else:
        argv = ["--json", "tree", files["doc"], "ktr", "--lambda=1", "--x=o", "--arc=u1"]
    _exits_cleanly(argv)

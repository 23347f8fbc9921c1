"""Chain files parsed into compact edge records."""

import gc
import json
import os
import re
import tracemalloc

import numpy as np
import pytest

from polyharm import formats
from polyharm.cli import main
from polyharm.formats import FormatError, chain_from_doc, load_chain


def _dense_doc(rng, n_int, n_bnd):
    """A dense chain document: every interior vertex steps to every
    vertex, the ids shuffled so that neither part is one run, the edges
    in random order and some of them split into two parallel edges."""
    n = n_int + n_bnd
    ids = [f"x{i}" for i in rng.permutation(n)]
    p = rng.uniform(0.0, 1.0, (n_int, n))
    p /= p.sum(axis=1, keepdims=True)
    edges = []
    for i in range(n_int):
        for j in range(n):
            part = p[i, j] * rng.uniform() if rng.uniform() < 0.1 else 0.0
            edges += [{"from": ids[i], "to": ids[j], "p": float(q)}
                      for q in (part, p[i, j] - part) if q > 0.0]
    rng.shuffle(edges)
    return {"vertices": ids, "boundary": ids[n_int:], "edges": edges}


def _write(tmp_path, doc, name="chain.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_load_chain_peak_memory_is_bounded(tmp_path):
    """One compact record per edge: the parse of a dense chain file peaks
    below 3.5 times the file's size (a dict per edge took 6.6 times)."""
    path = _write(tmp_path, _dense_doc(np.random.default_rng(1), 145, 5))
    tracemalloc.start()
    try:
        load_chain(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.5 * os.path.getsize(path)


@pytest.mark.parametrize("seed", range(4))
def test_load_chain_matches_the_dict_path(seed, tmp_path):
    rng = np.random.default_rng(seed)
    text = json.dumps(_dense_doc(rng, int(rng.integers(2, 60)), int(rng.integers(1, 6))))
    path = tmp_path / "chain.json"
    path.write_text(text)
    got, want = load_chain(str(path)), chain_from_doc(json.loads(text))
    assert got.vertices == want.vertices
    assert got.interior == want.interior and got.boundary == want.boundary
    assert got.trans.tobytes() == want.trans.tobytes()


_P4 = {"vertices": ["w1", "a", "b", "w2"], "boundary": ["w1", "w2"]}
_UNKNOWN = {"from": "a", "to": "zz", "p": 0.5}
_P_A_STRING = {"from": "b", "to": "w2", "p": "0.5"}
_OK = [{"from": "a", "to": "w1", "p": 0.5}, {"from": "b", "to": "a", "p": 0.5}]


@pytest.mark.parametrize("edges, error", [
    ([_OK[0], _UNKNOWN, _OK[1], _P_A_STRING], "edge 'a'->'zz' uses unknown vertex"),
    ([_OK[0], _P_A_STRING, _OK[1], _UNKNOWN], "edge 1: 'p': '0.5' is not a finite number"),
    ([_OK[0], {"from": "b", "p": 0.5}, _UNKNOWN], "missing key 'to'"),
    ([_OK[0], {"from": "w1", "to": "zz", "p": "x"}], "edge 'w1'->'zz' uses unknown vertex"),
    ([_OK[0], {"from": "w1", "to": "a", "p": "x"}],
     "boundary vertex 'w1' must not have explicit edges"),
], ids=["unknown-then-malformed", "malformed-then-unknown", "missing-id-first",
        "unknown-before-p", "boundary-source-before-p"])
def test_the_first_bad_edge_is_reported(edges, error, tmp_path):
    path = _write(tmp_path, {**_P4, "edges": edges})
    with pytest.raises(FormatError, match=f"^{re.escape(f'{path}: {error}')}$"):
        load_chain(path)


def test_a_tuple_edge_in_a_callers_document_is_refused():
    edges = [("a", "w1", 0.5), ("a", "b", 0.5), ("b", "a", 0.5), ("b", "w2", 0.5)]
    with pytest.raises(FormatError, match="edge 0 must be an object"):
        chain_from_doc({**_P4, "edges": edges})


def test_an_edge_shaped_top_level_is_a_chain_without_vertices(tmp_path):
    path = _write(tmp_path, {"from": "a", "to": "b", "p": 0.5})
    with pytest.raises(FormatError, match="missing key 'vertices'"):
        load_chain(path)


_EDGES = [{"from": "a", "to": "w1", "p": 0.5}, {"from": "a", "to": "b", "p": 0.5},
          {"from": "b", "to": "a", "p": 0.5}, {"from": "b", "to": "w2", "p": 0.5}]
_OBJECT_ID = {"vertices": ["w1", {"x": 1}, "b", "w2"], "boundary": ["w1", "w2"],
              "edges": [{**e, **{k: {"x": 1} for k in ("from", "to") if e[k] == "a"}}
                        for e in _EDGES]}
_NUMERIC_IDS = {"vertices": [0, 1, 2, 3], "boundary": [0, 3],
                "edges": [{"from": 1, "to": 0, "p": 0.5}, {"from": 1, "to": 2, "p": 0.5},
                          {"from": 2, "to": 1, "p": 0.5}, {"from": 2, "to": 3, "p": 0.5}]}


@pytest.mark.parametrize("doc, value", [
    (_OBJECT_ID, "{'x': 1}"),
    (_NUMERIC_IDS, "0"),
    ({**_P4, "vertices": ["w1", "1", "b", "w2"],
      "edges": [{"from": 1, "to": "w1", "p": 0.5}, *_EDGES[1:]]}, "1"),
    ({**_P4, "boundary": ["w1", None], "edges": _EDGES}, "None"),
    ({"boundary": ["w1", "w2"], "edges": [{"u": "w1", "v": "a", "a": 1.0},
                                          {"u": "a", "v": 2, "a": 1.0}]}, "2"),
    ({"boundary": [["w1"]], "edges": [{"u": "w1", "v": "a", "a": 1.0}]}, "['w1']"),
], ids=["object-vertex", "numeric-ids", "numeric-endpoint", "null-boundary",
        "network-endpoint", "network-boundary"])
def test_a_vertex_id_that_is_not_a_string_is_refused(doc, value, tmp_path, capsys):
    """Ids are JSON strings: any other value in ``vertices``, ``boundary``
    or at an edge end is an input error naming the file and the value."""
    path = _write(tmp_path, doc)
    assert main(["--json", "validate", path]) == 2
    assert capsys.readouterr().err == f"error: {path}: vertex id {value} is not a string\n"


def test_a_chain_file_is_parsed_with_the_collector_paused(monkeypatch, tmp_path):
    """The cyclic collector would walk every edge record: it is off while
    the records are made and on again once the chain is built."""
    seen, real = [], formats._edge_record

    def recording(obj):
        seen.append(gc.isenabled())
        return real(obj)

    monkeypatch.setattr(formats, "_edge_record", recording)
    assert gc.isenabled()
    load_chain(_write(tmp_path, {**_P4, "edges": _EDGES}))
    assert seen and not any(seen)
    assert gc.isenabled()


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
@pytest.mark.parametrize("text, error", [
    ("[" * 100_000, "JSON nested too deeply"),
    (json.dumps({**_P4, "edges": [_EDGES[0], {"from": "b", "p": 0.5}]}), "missing key 'to'"),
], ids=["nested", "malformed-edge"])
def test_the_collector_state_is_restored_when_the_parse_raises(enabled, text, error, tmp_path):
    path = tmp_path / "chain.json"
    path.write_text(text)
    was = gc.isenabled()
    try:
        (gc.enable if enabled else gc.disable)()
        with pytest.raises(FormatError, match=error):
            load_chain(str(path))
        assert gc.isenabled() == enabled
    finally:
        (gc.enable if was else gc.disable)()

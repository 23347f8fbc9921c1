"""JSON wire formats for chains, networks, trees and vectors.

Complex scalars are two-element ``[re, im]`` arrays (bare numbers are
accepted as reals); vectors over vertex sets are ``{id: value}`` maps,
so ordering is never significant on the wire.  Interior transition rows
are listed as explicit edges; boundary rows are implied absorbing.

A chain file is parsed with an ``object_hook`` that turns each
well-formed edge into a compact :class:`_Edge` record as soon as it is
read, so a dense chain file never holds one dict per edge; the edges are
then checked and indexed all at once, in numpy.
"""

from __future__ import annotations

import json
import math
from itertools import repeat
from operator import itemgetter
from sys import intern
from typing import Any, Mapping

import numpy as np

from .chain import Chain, Network, build_chain, build_network, from_network
from .tree import ForwardTree, build_tree


class FormatError(ValueError):
    """Malformed input document."""


def _is_number(x) -> bool:
    """A JSON number: ``true`` and ``false`` are not, although Python's
    ``bool`` is an ``int``."""
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _real(v, *where) -> float:
    """A JSON number as a finite float: the one reader of every number an
    input file holds.  A bool, a string, a non-finite value or an integer
    past the float range raises :class:`FormatError` prefixed by the parts
    of ``where`` (the file and key it came from), joined only then: a
    chain file can hold 10^5 numbers."""
    if isinstance(v, (int, float)) and not isinstance(v, bool):
        try:
            x = float(v)
        except OverflowError:  # an integer beyond the float range
            x = math.inf
        if math.isfinite(x):
            return x
    raise FormatError(f"{''.join(map(str, where))}{v!r} is not a finite number")


def _complex(re, im=0.0, where: str = "") -> complex:
    """A complex scalar from two JSON numbers (see :func:`_real`).  Their
    sum of moduli must be finite too, so that complex arithmetic on the
    value, division included, stays in the float range."""
    z = complex(_real(re, where), _real(im, where))
    _real(abs(z.real) + abs(z.imag), where, "|re| + |im| = ")
    return z


def parse_complex(text: str) -> complex:
    """Parse a CLI scalar: ``RE`` or ``RE,IM``, both finite."""
    parts = text.split(",")
    try:
        re_im = [float(x) for x in parts] if len(parts) in (1, 2) else None
    except ValueError:
        re_im = None
    if re_im is None:
        raise FormatError(f"cannot parse complex scalar {text!r} (want RE or RE,IM)")
    return _complex(*re_im, where=f"{text!r}: ")


def value_to_complex(v: Any) -> complex:
    """A finite number or ``[re, im]`` pair as a complex scalar."""
    if isinstance(v, (list, tuple)) and len(v) == 2:
        return _complex(v[0], v[1])
    return _complex(v)


def complex_to_value(z: complex):
    z = complex(z)
    if z.imag == 0.0:
        return z.real
    return [z.real, z.imag]


def jsonable(obj):
    """Recursively convert numpy scalars/arrays and complex numbers into
    JSON-encodable structures."""
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (complex, np.complexfloating)):
        return complex_to_value(complex(obj))
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (bool, int, float, str)) or obj is None:
        return obj
    return str(obj)


class _Edge(tuple):
    """A well-formed chain edge as read from a file: ``(from, to, p)``
    with interned string ids (a dense chain names each vertex in many
    edges) and a finite float ``p``.  Only :func:`_edge_record` makes
    one, so a plain tuple in a caller's document is still no object."""

    __slots__ = ()


_EDGE_KEYS = ("from", "to", "p")


def _edge_record(obj: dict):
    """The ``object_hook`` of a chain file: an object with exactly the
    keys ``from``, ``to`` and ``p``, string ids and a finite float ``p``
    becomes an :class:`_Edge`; every other object stays a dict."""
    if len(obj) == 3:
        try:
            u, v, p = obj["from"], obj["to"], obj["p"]
        except KeyError:
            return obj
        # p - p is 0.0 for a finite float, NaN for an infinity or NaN
        if type(u) is str and type(v) is str and type(p) is float and p - p == 0.0:
            return _Edge((intern(u), intern(v), p))
    return obj


def _as_object(doc):
    """An :class:`_Edge` back as the object it was read from."""
    return dict(zip(_EDGE_KEYS, doc)) if type(doc) is _Edge else doc


def _require(doc: Mapping, key: str, path: str):
    doc = _as_object(doc)
    if key not in doc:
        raise FormatError(f"{path}: missing key {key!r}")
    return doc[key]


def _list(doc: Mapping, key: str, path: str) -> list:
    val = _require(doc, key, path)
    if not isinstance(val, list):
        raise FormatError(f"{path}: {key!r} must be a list, got {type(val).__name__}")
    return val


def _id(v, path: str) -> str:
    """A vertex id: a JSON string, never a number, object or list."""
    if not isinstance(v, str):
        raise FormatError(f"{path}: vertex id {_as_object(v)!r} is not a string")
    return v


def _edges(doc: Mapping, path: str) -> list:
    """The edge objects (dicts or :class:`_Edge` records) of a chain or
    network document."""
    edges = _list(doc, "edges", path)
    if not set(map(type, edges)) <= {_Edge, dict}:
        for i, e in enumerate(edges):
            if not isinstance(e, (_Edge, dict)):
                raise FormatError(f"{path}: edge {i} must be an object, got {e!r}")
    return edges


def _loose_edge(e: Mapping) -> tuple:
    """``(from, to, p)`` of a dict edge, for the checks that run on all
    edges at once: an id is None unless it is a string, and ``p`` is NaN
    where it is missing or not a finite number."""
    u, v = (x if isinstance(x, str) else None for x in (e.get("from"), e.get("to")))
    try:
        p = _real(e.get("p"))
    except FormatError:
        p = math.nan
    return u, v, p


def _refuse_edge(e, i: int, index: Mapping, boundary_set: set, path: str):
    """Raise the refusal of edge ``i``, which failed a check: its ids,
    then their vertices, then ``p``, in the order an edge reports them."""
    u, v = (_id(_require(e, k, path), path) for k in ("from", "to"))
    if u not in index or v not in index:
        raise FormatError(f"{path}: edge {u!r}->{v!r} uses unknown vertex")
    if u in boundary_set:
        raise FormatError(f"{path}: boundary vertex {u!r} must not have explicit edges")
    _real(_require(e, "p", path), path, ": edge ", i, ": 'p': ")
    raise AssertionError(f"{path}: edge {i} passes its checks")


def _indices(ids, index: Mapping, count: int) -> np.ndarray:
    """The index of each id, -1 where it names no vertex."""
    return np.fromiter(map(index.get, ids, repeat(-1)), np.intp, count)


def chain_from_doc(doc: Mapping, path: str = "chain") -> Chain:
    """A chain from its parsed JSON document; network documents (edges
    carrying ``a``) are converted through their random-walk chain.

    The edges are checked all at once: :class:`_Edge` records as they
    are, dict edges through :func:`_loose_edge`.  The first edge that
    fails a check is reported, as if the edges were read one by one."""
    doc = _as_object(doc)
    if not isinstance(doc, dict):
        raise FormatError(f"{path}: top level must be an object")
    edges = doc.get("edges")
    if isinstance(edges, list) and edges and isinstance(edges[0], dict) and "a" in edges[0]:
        return from_network(network_from_doc(doc, path))
    vertices = [intern(str(_id(v, path))) for v in _list(doc, "vertices", path)]
    boundary_set = {_id(w, path) for w in _list(doc, "boundary", path)}
    index = {v: i for i, v in enumerate(vertices)}
    n = len(index)
    if n != len(vertices):
        dup = sorted({v for v in vertices if vertices.count(v) > 1})
        raise FormatError(f"{path}: duplicate vertex ids {dup}")
    unknown = boundary_set - index.keys()
    if unknown:
        raise FormatError(f"{path}: boundary ids not in the vertex list: {sorted(unknown)}")
    raw = _edges(doc, path)
    edges = raw
    if not set(map(type, raw)) <= {_Edge}:
        edges = [e if type(e) is _Edge else _loose_edge(e) for e in raw]
    m = len(edges)
    rows = _indices(map(itemgetter(0), edges), index, m)
    cols = _indices(map(itemgetter(1), edges), index, m)
    ps = np.fromiter(map(itemgetter(2), edges), float, m)
    from_boundary = np.zeros(n + 1, dtype=bool)  # the extra entry is row -1's
    from_boundary[[index[w] for w in boundary_set]] = True
    bad = (rows < 0) | (cols < 0) | from_boundary[rows] | ~np.isfinite(ps)
    if bad.any():
        i = int(bad.argmax())
        _refuse_edge(raw[i], i, index, boundary_set, path)
    trans = np.zeros((n, n))
    np.add.at(trans, (rows, cols), ps)  # parallel edges add up, in file order
    for w in boundary_set:
        trans[index[w], index[w]] = 1.0
    interior = [v for v in vertices if v not in boundary_set]
    return build_chain(vertices, interior, sorted(boundary_set), trans)


def network_from_doc(doc: Mapping, path: str = "network") -> Network:
    boundary = [_id(w, path) for w in _list(doc, "boundary", path)]
    parsed = [(_id(_require(e, "u", path), path), _id(_require(e, "v", path), path),
               _real(_require(e, "a", path), path, ": edge ", i, ": 'a': "))
              for i, e in enumerate(_edges(doc, path))]
    return build_network(parsed, boundary)


def _from_json(data, path: str, parse):
    """``parse(doc, path)`` of the JSON document in ``data``, text or
    bytes (decoded as :func:`json.loads` would).  The bytes are freed
    once decoded and the text once parsed, when no caller keeps them; a
    chain file is parsed through :func:`_edge_record`.  A document
    nested too deeply for Python's recursion limit is malformed input."""
    if isinstance(data, bytes):
        data = data.decode(json.detect_encoding(data), "surrogatepass")
    hook = _edge_record if parse is chain_from_doc else None
    try:
        doc = json.loads(data, object_hook=hook)
        del data
        return parse(doc, path)
    except RecursionError:
        raise FormatError(f"{path}: JSON nested too deeply") from None


def _load(path: str, parse):
    with open(path) as fh:
        return _from_json(fh.read(), path, parse)


def load_chain(path: str) -> Chain:
    """Load a chain (or network) JSON file, see :func:`chain_from_doc`."""
    return _load(path, chain_from_doc)


def chain_to_doc(chain: Chain) -> dict:
    edges = []
    for i in chain.interior:
        for j in np.nonzero(chain.trans[i] > 0)[0]:
            edges.append({
                "from": chain.vertices[i],
                "to": chain.vertices[int(j)],
                "p": float(chain.trans[i, int(j)]),
            })
    return {
        "vertices": list(chain.vertices),
        "boundary": list(chain.boundary_ids),
        "edges": edges,
    }


def tree_from_doc(doc: Mapping, path: str = "tree") -> tuple[ForwardTree, list[str] | None]:
    if not isinstance(doc, dict):
        raise FormatError(f"{path}: top level must be an object")
    children = _require(doc, "children", path)
    if not (isinstance(children, dict) and all(isinstance(c, list) for c in children.values())):
        raise FormatError(f"{path}: 'children' must map ids to lists of ids")
    weights = {}
    for key in ("measure", "forward_p"):
        if doc.get(key) is not None:
            if not isinstance(doc[key], dict):
                raise FormatError(f"{path}: {key!r} must be an object")
            weights[key] = {k: _real(x, path, f": {key} of ", repr(k), ": ")
                            for k, x in doc[key].items()}
    try:
        tree = build_tree(children, measure=weights.get("measure"),
                          forward_probs=weights.get("forward_p"))
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from None
    depth = doc.get("depth", tree.max_depth)
    if not (_is_number(depth) and depth == tree.max_depth):
        raise FormatError(f"{path}: declared depth {depth!r} != stored depth {tree.max_depth}")
    section = doc.get("section")
    if section is not None:
        section = [str(s) for s in _list(doc, "section", path)]
    return tree, section


def load_tree(path: str) -> tuple[ForwardTree, list[str] | None]:
    """Load a tree JSON file, see :func:`tree_from_doc`."""
    return _load(path, tree_from_doc)


def tree_to_doc(tree: ForwardTree, section=None) -> dict:
    doc = {
        "children": {v: list(tree.children[v]) for v in tree.vertices if tree.children[v]},
        "measure": {v: tree.measure[v] for v in tree.vertices},
        "depth": tree.max_depth,
    }
    if section:
        doc["section"] = sorted(section)
    return doc


def _vector_from_doc(doc, path: str) -> dict[str, complex]:
    if not isinstance(doc, dict):
        raise FormatError(f"{path}: vector file must be an object")
    out = {}
    for k, v in doc.items():
        try:
            out[str(k)] = value_to_complex(v)
        except FormatError as exc:
            raise FormatError(f"{path}: value of {k!r}: {exc}") from None
    return out


def load_vector(path: str) -> dict[str, complex]:
    """Load a ``{vertex-id: value}`` map with complex-aware values."""
    return _load(path, _vector_from_doc)

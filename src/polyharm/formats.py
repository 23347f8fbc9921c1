"""JSON wire formats for chains, networks, trees and vectors.

Complex scalars are two-element ``[re, im]`` arrays (bare numbers are
accepted as reals); vectors over vertex sets are ``{id: value}`` maps,
so ordering is never significant on the wire.  Interior transition rows
are listed as explicit edges; boundary rows are implied absorbing.
"""

from __future__ import annotations

import json
from typing import Any, Mapping

import numpy as np

from .chain import Chain, Network, build_chain, build_network, from_network
from .tree import ForwardTree, build_tree


class FormatError(ValueError):
    """Malformed input document."""


def _finite(z: complex, what) -> complex:
    if not (np.isfinite(z.real) and np.isfinite(z.imag)):
        raise FormatError(f"{what!r} is not a finite number")
    return z


def parse_complex(text: str) -> complex:
    """Parse a CLI scalar: ``RE`` or ``RE,IM``, both finite."""
    parts = text.split(",")
    try:
        z = complex(*map(float, parts)) if len(parts) in (1, 2) else None
    except ValueError:
        z = None
    if z is None:
        raise FormatError(f"cannot parse complex scalar {text!r} (want RE or RE,IM)")
    return _finite(z, text)


def _is_number(x) -> bool:
    """A JSON number: ``true`` and ``false`` are not, although Python's
    ``bool`` is an ``int``."""
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def value_to_complex(v: Any) -> complex:
    """A finite number or ``[re, im]`` pair as a complex scalar."""
    try:
        if _is_number(v):
            return _finite(complex(v), v)
        if isinstance(v, (list, tuple)) and len(v) == 2 and all(map(_is_number, v)):
            return _finite(complex(v[0], v[1]), v)
    except OverflowError:  # an integer beyond the float range
        raise FormatError(f"{v!r} is not a finite number") from None
    raise FormatError(f"cannot read {v!r} as a number or [re, im] pair")


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


def _require(doc: Mapping, key: str, path: str):
    if key not in doc:
        raise FormatError(f"{path}: missing key {key!r}")
    return doc[key]


def _list(doc: Mapping, key: str, path: str) -> list:
    val = _require(doc, key, path)
    if not isinstance(val, list):
        raise FormatError(f"{path}: {key!r} must be a list, got {type(val).__name__}")
    return val


def _bad_edge(path: str, i: int, e, key: str | None = None) -> FormatError:
    """Edge ``i`` is not an object, or (with ``key``) its weight under
    ``key`` is not a JSON number: ``true`` and ``"0.5"`` are refused."""
    if key is None:
        return FormatError(f"{path}: edge {i} must be an object, got {e!r}")
    return FormatError(f"{path}: edge {i}: {key!r} must be a number, got {e[key]!r}")


def chain_from_doc(doc: Mapping, path: str = "chain") -> Chain:
    """A chain from its parsed JSON document; network documents (edges
    carrying ``a``) are converted through their random-walk chain."""
    if not isinstance(doc, dict):
        raise FormatError(f"{path}: top level must be an object")
    edges = doc.get("edges")
    if isinstance(edges, list) and edges and isinstance(edges[0], dict) and "a" in edges[0]:
        return from_network(network_from_doc(doc, path))
    vertices = [str(v) for v in _list(doc, "vertices", path)]
    boundary_set = {str(w) for w in _list(doc, "boundary", path)}
    index = {v: i for i, v in enumerate(vertices)}
    n = len(index)
    if n != len(vertices):
        dup = sorted({v for v in vertices if vertices.count(v) > 1})
        raise FormatError(f"{path}: duplicate vertex ids {dup}")
    unknown = boundary_set - index.keys()
    if unknown:
        raise FormatError(f"{path}: boundary ids not in the vertex list: {sorted(unknown)}")
    trans = np.zeros((n, n))
    for i, e in enumerate(_list(doc, "edges", path)):
        if not isinstance(e, dict):
            raise _bad_edge(path, i, e)
        u, v = str(_require(e, "from", path)), str(_require(e, "to", path))
        if u not in index or v not in index:
            raise FormatError(f"{path}: edge {u!r}->{v!r} uses unknown vertex")
        if u in boundary_set:
            raise FormatError(f"{path}: boundary vertex {u!r} must not have explicit edges")
        p = _require(e, "p", path)
        if type(p) not in (int, float):
            raise _bad_edge(path, i, e, "p")
        trans[index[u], index[v]] += p
    for w in boundary_set:
        trans[index[w], index[w]] = 1.0
    interior = [v for v in vertices if v not in boundary_set]
    return build_chain(vertices, interior, sorted(boundary_set), trans)


def network_from_doc(doc: Mapping, path: str = "network") -> Network:
    boundary = _list(doc, "boundary", path)
    parsed = []
    for i, e in enumerate(_list(doc, "edges", path)):
        if not isinstance(e, dict):
            raise _bad_edge(path, i, e)
        a = _require(e, "a", path)
        if type(a) not in (int, float):
            raise _bad_edge(path, i, e, "a")
        parsed.append((str(_require(e, "u", path)), str(_require(e, "v", path)), float(a)))
    return build_network(parsed, [str(w) for w in boundary])


def load_chain(path: str) -> Chain:
    """Load a chain (or network) JSON file, see :func:`chain_from_doc`."""
    with open(path) as fh:
        return chain_from_doc(json.load(fh), path)


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
    if not isinstance(children, dict):
        raise FormatError(f"{path}: 'children' must be an object")
    measure = doc.get("measure")
    forward_p = doc.get("forward_p")
    try:
        tree = build_tree(children, measure=measure, forward_probs=forward_p)
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from None
    if "depth" in doc and int(doc["depth"]) != tree.max_depth:
        raise FormatError(
            f"{path}: declared depth {doc['depth']} != stored depth {tree.max_depth}"
        )
    section = doc.get("section")
    if section is not None:
        section = [str(s) for s in section]
    return tree, section


def load_tree(path: str) -> tuple[ForwardTree, list[str] | None]:
    with open(path) as fh:
        return tree_from_doc(json.load(fh), path)


def tree_to_doc(tree: ForwardTree, section=None) -> dict:
    doc = {
        "children": {v: list(tree.children[v]) for v in tree.vertices if tree.children[v]},
        "measure": {v: tree.measure[v] for v in tree.vertices},
        "depth": tree.max_depth,
    }
    if section:
        doc["section"] = sorted(section)
    return doc


def load_vector(path: str) -> dict[str, complex]:
    """Load a ``{vertex-id: value}`` map with complex-aware values."""
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise FormatError(f"{path}: vector file must be an object")
    out = {}
    for k, v in doc.items():
        try:
            out[str(k)] = value_to_complex(v)
        except FormatError as exc:
            raise FormatError(f"{path}: value of {k!r}: {exc}") from None
    return out

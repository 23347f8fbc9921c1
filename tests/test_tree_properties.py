"""Property test of forward-tree ancestry: on random trees the interval
test of ``is_ancestor`` agrees with the root path for every pair of
vertices, ``boundary_kernel`` follows the root-path rule entry by entry,
and an unknown id raises ``ValueError``."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from polyharm import binomial, boundary_kernel  # noqa: E402

from conftest import random_tree  # noqa: E402


def _kernel_by_root_path(tree, lam, r, x, arc, paths):
    """The order-r boundary kernel by the root-path rule: the closed form
    when x is on the arc's root path, refused when the arc vertex is a
    strict ancestor of x, zero otherwise."""
    if x in paths[arc]:
        dx = tree.depth[x]
        return ((-1) ** (r - 1)) * lam ** (dx - (r - 1)) * binomial(dx, r - 1) / tree.measure[x]
    return None if arc in paths[x] else 0j


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), r=st.integers(1, 3),
       lam=st.sampled_from([1.0, -0.7, 1.3 + 0.4j]),
       unknown=st.text(alphabet="abxyz", max_size=3))  # the tree's ids are o and n<k>
def test_ancestry_by_intervals(seed, r, lam, unknown):
    tree, lam = random_tree(np.random.default_rng(seed), max_depth=4, max_branch=3), complex(lam)
    paths = {v: set(tree.path_from_root(v)) for v in tree.vertices}
    for y in tree.vertices:
        for x in tree.vertices:
            assert tree.is_ancestor(x, y) == (x in paths[y])
            want = _kernel_by_root_path(tree, lam, r, x, y, paths)
            if want is None:
                with pytest.raises(ValueError, match="not constant on the arc"):
                    boundary_kernel(tree, lam, r, x, y)
            else:
                assert boundary_kernel(tree, lam, r, x, y) == want
        for call in (lambda: tree.is_ancestor(unknown, y), lambda: tree.is_ancestor(y, unknown),
                     lambda: boundary_kernel(tree, lam, r, unknown, y),
                     lambda: boundary_kernel(tree, lam, r, y, unknown)):
            with pytest.raises(ValueError, match=f"unknown vertex {unknown!r}"):
                call()

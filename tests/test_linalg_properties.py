"""Property test of the panel solve: for any size up to a few panels,
real or complex, one or several right-hand sides, the solution of a
random system matches ``numpy.linalg.solve`` and its normwise backward
error stays within the stated bound."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from polyharm.linalg import lu_factor  # noqa: E402

from conftest import backward_error, solve_bound  # noqa: E402


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(k=st.integers(1, 130), cplx=st.booleans(), columns=st.sampled_from([0, 1, 3]),
       seed=st.integers(0, 2**32 - 1))
def test_panel_solve_backward_error(k, cplx, columns, seed):
    rng = np.random.default_rng(seed)
    shape = (k, k + max(columns, 1))
    ab = rng.standard_normal(shape) + (1j * rng.standard_normal(shape) if cplx else 0)
    a, b = ab[:, :k], (ab[:, k:] if columns else ab[:, k])
    x = lu_factor(a).solve(b)
    want = np.linalg.solve(a, b)
    assert x.shape == want.shape
    assert np.abs(x - want).max() <= 1e-9 * np.abs(want).max()
    assert backward_error(a, x, b) <= solve_bound(k)

"""Unit tests for USEC wavefront connectivity (repro.spatial.usec)."""
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.spatial.usec import Wavefront, separation_axis, usec_connected


def _brute(a, b, eps):
    if len(a) == 0 or len(b) == 0:
        return False
    d2 = ((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=2)
    return bool((d2 <= eps * eps).any())


def test_separation_axis_basic():
    a = np.array([[0.0, 5.0], [1.0, 6.0]])
    b = np.array([[0.0, 1.0], [1.0, 2.0]])
    ax, sign = separation_axis(a, b)
    assert ax == 1 and sign == 1.0


def test_separation_axis_none_when_overlapping():
    a = np.array([[0.0, 0.0], [2.0, 2.0]])
    b = np.array([[1.0, 1.0]])
    assert separation_axis(a, b) is None


def test_wavefront_single_circle():
    wf = Wavefront(np.array([[0.0, 0.0]]), 1.0)
    assert wf.covers(np.array([0.0, 0.9]))
    assert wf.covers(np.array([0.0, 1.0]))
    assert not wf.covers(np.array([0.0, 1.1]))
    assert not wf.covers(np.array([2.0, 0.0]))


def test_wavefront_two_disjoint_circles_gap():
    wf = Wavefront(np.array([[0.0, 0.0], [10.0, 0.0]]), 1.0)
    assert wf.covers(np.array([0.5, 0.5]))
    assert wf.covers(np.array([10.0, 0.9]))
    assert not wf.covers(np.array([5.0, 0.1]))


def test_wavefront_stacked_circles():
    """Higher circle dominates the overlap but lower keeps its left part."""
    wf = Wavefront(np.array([[0.0, 0.0], [0.1, 5.0]]), 1.0)
    assert wf.covers(np.array([-0.95, 0.0]))   # only the low circle reaches
    assert wf.covers(np.array([0.1, 5.9]))
    assert not wf.covers(np.array([0.0, 2.5]))


def test_connected_simple_yes_no():
    a = np.array([[0.0, 1.0]])
    b = np.array([[0.0, 0.0]])
    assert usec_connected(a, b, 1.0)
    assert not usec_connected(a, b, 0.9)


def test_connected_empty_sets():
    assert not usec_connected(np.empty((0, 2)), np.array([[0.0, 0.0]]), 1.0)
    assert not usec_connected(np.array([[0.0, 0.0]]), np.empty((0, 2)), 1.0)


def test_connected_vertical_separation():
    """Sets separated in x (not y) must also work."""
    a = np.array([[5.0, 0.0], [5.5, 2.0]])
    b = np.array([[4.0, 1.9]])
    # min distance = dist((5.5,2),(4,1.9)) ≈ 1.5033
    assert usec_connected(a, b, 1.51)
    assert not usec_connected(a, b, 1.50)


@pytest.mark.parametrize("seed", range(8))
def test_random_matches_brute(seed):
    rng = np.random.default_rng(seed)
    na, nb = rng.integers(1, 40, 2)
    a = rng.random((na, 2)) * 4
    a[:, 1] += 2.0  # a above y=2
    b = rng.random((nb, 2)) * 4
    b[:, 1] -= 4.0  # b below
    for eps in (0.5, 1.0, 2.0, 3.0, 5.0, 8.0):
        assert usec_connected(a, b, eps) == _brute(a, b, eps), (seed, eps)


# A holds (0, 0) and (0, 2**-52), stacked at x = 0; B's point (0, -1.5) is
# exactly eps = 1.5 from (0, 0).  The higher centre must keep the envelope
# arc over x = 0.
TIE_A = [(1.0, 0.0), (0.0, 0.0), (0.0, 2.0**-52)]
TIE_B = [(1.0, 0.0), (0.0, 9.0), (0.0, 0.0), (0.0, 0.0)]  # before the shift by -10.5


def _points(max_size):
    coord = st.floats(0, 10, allow_nan=False, width=32)
    return st.lists(st.tuples(coord, coord), min_size=1, max_size=max_size)


@settings(max_examples=200, deadline=None)
@given(_points(25), _points(25), st.floats(0.1, 20, allow_nan=False))
@example(TIE_A, TIE_B, 1.5)
def test_hypothesis_matches_brute(fa, fb, eps):
    a = np.array(fa, dtype=np.float64)
    b = np.array(fb, dtype=np.float64)
    b[:, 1] -= 10.5  # enforce horizontal separation
    assert usec_connected(a, b, eps) == _brute(a, b, eps)


def test_tie_at_eps_nearly_coincident_centres():
    a = np.array(TIE_A)
    b = np.array(TIE_B) - np.array([0.0, 10.5])
    assert _brute(a, b, 1.5)  # (0, 0) and (0, -1.5) are exactly eps apart
    assert usec_connected(a, b, 1.5)
    assert usec_connected(b, a, 1.5)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_hypothesis_grid_like_cells(data):
    """Cells as in the DBSCAN grid: adjacent unit boxes, any of 8 directions."""
    na = data.draw(st.integers(1, 20))
    nb = data.draw(st.integers(1, 20))
    off = data.draw(st.sampled_from([(0, 1), (1, 0), (1, 1), (0, 2), (2, 1), (2, 2), (1, -2)]))
    fa = data.draw(
        st.lists(st.floats(0, 1, allow_nan=False, width=32), min_size=2 * na, max_size=2 * na)
    )
    fb = data.draw(
        st.lists(st.floats(0, 1, allow_nan=False, width=32), min_size=2 * nb, max_size=2 * nb)
    )
    a = np.array(fa).reshape(na, 2)
    b = np.array(fb).reshape(nb, 2) + np.array(off, dtype=np.float64)
    eps = data.draw(st.floats(0.05, 4.0, allow_nan=False))
    assert usec_connected(a, b, eps) == _brute(a, b, eps)

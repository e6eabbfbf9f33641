"""Unit tests for the numpy k-d tree (repro.spatial.kdtree)."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.spatial.kdtree import KDTree


def _brute_radius(pts, q, r):
    d2 = ((pts - q) ** 2).sum(axis=1)
    return set(np.flatnonzero(d2 <= r * r).tolist())


def test_empty_tree():
    t = KDTree(np.empty((0, 3)))
    assert t.query_radius(np.zeros(3), 1.0).size == 0


def test_single_point_hit_and_miss():
    t = KDTree(np.array([[1.0, 2.0]]))
    assert set(t.query_radius(np.array([1.0, 2.0]), 0.0)) == {0}
    assert t.query_radius(np.array([5.0, 5.0]), 1.0).size == 0


def test_boundary_inclusive():
    t = KDTree(np.array([[0.0, 0.0], [3.0, 4.0]]))
    assert set(t.query_radius(np.zeros(2), 5.0)) == {0, 1}
    assert set(t.query_radius(np.zeros(2), 4.999999)) == {0}


@pytest.mark.parametrize("d", [1, 2, 3, 5, 7])
@pytest.mark.parametrize("n", [1, 10, 100, 500])
def test_matches_brute_force(d, n):
    rng = np.random.default_rng(42 + d * 100 + n)
    pts = rng.random((n, d)) * 10
    t = KDTree(pts, leaf_size=8)
    for _ in range(10):
        q = rng.random(d) * 10
        r = rng.random() * 3
        assert set(t.query_radius(q, r).tolist()) == _brute_radius(pts, q, r)


def test_duplicate_points():
    pts = np.zeros((20, 2))
    t = KDTree(pts, leaf_size=4)
    assert set(t.query_radius(np.zeros(2), 0.1)) == set(range(20))


def test_collinear_points():
    pts = np.stack([np.arange(50.0), np.zeros(50)], axis=1)
    t = KDTree(pts, leaf_size=4)
    assert set(t.query_radius(np.array([10.0, 0.0]), 2.5)) == {8, 9, 10, 11, 12}


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_hypothesis_matches_brute(data):
    n = data.draw(st.integers(1, 60))
    d = data.draw(st.integers(1, 4))
    flat = data.draw(
        st.lists(
            st.floats(-100, 100, allow_nan=False, allow_infinity=False, width=32),
            min_size=n * d,
            max_size=n * d,
        )
    )
    pts = np.array(flat, dtype=np.float64).reshape(n, d)
    q = np.array(
        data.draw(
            st.lists(
                st.floats(-100, 100, allow_nan=False, allow_infinity=False, width=32),
                min_size=d,
                max_size=d,
            )
        )
    )
    r = data.draw(st.floats(0, 50, allow_nan=False))
    t = KDTree(pts, leaf_size=4)
    assert set(t.query_radius(q, r).tolist()) == _brute_radius(pts, q, r)

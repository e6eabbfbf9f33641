"""Unit tests for the 2^d-ary quadtree (repro.spatial.quadtree)."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.spatial.quadtree import QuadTree, approx_depth


def _brute_count(pts, q, eps):
    d2 = ((pts - q) ** 2).sum(axis=1)
    return int((d2 <= eps * eps).sum())


def _tree(pts, leaf_threshold=16):
    pts = np.asarray(pts, dtype=np.float64)
    lo = pts.min(axis=0)
    side = float(max((pts.max(axis=0) - lo).max(), 1e-9)) * 1.0000001
    return QuadTree(pts, lo, side, leaf_threshold=leaf_threshold)


def test_root_count():
    pts = np.random.default_rng(0).random((100, 2))
    t = _tree(pts)
    assert t._count[t.root] == 100


def test_exact_small_leaf():
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    t = _tree(pts)
    assert t.range_count(np.array([0.0, 0.0]), 1.0) == 3
    assert t.range_count(np.array([0.0, 0.0]), 0.5) == 1
    assert t.range_count(np.array([10.0, 10.0]), 1.0) == 0


@pytest.mark.parametrize("d", [1, 2, 3, 5, 7])
def test_exact_matches_brute(d):
    rng = np.random.default_rng(d)
    pts = rng.random((300, d)) * 5
    t = _tree(pts, leaf_threshold=4)
    for _ in range(20):
        q = rng.random(d) * 5
        eps = rng.random() * 2
        assert t.range_count(q, eps) == _brute_count(pts, q, eps)


def test_exact_query_outside_box():
    rng = np.random.default_rng(1)
    pts = rng.random((100, 3))
    t = _tree(pts, leaf_threshold=4)
    q = np.array([5.0, 5.0, 5.0])
    assert t.range_count(q, 0.5) == 0
    assert t.range_count(q, 10.0) == 100


def test_duplicate_points_exact():
    pts = np.tile(np.array([[1.0, 1.0]]), (50, 1))
    t = _tree(np.vstack([pts, [[2.0, 2.0]]]), leaf_threshold=4)
    assert t.range_count(np.array([1.0, 1.0]), 0.1) == 50


@pytest.mark.parametrize("rho", [0.001, 0.01, 0.1, 0.5, 1.0])
def test_approx_depth_formula(rho):
    l = approx_depth(rho)
    assert l >= 1
    # leaf side after l halvings ≤ rho/2 * initial: diagonal ≤ eps*rho when
    # initial side = eps/sqrt(d)
    assert 0.5 ** l <= rho / 2 or l == 1


@pytest.mark.parametrize("rho", [0.01, 0.1, 1.0])
def test_rho_caps_depth(rho):
    """The tree takes its depth cap from rho: no node of a rho > 0 tree is
    smaller than the root halved approx_depth(rho) times, while the exact
    tree splits further on the same points."""
    pts = np.random.default_rng(5).random((2000, 2))
    cap = 0.5 ** approx_depth(rho)
    assert min(QuadTree(pts, np.zeros(2), 1.0, rho=rho, leaf_threshold=1)._side) >= cap
    assert min(QuadTree(pts, np.zeros(2), 1.0, leaf_threshold=1)._side) < cap


@pytest.mark.parametrize("d", [2, 3, 5])
@pytest.mark.parametrize("rho", [0.01, 0.1, 1.0])
def test_approx_count_sandwich(d, rho):
    """approx count must lie in [count(eps), count(eps(1+rho))]."""
    rng = np.random.default_rng(17 * d)
    eps = 0.9
    side = eps / np.sqrt(d)
    pts = rng.random((400, d)) * side
    t = QuadTree(pts, np.zeros(d), side, rho=rho, leaf_threshold=8)
    for _ in range(30):
        q = rng.random(d) * side * 3 - side
        lo = _brute_count(pts, q, eps)
        hi = _brute_count(pts, q, eps * (1 + rho))
        got = t.range_count(q, eps)
        assert lo <= got <= hi, (lo, got, hi)


def test_approx_zero_when_far():
    pts = np.random.default_rng(3).random((100, 2))
    t = QuadTree(pts, np.zeros(2), 1.0, rho=0.1)
    assert t.range_count(np.array([50.0, 50.0]), 1.0) == 0


def test_approx_full_when_enclosing():
    pts = np.random.default_rng(4).random((100, 2))
    t = QuadTree(pts, np.zeros(2), 1.0, rho=0.1)
    assert t.range_count(np.array([0.5, 0.5]), 10.0) == 100


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_hypothesis_exact(data):
    n = data.draw(st.integers(1, 80))
    d = data.draw(st.integers(1, 3))
    flat = data.draw(
        st.lists(
            st.floats(0, 10, allow_nan=False, width=32), min_size=n * d, max_size=n * d
        )
    )
    pts = np.array(flat, dtype=np.float64).reshape(n, d)
    t = _tree(pts, leaf_threshold=2)
    q = np.array(
        data.draw(st.lists(st.floats(-5, 15, allow_nan=False, width=32), min_size=d, max_size=d))
    )
    eps = data.draw(st.floats(0, 8, allow_nan=False))
    assert t.range_count(q, eps) == _brute_count(pts, q, eps)


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_hypothesis_approx_sandwich(data):
    n = data.draw(st.integers(1, 60))
    d = 2
    flat = data.draw(
        st.lists(st.floats(0, 1, allow_nan=False, width=32), min_size=n * d, max_size=n * d)
    )
    pts = np.array(flat, dtype=np.float64).reshape(n, d)
    rho = data.draw(st.sampled_from([0.01, 0.1, 0.5]))
    eps = data.draw(st.floats(0.1, 3.0, allow_nan=False))
    t = QuadTree(pts, np.zeros(d), 1.0000001, rho=rho, leaf_threshold=2)
    q = np.array(
        data.draw(st.lists(st.floats(-1, 2, allow_nan=False, width=32), min_size=d, max_size=d))
    )
    lo = _brute_count(pts, q, eps)
    hi = _brute_count(pts, q, eps * (1 + rho))
    assert lo <= t.range_count(q, eps) <= hi

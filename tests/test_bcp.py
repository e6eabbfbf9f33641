"""Unit tests for BCP kernels (repro.spatial.bcp)."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.spatial.bcp import bcp_connected, connected_via_quadtree


def _brute_min(a, b):
    d2 = ((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=2)
    return float(np.sqrt(d2.min()))


def test_connected_trivial():
    a = np.array([[0.0, 0.0]])
    b = np.array([[3.0, 4.0]])
    assert bcp_connected(a, b, 5.0)
    assert not bcp_connected(a, b, 4.999)


def test_connected_empty():
    assert not bcp_connected(np.empty((0, 2)), np.array([[0.0, 0.0]]), 1.0)
    assert not bcp_connected(np.array([[0.0, 0.0]]), np.empty((0, 2)), 1.0)


@pytest.mark.parametrize("d", [2, 3, 5, 7])
@pytest.mark.parametrize("seed", [0, 1])
def test_connected_matches_brute(d, seed):
    rng = np.random.default_rng(seed * 10 + d)
    a = rng.random((70, d))
    b = rng.random((90, d)) + 0.8
    mind = _brute_min(a, b)
    assert bcp_connected(a, b, mind * 1.0001)
    assert not bcp_connected(a, b, mind * 0.9999)


def test_blocking_spans_blocks():
    """Closest pair sits past the first 64-point block on both sides."""
    rng = np.random.default_rng(2)
    a = rng.random((200, 2)) * 10
    b = rng.random((200, 2)) * 10 + 100
    a[150] = [50.0, 50.0]
    b[170] = [50.2, 50.0]
    assert bcp_connected(a, b, 0.3)
    assert not bcp_connected(a, b, 0.1)


@pytest.mark.parametrize("d", [2, 3, 5])
def test_quadtree_connectivity_matches(d):
    rng = np.random.default_rng(d)
    side = 1.0
    b = rng.random((120, d)) * side
    a = rng.random((80, d)) * side + np.array([1.0] + [0.0] * (d - 1))
    mind = _brute_min(a, b)
    lo = np.zeros(d)
    assert connected_via_quadtree(a, b, mind * 1.0001, lo, side)
    assert not connected_via_quadtree(a, b, mind * 0.9999, lo, side)


def test_approx_connectivity_sound_and_complete():
    """Must connect any pair ≤ eps; must never connect pairs > eps(1+rho)."""
    rng = np.random.default_rng(9)
    d, side, rho = 2, 1.0, 0.1
    b = rng.random((100, d))
    a = rng.random((100, d)) + np.array([1.0, 0.0])
    mind = _brute_min(a, b)
    lo = np.zeros(d)
    # eps just above the true min distance: exact pair exists => must connect
    assert connected_via_quadtree(a, b, mind * 1.001, lo, side, rho)
    # eps(1+rho) below min distance => must not connect
    eps_far = mind / (1 + rho) * 0.999
    assert not connected_via_quadtree(a, b, eps_far, lo, side, rho)


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_hypothesis_connected(data):
    d = data.draw(st.integers(1, 3))
    na = data.draw(st.integers(1, 30))
    nb = data.draw(st.integers(1, 30))
    fa = data.draw(st.lists(st.floats(0, 5, allow_nan=False, width=32), min_size=na * d, max_size=na * d))
    fb = data.draw(st.lists(st.floats(0, 5, allow_nan=False, width=32), min_size=nb * d, max_size=nb * d))
    a = np.array(fa).reshape(na, d)
    b = np.array(fb).reshape(nb, d)
    eps = data.draw(st.floats(0.01, 10, allow_nan=False))
    d2 = ((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=2)
    assert bcp_connected(a, b, eps) == bool((d2 <= eps * eps).any())


def _lattice(data, n, d):
    """n points of the integer lattice {0..12}^d, as floats."""
    flat = data.draw(st.lists(st.integers(0, 12), min_size=n * d, max_size=n * d))
    return np.array(flat, dtype=np.float64).reshape(n, d)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_hypothesis_quadtree_connectivity(data):
    """On lattice points with an integer eps, so closest pairs often lie at
    exactly eps: at rho = 0 the quadtree test equals BCP, and at rho > 0 it
    connects every pair of sets whose closest pair is within eps and none
    whose closest pair is beyond eps(1+rho)."""
    d = data.draw(st.integers(1, 3))
    a = _lattice(data, data.draw(st.integers(1, 25)), d)
    b = _lattice(data, data.draw(st.integers(1, 25)), d)
    eps = float(data.draw(st.integers(1, 6)))
    rho = data.draw(st.sampled_from([0.0, 0.01, 0.1, 0.5]))
    lo = b.min(axis=0)
    side = float((b.max(axis=0) - lo).max() + 1)
    got = connected_via_quadtree(a, b, eps, lo, side, rho)
    if rho == 0:
        assert got == bcp_connected(a, b, eps)
    else:
        d2 = float(((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=2).min())
        outer = eps * (1 + rho)
        if d2 <= eps * eps:
            assert got
        elif d2 > outer * outer:
            assert not got

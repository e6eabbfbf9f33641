"""Tests for box cell construction (repro.core.box)."""
import math

import numpy as np
import pytest

from repro import synth_data as sd
from repro.core import box as boxmod


def test_strip_starts_basic():
    vals = np.array([0.0, 0.5, 1.0, 1.6, 1.7, 3.5])
    mask = boxmod.strip_starts_scan(vals, 1.0)
    # strip1: 0,0.5,1.0; strip2: 1.6,1.7 (1.6-0>1 starts); strip3: 3.5
    assert mask.tolist() == [True, False, False, True, False, True]


def test_strip_starts_empty_and_single():
    assert boxmod.strip_starts_scan(np.array([]), 1.0).tolist() == []
    assert boxmod.strip_starts_scan(np.array([5.0]), 1.0).tolist() == [True]


def test_strip_width_invariant():
    rng = np.random.default_rng(0)
    vals = np.sort(rng.random(500) * 50)
    w = 2.0
    mask = boxmod.strip_starts_scan(vals, w)
    starts = np.flatnonzero(mask)
    bounds = np.append(starts, len(vals))
    for i in range(len(starts)):
        seg = vals[bounds[i] : bounds[i + 1]]
        assert seg.max() - seg.min() <= w  # strip width bound
        if i + 1 < len(starts):
            assert vals[starts[i + 1]] - vals[starts[i]] > w  # next start is far


def test_box_cells_partition_and_side():
    pts = sd.seed_spreader(800, 2, seed=2)
    eps = 250.0
    labels, boxes = boxmod.box_cells(pts, eps)
    w = eps / math.sqrt(2)
    assert (labels >= 0).all()
    assert boxes["cnt"].sum() == 800
    # every box has extent ≤ strip width in both dims → diagonal ≤ eps
    assert ((boxes["x_hi"] - boxes["x_lo"]) <= w + 1e-9).all()
    assert ((boxes["y_hi"] - boxes["y_lo"]) <= w + 1e-9).all()
    # within-box pairwise distance ≤ eps
    for b in range(boxes["box"].max() + 1):
        arr = pts[labels == b]
        if len(arr) > 1:
            d2 = ((arr[:, None, :] - arr[None, :, :]) ** 2).sum(axis=2)
            assert d2.max() <= eps * eps + 1e-6


def test_box_cells_empty():
    labels, boxes = boxmod.box_cells(np.empty((0, 2)), 1.0)
    assert len(labels) == 0 and len(boxes) == 0


def test_box_neighbor_pairs_complete():
    """Neighbor table must contain every pair of boxes with a cross pair
    within eps (completeness is what correctness of DBSCAN relies on)."""
    pts = sd.seed_spreader(600, 2, seed=3)
    eps = 300.0
    labels, boxes = boxmod.box_cells(pts, eps)
    pairs = set(zip(*(boxmod.box_neighbor_pairs(boxes, eps)[c] for c in ("cell", "ncell"))))
    nb = boxes["box"].max() + 1
    for a in range(nb):
        pa = pts[labels == a]
        for b in range(a + 1, nb):
            pb = pts[labels == b]
            d2 = ((pa[:, None, :] - pb[None, :, :]) ** 2).sum(axis=2)
            if (d2 <= eps * eps).any():
                assert (a, b) in pairs, (a, b)
                assert (b, a) in pairs, (b, a)


def test_box_neighbor_pairs_no_self():
    pts = sd.seed_spreader(200, 2, seed=4)
    _, boxes = boxmod.box_cells(pts, 300.0)
    np_pairs = boxmod.box_neighbor_pairs(boxes, 300.0)
    assert (np_pairs["cell"] != np_pairs["ncell"]).all()

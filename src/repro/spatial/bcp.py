"""Bichromatic closest pair (BCP) kernels for cell-graph connectivity (§4.4).

These run *inside* Spark tasks, one call per candidate cell pair, so they are
plain numpy.  Two kernels, matching the paper's implementations:

* ``bcp_connected`` — blocked all-pairs distance computation with the paper's
  two optimisations: (1) pre-filter points farther than eps from the other
  cell's bounding box, (2) early exit on the first block pair containing a
  pair within eps.
* ``connected_via_quadtree`` — RangeCount queries against a quadtree built
  on the other cell's (core) points; connect iff some query returns a
  non-zero count.  At rho = 0 it is exact (our-exact-qt); at rho > 0 the
  tree's RangeCount is rho-approximate (our-approx), so it connects all
  pairs within eps and never pairs beyond eps(1+rho).
"""
from __future__ import annotations

import numpy as np

from repro.spatial.quadtree import QuadTree

_BLOCK = 64


def _box_filter(pts: np.ndarray, other: np.ndarray, eps: float) -> np.ndarray:
    """Drop points farther than eps from the other set's bounding box."""
    if len(other) == 0:
        return pts[:0]
    lo = other.min(axis=0)
    hi = other.max(axis=0)
    gap = np.maximum(np.maximum(lo - pts, pts - hi), 0.0)
    keep = (gap * gap).sum(axis=1) <= eps * eps
    return pts[keep]


def bcp_connected(a: np.ndarray, b: np.ndarray, eps: float) -> bool:
    """True iff min distance between sets a and b is ≤ eps."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if len(a) == 0 or len(b) == 0:
        return False
    eps2 = eps * eps
    a = _box_filter(a, b, eps)
    b = _box_filter(b, a, eps)
    if len(a) == 0 or len(b) == 0:
        return False
    for i in range(0, len(a), _BLOCK):
        ab = a[i : i + _BLOCK]
        for j in range(0, len(b), _BLOCK):
            bb = b[j : j + _BLOCK]
            d2 = ((ab[:, None, :] - bb[None, :, :]) ** 2).sum(axis=2)
            if (d2 <= eps2).any():
                return True
    return False


def connected_via_quadtree(
    a: np.ndarray, b: np.ndarray, eps: float, b_lo: np.ndarray, b_side: float, rho: float = 0.0
) -> bool:
    """Quadtree on b, RangeCount per point of a: exact at rho = 0, and at
    rho > 0 connects everything ≤ eps and nothing beyond eps(1+rho) (in
    between is implementation-defined, as Gan&Tao allow).

    ``b_lo``/``b_side`` give b's cell box (the quadtree root box).
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if len(a) == 0 or len(b) == 0:
        return False
    a = _box_filter(a, b, eps * (1.0 + rho))
    if len(a) == 0:
        return False
    qt = QuadTree(b, b_lo, b_side, rho=rho)
    return any(qt.range_count(q, eps) > 0 for q in a)

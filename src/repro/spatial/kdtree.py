"""A from-scratch numpy k-d tree (no scipy in this container).

The paper (§5.1) inserts all *non-empty cells* into a parallel k-d tree so a
cell can find its non-empty neighboring cells without enumerating the
exponentially-many possible offsets.  Here the tree is built once on the
driver over the cell-coordinate array (O(#cells) ≪ n) and queried once per
cell with vectorised leaf scans; the per-point data-parallel phases never touch it.

The tree is stored in flat arrays (no Python node objects) so construction
and queries stay numpy-speed.
"""
from __future__ import annotations

import numpy as np

_LEAF_SIZE = 32


class KDTree:
    """Static k-d tree over an (n, d) float array, median-split, leaf buckets.

    Supports ``query_radius`` (indices within Euclidean distance r of a query
    point).
    """

    def __init__(self, pts: np.ndarray, leaf_size: int = _LEAF_SIZE):
        pts = np.asarray(pts, dtype=np.float64)
        if pts.ndim != 2:
            raise ValueError("pts must be (n, d)")
        self.pts = pts
        self.n, self.d = pts.shape
        self.leaf_size = leaf_size
        # Node arrays, grown as we build. Node i: split dim/value, children
        # (-1 = none), or a leaf [start, end) range into self.idx.
        self._split_dim: list[int] = []
        self._split_val: list[float] = []
        self._left: list[int] = []
        self._right: list[int] = []
        self._leaf_start: list[int] = []
        self._leaf_end: list[int] = []
        self.idx = np.arange(self.n)
        if self.n:
            self._build(0, self.n, 0)

    def _new_node(self) -> int:
        self._split_dim.append(-1)
        self._split_val.append(0.0)
        self._left.append(-1)
        self._right.append(-1)
        self._leaf_start.append(-1)
        self._leaf_end.append(-1)
        return len(self._split_dim) - 1

    def _build(self, lo: int, hi: int, depth: int) -> int:
        node = self._new_node()
        n = hi - lo
        if n <= self.leaf_size:
            self._leaf_start[node] = lo
            self._leaf_end[node] = hi
            return node
        seg = self.idx[lo:hi]
        coords = self.pts[seg]
        # Split on the widest dimension — better than cycling for skewed data.
        dim = int(np.argmax(coords.max(axis=0) - coords.min(axis=0)))
        order = np.argsort(coords[:, dim], kind="stable")
        self.idx[lo:hi] = seg[order]
        mid = lo + n // 2
        val = float(self.pts[self.idx[mid], dim])
        self._split_dim[node] = dim
        self._split_val[node] = val
        left = self._build(lo, mid, depth + 1)
        right = self._build(mid, hi, depth + 1)
        self._left[node] = left
        self._right[node] = right
        return node

    def query_radius(self, q: np.ndarray, r: float) -> np.ndarray:
        """Indices of stored points within Euclidean distance ``r`` of ``q``."""
        if self.n == 0:
            return np.empty(0, dtype=np.int64)
        q = np.asarray(q, dtype=np.float64)
        r2 = r * r
        out: list[np.ndarray] = []
        stack = [0]
        while stack:
            node = stack.pop()
            ls = self._leaf_start[node]
            if ls >= 0:
                seg = self.idx[ls : self._leaf_end[node]]
                diff = self.pts[seg] - q
                d2 = np.einsum("ij,ij->i", diff, diff)
                hit = seg[d2 <= r2]
                if hit.size:
                    out.append(hit)
                continue
            dim, val = self._split_dim[node], self._split_val[node]
            delta = q[dim] - val
            # Left subtree holds coords < val (plus ties on either side of the
            # median); visit a side iff the slab can intersect the ball.
            if delta <= r:
                stack.append(self._left[node])
            if -delta <= r:
                stack.append(self._right[node])
        if not out:
            return np.empty(0, dtype=np.int64)
        return np.concatenate(out)

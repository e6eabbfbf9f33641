"""From-scratch 2^d-ary quadtree for (approximate) RangeCount queries (§5.2).

One quadtree is built per grid cell, *inside* the Spark task that processes
that cell's block (``applyInPandas`` per block), which is this reproduction's analogue
of the paper's parallel per-cell quadtree construction: cells are processed in
parallel by Spark, the per-cell build is local.

One RangeCount serves both of the paper's modes, set by the tree's ρ:

* ρ = 0 (exact, our-exact-qt): ``range_count`` returns the number of points
  within eps of q.  It prunes subtrees whose box cannot intersect the
  eps-ball and adds whole subtree counts when the box is inside the ball.
* ρ > 0 (Gan&Tao ρ-approximate, our-approx): the count lies in
  [#points within eps, #points within eps(1+ρ)].  The tree is depth-limited
  to l = 1 + ceil(log2(1/ρ)), so leaves of a cell-sized root have side
  ≤ eps·ρ/√d; a node counts whole once it lies within eps(1+ρ), and a leaf
  that intersects the eps-ball counts whole when its diagonal is ≤ eps·ρ.

Construction mirrors §5.2: recursively split into 2^d equal sub-boxes
(numpy integer-keyed grouping — the paper's integer sort), stop at empty
boxes, a leaf threshold, or (ρ > 0) the depth limit, and skip levels
where all points fall into one child ("at least two non-empty children").
"""
from __future__ import annotations

import math

import numpy as np

_LEAF_THRESHOLD = 16


class QuadTree:
    """2^d-ary point-region tree over an (n, d) array within a given box.

    Parameters
    ----------
    pts : (n, d) float array
    lo  : (d,) box lower corner.  The box must contain all points.
    side: scalar box side length (boxes are hypercubes, as grid cells are).
    rho : approximation factor; 0 = exact counts, split until the leaf
        threshold; > 0 caps the depth at ``approx_depth(rho)``.
    """

    def __init__(
        self,
        pts: np.ndarray,
        lo: np.ndarray,
        side: float,
        rho: float = 0.0,
        leaf_threshold: int = _LEAF_THRESHOLD,
    ):
        pts = np.asarray(pts, dtype=np.float64)
        self.pts = pts
        self.d = pts.shape[1]
        self.leaf_threshold = leaf_threshold
        self.rho = rho
        self.depth_cap = approx_depth(rho) if rho > 0 else math.inf
        # Flat node storage.
        self._lo: list[np.ndarray] = []
        self._side: list[float] = []
        self._count: list[int] = []
        self._children: list[list[int] | None] = []  # None => leaf
        self._leaf_pts: list[np.ndarray | None] = []
        self.idx = np.arange(len(pts))
        self.root = self._build(self.idx, np.asarray(lo, dtype=np.float64), float(side), 0)

    # -- construction ----------------------------------------------------
    def _new_node(self, lo: np.ndarray, side: float, count: int) -> int:
        self._lo.append(lo)
        self._side.append(side)
        self._count.append(count)
        self._children.append(None)
        self._leaf_pts.append(None)
        return len(self._lo) - 1

    def _build(self, idx: np.ndarray, lo: np.ndarray, side: float, depth: int) -> int:
        node = self._new_node(lo, side, len(idx))
        sub = self.pts[idx]
        if (
            len(idx) <= self.leaf_threshold
            or depth >= self.depth_cap
            or bool((sub == sub[0]).all())  # duplicates can never split
        ):
            self._leaf_pts[node] = idx
            return node
        # "Ensure each node has at least two non-empty children": repeatedly
        # halve until the points split, shrinking this node's box in place.
        # The iteration cap guards against floating-point underflow on
        # pathologically close (but distinct) points.
        for _collapse in range(128):
            half = side / 2.0
            rel = self.pts[idx] - lo
            kid = (rel >= half).astype(np.int64)  # (n, d) of 0/1
            key = kid @ (1 << np.arange(self.d, dtype=np.int64))
            uniq = np.unique(key)
            if len(uniq) > 1:
                break
            # All points in one sub-box: descend without creating a node.
            k = int(uniq[0])
            offs = np.array([(k >> j) & 1 for j in range(self.d)], dtype=np.float64)
            lo = lo + offs * half
            side = half
            depth += 1
            self._lo[node] = lo
            self._side[node] = side
            if depth >= self.depth_cap:
                self._leaf_pts[node] = idx
                return node
        else:  # never split within the cap: store as a leaf
            self._leaf_pts[node] = idx
            return node
        half = side / 2.0
        order = np.argsort(key, kind="stable")  # integer sort on 2^d keys
        idx_sorted = idx[order]
        key_sorted = key[order]
        bounds = np.searchsorted(key_sorted, np.arange((1 << self.d) + 1))
        children: list[int] = []
        for k in range(1 << self.d):
            s, e = bounds[k], bounds[k + 1]
            if s == e:
                continue
            offs = np.array([(k >> j) & 1 for j in range(self.d)], dtype=np.float64)
            children.append(
                self._build(idx_sorted[s:e], lo + offs * half, half, depth + 1)
            )
        self._children[node] = children
        return node

    # -- queries ----------------------------------------------------------
    def _box_min_dist2(self, node: int, q: np.ndarray) -> float:
        lo = self._lo[node]
        hi = lo + self._side[node]
        diff = np.maximum(np.maximum(lo - q, q - hi), 0.0)
        return float(diff @ diff)

    def _box_max_dist2(self, node: int, q: np.ndarray) -> float:
        lo = self._lo[node]
        hi = lo + self._side[node]
        diff = np.maximum(np.abs(q - lo), np.abs(q - hi))
        return float(diff @ diff)

    def range_count(self, q: np.ndarray, eps: float) -> int:
        """Number of stored points within eps of q, exact at ρ = 0 and in
        [count(eps), count(eps(1+ρ))] at ρ > 0."""
        q = np.asarray(q, dtype=np.float64)
        eps2 = eps * eps
        outer = eps * (1.0 + self.rho)
        outer2 = outer * outer
        leaf_diag = eps * self.rho
        total = 0
        stack = [self.root]
        while stack:
            node = stack.pop()
            if self._box_min_dist2(node, q) > eps2:
                continue
            if self._box_max_dist2(node, q) <= outer2:
                total += self._count[node]
                continue
            kids = self._children[node]
            if kids is None:
                # A leaf intersecting the eps-ball counts whole only when its
                # diagonal is ≤ eps·ρ (then all its points are within
                # eps(1+ρ)); otherwise count exactly.  Checking the geometry
                # here keeps the guarantee independent of the depth cap.
                if self.rho > 0 and self._side[node] * math.sqrt(self.d) <= leaf_diag:
                    total += self._count[node]
                else:
                    diff = self.pts[self._leaf_pts[node]] - q
                    d2 = np.einsum("ij,ij->i", diff, diff)
                    total += int((d2 <= eps2).sum())
            else:
                stack.extend(kids)
        return total


def approx_depth(rho: float) -> int:
    """Tree depth limit l = 1 + ceil(log2(1/rho)) from §5.2."""
    return 1 + int(math.ceil(math.log2(1.0 / rho)))

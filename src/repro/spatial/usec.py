"""USEC with line separation (§4.4): wavefront of equal-radius circles.

Given two 2D point sets separated by an axis-parallel line — always true for
two distinct grid/box cells in at least one axis — decide whether any
cross-pair is within distance eps.  Following Gan&Tao/Bose et al., we build
the *wavefront*: the upper envelope of the eps-radius circles centered at the
points below the line.  A query point above the line lies within eps of some
center iff its y does not exceed the envelope at its x, which reduces to one
distance check against the envelope arc owning that x.

Equal-radius upper arcs are pseudolines — any two cross at most once — so
each circle contributes at most one contiguous envelope interval and a
monotone stack sweep over centers sorted by x builds the envelope in
O(m log m).  (The paper builds/merges wavefronts with balanced trees for
polylog depth; per-cell-pair point counts are small, so the sequential sweep
per pair — with pairs processed in parallel by Spark — preserves the
work bound, as noted in DESIGN.md.)

All geometry is done in a rotated frame where the "below" set is below a
horizontal line.
"""
from __future__ import annotations

import numpy as np


def _upper_crossing(c1: np.ndarray, c2: np.ndarray, r: float) -> float | None:
    """x of the crossing of the *upper* arcs of equal-radius circles, or None.

    Returns None when the upper arcs do not cross (one dominates wherever
    both are defined).
    """
    dx = c2[0] - c1[0]
    dy = c2[1] - c1[1]
    d2 = dx * dx + dy * dy
    if d2 >= 4.0 * r * r or d2 == 0.0:
        return None
    d = np.sqrt(d2)
    # Circle-circle intersection: midpoint +/- h along the unit perpendicular
    # (-dy, dx) / d, so the point taken with sign s sits s*h*dx/d above the
    # midpoint.  It lies on both upper arcs iff it is at or above both
    # centres, i.e. iff s*h*dx/d >= |dy|/2.  Comparing these offsets, with no
    # slack, keeps nearly coincident centres apart: the lower intersection
    # point of two centres stacked at one x is on the lower arc of the higher
    # circle, so such arcs do not cross and the higher one dominates.
    h = np.sqrt(r * r - d2 / 4.0)
    for s in (1.0, -1.0):
        if s * h * dx >= abs(dy) * d / 2.0:
            return (c1[0] + c2[0]) / 2.0 - s * h * dy / d
    return None


def _upper(c: np.ndarray, x: float, r: float) -> float:
    t = r * r - (x - c[0]) ** 2
    if t < 0:
        return -np.inf
    return c[1] + np.sqrt(t)


class Wavefront:
    """Upper envelope of eps-circles centered at ``centers`` (m, 2)."""

    def __init__(self, centers: np.ndarray, eps: float):
        centers = np.asarray(centers, dtype=np.float64)
        self.eps = float(eps)
        order = np.lexsort((centers[:, 1], centers[:, 0]))
        cs = centers[order]
        r = self.eps
        arcs: list[np.ndarray] = []   # envelope arcs, left to right
        starts: list[float] = []      # x where each arc's interval begins
        for c in cs:
            placed = False
            while arcs:
                t = arcs[-1]
                st = starts[-1]
                if c[0] - r > t[0] + r:
                    # Disjoint x-domains: gap, then c starts fresh.
                    arcs.append(c)
                    starts.append(c[0] - r)
                    placed = True
                    break
                x_cross = _upper_crossing(t, c, r)
                if x_cross is None:
                    # No upper crossing: one dominates the overlap. Compare at
                    # the overlap midpoint.
                    o_lo = max(t[0] - r, c[0] - r)
                    o_hi = min(t[0] + r, c[0] + r)
                    xm = (o_lo + o_hi) / 2.0
                    if _upper(c, xm, r) >= _upper(t, xm, r):
                        # c dominates t wherever both exist; t may keep its
                        # part left of c's domain.
                        if c[0] - r <= st:
                            arcs.pop()
                            starts.pop()
                            continue
                        arcs.append(c)
                        starts.append(c[0] - r)
                    else:
                        # t dominates the overlap; c appears only right of
                        # t's domain end (if its domain extends past it).
                        if c[0] + r > t[0] + r:
                            arcs.append(c)
                            starts.append(t[0] + r)
                        # else c never appears.
                    placed = True
                    break
                if x_cross <= st:
                    # c overtakes t before t even begins: t never shows.
                    arcs.pop()
                    starts.pop()
                    continue
                arcs.append(c)
                starts.append(x_cross)
                placed = True
                break
            if not placed and not arcs:
                arcs.append(c)
                starts.append(c[0] - r)
        self._arcs = np.asarray(arcs) if arcs else np.empty((0, 2))
        self._starts = np.asarray(starts) if starts else np.empty(0)

    def covers(self, q: np.ndarray) -> bool:
        """True iff ``q`` (above the separating line) is within eps of a center."""
        if len(self._arcs) == 0:
            return False
        x = float(q[0])
        i = int(np.searchsorted(self._starts, x, side="right")) - 1
        hits = []
        if 0 <= i < len(self._arcs):
            hits.append(i)
        # Boundary slack: also test the neighbouring arcs to absorb numeric
        # ties at interval endpoints.
        if i + 1 < len(self._arcs):
            hits.append(i + 1)
        if i - 1 >= 0:
            hits.append(i - 1)
        eps2 = self.eps * self.eps
        for j in hits:
            c = self._arcs[j]
            dx = x - c[0]
            dy = float(q[1]) - c[1]
            if dx * dx + dy * dy <= eps2:
                return True
        return False


def separation_axis(a_pts: np.ndarray, b_pts: np.ndarray) -> tuple[int, float] | None:
    """Axis along which the two sets' ranges do not overlap, and direction.

    Returns (axis, sign) where sign = +1 if b is below a on that axis
    (b values < a values), -1 otherwise, or None if the sets overlap on
    every axis (cannot happen for distinct grid cells).
    """
    for ax in range(a_pts.shape[1]):
        if b_pts[:, ax].max() <= a_pts[:, ax].min():
            return ax, 1.0
        if a_pts[:, ax].max() <= b_pts[:, ax].min():
            return ax, -1.0
    return None


def usec_connected(a_pts: np.ndarray, b_pts: np.ndarray, eps: float) -> bool:
    """True iff some pair (a in A, b in B) has distance ≤ eps (2D only).

    Builds the wavefront over the smaller set and queries the larger one.
    Falls back to a vectorised all-pairs check when no separating axis exists
    (overlapping boxes — never the case for distinct cells).
    """
    a_pts = np.asarray(a_pts, dtype=np.float64)
    b_pts = np.asarray(b_pts, dtype=np.float64)
    if len(a_pts) == 0 or len(b_pts) == 0:
        return False
    sep = separation_axis(a_pts, b_pts)
    if sep is None:
        d2 = ((a_pts[:, None, :] - b_pts[None, :, :]) ** 2).sum(axis=2)
        return bool((d2 <= eps * eps).any())
    ax, sign = sep
    other = 1 - ax
    # Rotate into the canonical frame: x = other axis, y = sign * sep axis,
    # so B sits below A.
    a2 = np.stack([a_pts[:, other], sign * a_pts[:, ax]], axis=1)
    b2 = np.stack([b_pts[:, other], sign * b_pts[:, ax]], axis=1)
    if len(b2) > len(a2):
        # Wavefront over the smaller set: flip roles (and the vertical axis).
        a2, b2 = b2 * np.array([1.0, -1.0]), a2 * np.array([1.0, -1.0])
    wf = Wavefront(b2, eps)
    return any(wf.covers(q) for q in a2)

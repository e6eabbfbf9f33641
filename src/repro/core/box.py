"""Box cell construction for 2D DBSCAN (§4.2, Figure 2).

Points are sorted by x and greedily grouped into *strips* of width eps/√2
(a new strip starts when a point is farther than eps/√2 from the strip's
start); each strip is then split the same way on y to form box cells of side
at most eps/√2.  Neighbor boxes are found by merging each strip with strips
s±1, s±2 and comparing bounding boxes (only those strips can hold cells
within eps).

The paper parallelises the strip scan with pointer jumping; this
reproduction runs the equivalent sequential scan with numpy on the driver —
box construction is a tiny fraction of the runtime and the scan output is
identical by the paper's own argument (§4.2).  ``build_cells`` returns the
boxes as the ``CellTable`` shared with grid cells (``repro.core.grid``): a
box cell is its box index, and its quadtree root is the square at its low
corner that encloses it.
"""
from __future__ import annotations

import math

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame

from repro.core.cellkernel import CellTable


def strip_starts_scan(sorted_vals: np.ndarray, width: float) -> np.ndarray:
    """Boolean mask: element i starts a new strip.

    ``sorted_vals`` must be ascending.  Matches the sequential rule: a strip
    begins at the first value more than ``width`` beyond the current strip's
    start.
    """
    n = len(sorted_vals)
    mask = np.zeros(n, dtype=bool)
    if n == 0:
        return mask
    mask[0] = True
    start = sorted_vals[0]
    for i in range(1, n):
        if sorted_vals[i] - start > width:
            mask[i] = True
            start = sorted_vals[i]
    return mask


def box_cells(points: np.ndarray, eps: float) -> tuple[np.ndarray, pd.DataFrame]:
    """Assign 2D points to box cells.

    Returns
    -------
    labels : (n,) int array — box cell index per point.
    boxes  : DataFrame with per-box bounds (x_lo, x_hi, y_lo, y_hi), strip
             index, point count, and the square quadtree root (lo0, lo1,
             side) that encloses the box.
    """
    points = np.asarray(points, dtype=np.float64)
    n = len(points)
    width = eps / math.sqrt(2.0)
    labels = np.full(n, -1, dtype=np.int64)
    rows = []
    if n == 0:
        return labels, pd.DataFrame(
            columns=["box", "strip", "x_lo", "x_hi", "y_lo", "y_hi", "cnt", "lo0", "lo1", "side"]
        )
    order_x = np.argsort(points[:, 0], kind="stable")
    xs = points[order_x, 0]
    strip_mask = strip_starts_scan(xs, width)
    strip_of = np.cumsum(strip_mask) - 1
    n_strips = strip_of[-1] + 1
    box_id = 0
    for s in range(n_strips):
        in_strip = order_x[strip_of == s]
        ys = points[in_strip, 1]
        order_y = np.argsort(ys, kind="stable")
        members = in_strip[order_y]
        ys_sorted = ys[order_y]
        b_mask = strip_starts_scan(ys_sorted, width)
        b_of = np.cumsum(b_mask) - 1
        for b in range(b_of[-1] + 1):
            mem = members[b_of == b]
            labels[mem] = box_id
            px = points[mem]
            x_lo, y_lo = px.min(axis=0)
            x_hi, y_hi = px.max(axis=0)
            side = max(x_hi - x_lo, y_hi - y_lo, 1e-12)
            rows.append(
                dict(
                    box=box_id, strip=s, x_lo=x_lo, x_hi=x_hi, y_lo=y_lo, y_hi=y_hi,
                    cnt=len(mem), lo0=x_lo, lo1=y_lo, side=side,
                )
            )
            box_id += 1
    return labels, pd.DataFrame(rows)


def box_neighbor_pairs(boxes: pd.DataFrame, eps: float) -> pd.DataFrame:
    """Neighbor pairs among box cells: bounding-box gap ≤ eps.

    Following §4.2, each strip is merged only with strips s-2..s+2 — the only
    strips whose cells can contain points within eps — and box y-intervals
    are compared vectorised per strip pair.
    """
    if len(boxes) == 0:
        return pd.DataFrame({"cell": pd.Series(dtype="int64"), "ncell": pd.Series(dtype="int64")})
    eps2 = eps * eps
    by_strip = {s: g for s, g in boxes.groupby("strip")}
    src, dst = [], []
    for s, ga in by_strip.items():
        for t in range(s, s + 3):
            if t not in by_strip:
                continue
            gb = by_strip[t]
            a_xlo = ga["x_lo"].to_numpy()[:, None]
            a_xhi = ga["x_hi"].to_numpy()[:, None]
            a_ylo = ga["y_lo"].to_numpy()[:, None]
            a_yhi = ga["y_hi"].to_numpy()[:, None]
            b_xlo = gb["x_lo"].to_numpy()[None, :]
            b_xhi = gb["x_hi"].to_numpy()[None, :]
            b_ylo = gb["y_lo"].to_numpy()[None, :]
            b_yhi = gb["y_hi"].to_numpy()[None, :]
            gx = np.maximum(np.maximum(a_xlo - b_xhi, b_xlo - a_xhi), 0.0)
            gy = np.maximum(np.maximum(a_ylo - b_yhi, b_ylo - a_yhi), 0.0)
            close = gx * gx + gy * gy <= eps2
            ia, ib = np.nonzero(close)
            ba = ga["box"].to_numpy()[ia]
            bb = gb["box"].to_numpy()[ib]
            keep = ba != bb
            src.extend(ba[keep].tolist())
            dst.extend(bb[keep].tolist())
    pairs = pd.DataFrame({"cell": src, "ncell": dst}, dtype="int64")
    # Both directions, as the grid neighbor table provides.
    return pd.concat(
        [pairs, pairs.rename(columns={"cell": "ncell", "ncell": "cell"})], ignore_index=True
    ).drop_duplicates(ignore_index=True)


def build_cells(points: DataFrame, eps: float, d: int) -> tuple[DataFrame, CellTable]:
    """Box cells (2D only): (pts_cells, cells), ``pts_cells`` being
    (id, x0, x1, cell).

    The points are collected to build the boxes, and ``pts_cells`` is made
    from that driver copy.  A NaN, infinite or null coordinate raises
    ValueError.
    """
    if d != 2:
        raise ValueError("box construction is 2D only")
    spark = points.sparkSession
    xc = ["x0", "x1"]
    pdf = points.select("id", *xc).toPandas().sort_values("id")
    xy = pdf[xc].to_numpy()
    if not np.isfinite(xy).all():
        raise ValueError("point coordinates must be finite, found NaN, ±inf or null")
    labels, boxes = box_cells(xy, eps)
    pts_cells = spark.createDataFrame(
        pdf.assign(cell=labels), "id long, x0 double, x1 double, cell long"
    )
    table = boxes[["box", "cnt", "lo0", "lo1", "side"]].rename(columns={"box": "cell"})
    return pts_cells, CellTable(table, box_neighbor_pairs(boxes, eps))

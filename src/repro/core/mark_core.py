"""Parallel MarkCore (Algorithm 2) on Spark DataFrames.

Dense cells (≥ minPts points) mark all their points core directly — any two
points in a cell are within eps.  Points of sparse cells count neighbors:
their own cell's full count plus a RangeCount against each neighboring cell.

Both counts come from the cell table: the driver copy says whether any
sparse cell exists at all, the Spark copy gives each point its cell's count.
The RangeCount fan-out is the shared per-target-cell kernel
(``cellkernel.per_target_cell``); MarkCore's per-cell test is a vectorised
scan (our-exact) or a per-cell quadtree rooted at the cell's box
(our-exact-qt, §5.2).
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.core.cellkernel import CellTable, count_within, per_target_cell
from repro.core.grid import xcols
from repro.spatial.quadtree import QuadTree


def _range_count(eps: float, use_quadtree: bool):
    """Per-cell test: each query's count of the target cell's points within eps."""

    def test(key, q, p, box):
        if use_quadtree and len(p) > 32:
            qt = QuadTree(p, box[:-1], float(box[-1]))
            cnt = np.fromiter((qt.range_count(row, eps) for row in q), dtype=np.int64, count=len(q))
        else:
            cnt = count_within(q, p, eps)
        return key, cnt

    return test


def mark_core(
    spark,
    pts_cells: DataFrame,
    d: int,
    eps: float,
    min_pts: int,
    npairs: pd.DataFrame,
    cells: CellTable,
    use_quadtree: bool = False,
) -> DataFrame:
    """Return DataFrame (id, is_core) for all points.

    Parameters
    ----------
    pts_cells : points with ``cell`` key (id, x*, cell).
    npairs    : driver neighbor-pair table (cell, ncell), both directions.
    cells     : the call's cell table (count and quadtree root box per cell).
    """
    xc = xcols(d)
    if (cells.pdf["cnt"] >= min_pts).all():  # no sparse cell: every point is core
        return pts_cells.select("id", F.lit(True).alias("is_core"))

    pts = pts_cells.select("id", *xc, "cell").join(cells.df, "cell")
    core_dense = pts.where(F.col("cnt") >= min_pts).select("id", F.lit(True).alias("is_core"))
    sparse = pts.where(F.col("cnt") < min_pts)
    counts = sparse.select(F.col("id").alias("key"), F.col("cnt").alias("value"))
    if len(npairs):
        queries = sparse.join(spark.createDataFrame(npairs), "cell").select(
            F.col("id").alias("key"), F.col("ncell").alias("tcell"), *xc
        )
        targets = pts.select("cell", *xc, *[f"lo{j}" for j in range(d)], "side")
        counts = counts.unionByName(
            per_target_cell(queries, targets, d, _range_count(eps, use_quadtree))
        )
    total = counts.groupBy("key").agg(F.sum("value").alias("total"))
    core_sparse = total.select(
        F.col("key").alias("id"), (F.col("total") >= min_pts).alias("is_core")
    )
    return core_dense.unionByName(core_sparse)

"""Parallel MarkCore (Algorithm 2) on Spark DataFrames.

Dense cells (≥ minPts points) mark all their points core directly — any two
points in a cell are within eps.  Points of sparse cells count neighbors:
their own cell's full count plus a RangeCount against each neighboring cell.

The result is the call's one per-point frame ``(id, cell, x*, is_core)``;
ClusterCore and ClusterBorder read their points from it as filters.  Both
counts come from the cell table: when the driver copy holds no sparse cell,
every point is core, the flag is a literal column and the core count of a
cell is its point count, with no Spark job.  Otherwise the broadcast copy
gives each point its cell's count, and one left id-join brings the sparse
points' totals back (a union of dense and sparse rows would double the
partitions that every later phase scans); the frame is cached, and the
per-cell core counts, an array indexed by cell, are the aggregation whose
job fills that cache.  The
RangeCount fan-out is the shared per-target-cell kernel
(``cellkernel.per_target_cell``); MarkCore's per-cell test is a vectorised
scan (our-exact) or a per-cell quadtree rooted at the cell's box
(our-exact-qt, §5.2).
"""
from __future__ import annotations

import numpy as np
from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.core.cellkernel import CellTable, count_within, driver_table, per_target_cell
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
    cells: CellTable,
    use_quadtree: bool = False,
) -> tuple[DataFrame, np.ndarray]:
    """Return the per-point frame (id, cell, x0..x{d-1}, is_core) and
    ``core_cnt``, each cell's number of core points (an array indexed by cell).

    When some cell is sparse the frame is cached; the caller unpersists it.

    Parameters
    ----------
    pts_cells : points with their cell (id, x*, cell).
    cells     : the call's cell table (count, quadtree root box and
                neighbour pairs of each cell).
    """
    xc = xcols(d)
    base = pts_cells.select("id", "cell", *xc)
    cnt = cells.pdf["cnt"].to_numpy(dtype=np.int64)
    if (cnt >= min_pts).all():  # no sparse cell: every point is core
        return base.withColumn("is_core", F.lit(True)), cnt

    pts = base.join(cells.df, "cell")
    sparse = pts.where(F.col("cnt") < min_pts)
    counts = sparse.select(F.col("id").alias("key"), F.col("cnt").alias("value"))
    if len(cells.pairs):
        queries = sparse.join(driver_table(spark, cells.pairs, "cell long, ncell long"), "cell")
        queries = queries.select(F.col("id").alias("key"), F.col("ncell").alias("tcell"), *xc)
        targets = pts.select("cell", *xc, *[f"lo{j}" for j in range(d)], "side")
        counts = counts.unionByName(
            per_target_cell(queries, targets, d, _range_count(eps, use_quadtree))
        )
    total = counts.groupBy(F.col("key").alias("id")).agg(F.sum("value").alias("total"))
    # Dense rows have no total; True OR NULL is True.
    is_core = (F.col("cnt") >= min_pts) | (F.col("total") >= min_pts)
    flagged = pts.join(total, "id", "left").select(*base.columns, is_core.alias("is_core")).cache()
    per_cell = (
        flagged.groupBy("cell").agg(F.sum(F.col("is_core").cast("long")).alias("core_cnt"))
        .toPandas()
    )
    core_cnt = np.zeros(len(cnt), dtype=np.int64)
    core_cnt[per_cell["cell"].to_numpy()] = per_cell["core_cnt"].to_numpy()
    return flagged, core_cnt

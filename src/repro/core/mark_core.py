"""Parallel MarkCore (Algorithm 2) on Spark DataFrames.

Dense cells (≥ minPts points) mark all their points core directly — any two
points in a cell are within eps.  Points of sparse cells count neighbors by
distance: one RangeCount over their cell and its neighboring cells at once.

The result is the call's one per-point frame ``(id, cell, x*, is_core)``;
ClusterCore's block pass reads its points from it, and ClusterBorder labels
them.  Both counts come from the cell table: when it holds no sparse cell,
every point is core, the flag is a literal column and the core count of a
cell is its point count, with no Spark job.  Otherwise the frame is the
output of the shared per-block kernel (``cellkernel.per_block``), blocks
weighted by point count: each block reads its own cells plus, for each
sparse cell, its neighbour cells, and returns its own points with their
flags.  The frame is cached, and the per-cell core counts, an array indexed by cell, are the
aggregation whose job fills that cache.  A sparse cell's RangeCount is one
vectorised scan of the neighbourhood's points concatenated (our-exact).
our-exact-qt (§5.2) takes each neighboring cell of more than 32 points out
of the scan and counts it with a quadtree rooted at that cell's box, built
once per cell in a block; its own cell is always scanned, by distance.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.core.cellkernel import CellTable, blocks, count_within, per_block
from repro.core.grid import xcols
from repro.spatial.quadtree import QuadTree


def _mark_block(cells: CellTable, d: int, eps: float, min_pts: int, use_quadtree: bool):
    """Per-block kernel: the block's own points with their core flags."""
    xc = xcols(d)
    cnt = cells.pdf["cnt"].to_numpy(dtype=np.int64)
    boxes = cells.pdf[[f"lo{j}" for j in range(d)] + ["side"]].to_numpy(dtype=np.float64)
    start, nbr = cells.neighbours()

    def fn(_b: int, pdf: pd.DataFrame) -> pd.DataFrame:
        x = pdf[xc].to_numpy(dtype=np.float64)
        by_cell = pdf.groupby("cell", sort=False).indices
        trees: dict[int, QuadTree] = {}

        def tree_count(q: np.ndarray, h: int) -> np.ndarray:
            if h not in trees:
                trees[h] = QuadTree(x[by_cell[h]], boxes[h, :-1], float(boxes[h, -1]))
            return np.fromiter((trees[h].range_count(r, eps) for r in q), np.int64, len(q))

        home = pdf["home"].to_numpy()
        is_core = np.ones(len(pdf), dtype=bool)
        for g in np.unique(pdf["cell"].to_numpy()[home]):
            if cnt[g] >= min_pts:
                continue
            own, hood = by_cell[g], nbr[start[g] : start[g + 1]]
            treed = use_quadtree & (hood != g) & (cnt[hood] > 32)
            total = count_within(x[own], x[np.concatenate([by_cell[h] for h in hood[~treed]])], eps)
            for h in hood[treed]:
                total += tree_count(x[own], h)
            is_core[own] = total >= min_pts
        return pdf.loc[home, ["id", "cell", *xc]].assign(is_core=is_core[home])

    return fn


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

    block = blocks(spark, cnt)
    g, h = cells.pairs["cell"].to_numpy(), cells.pairs["ncell"].to_numpy()
    sparse = cnt[g] < min_pts
    need = pd.DataFrame({
        "cell": np.concatenate([np.arange(len(cnt)), h[sparse]]),
        "block": np.concatenate([block, block[g[sparse]]]),
    })
    schema = ", ".join(["id long", "cell long", *[f"{x} double" for x in xc], "is_core boolean"])
    flagged = per_block(
        spark, base, need, block, _mark_block(cells, d, eps, min_pts, use_quadtree), schema
    ).cache()
    per_cell = (
        flagged.groupBy("cell").agg(F.sum(F.col("is_core").cast("long")).alias("core_cnt"))
        .toPandas()
    )
    core_cnt = np.zeros(len(cnt), dtype=np.int64)
    core_cnt[per_cell["cell"].to_numpy()] = per_cell["core_cnt"].to_numpy()
    return flagged, core_cnt

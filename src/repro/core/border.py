"""Parallel ClusterBorder (Algorithm 4) on Spark DataFrames; labels every point.

Core points take their cell's cluster through one join with the small
``(cell, cluster)`` table of the core cells.  A non-core point p checks the
core points of its own cell and of each neighboring cell; for each such cell
with a core point within eps, p joins that cell's cluster.  Border points can
belong to several clusters (§2), so the result is a per-point set of labels.

The driver picks the cell pairs from the cell table and the per-cell core
counts: each cell holding a non-core point (``cnt > core_cnt``) is paired
with itself and its neighbors, and a pair is kept only when its target holds
core points.  Only those pairs
meet in the shared per-target-cell kernel (``cellkernel.per_target_cell``),
whose per-cell test is a vectorised any-within-eps scan yielding (point,
cluster) pairs, deduplicated by a shuffle ``collect_set``.  With no pair,
no border check runs and every non-core point is noise.  The labels, the
pairs and their target cells reach the points by broadcast; the one join
that shuffles is the id-join that brings the border labels back.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.core.cellkernel import CellTable, count_within, driver_table, per_target_cell
from repro.core.grid import xcols


def _border_check(eps: float):
    """Per-cell test: queries with a core point of the cell within eps get
    the cell's cluster."""

    def test(key, q, p, cluster):
        hit = count_within(q, p, eps) > 0
        return key[hit], np.full(int(hit.sum()), cluster[0], dtype=np.int64)

    return test


def _border_pairs(cells: CellTable, core_cnt: np.ndarray) -> pd.DataFrame:
    """Driver table (cell, tcell): each cell holding a non-core point, paired
    with itself and its neighbors that hold core points."""
    has_noncore = cells.pdf["cnt"].to_numpy() > core_cnt
    own = np.flatnonzero(has_noncore)
    g, h = cells.pairs["cell"].to_numpy(), cells.pairs["ncell"].to_numpy()
    nbr = has_noncore[g]
    pairs = pd.DataFrame({"cell": np.concatenate([own, g[nbr]]),
                          "tcell": np.concatenate([own, h[nbr]])})
    return pairs[core_cnt[pairs["tcell"].to_numpy()] > 0]


def cluster_border(
    spark,
    flagged: DataFrame,
    cells: CellTable,
    core_cnt: np.ndarray,
    cluster: np.ndarray,
    d: int,
    eps: float,
) -> DataFrame:
    """Label every point: DataFrame (id, is_core, clusters array<long>).

    Parameters
    ----------
    flagged  : the per-point frame (id, cell, x*, is_core) from MarkCore.
    cells    : the call's cell table (point count and neighbour pairs).
    core_cnt : each cell's number of core points, indexed by cell.
    cluster  : each core cell's cluster label, indexed by cell.

    Noise points get an empty array.
    """
    noise = F.array().cast("array<long>")
    noncore = flagged.where(~F.col("is_core"))
    core_cells = np.flatnonzero(core_cnt)
    if not len(core_cells):  # no core point: every point is noise
        return noncore.select("id", "is_core", noise.alias("clusters"))
    lbl = pd.DataFrame({"cell": core_cells, "cluster": cluster[core_cells]})
    core = flagged.where("is_core").join(
        driver_table(spark, lbl, "cell long, cluster long"), "cell"
    )
    pairs = _border_pairs(cells, core_cnt)
    if len(pairs):
        xc = xcols(d)
        tcells = driver_table(spark, pairs[["tcell"]].drop_duplicates(), "cell long")
        border = per_target_cell(
            noncore.join(driver_table(spark, pairs, "cell long, tcell long"), "cell")
            .select(F.col("id").alias("key"), "tcell", *xc),
            core.join(tcells, "cell").select("cell", *xc, "cluster"),
            d,
            _border_check(eps),
        ).groupBy(F.col("key").alias("id")).agg(
            F.array_sort(F.collect_set("value")).alias("clusters")
        )
        noncore = noncore.join(border, "id", "left").withColumn(
            "clusters", F.coalesce("clusters", noise)
        )
    else:
        noncore = noncore.withColumn("clusters", noise)
    core = core.select("id", "is_core", F.array("cluster").alias("clusters"))
    return core.unionByName(noncore.select("id", "is_core", "clusters"))

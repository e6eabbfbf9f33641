"""Parallel ClusterBorder (Algorithm 4) on Spark DataFrames.

Every non-core point p (necessarily in a sparse cell) checks the core points
of its own cell and of each neighboring cell; for each such cell with a core
point within eps, p joins that cell's cluster.  Border points can belong to
several clusters (§2), so the result is a per-point set of cluster labels.

The check is the shared per-target-cell kernel
(``cellkernel.per_target_cell``): queries aimed at a cell meet that cell's
core points — which all share one cluster label, cells being the cell-graph
vertices — and the per-cell test is a vectorised any-within-eps scan that
yields (point, cluster) pairs, deduplicated by a shuffle ``collect_set``.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.core.cellkernel import count_within, per_target_cell
from repro.core.grid import xcols


def _border_check(eps: float):
    """Per-cell test: queries with a core point of the cell within eps get
    the cell's cluster."""

    def test(key, q, p, cluster):
        hit = count_within(q, p, eps) > 0
        return key[hit], np.full(int(hit.sum()), cluster[0], dtype=np.int64)

    return test


def cluster_border(
    spark,
    pts_cells: DataFrame,
    core_flags: DataFrame,
    core_clustered: DataFrame,
    d: int,
    eps: float,
    npairs: pd.DataFrame,
) -> DataFrame:
    """Assign cluster sets to border points.

    Parameters
    ----------
    pts_cells      : all points with cells (id, x*, cell).
    core_flags     : (id, is_core).
    core_clustered : core points with labels (id, cell, x*, cluster).

    Returns
    -------
    DataFrame (id, clusters array<long>) for non-core points that belong to
    at least one cluster (border points). Noise points are absent.
    """
    xc = xcols(d)
    noncore = pts_cells.join(core_flags.where(~F.col("is_core")).select("id"), "id").select(
        F.col("id").alias("key"), "cell", *xc
    )
    # Targets: own cell plus neighbors.
    queries = noncore.withColumnRenamed("cell", "tcell")
    if len(npairs):
        queries = queries.unionByName(
            noncore.join(spark.createDataFrame(npairs), "cell").select(
                "key", F.col("ncell").alias("tcell"), *xc
            )
        )
    targets = core_clustered.select("cell", *xc, "cluster")
    pairs = per_target_cell(queries, targets, d, _border_check(eps))
    return pairs.groupBy("key").agg(
        F.array_sort(F.collect_set("value")).alias("clusters")
    ).withColumnRenamed("key", "id")

"""Parallel ClusterBorder (Algorithm 4) on Spark DataFrames; labels every point.

A non-core point joins the cluster of each cell that holds a core point
within eps of it, so a border point may carry several labels (§2).  Those
cells, the point's *links*, come with its core flag from the call's one
block pass (``cellgraph.build_cell_graph``), so border runs no kernel: it
maps cells to clusters in JVM joins with the small broadcast ``(cell,
cluster)`` table of the core cells.  A core point takes its cell's cluster;
a non-core point's links are exploded, left-joined with the table and
collected back into a sorted set of labels (empty for noise).
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.core.cellgraph import POINT
from repro.core.cellkernel import driver_table


def cluster_border(
    spark, points: DataFrame, cluster: np.ndarray, rows: DataFrame | None
) -> DataFrame:
    """Label every point: DataFrame (id, is_core, clusters array<long>).

    Parameters
    ----------
    points  : the per-point frame (id, cell, ...); read only when ``rows``
              is None, and then every point is core.
    cluster : each core cell's cluster label, indexed by cell (-1 elsewhere).
    rows    : the block pass of ``build_cell_graph``, whose POINT rows give
              each point its core flag and, if it is not core, its cells
              with a core point within eps; None when no cell is sparse.

    Noise points get an empty array.
    """
    if rows is None:
        flagged = points.withColumn("is_core", F.lit(True))
    else:
        flagged = rows.where(F.col("kind") == POINT)
    core_cells = np.flatnonzero(cluster >= 0)
    if not len(core_cells):  # no core point: every point is noise
        return flagged.select("id", "is_core", F.array().cast("array<long>").alias("clusters"))
    lbl = pd.DataFrame({"cell": core_cells, "cluster": cluster[core_cells]})
    lbl = driver_table(spark, lbl, "cell long, cluster long")
    core = flagged.where("is_core").join(lbl, "cell")
    core = core.select("id", "is_core", F.array("cluster").alias("clusters"))
    if rows is None:
        return core
    noncore = (
        flagged.where(~F.col("is_core"))
        .select("id", F.explode_outer("cells").alias("cell"))
        .join(lbl, "cell", "left")
        .groupBy("id")
        .agg(F.array_sort(F.collect_set("cluster")).alias("clusters"))
    )
    return core.unionByName(noncore.select("id", F.lit(False).alias("is_core"), "clusters"))

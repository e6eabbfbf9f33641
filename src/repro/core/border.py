"""Parallel ClusterBorder (Algorithm 4) on Spark DataFrames; labels every point.

A non-core point joins the cluster of each cell that holds a core point
within eps of it, so a border point may carry several labels (§2).  Those
cells, the point's *links*, come from ClusterCore's block pass
(``cellgraph.build_cell_graph``), so border runs no kernel: it maps cells to
clusters in JVM joins with the small broadcast ``(cell, cluster)`` table of
the core cells.  A core point takes its cell's cluster; a non-core point's
links are exploded, left-joined with the table and collected back into a
sorted set of labels (empty for noise).
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.core.cellkernel import driver_table


def cluster_border(
    spark, flagged: DataFrame, cluster: np.ndarray, links: DataFrame | None
) -> DataFrame:
    """Label every point: DataFrame (id, is_core, clusters array<long>).

    Parameters
    ----------
    flagged : the per-point frame (id, cell, x*, is_core) from MarkCore.
    cluster : each core cell's cluster label, indexed by cell (-1 elsewhere).
    links   : the block pass of ``build_cell_graph``, whose link rows
              give each non-core point its core cells within eps;
              None when there is no non-core point.

    Noise points get an empty array.
    """
    core_cells = np.flatnonzero(cluster >= 0)
    if not len(core_cells):  # no core point: every point is noise
        return flagged.select("id", "is_core", F.array().cast("array<long>").alias("clusters"))
    lbl = pd.DataFrame({"cell": core_cells, "cluster": cluster[core_cells]})
    lbl = driver_table(spark, lbl, "cell long, cluster long")
    core = flagged.where("is_core").join(lbl, "cell")
    core = core.select("id", "is_core", F.array("cluster").alias("clusters"))
    if links is None:
        return core
    noncore = (
        links.where(~F.col("edge"))
        .select("id", F.explode_outer("cells").alias("cell"))
        .join(lbl, "cell", "left")
        .groupBy("id")
        .agg(F.array_sort(F.collect_set("cluster")).alias("clusters"))
    )
    return core.unionByName(noncore.select("id", F.lit(False).alias("is_core"), "clusters"))

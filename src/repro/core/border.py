"""Parallel ClusterBorder (Algorithm 4) on Spark DataFrames; labels every point.

Core points take their cell's cluster through one broadcast join with the
small ``(cell, cluster)`` table of the core cells.  A non-core point p
checks the core points of its own cell and of each neighboring cell; for
each such cell with a core point within eps, p joins that cell's cluster.
Border points can belong to several clusters (§2), so the result is a
per-point set of labels.

Non-core points are labelled by the shared per-block kernel
(``cellkernel.per_block``), blocks weighted by non-core count
(``cnt - core_cnt``): each block reads its own cells that hold a non-core
point plus their neighbours that hold core points.  For each own cell it
makes one ``pairs_within`` block of the cell's non-core points against the
core points of its closed neighbourhood, and one ``np.unique`` over the
block's (point, cluster) pairs gives each own non-core point the sorted,
deduplicated labels of the core points within eps (empty for noise).  The
result is the core rows followed by those rows; with no non-core point it is
the core rows alone, and with no core point every point is noise and no
kernel runs.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.core.cellkernel import CellTable, blocks, driver_table, pairs_within, per_block
from repro.core.grid import xcols


def _border_block(cells: CellTable, core_cnt: np.ndarray, cluster: np.ndarray, d: int, eps: float):
    """Per-block kernel: the block's own non-core points with their labels."""
    xc = xcols(d)
    start, nbr = cells.neighbours()

    def fn(_b: int, pdf: pd.DataFrame) -> pd.DataFrame:
        x = pdf[xc].to_numpy(dtype=np.float64)
        core = pdf["is_core"].to_numpy()
        cell = pdf["cell"].to_numpy()
        by_cell = pdf.groupby("cell", sort=False).indices
        mine = np.flatnonzero(pdf["home"].to_numpy() & ~core)
        rows, labels = [np.empty(0, dtype=np.int64)], [np.empty(0, dtype=np.int64)]
        for g in np.unique(cell[mine]):
            hood = nbr[start[g] : start[g + 1]]
            hood = hood[core_cnt[hood] > 0]
            if not len(hood):
                continue
            q = by_cell[g][~core[by_cell[g]]]
            p = np.concatenate([by_cell[t] for t in hood])
            p = p[core[p]]
            i, j = pairs_within(x[q], x[p], eps)
            rows.append(q[i])
            labels.append(cluster[cell[p[j]]])
        # (row, label) pairs sorted by row, then label, each once
        row, label = np.unique(np.stack([np.concatenate(rows), np.concatenate(labels)]), axis=1)
        lo, hi = np.searchsorted(row, mine), np.searchsorted(row, mine, side="right")
        return pd.DataFrame({
            "id": pdf["id"].to_numpy()[mine],
            "is_core": False,
            "clusters": [label[a:b].tolist() for a, b in zip(lo, hi)],
        })

    return fn


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
    core_cells = np.flatnonzero(core_cnt)
    if not len(core_cells):  # no core point: every point is noise
        return flagged.select("id", "is_core", F.array().cast("array<long>").alias("clusters"))
    lbl = pd.DataFrame({"cell": core_cells, "cluster": cluster[core_cells]})
    core = flagged.where("is_core").join(
        driver_table(spark, lbl, "cell long, cluster long"), "cell"
    ).select("id", "is_core", F.array("cluster").alias("clusters"))
    noncore = cells.pdf["cnt"].to_numpy() - core_cnt
    own = np.flatnonzero(noncore)
    if not len(own):  # no non-core point
        return core
    block = blocks(spark, noncore)
    g, h = cells.pairs["cell"].to_numpy(), cells.pairs["ncell"].to_numpy()
    halo = (noncore[g] > 0) & (core_cnt[h] > 0)
    need = pd.DataFrame({
        "cell": np.concatenate([own, h[halo]]),
        "block": np.concatenate([block[own], block[g[halo]]]),
    })
    rows = flagged.select("id", "cell", *xcols(d), "is_core")
    fn = _border_block(cells, core_cnt, cluster, d, eps)
    schema = "id long, is_core boolean, clusters array<long>"
    return core.unionByName(per_block(spark, rows, need, block, fn, schema))

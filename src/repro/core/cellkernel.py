"""The cell table and the one per-block kernel of Algorithms 2, 3 and 4.

Every phase after cell construction does the same thing: for a cell, query
the points of its neighbouring cells — RangeCount in MarkCore (Alg. 2),
cell-pair connectivity in ClusterCore (Alg. 3), the border check in
ClusterBorder (Alg. 4); this is the grid framework of Gan & Tao
(SIGMOD 2015).  In the paper each cell reads its neighbours from shared
memory; here, as in HPDBSCAN (Götz et al., MLHPC 2015) and RP-DBSCAN
(Song & Lee, SIGMOD 2018), a worker gets a run of cells plus the halo of
neighbour cells it reads.

``blocks`` cuts the cells into ``spark.sql.shuffle.partitions`` blocks, runs
of consecutive cell numbers of about equal weight (cells are numbered in
coordinate order for grid and strip order for box, so a run is spatially
compact).  ``per_block`` ships each block the rows of the cells it lists in
a driver table ``need`` — its own (home) cells and the halo cells it reads —
and runs the phase's ``fn`` once per block in one ``applyInPandas``; ``fn``
returns the phase's output rows directly, so no phase aggregates by key or
joins its answer back to the points.  Per-cell facts (counts, core counts,
cluster labels, root boxes, neighbour lists) reach ``fn`` as numpy arrays
indexed by cell in its closure.

``CellTable`` is the contract shared by grid (§4.1) and box (§4.2) cells:
the driver table of non-empty cells — the stand-in for the paper's parallel
hash table — and the neighbour pairs.  A cell is its row in that table, an
integer ``0..m-1`` (``long`` in every Spark schema).

Every cell-scale driver table (the grid's cell numbers, a ``need`` table,
cluster labels) enters Spark through ``driver_table`` as a broadcast: the
paper's threads read its cell hash table from shared memory, and here every
task reads a broadcast copy, so a join of such a table with a point-scale
frame shuffles neither side.  The sessions keep
``autoBroadcastJoinThreshold=-1``, so Spark never broadcasts a point-scale
frame on its own; no join in a call shuffles.
"""
from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F


class CellTable(NamedTuple):
    """The non-empty cells of one call.

    ``pdf`` is the driver table ``cell, cnt, lo0..lo{d-1}, side`` with
    ``cell`` equal to the row number: point count and the square quadtree
    root box of each cell (grid cells also keep their integer coordinates
    ``c*``).  ``pairs`` is the driver table ``(cell, ncell)`` of
    neighbouring cells: both directions, no self-pair.
    """

    pdf: pd.DataFrame
    pairs: pd.DataFrame

    def neighbours(self) -> tuple[np.ndarray, np.ndarray]:
        """Neighbour lists in CSR form ``(start, nbr)``: the neighbours of
        cell ``c`` are ``nbr[start[c]:start[c + 1]]``, in ascending order."""
        g, h = self.pairs["cell"].to_numpy(), self.pairs["ncell"].to_numpy()
        order = np.lexsort((h, g))
        start = np.searchsorted(g[order], np.arange(len(self.pdf) + 1))
        return start, h[order]


def driver_table(spark: SparkSession, pdf: pd.DataFrame, schema: str) -> DataFrame:
    """A cell-scale driver table as a broadcast-hinted Spark DataFrame."""
    return F.broadcast(spark.createDataFrame(pdf, schema))


def count_within(q: np.ndarray, p: np.ndarray, eps: float) -> np.ndarray:
    """For each row of ``q``, the number of rows of ``p`` within ``eps``
    (inclusive), by a blocked vectorised scan."""
    eps2 = eps * eps
    cnt = np.zeros(len(q), dtype=np.int64)
    block = max(1, (1 << 22) // max(len(p), 1))
    for i in range(0, len(q), block):
        d2 = ((q[i : i + block, None, :] - p[None, :, :]) ** 2).sum(axis=2)
        cnt[i : i + block] = (d2 <= eps2).sum(axis=1)
    return cnt


def blocks(spark: SparkSession, weight: np.ndarray) -> np.ndarray:
    """Each cell's block, an array indexed by cell.

    The cumulative ``weight`` is cut into ``k = spark.sql.shuffle.partitions``
    runs: a cell goes to the block its weight starts in, so blocks are
    non-decreasing over cells, lie in ``[0, k)`` and each weighs at most
    ``W/k + max(weight)``.  Zero total weight gives block 0 everywhere.
    """
    k = int(spark.conf.get("spark.sql.shuffle.partitions"))
    weight = np.asarray(weight, dtype=np.int64)
    total = int(weight.sum())
    if total == 0:
        return np.zeros(len(weight), dtype=np.int64)
    start = np.cumsum(weight) - weight
    return np.minimum(start * k // total, k - 1)


def per_block(
    spark: SparkSession,
    rows: DataFrame,
    need: pd.DataFrame,
    block: np.ndarray,
    fn: Callable[[int, pd.DataFrame], pd.DataFrame],
    schema: str,
) -> DataFrame:
    """Run ``fn(b, pdf)`` once per block ``b``; returns its rows as ``schema``.

    Parameters
    ----------
    rows  : a frame with a ``cell`` column; a row reaches every block that
            ``need`` lists for its cell.
    need  : driver table ``(cell, block)`` of the cells each block reads;
            duplicates are dropped.
    block : each cell's own block (``blocks``), an array indexed by cell.

    ``pdf`` holds the rows shipped to ``b`` with two more columns, ``block``
    and ``home`` (true for the rows of ``b``'s own cells, false for its halo).
    A block that no row reaches does not run.
    """
    need = need[["cell", "block"]].drop_duplicates()
    need = need.assign(home=block[need["cell"].to_numpy()] == need["block"].to_numpy())
    shipped = rows.join(driver_table(spark, need, "cell long, block long, home boolean"), "cell")
    return shipped.groupBy("block").applyInPandas(
        lambda pdf: fn(int(pdf["block"].iat[0]), pdf), schema
    )

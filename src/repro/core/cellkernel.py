"""The cell table and the one per-block kernel of Algorithms 2, 3 and 4.

Every phase after cell construction does the same thing: for a cell, query
the points of its neighbouring cells — RangeCount in MarkCore (Alg. 2),
cell-pair connectivity in ClusterCore (Alg. 3), the border check of
ClusterBorder (Alg. 4); this is the grid framework of Gan & Tao
(SIGMOD 2015).  In the paper each cell reads its neighbours from shared
memory; here, as in HPDBSCAN (Götz et al., MLHPC 2015) and RP-DBSCAN
(Song & Lee, SIGMOD 2018), a worker gets a run of cells plus the halo of
neighbour cells it reads.  A call runs the kernel once: one pass does
MarkCore, ClusterCore and the border check over a two-cell halo
(``cellgraph``; MarkCore and ClusterBorder run no kernel of their own).

``blocks`` cuts the cells into ``spark.sql.shuffle.partitions`` blocks, runs
of consecutive cell numbers of about equal weight (cells are numbered in
coordinate order for grid and strip order for box, so a run is spatially
compact).  ``per_block`` ships each block the rows of the cells it lists in
a driver table ``need`` — its own (home) cells and the halo cells it reads —
and runs the phase's ``fn`` once per block in one ``applyInPandas``; ``fn``
returns the pass's output rows directly, so no phase aggregates by key or
joins its answer back to the points.  Per-cell facts (counts, root boxes,
neighbour lists) reach ``fn`` as numpy arrays indexed by cell in its
closure.  A cell reads its whole *closed* neighbourhood (itself and its
neighbours, ``CellTable.neighbours``): ``pairs_within`` finds the pairs
within eps in one blocked scan over its points concatenated, and
``core_within``, MarkCore's RangeCount, makes one such scan over the cell
and its small neighbours and then counts each larger neighbour, nearest
first, on the points still below minPts only.

``CellTable`` is the contract shared by grid (§4.1) and box (§4.2) cells:
the driver table of non-empty cells — the stand-in for the paper's parallel
hash table — and the neighbour pairs.  A cell is its row in that table, an
integer ``0..m-1`` (``long`` in every Spark schema).

Every cell-scale driver table (the grid's cell numbers, the ``need`` table,
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
        """Closed neighbourhoods in CSR form ``(start, nbr)``: cell ``c`` and
        its neighbours are ``nbr[start[c]:start[c + 1]]``, in ascending order."""
        own = np.arange(len(self.pdf))
        g, h = (np.concatenate([own, self.pairs[c].to_numpy()]) for c in ("cell", "ncell"))
        order = np.lexsort((h, g))
        start = np.searchsorted(g[order], np.arange(len(self.pdf) + 1))
        return start, h[order]


# A neighbour cell of at most this many points joins a sparse cell's first
# RangeCount scan (``core_within``); a larger one is counted on its own, on
# the points still below minPts (our-exact-qt: by a quadtree).
SMALL_CELL = 32


def driver_table(spark: SparkSession, pdf: pd.DataFrame, schema: str) -> DataFrame:
    """A cell-scale driver table as a broadcast-hinted Spark DataFrame."""
    return F.broadcast(spark.createDataFrame(pdf, schema))


def _within(q: np.ndarray, p: np.ndarray, eps: float):
    """Blocked vectorised scan: ``(i, hit)`` per ~4M (query, point) pairs,
    ``hit[a, b]`` iff ``q[i + a]`` is within ``eps`` of ``p[b]`` (inclusive)."""
    eps2 = eps * eps
    block = max(1, (1 << 22) // max(len(p), 1))
    for i in range(0, len(q), block):
        d2 = ((q[i : i + block, None, :] - p[None, :, :]) ** 2).sum(axis=2)
        yield i, d2 <= eps2


def count_within(q: np.ndarray, p: np.ndarray, eps: float) -> np.ndarray:
    """For each row of ``q``, the number of rows of ``p`` within ``eps``."""
    cnt = np.zeros(len(q), dtype=np.int64)
    for i, hit in _within(q, p, eps):
        cnt[i : i + len(hit)] = hit.sum(axis=1)
    return cnt


def core_within(
    x: np.ndarray,
    own: np.ndarray,
    nbrs: list[np.ndarray],
    gap: Callable[[np.ndarray], np.ndarray],
    eps: float,
    min_pts: int,
    count: Callable[[int, np.ndarray], np.ndarray] | None = None,
) -> tuple[np.ndarray, int]:
    """MarkCore's RangeCount for the points ``x[own]`` of one cell, stopped
    at ``min_pts``: whether each has at least ``min_pts`` points of its
    closed neighbourhood (``own`` and each ``x[nbrs[i]]``) within ``eps``,
    and the (point, neighbour point) pairs the counts covered.

    One ``count_within`` over the own cell and every neighbour of at most
    ``SMALL_CELL`` points at once; then each larger neighbour, by ascending
    ``gap(i)`` (nearest first; called only when some neighbour is larger),
    counts only the points still below ``min_pts`` that can still reach it,
    and the scan stops when none is left.  ``count(i, q)``, if given,
    counts ``q`` against neighbour ``i`` in place of the scan (a quadtree).
    The flags equal a full count's.
    """
    size = np.fromiter(map(len, nbrs), np.int64, len(nbrs))
    big = np.flatnonzero(size > SMALL_CELL)
    small = [nbrs[i] for i in np.flatnonzero(size <= SMALL_CELL)] if len(big) else nbrs
    near = x[np.concatenate([own, *small])]
    total = count_within(x[own], near, eps)
    pairs = len(own) * len(near)
    if len(big):
        rest = int(size[big].sum())
        for i in big[np.argsort(gap(big), kind="stable")]:
            live = np.flatnonzero((total < min_pts) & (total + rest >= min_pts))
            if not len(live):
                break
            q = x[own[live]]
            total[live] += count(i, q) if count else count_within(q, x[nbrs[i]], eps)
            pairs += len(live) * int(size[i])
            rest -= int(size[i])
    return total >= min_pts, pairs


def pairs_within(q: np.ndarray, p: np.ndarray, eps: float) -> tuple[np.ndarray, np.ndarray]:
    """Every pair ``(i, j)`` of a row of ``q`` and a row of ``p`` within
    ``eps``, as two int64 arrays in row-major order."""
    ii, jj = [np.empty(0, dtype=np.int64)], [np.empty(0, dtype=np.int64)]
    for i, hit in _within(q, p, eps):
        a, b = np.nonzero(hit)
        ii.append(a + i)
        jj.append(b)
    return np.concatenate(ii), np.concatenate(jj)


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

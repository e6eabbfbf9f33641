"""The cell table and the one per-target-cell kernel of Algorithms 2, 3 and 4.

Every phase after cell construction does the same thing: for a cell, query
the points of a neighbouring cell — RangeCount in MarkCore (Alg. 2),
cell-pair connectivity in ClusterCore (Alg. 3), the border check in
ClusterBorder (Alg. 4); this is the grid framework of Gan & Tao
(SIGMOD 2015).  ``per_target_cell`` runs that step on Spark once for all
three, and each phase supplies only its per-cell ``test``.

Query rows carry the number of the cell they aim at.  They are cogrouped with
the points of those target cells (and any per-cell columns, such as the
quadtree root box or a cluster label) per bucket ``xxhash64(cell) mod
N_BUCKETS``, so one Spark task serves many cells.  Inside the task both
sides are indexed by target cell with local numpy indices (the
mapPartitions-with-local-grid-index idiom) and ``test`` runs once per
target cell that has both queries and points.

``CellTable`` is the contract shared by grid (§4.1) and box (§4.2) cells:
the driver table of non-empty cells — the stand-in for the paper's parallel
hash table — together with its Spark DataFrame, made once per call, and the
neighbour pairs.  A cell is its row in that table, an integer ``0..m-1``
(``long`` in every Spark schema), so the phases keep their per-cell facts
in numpy arrays indexed by cell.

Every cell-scale driver table (the cell table, the grid's cell numbers,
neighbour pairs, an edge batch, cluster labels, border pairs) enters Spark
through ``driver_table`` as a broadcast: the paper's threads read its cell
hash table from shared memory, and here every task reads a broadcast copy,
so a join of such a table with a point-scale frame shuffles neither side.  The sessions keep
``autoBroadcastJoinThreshold=-1``, so Spark never broadcasts a point-scale
frame on its own, and only point-to-point joins shuffle.
"""
from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

N_BUCKETS = 256

# test(key, q, p, per_cell) -> (keys, values): ``key`` and ``q`` are the
# query rows aimed at one cell, ``p`` that cell's points and ``per_cell``
# its per-cell column values.
CellTest = Callable[
    [np.ndarray, np.ndarray, np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]
]

_EMPTY = pd.DataFrame({"key": pd.Series(dtype="int64"), "value": pd.Series(dtype="int64")})


class CellTable(NamedTuple):
    """The non-empty cells of one call.

    ``pdf`` is the driver table ``cell, cnt, lo0..lo{d-1}, side`` with
    ``cell`` equal to the row number: point count and the square quadtree
    root box of each cell (grid cells also keep their integer coordinates
    ``c*``).  ``df`` holds the same columns except ``c*`` as a Spark
    DataFrame.  ``pairs`` is the driver table ``(cell, ncell)`` of
    neighbouring cells: both directions, no self-pair.
    """

    pdf: pd.DataFrame
    df: DataFrame
    pairs: pd.DataFrame

    @classmethod
    def of(cls, spark: SparkSession, pdf: pd.DataFrame, pairs: pd.DataFrame, d: int) -> "CellTable":
        locols = [f"lo{j}" for j in range(d)]
        schema = ", ".join(
            ["cell long", "cnt long", *[f"{c} double" for c in locols], "side double"]
        )
        return cls(pdf, driver_table(spark, pdf[["cell", "cnt", *locols, "side"]], schema), pairs)


def driver_table(spark: SparkSession, pdf: pd.DataFrame, schema: str) -> DataFrame:
    """A cell-scale driver table as a broadcast-hinted Spark DataFrame."""
    return F.broadcast(spark.createDataFrame(pdf, schema))


def bucket(col):
    """Deterministic bucket id for a cell column."""
    return F.pmod(F.xxhash64(col), F.lit(N_BUCKETS))


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


def per_target_cell(queries: DataFrame, targets: DataFrame, d: int, test: CellTest) -> DataFrame:
    """Run ``test`` once per target cell; returns DataFrame (key long, value long).

    Parameters
    ----------
    queries : (key, tcell, x0..x{d-1}) — ``key`` is what the phase
              aggregates by (a point id or an edge id), ``tcell`` the cell
              the row queries.
    targets : (cell, x0..x{d-1}, *per_cell) — points of the target cells;
              the ``per_cell`` columns must be constant within a cell.
    """
    xc = [f"x{j}" for j in range(d)]
    per_cell = [c for c in targets.columns if c not in ("cell", *xc)]
    left = queries.select("key", "tcell", *xc).withColumn("bucket", bucket(F.col("tcell")))
    # Rename the right side's columns: both cogroup branches may derive from
    # the same cached points DataFrame and need distinct attributes.
    right = targets.select(
        *[F.col(c).alias(f"r{c}") for c in ("cell", *xc, *per_cell)]
    ).withColumn("bucket", bucket(F.col("rcell")))
    rxc = [f"r{c}" for c in xc]
    rper_cell = [f"r{c}" for c in per_cell]

    def fn(lpdf: pd.DataFrame, rpdf: pd.DataFrame) -> pd.DataFrame:
        if len(lpdf) == 0 or len(rpdf) == 0:
            return _EMPTY
        key_all = lpdf["key"].to_numpy()
        q_all = lpdf[xc].to_numpy(dtype=np.float64)
        p_all = rpdf[rxc].to_numpy(dtype=np.float64)
        c_all = rpdf[rper_cell].to_numpy()
        rgroups = rpdf.groupby("rcell", sort=False).indices
        out_k, out_v = [], []
        for tcell, lidx in lpdf.groupby("tcell", sort=False).indices.items():
            ridx = rgroups.get(tcell)
            if ridx is None:
                continue
            k, v = test(key_all[lidx], q_all[lidx], p_all[ridx], c_all[ridx[0]])
            out_k.append(k)
            out_v.append(v)
        if not out_k:
            return _EMPTY
        return pd.DataFrame({"key": np.concatenate(out_k), "value": np.concatenate(out_v)})

    return (
        left.groupBy("bucket")
        .cogroup(right.groupBy("bucket"))
        .applyInPandas(fn, "key long, value long")
    )

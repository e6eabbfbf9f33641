"""PDSDBSCAN stand-in (Patwary et al. [73]): pointwise range queries +
disjoint-set merging.

The defining characteristics the paper measures against (§7.1–7.2):

* every point runs a *pointwise* eps-range query — no dense-cell shortcut —
  so the work grows with eps and is insensitive to minPts;
* clustering merges individual core points through disjoint-set structures:
  each task runs a local union-find over the eps-pairs it sees and the
  partial forests are merged afterwards (exactly PDSDBSCAN's local-DSU +
  merge design, with Spark tasks standing in for threads).

Two passes over the bucketed cell cogroup (cells hashed into buckets, local
dict index per task): pass 1 counts eps-neighbors pointwise with the shared
per-target-cell kernel (``repro.core.cellkernel``) to produce core flags;
pass 2, with core flags joined in, unions core-core pairs locally across the
whole task and emits spanning-forest edges plus border links.  The driver merges forests
and assembles the output.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.core import grid
from repro.core.cellkernel import bucket, count_within, per_target_cell
from repro.primitives.unionfind import UnionFind


def _merge_kernel(d: int, eps: float):
    """Pass-2 kernel: local disjoint-set over core-core eps-pairs (emit the
    spanning forest) + border links noncore -> core."""
    xc = grid.xcols(d)
    rxc = [f"r{c}" for c in xc]
    empty = pd.DataFrame(
        {"a": pd.Series(dtype="int64"), "b": pd.Series(dtype="int64"),
         "border": pd.Series(dtype="boolean")}
    )

    def fn(left: pd.DataFrame, right: pd.DataFrame) -> pd.DataFrame:
        if len(left) == 0 or len(right) == 0:
            return empty
        eps2 = eps * eps
        q_all = left[xc].to_numpy(dtype=np.float64)
        qid_all = left["id"].to_numpy()
        qcore_all = left["is_core"].to_numpy()
        p_all = right[rxc].to_numpy(dtype=np.float64)
        pid_all = right["rid"].to_numpy()
        pcore_all = right["ris_core"].to_numpy()
        # Local DSU over point ids seen in this task.
        parent: dict[int, int] = {}

        def find(x: int) -> int:
            r = x
            while parent.setdefault(r, r) != r:
                r = parent[r]
            while parent[x] != r:
                parent[x], x = r, parent[x]
            return r

        border_a, border_b = [], []
        rgroups = right.groupby("rcell", sort=False).indices
        for tcell, lidx in left.groupby("tcell", sort=False).indices.items():
            ridx = rgroups.get(tcell)
            if ridx is None:
                continue
            q = q_all[lidx]
            p = p_all[ridx]
            block = max(1, (1 << 21) // max(len(p), 1))
            for i in range(0, len(q), block):
                d2 = ((q[i : i + block, None, :] - p[None, :, :]) ** 2).sum(axis=2)
                ii, jj = np.nonzero(d2 <= eps2)
                for a_, b_ in zip(ii + i, jj):
                    qa = int(qid_all[lidx[a_]])
                    pb = int(pid_all[ridx[b_]])
                    if qa == pb:
                        continue
                    if qcore_all[lidx[a_]] and pcore_all[ridx[b_]]:
                        ra, rb = find(qa), find(pb)
                        if ra != rb:
                            parent[rb] = ra
                    elif not qcore_all[lidx[a_]] and pcore_all[ridx[b_]]:
                        border_a.append(qa)
                        border_b.append(pb)
        edges_a = [v for v in parent if parent[v] != v]
        out = pd.DataFrame(
            {
                "a": edges_a + border_a,
                "b": [find(v) for v in edges_a] + border_b,
                "border": [False] * len(edges_a) + [True] * len(border_a),
            }
        )
        return out if len(out) else empty

    return fn


def pdsdbscan(spark, points: DataFrame, eps: float, min_pts: int, d: int) -> DataFrame:
    """Run the PDSDBSCAN-style baseline; output (id, is_core, clusters)."""
    xc = grid.xcols(d)
    pts_cells, cells = grid.build_cells(points, eps, d)

    # Queries: every point against own cell and all neighbors.
    own = pts_cells.select("id", *xc, F.col("cell").alias("tcell"))
    if len(cells.pairs):
        nbr = pts_cells.join(spark.createDataFrame(cells.pairs), "cell").select(
            "id", *xc, F.col("ncell").alias("tcell")
        )
        queries = own.unionByName(nbr)
    else:
        queries = own
    queries = queries.cache()

    # ---- pass 1: pointwise counts -> core flags -------------------------
    counts = per_target_cell(
        queries.withColumnRenamed("id", "key"),
        pts_cells.select("cell", *xc),
        d,
        lambda key, q, p, _: (key, count_within(q, p, eps)),
    )
    flags = (
        counts.groupBy("key")
        .agg(F.sum("value").alias("n_nbrs"))
        .select(F.col("key").alias("id"), (F.col("n_nbrs") >= min_pts).alias("is_core"))
        .cache()
    )

    # ---- pass 2: local disjoint sets + merge ----------------------------
    q2 = queries.join(flags, "id").withColumn("bucket", bucket(F.col("tcell")))
    r2 = (
        pts_cells.select(
            F.col("id").alias("rid"),
            F.col("cell").alias("rcell"),
            *[F.col(c).alias(f"r{c}") for c in xc],
        )
        .join(flags.select(F.col("id").alias("rid"), F.col("is_core").alias("ris_core")), "rid")
        .withColumn("bucket", bucket(F.col("rcell")))
    )
    raw = (
        q2.groupBy("bucket")
        .cogroup(r2.groupBy("bucket"))
        .applyInPandas(_merge_kernel(d, eps), "a long, b long, border boolean")
        .collect()
    )
    core_ids = {r["id"] for r in flags.where("is_core").collect()}
    order = sorted(core_ids)
    pos = {v: i for i, v in enumerate(order)}
    uf = UnionFind(len(order))
    border_links = []
    for r in raw:
        if r["border"]:
            border_links.append((r["a"], r["b"]))
        else:
            uf.union(pos[r["a"]], pos[r["b"]])
    comp_min: dict[int, int] = {}
    for v, i in pos.items():
        r_ = uf.find(i)
        if r_ not in comp_min or v < comp_min[r_]:
            comp_min[r_] = v
    labels: dict[int, set[int]] = {v: {comp_min[uf.find(i)]} for v, i in pos.items()}
    for nc, c in border_links:
        labels.setdefault(nc, set()).add(comp_min[uf.find(pos[c])])

    rows = [(int(v), sorted(s)) for v, s in labels.items()]
    lbl_df = spark.createDataFrame(
        pd.DataFrame({"id": [r[0] for r in rows], "clusters": [r[1] for r in rows]}),
        schema="id long, clusters array<long>",
    )
    out = (
        points.select("id")
        .join(flags, "id", "left")
        .join(lbl_df, "id", "left")
        .select(
            "id",
            F.coalesce("is_core", F.lit(False)).alias("is_core"),
            F.coalesce("clusters", F.array().cast("array<long>")).alias("clusters"),
        )
    ).cache()
    out.count()
    for cached in (queries, flags):
        cached.unpersist()
    return out

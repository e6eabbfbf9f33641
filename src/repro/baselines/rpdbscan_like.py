"""RP-DBSCAN stand-in (Song & Lee [82]): random cell partitioning with
replicated neighbor cells and cell-graph merging.

RP-DBSCAN (the state-of-the-art Spark DBSCAN the paper beats in Table 2)
pseudo-randomly assigns *cells* to partitions, ships each partition its
cells' points plus summaries of neighboring cells, builds per-partition
sub-cell-graphs, and merges them into a global cell graph.  We reproduce
that dataflow:

1. cells are hashed to ``n_parts`` partitions;
2. every partition receives the full points of its own cells **and** of all
   cells neighboring them, plus a second hop so replicated cells' core flags
   are exact (the replication that drives RP-DBSCAN's shuffle cost —
   our-exact avoids it, which is the Table 2 story);
3. each partition locally marks core points of its own cells, then emits
   cell-graph edges own-cell ↔ neighbor-cell (exact BCP over core points —
   RP-DBSCAN itself uses rho-approximate summaries; we keep it exact so
   correctness tests can compare against the reference) and border
   assignments;
4. the driver merges the edge lists, runs connected components, and
   relabels (the "cell-graph merging" phase).

Inside each partition a local two-level cell dictionary (integer cell
coordinates parsed from the key) provides neighbor lookup: offset
enumeration for d ≤ 3 and k-d tree gap queries for higher dimensions.
"""
from __future__ import annotations

import math

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.core import grid
from repro.core.grid import neighbor_offsets
from repro.primitives.unionfind import UnionFind
from repro.spatial.bcp import bcp_connected
from repro.spatial.kdtree import KDTree


def _partition_kernel(d: int, eps: float, min_pts: int):
    """Per-partition kernel over replicated rows.

    Input rows: (part, home(bool), cell, id, x*) where home marks the
    partition's own cells. Output rows are tagged by ``kind``:
      kind=0: (id, -, -)        core flag for an own-cell point
      kind=1: (-, gcell, hcell) cell-graph edge between core cells
      kind=2: (id, gcell, -)    border point -> core cell link
    """
    xc = grid.xcols(d)
    offs = neighbor_offsets(d) if d <= 3 else None

    def fn(pdf: pd.DataFrame) -> pd.DataFrame:
        ids = pdf["id"].to_numpy()
        arr = pdf[xc].to_numpy(dtype=np.float64)
        cells = pdf["cell"].to_numpy()
        home = pdf["home"].to_numpy()
        eps2 = eps * eps
        by_cell: dict[str, np.ndarray] = {
            c: np.asarray(v) for c, v in pdf.groupby("cell", sort=False).indices.items()
        }
        uniq = sorted(by_cell)
        home_cells = sorted(set(cells[home]))
        # Local neighbor map from the integer cell coordinates in the keys —
        # RP-DBSCAN's two-level cell dictionary.
        coords = np.array([[int(v) for v in c.split(",")] for c in uniq], dtype=np.int64)
        nbr_map: dict[str, list[str]] = {}
        if offs is not None:
            key_of = {tuple(coords[i]): uniq[i] for i in range(len(uniq))}
            for i, c in enumerate(uniq):
                nbr_map[c] = [
                    key_of[t] for t in (tuple(coords[i] + o) for o in offs) if t in key_of
                ]
        else:
            tree = KDTree(coords.astype(np.float64))
            r = 2.0 * math.sqrt(d) + 1e-9
            for i, c in enumerate(uniq):
                cand = tree.query_radius(coords[i].astype(np.float64), r)
                dc = np.abs(coords[cand] - coords[i])
                gap2 = (np.maximum(dc - 1, 0) ** 2).sum(axis=1)
                nbr_map[c] = [uniq[j] for j in cand[gap2 <= d + 1e-9] if j != i]

        def core_of(c: str) -> np.ndarray:
            idx = by_cell[c]
            if len(idx) >= min_pts:
                return idx
            cnt = np.full(len(idx), len(idx), dtype=np.int64)
            q = arr[idx]
            for o in nbr_map[c]:
                p = arr[by_cell[o]]
                d2 = ((q[:, None, :] - p[None, :, :]) ** 2).sum(axis=2)
                cnt += (d2 <= eps2).sum(axis=1)
            return idx[cnt >= min_pts]

        # Core flags: complete for home cells by 1-hop replication, and for
        # replicated 1-hop cells by the 2-hop closure shipment.  (2-hop cells
        # may get under-counted flags, but they are never within eps of a
        # home cell, so those flags are never consumed.)
        core_by_cell: dict[str, np.ndarray] = {c: core_of(c) for c in uniq}
        out = []
        for c in home_cells:
            for pid in ids[core_by_cell[c]]:
                out.append((0, int(pid), "", ""))
        # Cell-graph edges: home core cell vs neighboring core cells.
        for c in home_cells:
            a = core_by_cell[c]
            if len(a) == 0:
                continue
            for o in nbr_map[c]:
                b = core_by_cell.get(o)
                if b is None or len(b) == 0:
                    continue
                if bcp_connected(arr[a], arr[b], eps):
                    g, h = (c, o) if c < o else (o, c)
                    out.append((1, -1, g, h))
        # Border links: non-core home points vs core points of own/neighbor
        # cells.
        for c in home_cells:
            idx = by_cell[c]
            core_set = set(core_by_cell[c].tolist())
            nc = np.array([i for i in idx if i not in core_set], dtype=np.int64)
            if len(nc) == 0:
                continue
            for o in [c] + nbr_map[c]:
                b = core_by_cell.get(o)
                if b is None or len(b) == 0:
                    continue
                d2 = ((arr[nc][:, None, :] - arr[b][None, :, :]) ** 2).sum(axis=2)
                hit = (d2 <= eps2).any(axis=1)
                for pid in ids[nc[hit]]:
                    out.append((2, int(pid), o, ""))
        if not out:
            return pd.DataFrame(
                {"kind": pd.Series(dtype="int32"), "pid": pd.Series(dtype="int64"),
                 "gcell": pd.Series(dtype=object), "hcell": pd.Series(dtype=object)}
            )
        return pd.DataFrame(out, columns=["kind", "pid", "gcell", "hcell"])

    return fn


def rpdbscan(spark, points: DataFrame, eps: float, min_pts: int, d: int, n_parts: int = 32) -> DataFrame:
    """Run the RP-DBSCAN-style baseline; output (id, is_core, clusters)."""
    xc = grid.xcols(d)
    pts_cells, cells, npairs = grid.build_cells(points, eps, d)

    # Pseudo-random cell -> partition map (driver-side dictionary, as
    # RP-DBSCAN's "pseudo random partitioning" builds a cell dictionary).
    rng = np.random.default_rng(0)
    part_of = pd.DataFrame(
        {"cell": cells.pdf["cell"], "part": rng.integers(0, n_parts, len(cells.pdf))}
    )
    own = pts_cells.join(spark.createDataFrame(part_of), "cell").select(
        "part", F.lit(True).alias("home"), "cell", "id", *xc
    )
    if len(npairs):
        # Replicate each cell's points into the partitions owning a neighbor.
        repl_map = npairs.merge(part_of, on="cell")[["ncell", "part"]].rename(
            columns={"ncell": "cell"}
        ).drop_duplicates()
        # 1-hop closure: neighbor cells of neighbors are also shipped so the
        # kernel can mark replicated cells' core flags exactly.
        hop2 = npairs.merge(
            repl_map.rename(columns={"cell": "ncell"}), on="ncell"
        )[["cell", "part"]].drop_duplicates()
        ship = pd.concat([repl_map, hop2], ignore_index=True).drop_duplicates()
        # Remove rows already owned.
        ship = ship.merge(part_of, on="cell", suffixes=("", "_own"))
        ship = ship[ship["part"] != ship["part_own"]][["cell", "part"]]
        halo = pts_cells.join(
            spark.createDataFrame(ship), "cell"
        ).select("part", F.lit(False).alias("home"), "cell", "id", *xc)
        repl = own.unionByName(halo)
    else:
        repl = own

    raw = (
        repl.groupBy("part")
        .applyInPandas(
            _partition_kernel(d, eps, min_pts), "kind int, pid long, gcell string, hcell string"
        )
        .cache()
    )
    flags = (
        raw.where("kind = 0")
        .select(F.col("pid").alias("id"))
        .distinct()
        .withColumn("is_core", F.lit(True))
    )
    # ---- cell-graph merging on the driver -------------------------------
    edge_rows = raw.where("kind = 1").select("gcell", "hcell").distinct().collect()
    core_cell_rows = (
        raw.where("kind = 0").select(F.col("pid").alias("id"))
        .join(pts_cells, "id").select("cell").distinct().collect()
    )
    core_cells = sorted(
        {r["gcell"] for r in edge_rows}
        | {r["hcell"] for r in edge_rows}
        | {r["cell"] for r in core_cell_rows}
    )
    pos = {c: i for i, c in enumerate(core_cells)}
    uf = UnionFind(len(core_cells))
    for r in edge_rows:
        uf.union(pos[r["gcell"]], pos[r["hcell"]])
    comp = {c: uf.find(i) for c, i in pos.items()}
    lbl_df = spark.createDataFrame(
        pd.DataFrame({"cell": list(comp), "cluster": [comp[c] for c in comp]}),
        schema="cell string, cluster long",
    )
    core_assigned = (
        raw.where("kind = 0").select(F.col("pid").alias("id")).distinct()
        .join(pts_cells, "id")
        .join(lbl_df, "cell")
        .select("id", "cluster")
    )
    border_assigned = (
        raw.where("kind = 2")
        .select(F.col("pid").alias("id"), F.col("gcell").alias("cell"))
        .distinct()
        .join(lbl_df, "cell")
        .select("id", "cluster")
    )
    assigned = (
        core_assigned.unionByName(border_assigned)
        .groupBy("id")
        .agg(F.array_sort(F.collect_set("cluster")).alias("clusters"))
    )
    out = (
        points.select("id")
        .join(flags, "id", "left")
        .join(assigned, "id", "left")
        .select(
            "id",
            F.coalesce("is_core", F.lit(False)).alias("is_core"),
            F.coalesce("clusters", F.array().cast("array<long>")).alias("clusters"),
        )
    ).cache()
    out.count()
    for cached in (pts_cells, raw):
        cached.unpersist()
    return out

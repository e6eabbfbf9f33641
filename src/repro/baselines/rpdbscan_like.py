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

The shipping is the shared per-block kernel (``cellkernel.per_block``):
the partition map is the blocks, the 1- and 2-hop cells are the halo, and
the kernel's ``home`` flag marks a partition's own cells.  Neighbor lookup
inside a partition reads the driver's cell dictionary: the neighbour pairs
of the grid's cell table travel with the kernel, as RP-DBSCAN broadcasts
its cell dictionary to every worker.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.core import grid
from repro.core.cellkernel import per_block
from repro.primitives.unionfind import UnionFind
from repro.spatial.bcp import bcp_connected


def _partition_kernel(d: int, eps: float, min_pts: int, pairs: pd.DataFrame):
    """Per-partition kernel over replicated rows.

    Input rows: (cell, id, x*, block, home(bool)) where ``block`` is the
    partition and ``home`` marks its own cells; ``pairs`` is the driver's
    neighbour table (cell, ncell). Output rows are tagged by ``kind``:
      kind=0: (id, gcell, -)    core flag for an own-cell point of gcell
      kind=1: (-, gcell, hcell) cell-graph edge between core cells
      kind=2: (id, gcell, -)    border point -> core cell link
    """
    xc = grid.xcols(d)
    g_all, h_all = pairs["cell"].to_numpy(), pairs["ncell"].to_numpy()

    def fn(_b: int, pdf: pd.DataFrame) -> pd.DataFrame:
        ids = pdf["id"].to_numpy()
        arr = pdf[xc].to_numpy(dtype=np.float64)
        cells = pdf["cell"].to_numpy()
        home = pdf["home"].to_numpy()
        eps2 = eps * eps
        by_cell: dict[int, np.ndarray] = {
            int(c): np.asarray(v) for c, v in pdf.groupby("cell", sort=False).indices.items()
        }
        uniq = sorted(by_cell)
        home_cells = sorted(set(cells[home].tolist()))
        # Neighbors among the cells shipped to this partition.
        nbr_map: dict[int, list[int]] = {c: [] for c in uniq}
        present = np.isin(g_all, uniq) & np.isin(h_all, uniq)
        for a, b in zip(g_all[present].tolist(), h_all[present].tolist()):
            nbr_map[a].append(b)

        def core_of(c: int) -> np.ndarray:
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
        core_by_cell: dict[int, np.ndarray] = {c: core_of(c) for c in uniq}
        out = []
        for c in home_cells:
            for pid in ids[core_by_cell[c]]:
                out.append((0, int(pid), c, -1))
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
                    out.append((2, int(pid), o, -1))
        if not out:
            return pd.DataFrame(
                {"kind": pd.Series(dtype="int32"), "pid": pd.Series(dtype="int64"),
                 "gcell": pd.Series(dtype="int64"), "hcell": pd.Series(dtype="int64")}
            )
        return pd.DataFrame(out, columns=["kind", "pid", "gcell", "hcell"])

    return fn


def rpdbscan(spark, points: DataFrame, eps: float, min_pts: int, d: int, n_parts: int = 32) -> DataFrame:
    """Run the RP-DBSCAN-style baseline; output (id, is_core, clusters)."""
    xc = grid.xcols(d)
    pts_cells, cells = grid.build_cells(points, eps, d)
    pairs = cells.pairs

    # Pseudo-random cell -> partition map (driver-side dictionary, as
    # RP-DBSCAN's "pseudo random partitioning" builds a cell dictionary).
    part_of = np.random.default_rng(0).integers(0, n_parts, len(cells.pdf))
    part = pd.DataFrame({"cell": cells.pdf["cell"], "block": part_of})
    # Replicate each cell's points into the partitions owning a neighbor,
    # and the neighbours of those (2-hop closure) so the kernel can mark
    # replicated cells' core flags exactly.
    hop1 = pairs.merge(part, on="cell")[["ncell", "block"]].rename(columns={"ncell": "cell"})
    hop2 = pairs.merge(hop1.rename(columns={"cell": "ncell"}), on="ncell")[["cell", "block"]]
    need = pd.concat([part, hop1, hop2], ignore_index=True)
    raw = per_block(
        spark, pts_cells.select("cell", "id", *xc), need, part_of,
        _partition_kernel(d, eps, min_pts, pairs), "kind int, pid long, gcell long, hcell long",
    ).cache()
    core_rows = raw.where("kind = 0").select(F.col("pid").alias("id"), F.col("gcell").alias("cell"))
    flags = core_rows.select("id").distinct().withColumn("is_core", F.lit(True))
    # ---- cell-graph merging on the driver -------------------------------
    uf = UnionFind(len(cells.pdf))
    for r in raw.where("kind = 1").select("gcell", "hcell").distinct().collect():
        uf.union(r["gcell"], r["hcell"])
    core_cells = [r["cell"] for r in core_rows.select("cell").distinct().collect()]
    lbl_df = spark.createDataFrame(
        pd.DataFrame({"cell": core_cells, "cluster": [uf.find(c) for c in core_cells]}),
        schema="cell long, cluster long",
    )
    core_assigned = core_rows.distinct().join(lbl_df, "cell").select("id", "cluster")
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
    raw.unpersist()
    return out

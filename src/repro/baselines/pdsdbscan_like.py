"""PDSDBSCAN stand-in (Patwary et al. [73]): pointwise range queries +
disjoint-set merging.

The defining characteristics the paper measures against (§7.1–7.2):

* every point runs a *pointwise* eps-range query — no dense-cell shortcut —
  so the work grows with eps and is insensitive to minPts;
* clustering merges individual core points through disjoint-set structures:
  each task runs a local union-find over the eps-pairs it sees and the
  partial forests are merged afterwards (exactly PDSDBSCAN's local-DSU +
  merge design, with Spark tasks standing in for threads).

Two passes over the shared per-block kernel (``cellkernel.per_block``):
every block reads its own cells plus all their neighbour cells, with no
dense-cell shortcut.  Pass 1 counts each own point's eps-neighbours
pointwise to produce core flags; pass 2, over the flagged points, unions
core-core pairs locally across the whole task and emits spanning-forest
edges plus border links.  The driver merges forests and assembles the
output.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.core import grid
from repro.core.cellkernel import blocks, count_within, per_block
from repro.primitives.unionfind import UnionFind


def _count_block(cells, d: int, eps: float, min_pts: int):
    """Pass-1 kernel: each own point's eps-neighbour count against its own
    cell and every neighbour cell -> (id, cell, x*, is_core)."""
    xc = grid.xcols(d)
    start, nbr = cells.neighbours()

    def fn(_b: int, pdf: pd.DataFrame) -> pd.DataFrame:
        x = pdf[xc].to_numpy(dtype=np.float64)
        by_cell = pdf.groupby("cell", sort=False).indices
        home = pdf["home"].to_numpy()
        is_core = np.zeros(len(pdf), dtype=bool)
        for g in np.unique(pdf["cell"].to_numpy()[home]):
            targets = np.concatenate([by_cell[t] for t in (g, *nbr[start[g] : start[g + 1]])])
            is_core[by_cell[g]] = count_within(x[by_cell[g]], x[targets], eps) >= min_pts
        return pdf.loc[home, ["id", "cell", *xc]].assign(is_core=is_core[home])

    return fn


def _merge_block(cells, d: int, eps: float):
    """Pass-2 kernel: local disjoint-set over core-core eps-pairs (emit the
    spanning forest) + border links noncore -> core."""
    xc = grid.xcols(d)
    start, nbr = cells.neighbours()
    empty = pd.DataFrame(
        {"a": pd.Series(dtype="int64"), "b": pd.Series(dtype="int64"),
         "border": pd.Series(dtype="boolean")}
    )

    def fn(_b: int, pdf: pd.DataFrame) -> pd.DataFrame:
        eps2 = eps * eps
        x = pdf[xc].to_numpy(dtype=np.float64)
        ids = pdf["id"].to_numpy()
        core = pdf["is_core"].to_numpy()
        by_cell = pdf.groupby("cell", sort=False).indices
        # Local DSU over point ids seen in this task.
        parent: dict[int, int] = {}

        def find(v: int) -> int:
            r = v
            while parent.setdefault(r, r) != r:
                r = parent[r]
            while parent[v] != r:
                parent[v], v = r, parent[v]
            return r

        border_a, border_b = [], []
        for g in np.unique(pdf["cell"].to_numpy()[pdf["home"].to_numpy()]):
            qi = by_cell[g]
            pi = np.concatenate([by_cell[t] for t in (g, *nbr[start[g] : start[g + 1]])])
            blk = max(1, (1 << 21) // len(pi))
            for i in range(0, len(qi), blk):
                d2 = ((x[qi[i : i + blk], None, :] - x[None, pi, :]) ** 2).sum(axis=2)
                ii, jj = np.nonzero(d2 <= eps2)
                for a_, b_ in zip(qi[ii + i], pi[jj]):
                    if a_ == b_ or not core[b_]:
                        continue
                    qa, pb = int(ids[a_]), int(ids[b_])
                    if core[a_]:
                        ra, rb = find(qa), find(pb)
                        if ra != rb:
                            parent[rb] = ra
                    else:
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
    # Every cell reads itself and all its neighbours: pointwise queries.
    block = blocks(spark, cells.pdf["cnt"].to_numpy())
    g, h = cells.pairs["cell"].to_numpy(), cells.pairs["ncell"].to_numpy()
    need = pd.DataFrame({
        "cell": np.concatenate([np.arange(len(block)), h]),
        "block": np.concatenate([block, block[g]]),
    })

    # ---- pass 1: pointwise counts -> core flags -------------------------
    schema = ", ".join(["id long", "cell long", *[f"{x} double" for x in xc], "is_core boolean"])
    flags = per_block(
        spark, pts_cells, need, block, _count_block(cells, d, eps, min_pts), schema
    ).cache()

    # ---- pass 2: local disjoint sets + merge ----------------------------
    raw = per_block(
        spark, flags, need, block, _merge_block(cells, d, eps), "a long, b long, border boolean"
    ).collect()
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
    noise = F.array().cast("array<long>")
    out = (
        flags.join(lbl_df, "id", "left")
        .select("id", "is_core", F.coalesce("clusters", noise).alias("clusters"))
    ).cache()
    out.count()
    flags.unpersist()
    return out

"""HPDBSCAN stand-in (Götz et al. [43]): spatial partitioning + local DBSCAN
+ cluster merging.

HPDBSCAN splits space among workers, each runs DBSCAN on its partition plus
an eps halo, and overlapping (halo) points stitch the local clusterings
together.  We reproduce that three-phase structure on Spark:

1. **Core flags** — each slab (equal-frequency ranges of x0, extended by an
   eps halo) counts eps-neighbors of its *owned* points locally
   (``applyInPandas`` per slab); the halo guarantees complete neighborhoods.
2. **Local clustering** — with global core flags joined back in, each slab
   unions its core points within eps (local disjoint-set over owned + halo
   core points) and emits (core point id, slab-local cluster id).
3. **Merge** — core points seen by several slabs carry several local labels;
   the driver unions label pairs (the cluster-merging step) and relabels.
   Border points take the merged clusters of core points within eps (found in
   phase 2 locally).

Like the original, range queries are pointwise, so runtime grows with eps —
the trend the paper's Figures 6–7 show against this baseline.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.core import grid
from repro.core.cellkernel import count_within
from repro.primitives.unionfind import UnionFind


def _assign_slabs(points: DataFrame, d: int, eps: float, n_slabs: int):
    """Slab boundaries from x0 quantiles; rows replicated into every slab
    whose [lo-eps, hi+eps) range contains them, tagged owned/halo."""
    qs = [i / n_slabs for i in range(1, n_slabs)]
    cuts = points.approxQuantile("x0", qs, 0.001) if n_slabs > 1 else []
    cuts = sorted(set(cuts))
    bounds = [-np.inf] + cuts + [np.inf]
    xc = grid.xcols(d)
    parts = []
    for s in range(len(bounds) - 1):
        lo, hi = bounds[s], bounds[s + 1]
        owned = (F.col("x0") >= lo) & (F.col("x0") < hi)
        in_halo = (F.col("x0") >= lo - eps) & (F.col("x0") < hi + eps)
        parts.append(
            points.where(in_halo).select(
                F.lit(s).alias("slab"), owned.alias("owned"), "id", *xc
            )
        )
    out = parts[0]
    for p in parts[1:]:
        out = out.unionByName(p)
    return out


def _count_kernel(d: int, eps: float):
    xc = grid.xcols(d)

    def fn(pdf: pd.DataFrame) -> pd.DataFrame:
        arr = pdf[xc].to_numpy(dtype=np.float64)
        own = pdf["owned"].to_numpy()
        ids = pdf["id"].to_numpy()
        return pd.DataFrame({"id": ids[own], "n_nbrs": count_within(arr[own], arr, eps)})

    return fn


def _cluster_kernel(d: int, eps: float):
    """Emit (id, local cluster label, is_core_row) for core points (owned and
    halo) and (id, label, False) border links for owned non-core points."""
    xc = grid.xcols(d)

    def fn(pdf: pd.DataFrame) -> pd.DataFrame:
        slab = int(pdf["slab"].iloc[0])
        core_mask = pdf["is_core"].to_numpy()
        arr = pdf[xc].to_numpy(dtype=np.float64)
        ids = pdf["id"].to_numpy()
        eps2 = eps * eps
        cidx = np.flatnonzero(core_mask)
        if len(cidx) == 0:
            return pd.DataFrame(
                {"id": pd.Series(dtype="int64"), "label": pd.Series(dtype="int64"),
                 "core_row": pd.Series(dtype="boolean")}
            )
        cpts = arr[cidx]
        uf = UnionFind(len(cidx))
        block = max(1, (1 << 22) // max(len(cpts), 1))
        for i in range(0, len(cpts), block):
            d2 = ((cpts[i : i + block, None, :] - cpts[None, :, :]) ** 2).sum(axis=2)
            ii, jj = np.nonzero(d2 <= eps2)
            for a, b in zip(ii + i, jj):
                if a != b:
                    uf.union(int(a), int(b))
        # Slab-local labels are globally unique: slab * 2^40 + local root.
        lab = np.array([slab * (1 << 40) + uf.find(i) for i in range(len(cidx))])
        out_id = [ids[cidx]]
        out_lab = [lab]
        out_core = [np.ones(len(cidx), dtype=bool)]
        # Owned non-core points: link to clusters of core points within eps.
        nc = np.flatnonzero(~core_mask & pdf["owned"].to_numpy())
        if len(nc):
            for i in range(0, len(nc), block):
                d2 = ((arr[nc[i : i + block], None, :] - cpts[None, :, :]) ** 2).sum(axis=2)
                ii, jj = np.nonzero(d2 <= eps2)
                out_id.append(ids[nc[ii + i]])
                out_lab.append(lab[jj])
                out_core.append(np.zeros(len(ii), dtype=bool))
        return pd.DataFrame(
            {
                "id": np.concatenate(out_id),
                "label": np.concatenate(out_lab),
                "core_row": np.concatenate(out_core),
            }
        )

    return fn


def hpdbscan(spark, points: DataFrame, eps: float, min_pts: int, d: int, n_slabs: int = 16) -> DataFrame:
    """Run the HPDBSCAN-style baseline; output (id, is_core, clusters)."""
    xc = grid.xcols(d)
    slabbed = _assign_slabs(points, d, eps, n_slabs).cache()
    flags = (
        slabbed.groupBy("slab")
        .applyInPandas(_count_kernel(d, eps), "id long, n_nbrs long")
        .select("id", (F.col("n_nbrs") >= min_pts).alias("is_core"))
        .cache()
    )
    with_flags = slabbed.join(flags, "id").select(
        "slab", "owned", "id", "is_core", *xc
    )
    local = (
        with_flags.groupBy("slab")
        .applyInPandas(_cluster_kernel(d, eps), "id long, label long, core_row boolean")
        .cache()
    )
    # Merge: union all local labels that share a core point.
    core_lbl = local.where("core_row").select("id", "label").collect()
    by_point: dict[int, list[int]] = {}
    all_labels: set[int] = set()
    for r in core_lbl:
        by_point.setdefault(r["id"], []).append(r["label"])
        all_labels.add(r["label"])
    order = sorted(all_labels)
    pos = {l: i for i, l in enumerate(order)}
    uf = UnionFind(len(order))
    for labs in by_point.values():
        for l in labs[1:]:
            uf.union(pos[labs[0]], pos[l])
    # Canonical global label: min core point id per merged component.
    comp_min: dict[int, int] = {}
    for pid, labs in by_point.items():
        r_ = uf.find(pos[labs[0]])
        if r_ not in comp_min or pid < comp_min[r_]:
            comp_min[r_] = pid
    lmap = pd.DataFrame(
        {"label": order, "gcluster": [comp_min[uf.find(i)] for i in range(len(order))]}
    )
    lmap_df = spark.createDataFrame(lmap, schema="label long, gcluster long")
    assigned = (
        local.join(lmap_df, "label")
        .groupBy("id")
        .agg(F.array_sort(F.collect_set("gcluster")).alias("clusters"))
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
    for cached in (slabbed, flags, local):
        cached.unpersist()
    return out

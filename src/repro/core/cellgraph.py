"""Cell-graph construction and core clustering (Algorithm 3, §4.4, §5.2).

Vertices are *core cells* (cells containing ≥1 core point); an edge connects
two neighboring core cells whose closest pair of core points is within eps.
Connectivity between a pair is decided by one of the paper's methods:

* ``bcp``   — blocked early-exit bichromatic closest pair (our-exact);
* ``qt``    — RangeCount on a quadtree over the other cell's core points
              (our-exact-qt);
* ``approx``— rho-approximate RangeCount on a depth-limited quadtree
              (our-approx / our-approx-qt; Gan&Tao semantics);
* ``usec``  — unit-spherical emptiness checking with line separation (2D);
* ``delaunay`` — edges of the Delaunay triangulation over all core points,
              filtered to cross-cell edges of length ≤ eps (2D).

Candidate edges are evaluated by Spark in parallel through the shared
per-target-cell kernel (``cellkernel.per_target_cell``): the responsible
cell's core points are the queries, aimed at the other cell, and the
per-cell test runs the chosen method once per source cell against the
target cell's core points and root box.  The optimisations of §4.4 are
reproduced:

* connectivity-query reduction — a driver-side union-find skips pairs whose
  cells are already in the same component;
* each pair is checked once (responsible cell = the one with more core
  points, ties by id);
* *bucketing* — cells are sorted by core-point count (non-increasing) and
  processed in batches; between batches the union-find prunes queries that
  earlier batches made redundant.  Without bucketing the same loop runs one
  batch of all candidate pairs, evaluated in a single parallel round (the
  racy-parallel behaviour the paper describes).
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.core.cellkernel import CellTable, driver_table, per_target_cell
from repro.core.grid import xcols
from repro.primitives.unionfind import UnionFind
from repro.spatial.bcp import bcp_connected, connected_approx, connected_via_quadtree
from repro.spatial.delaunay import delaunay_edges
from repro.spatial.usec import usec_connected


def _connectivity(eps: float, method: str, rho: float):
    """Per-cell test: the query rows aimed at cell h are the core points of
    the responsible cells g, one edge id per (g, h); each edge is decided by
    the chosen connectivity method on g's and h's core points."""

    def test(key, q, p, box):
        order = np.argsort(key, kind="stable")
        eids, starts = np.unique(key[order], return_index=True)
        conn = np.zeros(len(eids), dtype=np.int64)
        for i, pa in enumerate(np.split(q[order], starts[1:])):
            if method == "bcp":
                conn[i] = bcp_connected(pa, p, eps)
            elif method == "usec":
                conn[i] = usec_connected(pa, p, eps)
            elif method == "qt":
                conn[i] = connected_via_quadtree(pa, p, eps, box[:-1], float(box[-1]))
            elif method == "approx":
                conn[i] = connected_approx(pa, p, eps, rho, box[:-1], float(box[-1]))
            else:  # pragma: no cover - guarded by dbscan()
                raise ValueError(method)
        return eids, conn

    return test


def _connected_edges(
    spark,
    edges: list[tuple[int, str, str]],
    core_pts: DataFrame,
    cells: CellTable,
    d: int,
    eps: float,
    method: str,
    rho: float,
) -> set[int]:
    """Decide a batch of candidate edges (eid, gcell, hcell) in parallel,
    gcell the responsible cell; returns the connected eids."""
    xc = xcols(d)
    edf = driver_table(
        spark,
        pd.DataFrame(edges, columns=["eid", "gcell", "hcell"]),
        "eid long, gcell string, hcell string",
    )
    queries = edf.join(core_pts, edf.gcell == core_pts.cell).select(
        F.col("eid").alias("key"), F.col("hcell").alias("tcell"), *xc
    )
    targets = core_pts.join(cells.df, "cell").select(
        "cell", *xc, *[f"lo{j}" for j in range(d)], "side"
    )
    res = per_target_cell(queries, targets, d, _connectivity(eps, method, rho))
    return {r["key"] for r in res.where(F.col("value") == 1).collect()}


def build_cell_graph(
    spark,
    core_pts: DataFrame,
    core_cells: pd.DataFrame,
    npairs: pd.DataFrame,
    cells: CellTable,
    d: int,
    eps: float,
    method: str = "bcp",
    rho: float = 0.01,
    bucketing: bool = False,
    bucket_size: int = 4096,
) -> tuple[dict[str, int], dict[str, object]]:
    """Cluster core cells: returns (cell -> component label, stats).

    Parameters
    ----------
    core_pts   : DataFrame (cell, x*) of core points only (a filter of a cached frame).
    core_cells : pandas (cell, core_cnt) — cells with ≥ 1 core point.
    npairs     : pandas neighbor pairs (cell, ncell) over all non-empty cells.
    cells      : the call's cell table (quadtree root box per cell).
    """
    vertices = core_cells.sort_values("cell", kind="stable").reset_index(drop=True)
    idx = {c: i for i, c in enumerate(vertices["cell"])}
    counts = dict(zip(vertices["cell"], vertices["core_cnt"]))
    uf = UnionFind(len(vertices))

    # Candidate edges: neighboring core-cell pairs, deduplicated; the
    # responsible cell (more core points, ties by key) is first.
    cand = npairs[npairs["cell"].isin(idx) & npairs["ncell"].isin(idx)]
    seen = set()
    edges = []
    for g, h in zip(cand["cell"], cand["ncell"]):
        a, b = (g, h) if (counts[g], g) >= (counts[h], h) else (h, g)
        if (a, b) in seen:
            continue
        seen.add((a, b))
        edges.append((a, b))
    stats: dict[str, object] = {"n_core_cells": len(vertices), "n_candidate_edges": len(edges)}

    if method == "delaunay":
        for g, h in _delaunay_cell_edges(core_pts, d, eps):
            if g in idx and h in idx:
                uf.union(idx[g], idx[h])
        stats["n_evaluated"] = len(edges)
    else:
        # Responsible cells in non-increasing core-count order, in batches
        # pruned by the union-find between rounds; without bucketing one batch
        # holds every candidate edge, so nothing is pruned.
        if not bucketing:
            bucket_size = len(edges)
        order = sorted(range(len(edges)), key=lambda e: (-counts[edges[e][0]], edges[e][0]))
        n_evaluated = 0
        pos = 0
        while pos < len(order):
            batch_ids = []
            while pos < len(order) and len(batch_ids) < bucket_size:
                e = order[pos]
                pos += 1
                g, h = edges[e]
                if uf.find(idx[g]) != uf.find(idx[h]):
                    batch_ids.append(e)
            if not batch_ids:
                continue
            batch = [(e, *edges[e]) for e in batch_ids]
            conn = _connected_edges(spark, batch, core_pts, cells, d, eps, method, rho)
            n_evaluated += len(batch_ids)
            for eid in conn:
                g, h = edges[eid]
                uf.union(idx[g], idx[h])
        stats["n_evaluated"] = n_evaluated

    # Canonical component labels: min cell index per component.
    comp_min: dict[int, int] = {}
    for c, i in idx.items():
        r = uf.find(i)
        if r not in comp_min or i < comp_min[r]:
            comp_min[r] = i
    labels = {c: comp_min[uf.find(i)] for c, i in idx.items()}
    stats["n_clusters"] = len(comp_min)
    return labels, stats


def _delaunay_cell_edges(core_pts: DataFrame, d: int, eps: float) -> set[tuple[str, str]]:
    """2D Delaunay-based cell edges: DT over all core points, keep cross-cell
    edges with length ≤ eps (Figure 3)."""
    if d != 2:
        raise ValueError("delaunay cell graph requires d=2")
    pdf = core_pts.select("cell", "x0", "x1").toPandas()
    if len(pdf) == 0:
        return set()
    pts = pdf[["x0", "x1"]].to_numpy(dtype=np.float64)
    cells = pdf["cell"].to_numpy()
    uniq, inv = np.unique(pts, axis=0, return_inverse=True)
    # Representative cell per unique coordinate (duplicates share a cell —
    # identical points always land in the same grid/box cell).
    rep = np.zeros(len(uniq), dtype=np.int64)
    rep[inv] = np.arange(len(pts))
    e = delaunay_edges(uniq)
    if len(e) == 0:
        return set()
    pa = uniq[e[:, 0]]
    pb = uniq[e[:, 1]]
    ok = ((pa - pb) ** 2).sum(axis=1) <= eps * eps
    out = set()
    for i, j in e[ok]:
        ca, cb = cells[rep[i]], cells[rep[j]]
        if ca != cb:
            out.add((ca, cb) if ca < cb else (cb, ca))
    return out

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
  points, ties by the higher cell number), picked by one vectorised mask
  over the cell table's neighbour pairs;
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
    batch: pd.DataFrame,
    core_pts: DataFrame,
    cells: CellTable,
    d: int,
    eps: float,
    method: str,
    rho: float,
) -> list[int]:
    """Decide a batch of candidate edges (eid, gcell, hcell) in parallel,
    gcell the responsible cell; returns the connected eids."""
    xc = xcols(d)
    edf = driver_table(spark, batch, "eid long, gcell long, hcell long")
    queries = edf.join(core_pts, edf.gcell == core_pts.cell).select(
        F.col("eid").alias("key"), F.col("hcell").alias("tcell"), *xc
    )
    targets = core_pts.join(cells.df, "cell").select(
        "cell", *xc, *[f"lo{j}" for j in range(d)], "side"
    )
    res = per_target_cell(queries, targets, d, _connectivity(eps, method, rho))
    return [r["key"] for r in res.where(F.col("value") == 1).collect()]


def build_cell_graph(
    spark,
    core_pts: DataFrame,
    core_cnt: np.ndarray,
    cells: CellTable,
    d: int,
    eps: float,
    method: str = "bcp",
    rho: float = 0.01,
    bucketing: bool = False,
    bucket_size: int = 4096,
) -> tuple[np.ndarray, dict[str, object]]:
    """Cluster core cells: returns (cluster, stats).

    ``cluster`` is indexed by cell: the component label of each cell with a
    core point, the lowest cell number in its component, and -1 elsewhere.

    Parameters
    ----------
    core_pts : DataFrame (cell, x*) of core points only (a filter of a cached frame).
    core_cnt : each cell's number of core points, indexed by cell.
    cells    : the call's cell table (quadtree root box and neighbour pairs).
    """
    vertices = np.flatnonzero(core_cnt)
    uf = UnionFind(len(core_cnt))

    # Candidate edges: neighboring core-cell pairs, each once with the
    # responsible cell (more core points, ties by the higher number) first,
    # in non-increasing core-count order of the responsible cell.
    g, h = cells.pairs["cell"].to_numpy(), cells.pairs["ncell"].to_numpy()
    cg, ch = core_cnt[g], core_cnt[h]
    keep = (ch > 0) & ((cg > ch) | ((cg == ch) & (g > h)))
    g, h = g[keep], h[keep]
    order = np.lexsort((g, -core_cnt[g]))
    g, h = g[order], h[order]
    stats: dict[str, object] = {"n_core_cells": len(vertices), "n_candidate_edges": len(g)}

    if method == "delaunay":
        for a, b in _delaunay_cell_edges(core_pts, d, eps):
            uf.union(a, b)
        stats["n_evaluated"] = len(g)
    else:
        # Batches pruned by the union-find between rounds; without bucketing
        # one batch holds every candidate edge, so nothing is pruned.
        if not bucketing:
            bucket_size = len(g)
        n_evaluated = 0
        pos = 0
        while pos < len(g):
            batch_ids = []
            while pos < len(g) and len(batch_ids) < bucket_size:
                if uf.find(g[pos]) != uf.find(h[pos]):
                    batch_ids.append(pos)
                pos += 1
            if not batch_ids:
                continue
            batch = pd.DataFrame({"eid": batch_ids, "gcell": g[batch_ids], "hcell": h[batch_ids]})
            for e in _connected_edges(spark, batch, core_pts, cells, d, eps, method, rho):
                uf.union(g[e], h[e])
            n_evaluated += len(batch_ids)
        stats["n_evaluated"] = n_evaluated

    # Canonical component labels: the lowest cell number per component.
    roots, first, inverse = np.unique(
        [uf.find(v) for v in vertices], return_index=True, return_inverse=True
    )
    cluster = np.full(len(core_cnt), -1, dtype=np.int64)
    cluster[vertices] = vertices[first][inverse]
    stats["n_clusters"] = len(roots)
    return cluster, stats


def _delaunay_cell_edges(core_pts: DataFrame, d: int, eps: float) -> set[tuple[int, int]]:
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

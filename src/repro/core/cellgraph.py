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

Every candidate edge is decided in one Spark round through the shared
per-block kernel (``cellkernel.per_block``), blocks weighted by core-point
count: an edge (g, h) is decided at the block of its responsible cell g,
which reads the core points of g and h.  The optimisations of §4.4 are
reproduced:

* each pair is checked once (responsible cell = the one with more core
  points, ties by the higher cell number), picked by one vectorised mask
  over the cell table's neighbour pairs;
* connectivity-query reduction — each block walks its edges in order with
  a union-find over the cells it reads and skips a pair its own connected
  edges already join.  Local connectivity implies global connectivity, so
  the connected edges the blocks return, which the driver unions, give the
  components of the whole cell graph;
* *bucketing* sets that order: edges by non-increasing core-point count of
  the responsible cell, so the cells most likely to connect go first (as
  Gan & Tao's union-find in core-count order).  Without bucketing the edges
  go in cell order.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame

from repro.core.cellkernel import CellTable, blocks, per_block
from repro.core.grid import xcols
from repro.primitives.unionfind import UnionFind
from repro.spatial.bcp import bcp_connected, connected_approx, connected_via_quadtree
from repro.spatial.delaunay import delaunay_edges
from repro.spatial.usec import usec_connected


def _connect_block(
    g: np.ndarray,
    h: np.ndarray,
    block: np.ndarray,
    cells: CellTable,
    d: int,
    eps: float,
    method: str,
    rho: float,
):
    """Per-block kernel: walk the candidate edges ``e`` (g[e], h[e]) whose
    responsible cell g is the block's own, in the given order, skip an edge
    whose cells the block's union-find already joins, and decide the others
    by the chosen connectivity method on g's and h's core points (and h's
    root box); returns one row (eid, connected) per edge it checked."""
    xc = xcols(d)
    boxes = cells.pdf[[f"lo{j}" for j in range(d)] + ["side"]].to_numpy(dtype=np.float64)

    def fn(b: int, pdf: pd.DataFrame) -> pd.DataFrame:
        x = pdf[xc].to_numpy(dtype=np.float64)
        by_cell = pdf.groupby("cell", sort=False).indices
        mine = np.flatnonzero(block[g] == b)
        # Local union-find over the block's own and halo cells.
        local, ends = np.unique(np.concatenate([g[mine], h[mine]]), return_inverse=True)
        uf = UnionFind(len(local))
        checked = np.zeros(len(mine), dtype=bool)
        conn = np.zeros(len(mine), dtype=bool)
        for i, e in enumerate(mine):
            a, c = ends[i], ends[len(mine) + i]
            if uf.connected(a, c):
                continue
            pa, pb = x[by_cell[g[e]]], x[by_cell[h[e]]]
            lo, side = boxes[h[e], :-1], float(boxes[h[e], -1])
            if method == "bcp":
                conn[i] = bcp_connected(pa, pb, eps)
            elif method == "usec":
                conn[i] = usec_connected(pa, pb, eps)
            elif method == "qt":
                conn[i] = connected_via_quadtree(pa, pb, eps, lo, side)
            elif method == "approx":
                conn[i] = connected_approx(pa, pb, eps, rho, lo, side)
            else:  # pragma: no cover - guarded by dbscan()
                raise ValueError(method)
            checked[i] = True
            if conn[i]:
                uf.union(a, c)
        return pd.DataFrame({"eid": mine[checked], "connected": conn[checked]})

    return fn


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
) -> tuple[np.ndarray, dict[str, object]]:
    """Cluster core cells: returns (cluster, stats).

    ``cluster`` is indexed by cell: the component label of each cell with a
    core point, the lowest cell number in its component, and -1 elsewhere.

    Parameters
    ----------
    core_pts : DataFrame (cell, x*) of core points only (a filter of a cached frame).
    core_cnt : each cell's number of core points, indexed by cell.
    cells    : the call's cell table (quadtree root box and neighbour pairs).
    bucketing: order the edges by non-increasing core count of the
               responsible cell instead of by cell number.
    """
    vertices = np.flatnonzero(core_cnt)
    uf = UnionFind(len(core_cnt))

    # Candidate edges: neighboring core-cell pairs, each once with the
    # responsible cell (more core points, ties by the higher number) first.
    g, h = cells.pairs["cell"].to_numpy(), cells.pairs["ncell"].to_numpy()
    cg, ch = core_cnt[g], core_cnt[h]
    keep = (ch > 0) & ((cg > ch) | ((cg == ch) & (g > h)))
    g, h = g[keep], h[keep]
    order = np.lexsort((g, -core_cnt[g])) if bucketing else np.lexsort((h, g))
    g, h = g[order], h[order]
    # Delaunay decides every candidate edge at once.
    stats: dict[str, object] = {
        "n_core_cells": len(vertices), "n_candidate_edges": len(g), "n_evaluated": len(g),
    }

    if method == "delaunay":
        for a, b in _delaunay_cell_edges(core_pts, d, eps):
            uf.union(a, b)
    elif len(g):
        block = blocks(spark, core_cnt)
        gb = block[g]
        need = pd.DataFrame({"cell": np.concatenate([g, h]), "block": np.concatenate([gb, gb])})
        fn = _connect_block(g, h, block, cells, d, eps, method, rho)
        rows = per_block(
            spark, core_pts.select("cell", *xcols(d)), need, block, fn, "eid long, connected boolean"
        ).collect()
        for r in rows:
            if r["connected"]:
                uf.union(g[r["eid"]], h[r["eid"]])
        stats["n_evaluated"] = len(rows)

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

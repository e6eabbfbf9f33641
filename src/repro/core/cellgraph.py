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
per-block kernel (``cellkernel.per_block``), blocks weighted by core-point
count: an edge (g, h) is decided at the block of its responsible cell g,
which reads the core points of g and h, and the kernel returns the
connected edges.  The optimisations of §4.4 are
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

from repro.core.cellkernel import CellTable, blocks, per_block
from repro.core.grid import xcols
from repro.primitives.unionfind import UnionFind
from repro.spatial.bcp import bcp_connected, connected_approx, connected_via_quadtree
from repro.spatial.delaunay import delaunay_edges
from repro.spatial.usec import usec_connected


def _connect_block(
    batch: pd.DataFrame,
    block: np.ndarray,
    cells: CellTable,
    d: int,
    eps: float,
    method: str,
    rho: float,
):
    """Per-block kernel: decide the batch's edges (eid, gcell, hcell) whose
    responsible cell g is the block's own, by the chosen connectivity method
    on g's and h's core points (and h's root box); returns the connected eids."""
    xc = xcols(d)
    eid, g, h = (batch[c].to_numpy() for c in ("eid", "gcell", "hcell"))
    boxes = cells.pdf[[f"lo{j}" for j in range(d)] + ["side"]].to_numpy(dtype=np.float64)

    def fn(b: int, pdf: pd.DataFrame) -> pd.DataFrame:
        x = pdf[xc].to_numpy(dtype=np.float64)
        by_cell = pdf.groupby("cell", sort=False).indices
        mine = np.flatnonzero(block[g] == b)
        conn = np.zeros(len(mine), dtype=bool)
        for i, e in enumerate(mine):
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
        return pd.DataFrame({"eid": eid[mine[conn]]})

    return fn


def _connected_edges(
    spark,
    batch: pd.DataFrame,
    core_pts: DataFrame,
    block: np.ndarray,
    cells: CellTable,
    d: int,
    eps: float,
    method: str,
    rho: float,
) -> list[int]:
    """Decide a batch of candidate edges (eid, gcell, hcell) in parallel,
    gcell the responsible cell, each at gcell's block, which reads g's and
    h's core points; returns the connected eids."""
    gb = block[batch["gcell"].to_numpy()]
    need = pd.DataFrame({
        "cell": np.concatenate([batch["gcell"].to_numpy(), batch["hcell"].to_numpy()]),
        "block": np.concatenate([gb, gb]),
    })
    fn = _connect_block(batch, block, cells, d, eps, method, rho)
    res = per_block(spark, core_pts.select("cell", *xcols(d)), need, block, fn, "eid long")
    return [r["eid"] for r in res.collect()]


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
        block = blocks(spark, core_cnt)
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
            for e in _connected_edges(spark, batch, core_pts, block, cells, d, eps, method, rho):
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

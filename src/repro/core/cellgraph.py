"""Cell-graph construction and core clustering (Algorithm 3, §4.4, §5.2),
and the border links that ClusterBorder (Algorithm 4) reads.

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

Every candidate edge is decided in one pass of the per-block kernel
(``cellkernel.per_block``) over MarkCore's frame, blocks weighted by point
count: the block of an edge's responsible cell g reads the core points of g
and h.  The same pass gives each non-core point of a block's own cells its
*links*, the cells with a core point within eps (one ``pairs_within`` block
per cell against its closed neighbourhood's core points), as HPDBSCAN
records border links in its local pass: Alg. 4 needs only these cell-level
facts.  Delaunay decides its edges on the driver; its pass only finds
links.  The optimisations of §4.4 are reproduced:

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

from repro.core.cellkernel import CellTable, blocks, pairs_within, per_block
from repro.core.grid import xcols
from repro.primitives.unionfind import UnionFind
from repro.spatial.bcp import bcp_connected, connected_approx, connected_via_quadtree
from repro.spatial.delaunay import delaunay_edges
from repro.spatial.usec import usec_connected

# The block pass's rows: an edge row (edge, id = the candidate edge's index,
# connected) per edge a block checked, with no cells; a link row (not edge,
# id = the point's id, cells) per non-core point, never connected.
PASS_SCHEMA = "edge boolean, id long, connected boolean, cells array<long>"


def _cluster_block(
    g: np.ndarray,
    h: np.ndarray,
    block: np.ndarray,
    cells: CellTable,
    d: int,
    eps: float,
    method: str,
    rho: float,
):
    """Per-block kernel of the pass, over rows (id, cell, x*, is_core).

    Edges: walk the candidate edges ``e`` (g[e], h[e]) whose responsible
    cell g is the block's own, in the given order, skip an edge whose cells
    the block's union-find already joins, and decide the others by the
    chosen connectivity method on g's and h's core points (and h's root
    box); one edge row per edge it checked.  Links: one link row per
    non-core point of the block's own cells, with the sorted cells that
    hold a core point within eps of it (``[]`` for noise)."""
    xc = xcols(d)
    boxes = cells.pdf[[f"lo{j}" for j in range(d)] + ["side"]].to_numpy(dtype=np.float64)
    start, nbr = cells.neighbours()
    none = np.empty(0, dtype=np.int64)
    connect = {  # (g's core points, h's core points, h's root box corner, side)
        "bcp": lambda pa, pb, lo, side: bcp_connected(pa, pb, eps),
        "usec": lambda pa, pb, lo, side: usec_connected(pa, pb, eps),
        "qt": lambda pa, pb, lo, side: connected_via_quadtree(pa, pb, eps, lo, side),
        "approx": lambda pa, pb, lo, side: connected_approx(pa, pb, eps, rho, lo, side),
    }.get(method)  # None for delaunay, whose pass walks no edge

    def fn(b: int, pdf: pd.DataFrame) -> pd.DataFrame:
        x = pdf[xc].to_numpy(dtype=np.float64)
        cell, core = pdf["cell"].to_numpy(), pdf["is_core"].to_numpy()
        part = pdf.groupby(["cell", "is_core"], sort=False).indices

        def core_rows(c) -> np.ndarray:
            return part.get((c, True), none)

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
            pa, pb = x[core_rows(g[e])], x[core_rows(h[e])]
            conn[i] = connect(pa, pb, boxes[h[e], :-1], float(boxes[h[e], -1]))
            checked[i] = True
            if conn[i]:
                uf.union(a, c)

        own = np.flatnonzero(pdf["home"].to_numpy() & ~core)
        rows, links = [none], [none]
        for c in np.unique(cell[own]):
            q = part[(c, False)]
            p = np.concatenate([none] + [core_rows(t) for t in nbr[start[c] : start[c + 1]]])
            i, j = pairs_within(x[q], x[p], eps)
            rows.append(q[i])
            links.append(cell[p[j]])
        # (row, core cell) pairs sorted by row, then cell, each once
        row, link = np.unique(np.stack([np.concatenate(rows), np.concatenate(links)]), axis=1)
        lo, hi = np.searchsorted(row, own), np.searchsorted(row, own, side="right")
        n = int(checked.sum())
        return pd.DataFrame({
            "edge": np.arange(n + len(own)) < n,
            "id": np.concatenate([mine[checked], pdf["id"].to_numpy()[own]]),
            "connected": np.concatenate([conn[checked], np.zeros(len(own), dtype=bool)]),
            "cells": [[]] * n + [link[a:z].tolist() for a, z in zip(lo, hi)],
        })

    return fn


def build_cell_graph(
    spark,
    flagged: DataFrame,
    core_cnt: np.ndarray,
    cells: CellTable,
    d: int,
    eps: float,
    method: str = "bcp",
    rho: float = 0.01,
    bucketing: bool = False,
) -> tuple[np.ndarray, dict[str, object], DataFrame | None]:
    """Cluster core cells and find the border links: returns (cluster, stats, links).

    ``cluster`` is indexed by cell: the component label of each cell with a
    core point, the lowest cell number in its component, and -1 elsewhere.
    ``links`` is the block pass's output (``PASS_SCHEMA``), whose link rows
    give every non-core point its cells with a core point within eps, or
    None when no point is core or none is non-core.  It is cached when the
    pass also decided edges, and the caller unpersists it.

    Parameters
    ----------
    flagged  : MarkCore's per-point frame (id, cell, x*, is_core).
    core_cnt : each cell's number of core points, indexed by cell.
    cells    : the call's cell table (counts, quadtree root box and
               neighbour pairs).
    bucketing: order the edges by non-increasing core count of the
               responsible cell instead of by cell number.
    """
    vertices = np.flatnonzero(core_cnt)
    uf = UnionFind(len(core_cnt))

    # Candidate edges: neighboring core-cell pairs, each once with the
    # responsible cell (more core points, ties by the higher number) first.
    pg, ph = cells.pairs["cell"].to_numpy(), cells.pairs["ncell"].to_numpy()
    cg, ch = core_cnt[pg], core_cnt[ph]
    keep = (ch > 0) & ((cg > ch) | ((cg == ch) & (pg > ph)))
    g, h = pg[keep], ph[keep]
    order = np.lexsort((g, -core_cnt[g])) if bucketing else np.lexsort((h, g))
    g, h = g[order], h[order]
    # Delaunay decides every candidate edge at once.
    stats: dict[str, object] = {
        "n_core_cells": len(vertices), "n_candidate_edges": len(g), "n_evaluated": len(g),
    }
    if method == "delaunay":
        for a, b in _delaunay_cell_edges(flagged.where("is_core"), d, eps):
            uf.union(a, b)
        g, h = g[:0], h[:0]

    # The cells with a non-core point need links, unless no point is core.
    cnt = cells.pdf["cnt"].to_numpy()
    own = np.flatnonzero((cnt > core_cnt) & (len(vertices) > 0))
    links = None
    if len(g) or len(own):
        block = blocks(spark, cnt)
        halo = (cnt[pg] > core_cnt[pg]) & (core_cnt[ph] > 0)
        need = pd.DataFrame({
            "cell": np.concatenate([g, h, own, ph[halo]]),
            "block": np.concatenate([block[g], block[g], block[own], block[pg[halo]]]),
        })
        fn = _cluster_block(g, h, block, cells, d, eps, method, rho)
        links = per_block(spark, flagged, need, block, fn, PASS_SCHEMA)
    if len(g):
        if len(own):  # border reads the pass again
            links.cache()
        rows = links.where("edge").select("id", "connected").collect()
        for r in rows:
            if r["connected"]:
                uf.union(g[r["id"]], h[r["id"]])
        stats["n_evaluated"] = len(rows)

    # Canonical component labels: the lowest cell number per component.
    roots, first, inverse = np.unique(
        [uf.find(v) for v in vertices], return_index=True, return_inverse=True
    )
    cluster = np.full(len(core_cnt), -1, dtype=np.int64)
    cluster[vertices] = vertices[first][inverse]
    stats["n_clusters"] = len(roots)
    return cluster, stats, links if len(own) else None


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
    # A representative point per unique coordinate (duplicates share a cell —
    # identical points always land in the same grid/box cell).
    uniq, rep = np.unique(pts, axis=0, return_index=True)
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

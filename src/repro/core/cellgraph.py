"""Cell-graph construction and core clustering (Algorithm 3, §4.4, §5.2),
and the border links that ClusterBorder (Algorithm 4) reads.

Vertices are *core cells* (cells containing ≥1 core point); an edge connects
two neighboring core cells whose closest pair of core points is within eps.
Connectivity between a pair is decided by one of the paper's methods:

* ``bcp``   — blocked early-exit bichromatic closest pair (our-exact);
* ``qt``, ``approx`` — RangeCount on a quadtree over the other cell's core
              points, exact (our-exact-qt) or rho-approximate (our-approx /
              our-approx-qt; Gan&Tao semantics): one count, rho = 0 is exact;
* ``usec``  — unit-spherical emptiness checking with line separation (2D);
* ``delaunay`` — edges of the Delaunay triangulation over all core points,
              filtered to cross-cell edges of length ≤ eps (2D).

A call's one pass of the per-block kernel (``cellkernel.per_block``), blocks
weighted by point count, does MarkCore and ClusterCore and finds the border
links.  A block reads its own cells, their neighbours, and the neighbours of
every sparse cell among those (a two-cell halo, all worked out on the
driver from the cell counts alone).  It flags the points of its own cells
and their neighbours (``mark_core``), which gives it the core counts that
pick its candidate edges, the ones whose responsible cell it owns; it
decides those edges on the core points of their two cells; and it gives
each non-core point of its own cells its *links*, the cells with a core
point within eps (one ``pairs_within`` block per cell against its closed
neighbourhood's core points), as HPDBSCAN records border links in its local
pass: Alg. 4 needs only these cell-level facts.  Delaunay decides its edges
on the driver, from the core points the pass returns.  The optimisations of
§4.4 are reproduced:

* each pair is checked once (responsible cell = the one with more core
  points, ties by the higher cell number), picked by one vectorised mask
  over the neighbour pairs;
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
from repro.core.mark_core import CoreMarks
from repro.primitives.unionfind import UnionFind
from repro.spatial.bcp import bcp_connected, connected_via_quadtree
from repro.spatial.delaunay import delaunay_edges
from repro.spatial.usec import usec_connected

# The block pass's rows, by kind; a column a kind does not name is 0, false
# or empty.
#   POINT       one per point of a block's own cells when some cell is
#               sparse: id, cell, is_core, and cells = its links (sorted;
#               [] for a core point or noise)
#   EDGE        one per candidate edge the block checked: cell = the
#               responsible cell, id = the other cell, is_core = connected
#   CELL        one per own cell: cell, id = its core count, n = the
#               (point, neighbour point) pairs its RangeCounts covered
#   CORE_POINT  Delaunay only, one per core point of an own cell: cell, x
POINT, EDGE, CELL, CORE_POINT = range(4)
PASS_SCHEMA = (
    "kind int, id long, cell long, is_core boolean, n long, cells array<long>, x array<double>"
)


def candidate_edges(
    pg: np.ndarray, ph: np.ndarray, core_cnt: np.ndarray, bucketing: bool
) -> tuple[np.ndarray, np.ndarray]:
    """The candidate edges ``(g, h)`` among the neighbour pairs ``(pg, ph)``:
    core-cell pairs, each once with the responsible cell g (more core
    points, ties by the higher number) first, in walking order."""
    cg, ch = core_cnt[pg], core_cnt[ph]
    keep = (ch > 0) & ((cg > ch) | ((cg == ch) & (pg > ph)))
    g, h = pg[keep], ph[keep]
    order = np.lexsort((h, g, -core_cnt[g])) if bucketing else np.lexsort((h, g))
    return g[order], h[order]


def halo(block: np.ndarray, cells: CellTable, sparse: np.ndarray) -> pd.DataFrame:
    """The pass's ``need`` table ``(cell, block)``: each block's own cells,
    their neighbours, and the neighbours of every sparse cell among those."""
    start, nbr = cells.neighbours()
    near = pd.DataFrame({"cell": nbr, "block": np.repeat(block, np.diff(start))}).drop_duplicates()
    far = near[sparse[near["cell"]]].merge(cells.pairs, on="cell")
    return pd.concat([near, far[["ncell", "block"]].rename(columns={"ncell": "cell"})])


def _cluster_block(
    flag,
    block: np.ndarray,
    cells: CellTable,
    d: int,
    eps: float,
    method: str,
    rho: float,
    bucketing: bool,
    points: bool,
):
    """Per-block kernel of the pass, over rows (id, cell, x*, home).

    Flags the points of the block's own cells and their neighbours with
    ``flag`` (``CoreMarks.flag``).  Edges: walk the candidate edges whose
    responsible cell is the block's own, in order, skip an edge whose cells
    the block's union-find already joins, and decide the others by the
    chosen connectivity method on the two cells' core points (and the other
    cell's root box); one EDGE row per edge it checked.  Links: the sorted
    cells that hold a core point within eps of each non-core point of the
    own cells.  Returns ``PASS_SCHEMA`` rows: POINT rows when ``points``,
    and CELL (and, for Delaunay, CORE_POINT) rows."""
    xc = xcols(d)
    boxes = cells.pdf[[f"lo{j}" for j in range(d)] + ["side"]].to_numpy(dtype=np.float64)
    start, nbr = cells.neighbours()
    none = np.empty(0, dtype=np.int64)
    connect = {  # (g's core points, h's core points, h's root box corner, side)
        "bcp": lambda pa, pb, lo, side: bcp_connected(pa, pb, eps),
        "usec": lambda pa, pb, lo, side: usec_connected(pa, pb, eps),
        "qt": lambda pa, pb, lo, side: connected_via_quadtree(pa, pb, eps, lo, side),
        "approx": lambda pa, pb, lo, side: connected_via_quadtree(pa, pb, eps, lo, side, rho),
    }.get(method)  # None for delaunay, whose pass walks no edge

    def fn(b: int, pdf: pd.DataFrame) -> pd.DataFrame:
        x = pdf[xc].to_numpy(dtype=np.float64)
        cell = pdf["cell"].to_numpy()
        by_cell = pdf.groupby("cell", sort=False).indices
        lo, hi = np.searchsorted(block, [b, b + 1])  # the own cells lo..hi-1
        hood = nbr[start[lo] : start[hi]]
        todo = np.unique(hood)
        is_core, pairs = flag(x, by_cell, todo, start, nbr)
        core_cnt = np.bincount(cell[is_core], minlength=len(block))

        def core_rows(c) -> np.ndarray:
            rows = by_cell[c]
            return rows[is_core[rows]]

        g, h = candidate_edges(np.repeat(np.arange(lo, hi), np.diff(start[lo : hi + 1])), hood,
                               core_cnt, bucketing)
        if connect is None:
            g, h = g[:0], h[:0]
        # Local union-find over the block's own and halo cells.
        local, ends = np.unique(np.concatenate([g, h]), return_inverse=True)
        uf = UnionFind(len(local))
        checked = np.zeros(len(g), dtype=bool)
        conn = np.zeros(len(g), dtype=bool)
        for e in range(len(g)):
            a, c = ends[e], ends[len(g) + e]
            if uf.connected(a, c):
                continue
            pa, pb = x[core_rows(g[e])], x[core_rows(h[e])]
            conn[e] = connect(pa, pb, boxes[h[e], :-1], float(boxes[h[e], -1]))
            checked[e] = True
            if conn[e]:
                uf.union(a, c)

        home = np.flatnonzero(pdf["home"].to_numpy())
        own = home[~is_core[home]]
        rows, links = [none], [none]
        for c in np.unique(cell[own]):
            near = nbr[start[c] : start[c + 1]]
            if not core_cnt[near].any():  # no core point within reach: noise
                continue
            q = by_cell[c][~is_core[by_cell[c]]]
            p = np.concatenate([core_rows(t) for t in near])
            i, j = pairs_within(x[q], x[p], eps)
            rows.append(q[i])
            links.append(cell[p[j]])
        # (row, core cell) pairs sorted by row, then cell, each once
        row, link = np.unique(np.stack([np.concatenate(rows), np.concatenate(links)]), axis=1)
        a, z = np.searchsorted(row, home), np.searchsorted(row, home, side="right")
        ours = np.arange(lo, hi)
        out = [
            _rows(EDGE, cell=g[checked], id=h[checked], is_core=conn[checked]),
            _rows(CELL, cell=ours, id=core_cnt[ours], n=pairs[np.searchsorted(todo, ours)]),
        ]
        if points:
            out.append(_rows(POINT, id=pdf["id"].to_numpy()[home], cell=cell[home],
                             is_core=is_core[home], cells=[link[i:j].tolist() for i, j in zip(a, z)]))
        if method == "delaunay":
            mine = home[is_core[home]]
            out.append(_rows(CORE_POINT, cell=cell[mine], x=x[mine].tolist()))
        return pd.concat(out, ignore_index=True)

    return fn


def _rows(kind: int, **cols) -> pd.DataFrame:
    """Pass rows of one kind from the columns given; the others are 0,
    false or empty."""
    n = len(next(iter(cols.values())))
    fill = {"id": 0, "cell": 0, "is_core": False, "n": 0, "cells": [[]] * n, "x": [[]] * n}
    return pd.DataFrame({"kind": kind, **fill, **cols}, index=range(n))


def build_cell_graph(
    spark,
    marks: CoreMarks,
    cells: CellTable,
    d: int,
    eps: float,
    method: str = "bcp",
    rho: float = 0.01,
    bucketing: bool = False,
) -> tuple[np.ndarray, dict[str, object], DataFrame | None]:
    """Mark the core points, cluster the core cells and find the border
    links in one block pass: returns (cluster, stats, rows).

    ``cluster`` is indexed by cell: the component label of each cell with a
    core point, the lowest cell number in its component, and -1 elsewhere.
    ``rows`` is the pass's output (``PASS_SCHEMA``), whose POINT rows give
    every point its flag and links; it is cached and the caller unpersists
    it.  It is None when no cell is sparse: then every point is core.

    Parameters
    ----------
    marks    : MarkCore's part of the pass (``mark_core``).
    cells    : the call's cell table (counts, quadtree root box and
               neighbour pairs).
    bucketing: order the edges by non-increasing core count of the
               responsible cell instead of by cell number.
    """
    if method == "delaunay" and d != 2:
        raise ValueError("delaunay cell graph requires d=2")
    cnt = cells.pdf["cnt"].to_numpy(dtype=np.int64)
    pg, ph = cells.pairs["cell"].to_numpy(), cells.pairs["ncell"].to_numpy()
    core_cnt, rows = cnt.copy(), None
    small = _rows(CELL, cell=np.empty(0, dtype=np.int64))  # the pass's rows other than POINT
    # With no sparse cell every point is core, and the pass only decides edges.
    sparse = marks.sparse.any()
    if sparse or len(pg):
        block = blocks(spark, cnt)
        fn = _cluster_block(marks.flag, block, cells, d, eps, method, rho, bucketing, sparse)
        out = per_block(spark, marks.points, halo(block, cells, marks.sparse), block, fn, PASS_SCHEMA)
        if sparse:  # border reads the point rows again
            rows = out.cache()
        small = out.where(f"kind != {POINT}").toPandas()
    kind = small["kind"].to_numpy()
    per_cell = small[kind == CELL]
    core_cnt[per_cell["cell"].to_numpy(dtype=np.int64)] = per_cell["id"].to_numpy(dtype=np.int64)
    vertices = np.flatnonzero(core_cnt)
    g, _ = candidate_edges(pg, ph, core_cnt, bucketing)
    checked = small[kind == EDGE]
    stats: dict[str, object] = {
        "n_core_cells": len(vertices),
        "n_candidate_edges": len(g),
        "n_evaluated": len(g) if method == "delaunay" else len(checked),
        "n_range_pairs": int(per_cell["n"].sum()),
    }
    if method == "delaunay":
        core_pts = small[kind == CORE_POINT]
        edges = _delaunay_cell_edges(core_pts["cell"].to_numpy(), core_pts["x"].tolist(), eps)
    else:
        edges = checked.loc[checked["is_core"], ["cell", "id"]].to_numpy(dtype=np.int64)
    uf = UnionFind(len(core_cnt))
    for a, b in edges:
        uf.union(int(a), int(b))

    # Canonical component labels: the lowest cell number per component.
    roots, first, inverse = np.unique(
        [uf.find(v) for v in vertices], return_index=True, return_inverse=True
    )
    cluster = np.full(len(core_cnt), -1, dtype=np.int64)
    cluster[vertices] = vertices[first][inverse]
    stats["n_clusters"] = len(roots)
    return cluster, stats, rows


def _delaunay_cell_edges(cell: np.ndarray, xy: list, eps: float) -> list[tuple[int, int]]:
    """2D Delaunay-based cell edges: DT over all core points (their cells
    and coordinates), keep cross-cell edges with length ≤ eps (Figure 3)."""
    if not len(cell):
        return []
    pts = np.asarray(xy, dtype=np.float64)
    # A representative point per unique coordinate (duplicates share a cell —
    # identical points always land in the same grid/box cell).
    uniq, rep = np.unique(pts, axis=0, return_index=True)
    e = delaunay_edges(uniq)
    if len(e) == 0:
        return []
    ok = ((uniq[e[:, 0]] - uniq[e[:, 1]]) ** 2).sum(axis=1) <= eps * eps
    ca, cb = cell[rep[e[ok, 0]]], cell[rep[e[ok, 1]]]
    return list(zip(ca[ca != cb], cb[ca != cb]))

"""Sequential grid-based DBSCAN — the Gan&Tao-v2 serial-baseline stand-in.

The paper compares against Gan&Tao's serial implementation (the fastest
existing serial exact/approx DBSCAN) and reports that its own algorithms run
serially ~5x faster.  That binary is closed/unavailable offline, so this
module implements the same algorithm the binary implements — Gan&Tao's
grid-based exact DBSCAN [40]: eps/√d grid, dense-cell shortcut, range counts
of a sparse cell's points against its whole neighbourhood, cell graph via
early-exit BCP with union-find pruning (cells in non-increasing size order),
and border assignment — in single-threaded numpy.  It is the "best serial
baseline" for the Figure 8 speedup experiment and the experiments'
correctness check.

Cells and neighbours come from ``grid`` (cells numbered in coordinate order,
``grid.neighbor_pairs``, ``CellTable.neighbours``).  MarkCore counts a sparse
cell with the pipeline's own RangeCount, ``cellkernel.core_within``, which
stops at minPts and takes larger neighbours nearest first, so this stays the
best serial code here; border makes one distance block per cell over its
whole neighbourhood (``pairs_within``).  ``reference.dbscan_brute`` stays
the independent reference.
"""
from __future__ import annotations

import numpy as np
import pandas as pd

from repro.core.cellkernel import CellTable, core_within, pairs_within
from repro.core.grid import ccols, cell_side, neighbor_pairs
from repro.primitives.unionfind import UnionFind
from repro.spatial.bcp import bcp_connected


def dbscan_seq(
    pts: np.ndarray, eps: float, min_pts: int
) -> tuple[np.ndarray, list[frozenset[int]]]:
    """Sequential grid DBSCAN; same canonical output as reference.dbscan_brute."""
    pts = np.asarray(pts, dtype=np.float64)
    n, d = pts.shape
    cc = np.floor(pts / cell_side(eps, d)).astype(np.int64)
    coords, cell = np.unique(cc, axis=0, return_inverse=True)
    table = pd.DataFrame(coords, columns=ccols(d)).assign(cell=np.arange(len(coords)))
    start, nbr = CellTable(table, neighbor_pairs(table, d)).neighbours()
    order = np.argsort(cell.ravel(), kind="stable")
    bounds = np.searchsorted(cell.ravel()[order], np.arange(len(coords) + 1))
    members = [order[bounds[c] : bounds[c + 1]] for c in range(len(coords))]

    def gather(c: int) -> np.ndarray:
        """The points of cell ``c``'s closed neighbourhood."""
        return np.concatenate([members[h] for h in nbr[start[c] : start[c + 1]]])

    # ---- mark core ------------------------------------------------------
    core = np.zeros(n, dtype=bool)
    for c, idx in enumerate(members):
        if len(idx) >= min_pts:
            core[idx] = True
        else:
            hood = nbr[start[c] : start[c + 1]]
            hood = hood[hood != c]

            def gap(j: np.ndarray) -> np.ndarray:  # squared gap in cell units
                return (np.maximum(np.abs(coords[hood[j]] - coords[c]) - 1, 0) ** 2).sum(axis=1)

            core[idx], _ = core_within(pts, idx, [members[h] for h in hood], gap, eps, min_pts)

    # ---- cluster core: cell graph with UF pruning -----------------------
    core_members = [idx[core[idx]] for idx in members]
    keys = sorted((c for c in range(len(members)) if len(core_members[c])),
                  key=lambda c: (-len(core_members[c]), c))
    pos = {c: i for i, c in enumerate(keys)}
    uf = UnionFind(len(keys))
    for k in keys:  # non-increasing core-count order (Gan&Tao heuristic)
        for h in nbr[start[k] : start[k + 1]]:
            # each pair once, from its earlier cell; the find also skips h == k
            if h not in pos or pos[h] < pos[k] or uf.find(pos[k]) == uf.find(pos[h]):
                continue
            if bcp_connected(pts[core_members[k]], pts[core_members[h]], eps):
                uf.union(pos[k], pos[h])

    comp_min: dict[int, int] = {}
    for k in keys:
        r = uf.find(pos[k])
        comp_min[r] = min(comp_min.get(r, n), int(core_members[k].min()))
    cluster = np.full(n, -1, dtype=np.int64)  # each core point's label
    for k in keys:
        cluster[core_members[k]] = comp_min[uf.find(pos[k])]

    # ---- cluster border -------------------------------------------------
    hits = [np.empty((2, 0), dtype=np.int64)]  # (non-core point, cluster) pairs
    for c, idx in enumerate(members):
        nc = idx[~core[idx]]
        if len(nc) and keys:
            p = gather(c)
            p = p[core[p]]
            i, j = pairs_within(pts[nc], pts[p], eps)
            hits.append(np.stack([nc[i], cluster[p[j]]]))
    labels = [{v} if v >= 0 else set() for v in cluster.tolist()]
    for a, v in np.unique(np.concatenate(hits, axis=1), axis=1).T.tolist():
        labels[a].add(v)
    return core, [frozenset(s) for s in labels]

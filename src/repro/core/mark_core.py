"""Parallel MarkCore (Algorithm 2), counted inside ClusterCore's block pass.

Dense cells (≥ minPts points) mark all their points core directly — any two
points in a cell are within eps.  Points of sparse cells count neighbours by
distance with ``cellkernel.core_within``, which stops at minPts (Alg. 2 only
asks whether a count reaches it): one scan over the cell and its neighbour
cells of at most 32 points at once, then each larger neighbour, nearest
first, on the points still below minPts only.  our-exact-qt (§5.2) counts
each larger neighbour with a quadtree rooted at that cell's box, built once
per cell in a block, over those points only.

``mark_core`` runs no Spark job.  From the cell table alone it decides which
cells are sparse, and it hands ClusterCore's one block pass
(``cellgraph.build_cell_graph``) the per-point frame and the block-side
``flag`` function.  That pass ships each block a two-cell halo, so a block
flags its own cells and their neighbours itself, and so derives the core
counts its candidate edges need.
"""
from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np
from pyspark.sql import DataFrame

from repro.core.cellkernel import CellTable, core_within
from repro.core.grid import xcols
from repro.spatial.quadtree import QuadTree


class CoreMarks(NamedTuple):
    """MarkCore's part of the block pass.

    ``points`` is the per-point frame ``(id, cell, x*)``; ``sparse`` marks
    the cells whose points are counted (an array indexed by cell); ``flag(x,
    by_cell, todo, start, nbr)`` flags the block rows ``x`` of the cells
    ``todo`` (``by_cell``: each cell's row indices; ``start, nbr``: the
    closed neighbourhoods, ``CellTable.neighbours``) and returns ``(is_core,
    pairs)``, a flag per row (false outside ``todo``) and the pairs each
    cell of ``todo`` covered.
    """

    points: DataFrame
    sparse: np.ndarray
    flag: Callable[..., tuple[np.ndarray, np.ndarray]]


def _flag_cells(cells: CellTable, d: int, eps: float, min_pts: int, use_quadtree: bool):
    """The block-side ``CoreMarks.flag``."""
    cnt = cells.pdf["cnt"].to_numpy(dtype=np.int64)
    boxes = cells.pdf[[f"lo{j}" for j in range(d)] + ["side"]].to_numpy(dtype=np.float64)
    lo, side = boxes[:, :-1], boxes[:, -1:]

    def flag(x: np.ndarray, by_cell: dict, todo: np.ndarray, start: np.ndarray, nbr: np.ndarray):
        is_core = np.zeros(len(x), dtype=bool)
        pairs = np.zeros(len(todo), dtype=np.int64)
        trees: dict[int, QuadTree] = {}

        def tree_count(h: int, q: np.ndarray) -> np.ndarray:
            if h not in trees:
                trees[h] = QuadTree(x[by_cell[h]], lo[h], float(side[h, 0]))
            return np.fromiter((trees[h].range_count(r, eps) for r in q), np.int64, len(q))

        for i, c in enumerate(todo):
            if cnt[c] >= min_pts:
                is_core[by_cell[c]] = True
                continue
            hood = nbr[start[c] : start[c + 1]]
            hood = hood[hood != c]

            def gap(j: np.ndarray) -> np.ndarray:  # squared gap between the root boxes
                h = hood[j]
                apart = np.maximum(lo[h] - lo[c] - side[c], lo[c] - lo[h] - side[h])
                return (np.maximum(apart, 0.0) ** 2).sum(axis=1)

            count = (lambda j, q: tree_count(hood[j], q)) if use_quadtree else None
            is_core[by_cell[c]], pairs[i] = core_within(
                x, by_cell[c], [by_cell[h] for h in hood], gap, eps, min_pts, count
            )
        return is_core, pairs

    return flag


def mark_core(
    pts_cells: DataFrame,
    d: int,
    eps: float,
    min_pts: int,
    cells: CellTable,
    use_quadtree: bool = False,
) -> CoreMarks:
    """MarkCore's part of the call's block pass; runs no Spark job.

    Parameters
    ----------
    pts_cells : points with their cell (id, x*, cell).
    cells     : the call's cell table (count, quadtree root box and
                neighbour pairs of each cell).
    """
    sparse = cells.pdf["cnt"].to_numpy(dtype=np.int64) < min_pts
    return CoreMarks(
        pts_cells.select("id", "cell", *xcols(d)),
        sparse,
        _flag_cells(cells, d, eps, min_pts, use_quadtree),
    )

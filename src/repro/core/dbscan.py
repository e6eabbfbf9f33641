"""End-to-end parallel DBSCAN pipelines (Algorithm 1) on Spark.

``dbscan`` composes the phases — cell construction (grid §4.1 or box §4.2),
MarkCore (Alg. 2), ClusterCore (Alg. 3 with BCP / quadtree / USEC / Delaunay
connectivity), connected components, ClusterBorder (Alg. 4) — into the
paper's named implementations.  ``"qt"`` and ``"approx"`` are one quadtree
RangeCount, exact at rho = 0 and rho-approximate at the call's rho:

=================  ========================================================
paper name          dbscan(...) arguments
-----------------  --------------------------------------------------------
our-exact           graph_method="bcp"
our-exact-qt        graph_method="qt", markcore_quadtree=True
our-approx          graph_method="approx"  (markcore scan)
our-approx-qt       graph_method="approx", markcore_quadtree=True
*-bucketing         bucketing=True
our-2d-grid-*       d=2, cell_method="grid", graph_method in {bcp,usec,delaunay}
our-2d-box-*        d=2, cell_method="box",  graph_method in {bcp,usec,delaunay}
=================  ========================================================

A cell is its row in the call's ``CellTable`` (``repro.core.cellkernel``),
so the phases hand each other per-cell facts as arrays indexed by cell.  A
call runs the per-block kernel (``cellkernel.per_block``) once, a block
being a run of cells that reads its own cells plus a two-cell halo: their
neighbours, and the neighbours of every sparse cell among those.  In that
one pass a block flags the core points of its own cells and their
neighbours (MarkCore, which itself runs no Spark job), decides the
candidate edges its own cells are responsible for (ClusterCore), and finds
each non-core point's core cells within eps (its links).  The driver
collects the pass's small rows (core counts, edges) in the pass's one job,
and ClusterBorder labels the pass's cached point rows, the non-core ones
from their links, with JVM joins only.  When no cell is sparse, every point
is core and the pass, if there is a neighbour pair, only decides edges.  A
call caches the pass's output (unless every cell is dense) and the result,
and leaves only the result cached.

Output: DataFrame (id, is_core, clusters array<long>) — empty array = noise;
border points may carry several labels.  Cluster labels are canonical core-
cell component indices; tests canonicalise further to min-core-point ids.
"""
from __future__ import annotations

import math
import time

from pyspark.sql import DataFrame, SparkSession

from repro.core import box as boxmod
from repro.core import grid
from repro.core.border import cluster_border
from repro.core.cellgraph import build_cell_graph
from repro.core.mark_core import mark_core

# Cell construction (§4.1 grid, §4.2 box): points -> (pts_cells, cells).
CELL_METHODS = {"grid": grid.build_cells, "box": boxmod.build_cells}
GRAPH_METHODS = ("bcp", "qt", "approx", "usec", "delaunay")  # cell-graph connectivity (§4.4)


def dbscan(
    spark: SparkSession,
    points: DataFrame,
    eps: float,
    min_pts: int,
    d: int,
    *,
    cell_method: str = "grid",
    graph_method: str = "bcp",
    markcore_quadtree: bool = False,
    rho: float = 0.01,
    bucketing: bool = False,
    return_stats: bool = False,
):
    """Run parallel DBSCAN; see module docstring for the variant matrix.

    ``rho`` (finite, > 0) is the approximation factor of
    ``graph_method="approx"``.  Arguments no variant accepts raise
    ValueError before any Spark job runs.
    """
    xc = grid.xcols(d)
    if not (math.isfinite(eps) and eps > 0):
        raise ValueError(f"eps must be finite and > 0, got {eps}")
    if min_pts < 1:
        raise ValueError(f"min_pts must be >= 1, got {min_pts}")
    if not (math.isfinite(rho) and rho > 0):
        raise ValueError(f"rho must be finite and > 0, got {rho}")
    if cell_method not in CELL_METHODS or graph_method not in GRAPH_METHODS:
        raise ValueError(f"unknown cell_method {cell_method!r} or graph_method {graph_method!r}")
    if graph_method in ("usec", "delaunay") and d != 2:
        raise ValueError(f"graph_method={graph_method!r} needs d=2, got d={d}")
    if sorted(c for c in points.columns if c.startswith("x")) != sorted(xc):
        raise ValueError(f"d={d} needs point columns x0..x{d - 1}, got {points.columns}")
    t0 = time.perf_counter()
    stats: dict[str, object] = {}

    # ---- cells ----------------------------------------------------------
    pts_cells, cells = CELL_METHODS[cell_method](points, eps, d)
    t1 = time.perf_counter()
    stats["n_cells"] = len(cells.pdf)
    stats["t_cells"] = t1 - t0

    # ---- mark core ------------------------------------------------------
    marks = mark_core(pts_cells, d, eps, min_pts, cells, use_quadtree=markcore_quadtree)
    t2 = time.perf_counter()
    stats["t_markcore"] = t2 - t1

    # ---- cluster core (and MarkCore's counts, in the same pass) ---------
    cluster, gstats, rows = build_cell_graph(
        spark, marks, cells, d, eps,
        method=graph_method, rho=rho, bucketing=bucketing,
    )
    stats.update(gstats)
    t3 = time.perf_counter()
    stats["t_clustercore"] = t3 - t2

    # ---- cluster border -------------------------------------------------
    result = cluster_border(spark, marks.points, cluster, rows).cache()
    result.count()
    t4 = time.perf_counter()
    stats["t_border"] = t4 - t3
    stats["t_total"] = t4 - t0

    if rows is not None:
        rows.unpersist()
    if return_stats:
        return result, stats
    return result


VARIANTS = {
    "our-exact": dict(graph_method="bcp"),
    "our-exact-qt": dict(graph_method="qt", markcore_quadtree=True),
    "our-approx": dict(graph_method="approx"),
    "our-approx-qt": dict(graph_method="approx", markcore_quadtree=True),
    "our-exact-bucketing": dict(graph_method="bcp", bucketing=True),
    "our-exact-qt-bucketing": dict(graph_method="qt", markcore_quadtree=True, bucketing=True),
    "our-approx-bucketing": dict(graph_method="approx", bucketing=True),
    "our-approx-qt-bucketing": dict(graph_method="approx", markcore_quadtree=True, bucketing=True),
    "our-2d-grid-bcp": dict(cell_method="grid", graph_method="bcp"),
    "our-2d-grid-usec": dict(cell_method="grid", graph_method="usec"),
    "our-2d-grid-delaunay": dict(cell_method="grid", graph_method="delaunay"),
    "our-2d-box-bcp": dict(cell_method="box", graph_method="bcp"),
    "our-2d-box-usec": dict(cell_method="box", graph_method="usec"),
    "our-2d-box-delaunay": dict(cell_method="box", graph_method="delaunay"),
}


def dbscan_variant(spark, points, eps, min_pts, d, variant: str, **extra):
    """Run one of the paper's named implementations (see VARIANTS)."""
    kw = dict(VARIANTS[variant])
    kw.update(extra)
    return dbscan(spark, points, eps, min_pts, d, **kw)

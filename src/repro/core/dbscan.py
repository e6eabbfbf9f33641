"""End-to-end parallel DBSCAN pipelines (Algorithm 1) on Spark.

``dbscan`` composes the phases — cell construction (grid §4.1 or box §4.2),
MarkCore (Alg. 2), ClusterCore (Alg. 3 with BCP / quadtree / USEC / Delaunay
/ approximate connectivity), connected components, ClusterBorder (Alg. 4) —
into the paper's named implementations:

=================  ========================================================
paper name          dbscan(...) arguments
-----------------  --------------------------------------------------------
our-exact           graph_method="bcp"
our-exact-qt        graph_method="qt", markcore_quadtree=True
our-approx          approx=True  (graph approx, markcore scan)
our-approx-qt       approx=True, markcore_quadtree=True
*-bucketing         bucketing=True
our-2d-grid-*       d=2, cell_method="grid", graph_method in {bcp,usec,delaunay}
our-2d-box-*        d=2, cell_method="box",  graph_method in {bcp,usec,delaunay}
=================  ========================================================

A cell is its row in the call's ``CellTable`` (``repro.core.cellkernel``),
so the phases hand each other per-cell facts as arrays indexed by cell.
MarkCore, ClusterCore and ClusterBorder each run the per-block kernel
(``cellkernel.per_block``): a block is a run of cells that reads its own
cells plus a one-cell halo and returns the phase's rows, so no phase joins
its answer back to the points.  One
per-point frame, MarkCore's ``(id, cell, x*, is_core)``, carries a call to
the result: ClusterCore and ClusterBorder read its rows as filters, and
ClusterBorder labels every point.  A call caches that frame (unless every
cell is dense, when it is a projection of the points with their cells) and
the result, and leaves only the result cached.

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
    approx: bool = False,
    rho: float = 0.01,
    bucketing: bool = False,
    return_stats: bool = False,
):
    """Run parallel DBSCAN; see module docstring for the variant matrix.

    Arguments no variant accepts raise ValueError before any Spark job runs.
    """
    xc = grid.xcols(d)
    if not (math.isfinite(eps) and eps > 0):
        raise ValueError(f"eps must be finite and > 0, got {eps}")
    if min_pts < 1:
        raise ValueError(f"min_pts must be >= 1, got {min_pts}")
    if cell_method not in CELL_METHODS or graph_method not in ("bcp", "qt", "usec", "delaunay"):
        raise ValueError(f"unknown cell_method {cell_method!r} or graph_method {graph_method!r}")
    if graph_method in ("usec", "delaunay") and not approx and d != 2:
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
    flagged, core_cnt = mark_core(
        spark, pts_cells, d, eps, min_pts, cells, use_quadtree=markcore_quadtree
    )
    t2 = time.perf_counter()
    stats["t_markcore"] = t2 - t1

    # ---- cluster core ---------------------------------------------------
    cluster, gstats = build_cell_graph(
        spark, flagged.where("is_core").select("cell", *xc), core_cnt, cells, d, eps,
        method="approx" if approx else graph_method, rho=rho, bucketing=bucketing,
    )
    stats.update(gstats)
    t3 = time.perf_counter()
    stats["t_clustercore"] = t3 - t2

    # ---- cluster border -------------------------------------------------
    result = cluster_border(spark, flagged, cells, core_cnt, cluster, d, eps).cache()
    result.count()
    t4 = time.perf_counter()
    stats["t_border"] = t4 - t3
    stats["t_total"] = t4 - t0

    flagged.unpersist()
    if return_stats:
        return result, stats
    return result


VARIANTS = {
    "our-exact": dict(graph_method="bcp"),
    "our-exact-qt": dict(graph_method="qt", markcore_quadtree=True),
    "our-approx": dict(approx=True),
    "our-approx-qt": dict(approx=True, markcore_quadtree=True),
    "our-exact-bucketing": dict(graph_method="bcp", bucketing=True),
    "our-exact-qt-bucketing": dict(graph_method="qt", markcore_quadtree=True, bucketing=True),
    "our-approx-bucketing": dict(approx=True, bucketing=True),
    "our-approx-qt-bucketing": dict(approx=True, markcore_quadtree=True, bucketing=True),
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

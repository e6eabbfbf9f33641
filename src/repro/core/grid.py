"""Grid cell construction (§4.1) and neighbor-cell finding (§5.1).

Points are placed in disjoint d-dimensional cells of side eps/√d, so that any
two points in the same cell are within eps of each other.  The paper
semisorts (cell-id, point-id) pairs and stores non-empty cells in a parallel
hash table; here the cell coordinates are computed with pure Catalyst
expressions (``floor(x_j / side)``) and the semisort is the shuffle
``groupBy`` that counts the points per cell.  The non-empty-cell table —
O(#cells), orders of magnitude smaller than the input — is collected to the
driver, which plays the role of the paper's cell hash table and numbers the
cells in coordinate order; ``build_cells`` returns it as the ``CellTable``
shared with box cells (``repro.core.box``), and the points reach their cell
number through one broadcast join on the coordinates.

Neighbor cells (cells that can contain a point within eps of a point in the
current cell) are found either by enumerating integer offsets (feasible for
d ≤ 3, §4.1) or by range queries on a k-d tree over the non-empty cells
(the paper's §5.1 approach for higher d; ours is built driver-side —
substitution documented in DESIGN.md).  The paper probes its hash table once
per (cell, offset), in parallel; here all those probes are one pandas merge
of the broadcast (cell, offset) shifts with the cell table, in chunks of at
most ~4M shifts.
"""
from __future__ import annotations

import math

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.core.cellkernel import CellTable, driver_table
from repro.spatial.kdtree import KDTree


def cell_side(eps: float, d: int) -> float:
    """Grid cell side length eps/√d (cell diagonal = eps)."""
    return eps / math.sqrt(d)


def xcols(d: int) -> list[str]:
    return [f"x{j}" for j in range(d)]


def ccols(d: int) -> list[str]:
    return [f"c{j}" for j in range(d)]


def with_cells(points: DataFrame, eps: float, d: int) -> DataFrame:
    """The points with their integer cell coordinates: (id, x*, c*)."""
    side = cell_side(eps, d)
    cc = [F.floor(F.col(x) / F.lit(side)).cast("long").alias(c) for x, c in zip(xcols(d), ccols(d))]
    return points.select("id", *xcols(d), *cc)


def build_cells(points: DataFrame, eps: float, d: int) -> tuple[DataFrame, CellTable]:
    """Grid cells: (pts_cells, cells), ``pts_cells`` being (id, x*, cell).

    Cells are numbered in coordinate order.  Each cell's quadtree root box is
    the cell itself.  A NaN, infinite or null coordinate raises ValueError;
    the cell-table job counts them.
    """
    spark = points.sparkSession
    pts = with_cells(points, eps, d)
    table = cell_table(pts, d)
    if table.pop("non_finite").any():
        raise ValueError("point coordinates must be finite, found NaN, ±inf or null")
    table.insert(0, "cell", np.arange(len(table), dtype=np.int64))
    side = cell_side(eps, d)
    for j in range(d):
        table[f"lo{j}"] = table[f"c{j}"].to_numpy(dtype=np.float64) * side
    table["side"] = side
    cc = ccols(d)
    numbers = driver_table(
        spark, table[["cell", *cc]], ", ".join(["cell long", *[f"{c} long" for c in cc]])
    )
    pts_cells = pts.join(numbers, cc).select("id", *xcols(d), "cell")
    return pts_cells, CellTable(table, neighbor_pairs(table, d))


def cell_table(pts: DataFrame, d: int) -> pd.DataFrame:
    """Driver-side non-empty cell table in coordinate order: coords ``c*``,
    count, and ``non_finite``, the number of the cell's points with a NaN,
    infinite or null coordinate.

    ``pts`` holds the points with their cell coordinates (``with_cells``).
    This is the reproduction's stand-in for the paper's parallel hash table
    of non-empty cells; it is O(#cells) and drives neighbor finding and the
    cell graph.
    """
    non_finite = F.lit(False)
    for x in xcols(d):  # Arrow turns a pandas NaN into a null
        non_finite = non_finite | F.isnull(x) | F.isnan(x) | (F.abs(x) == math.inf)
    return (
        pts.groupBy(*ccols(d))
        .agg(F.count("*").alias("cnt"), F.sum(non_finite.cast("long")).alias("non_finite"))
        .toPandas()
        .sort_values(ccols(d))
        .reset_index(drop=True)
    )


def neighbor_offsets(d: int) -> np.ndarray:
    """Integer offsets o ≠ 0 such that cells at offset o can contain points
    within eps: Σ_j max(|o_j|-1, 0)² ≤ d  (cell side = eps/√d)."""
    r = math.isqrt(d) + 1
    offs = np.indices((2 * r + 1,) * d).reshape(d, -1).T - r  # in lexicographic order
    keep = ((np.maximum(np.abs(offs) - 1, 0) ** 2).sum(axis=1) <= d) & (offs != 0).any(axis=1)
    return offs[keep].astype(np.int64)


def neighbor_pairs_enum(cells: pd.DataFrame, d: int) -> pd.DataFrame:
    """Neighbor pairs by offset enumeration (d ≤ 3): every (cell, offset)
    shift of a chunk of cells, made by numpy broadcasting, in one merge with
    the cell table; a chunk holds at most ~4M shifted rows.

    Returns a directed pair table (cell, ncell) excluding self-pairs; both
    directions are present.  Cells numbered in coordinate order give pairs
    sorted by (cell, ncell).
    """
    cc = ccols(d)
    table = cells[["cell", *cc]].rename(columns={"cell": "ncell"})
    coords, keys = cells[cc].to_numpy(dtype=np.int64), cells["cell"].to_numpy(dtype=np.int64)
    offs = neighbor_offsets(d)
    chunk = max(1, (1 << 22) // len(offs))
    out = []
    for i in range(0, max(len(coords), 1), chunk):  # no cells: one empty int64 merge
        shifted = pd.DataFrame((coords[i : i + chunk, None, :] + offs).reshape(-1, d), columns=cc)
        shifted["cell"] = np.repeat(keys[i : i + chunk], len(offs))
        out.append(shifted.merge(table, on=cc)[["cell", "ncell"]])
    return pd.concat(out, ignore_index=True)


def neighbor_pairs_kdtree(cells: pd.DataFrame, d: int) -> pd.DataFrame:
    """Neighbor pairs via radius queries on a k-d tree over cell coords.

    Two cells are neighbors iff the min distance between their boxes is
    ≤ eps, i.e. Σ_j (max(|Δc_j|-1,0))² ≤ d in cell units.  We query a
    superset (center distance ≤ √d + √d = 2√d in cell units... precisely
    |Δc| ≤ gap + 1 per dim ⇒ ||Δc|| ≤ √(Σ(gap_j+1)²) ≤ √(Σgap_j²) + √d
    ≤ 2√d) and filter exactly.
    """
    cc = ccols(d)
    coords = cells[cc].to_numpy(dtype=np.float64)
    tree = KDTree(coords)
    radius = 2.0 * math.sqrt(d) + 1e-9
    src, dst = [np.empty(0, dtype=np.int64)], [np.empty(0, dtype=np.int64)]
    for i in range(len(coords)):
        cand = tree.query_radius(coords[i], radius)
        gap2 = (np.maximum(np.abs(coords[cand] - coords[i]) - 1.0, 0.0) ** 2).sum(axis=1)
        ok = cand[(gap2 <= d + 1e-9) & (cand != i)]
        src.append(np.full(len(ok), i, dtype=np.int64))
        dst.append(ok)
    keys = cells["cell"].to_numpy(dtype=np.int64)
    return pd.DataFrame({"cell": keys[np.concatenate(src)], "ncell": keys[np.concatenate(dst)]})


def neighbor_pairs(cells: pd.DataFrame, d: int) -> pd.DataFrame:
    """Dispatch: offset enumeration for d ≤ 3, k-d tree otherwise."""
    if d <= 3:
        return neighbor_pairs_enum(cells, d)
    return neighbor_pairs_kdtree(cells, d)

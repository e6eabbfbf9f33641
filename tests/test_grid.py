"""Tests for grid cell construction and neighbor finding (repro.core.grid)."""
import itertools
import math

import numpy as np
import pandas as pd
import pytest

from repro import synth_data as sd
from repro.core import box as boxmod
from repro.core import grid
from repro.oracle import assert_equivalent


@pytest.mark.parametrize("d", [1, 2, 3, 5, 7])
def test_cell_side(d):
    eps = 2.5
    s = grid.cell_side(eps, d)
    # cell diagonal equals eps
    assert math.sqrt(d) * s == pytest.approx(eps)


def test_with_cells_matches_numpy(spark):
    pts = np.array([[0.1, 0.2], [1.9, -0.3], [-2.5, 4.0]])
    df = grid.with_cells(sd.points_df(spark, pts), eps=1.0, d=2)
    side = grid.cell_side(1.0, 2)
    got = df.toPandas().sort_values("id")
    want = np.floor(pts / side).astype(np.int64)
    assert np.array_equal(got[["c0", "c1"]].to_numpy(), want)


def test_with_cells_negative_coords(spark):
    """floor (not truncation) must be used for negative coordinates."""
    pts = np.array([[-0.1, -0.1]])
    df = grid.with_cells(sd.points_df(spark, pts), eps=math.sqrt(2), d=2)
    row = df.collect()[0]
    assert (row["c0"], row["c1"]) == (-1, -1)


def test_same_cell_points_within_eps(spark):
    """Invariant: any two points in the same cell are within eps."""
    rng = np.random.default_rng(0)
    pts = rng.random((2000, 3)) * 10
    eps = 1.3
    df = grid.with_cells(sd.points_df(spark, pts), eps, 3)
    pdf = df.toPandas()
    for _, g in pdf.groupby(grid.ccols(3)):
        if len(g) < 2:
            continue
        arr = g[["x0", "x1", "x2"]].to_numpy()
        d2 = ((arr[:, None, :] - arr[None, :, :]) ** 2).sum(axis=2)
        assert d2.max() <= eps * eps + 1e-9


def test_cell_table_counts_oracle(spark):
    pts = sd.seed_spreader(500, 2, seed=5)
    eps = 200.0
    df = grid.with_cells(sd.points_df(spark, pts), eps, 2).cache()
    cells = grid.cell_table(df, 2)
    assert cells["cnt"].sum() == 500
    # DuckDB cross-check of the per-cell histogram
    side = grid.cell_side(eps, 2)
    from pyspark.sql import functions as F

    spark_counts = df.groupBy("c0", "c1").agg(F.count("*").alias("cnt"))
    pdf = pd.DataFrame({"x0": pts[:, 0], "x1": pts[:, 1]})
    assert_equivalent(
        spark_counts,
        f"SELECT CAST(FLOOR(x0/{side}) AS BIGINT) AS c0,"
        f" CAST(FLOOR(x1/{side}) AS BIGINT) AS c1, COUNT(*) AS cnt FROM p GROUP BY 1, 2",
        p=pdf,
    )


@pytest.mark.parametrize("d,expected_r", [(2, 2), (3, 2), (4, 3), (7, 3)])
def test_neighbor_offsets_radius(d, expected_r):
    offs = grid.neighbor_offsets(d)
    assert np.abs(offs).max() == expected_r
    # 0 not included, symmetric
    assert not (offs == 0).all(axis=1).any()
    offset_set = set(map(tuple, offs.tolist()))
    assert all(tuple(-o for o in t) in offset_set for t in offset_set)


def test_neighbor_offsets_correctness_2d():
    """Offsets must include exactly the cells whose min box distance ≤ eps."""
    d = 2
    offs = set(map(tuple, grid.neighbor_offsets(d).tolist()))
    side = grid.cell_side(1.0, d)  # eps=1
    for ox in range(-4, 5):
        for oy in range(-4, 5):
            if (ox, oy) == (0, 0):
                continue
            gap2 = (max(abs(ox) - 1, 0) ** 2 + max(abs(oy) - 1, 0) ** 2) * side * side
            if gap2 <= 1.0 + 1e-12:
                assert (ox, oy) in offs, (ox, oy)
            else:
                assert (ox, oy) not in offs, (ox, oy)


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_neighbor_offsets_match_loop(d):
    """The vectorised offsets equal the per-offset loop, in lexicographic
    order (which keeps the enumerated pairs sorted)."""
    r = math.isqrt(d) + 1
    want = [
        o for o in itertools.product(range(-r, r + 1), repeat=d)
        if any(o) and sum(max(abs(v) - 1, 0) ** 2 for v in o) <= d
    ]
    got = grid.neighbor_offsets(d)
    assert got.dtype == np.int64 and got.tolist() == [list(o) for o in want]


def _table(coords):
    """A cell table over distinct integer cell coordinates, numbered in
    coordinate order."""
    uniq = np.unique(np.asarray(coords, dtype=np.int64), axis=0)
    cols = {f"c{j}": uniq[:, j] for j in range(uniq.shape[1])}
    return pd.DataFrame({"cell": np.arange(len(uniq)), **cols})


@pytest.mark.parametrize("d", [2, 3])
def test_enum_equals_kdtree_pairs(d):
    pts = sd.seed_spreader(400, d, seed=6)
    cells = _table(np.floor(pts / grid.cell_side(300.0, d)))
    a = grid.neighbor_pairs_enum(cells, d)
    b = grid.neighbor_pairs_kdtree(cells, d)
    sa = set(zip(a["cell"], a["ncell"]))
    sb = set(zip(b["cell"], b["ncell"]))
    assert sa == sb


def _gap_pairs(cells, d):
    """Brute force: every ordered pair of distinct cells whose boxes are
    within eps, Σ_j max(|Δc_j| - 1, 0)² ≤ d.  Such cells are at most 1 + √d
    apart in c0, so each c0 slab is compared only with the slabs that close."""
    c = cells[grid.ccols(d)].to_numpy()
    keys = cells["cell"].to_numpy()
    reach = 1 + math.isqrt(d)
    pairs = set()
    for v in np.unique(c[:, 0]):
        a = np.flatnonzero(c[:, 0] == v)
        b = np.flatnonzero(np.abs(c[:, 0] - v) <= reach)
        gap2 = (np.maximum(np.abs(c[a, None, :] - c[None, b, :]) - 1, 0) ** 2).sum(axis=2)
        i, j = np.nonzero((gap2 <= d) & (a[:, None] != b[None, :]))
        pairs.update(zip(keys[a[i]].tolist(), keys[b[j]].tolist()))
    return pairs


def _rand_coords(d, seed):
    """Cell coordinates around the origin, negative ones included, plus a
    clump 10^12 cells away in every coordinate."""
    rng = np.random.default_rng(seed)
    near = rng.integers(-6, 6, (300, d))
    far = rng.integers(-2, 3, (40, d)) + np.where(rng.random(d) < 0.5, -1, 1) * 10**12
    return np.vstack([near, far])


ENUM_CASES = {
    **{f"random-{d}d": (d, _rand_coords(d, d)) for d in (1, 2, 3)},
    **{f"empty-{d}d": (d, np.empty((0, d))) for d in (1, 2, 3)},
    **{f"one-{d}d": (d, np.full((1, d), -7)) for d in (1, 2, 3)},
    # ~40k cells: more than one chunk of (1 << 22) // 124 cells in 3-d
    "multi-chunk-3d": (
        3, np.random.default_rng(9).integers([-500, -10, -10], [500, 10, 10], (42000, 3))
    ),
}


@pytest.mark.parametrize("case", list(ENUM_CASES))
def test_enum_pairs_match_bruteforce_gap(case):
    """Offset enumeration finds exactly the brute-force neighbour pairs: int64
    columns, symmetric, no self-pair and no duplicate."""
    d, coords = ENUM_CASES[case]
    cells = _table(coords)
    if case.startswith("multi-chunk"):
        assert len(cells) > (1 << 22) // len(grid.neighbor_offsets(d))
    pairs = grid.neighbor_pairs_enum(cells, d)
    assert list(pairs.columns) == ["cell", "ncell"]
    assert (pairs.dtypes == np.int64).all()
    assert (pairs["cell"] != pairs["ncell"]).all()
    assert not pairs.duplicated().any()
    got = set(zip(pairs["cell"].tolist(), pairs["ncell"].tolist()))
    assert got == {(b, a) for a, b in got}
    assert got == _gap_pairs(cells, d)


@pytest.mark.parametrize("d", [5, 7])
def test_kdtree_pairs_match_bruteforce_gap(d):
    pts = sd.seed_spreader(200, d, seed=7)
    cells = _table(np.floor(pts / grid.cell_side(2000.0, d)))
    got = set(zip(*(grid.neighbor_pairs_kdtree(cells, d)[c] for c in ("cell", "ncell"))))
    coords = cells[[f"c{j}" for j in range(d)]].to_numpy()
    keys = cells["cell"].to_numpy()
    want = set()
    for i in range(len(coords)):
        dc = np.abs(coords - coords[i])
        gap2 = (np.maximum(dc - 1, 0) ** 2).sum(axis=1)
        for j in np.flatnonzero(gap2 <= d):
            if j != i:
                want.add((keys[i], keys[j]))
    assert got == want


def test_neighbor_pairs_single_cell():
    cells = pd.DataFrame({"cell": [0], "c0": [0], "c1": [0], "cnt": [5]})
    assert len(grid.neighbor_pairs(cells, 2)) == 0


CELL_CASES = {
    "grid-2d": (grid.build_cells, 2),
    "grid-3d": (grid.build_cells, 3),
    "grid-5d": (grid.build_cells, 5),  # k-d tree neighbour pairs
    "box": (boxmod.build_cells, 2),
}


@pytest.mark.parametrize("case", list(CELL_CASES))
def test_cell_table_contract(spark, case):
    """Grid and box cells keep one contract: a cell is its row of the cell
    table, every point's cell is a row holding it in its root box, the counts
    match, and the neighbour pairs are symmetric without self-pairs."""
    build, d = CELL_CASES[case]
    pts = np.random.default_rng(8).uniform(-5.0, 5.0, (300, d))
    eps = 2.0
    pts_cells, cells = build(sd.points_df(spark, pts), eps, d)
    m = len(cells.pdf)
    got = cells.pdf["cell"].to_numpy()
    assert got.dtype == np.int64 and np.array_equal(got, np.arange(m))
    if case.startswith("grid"):  # numbered in coordinate order
        coords = list(map(tuple, cells.pdf[grid.ccols(d)].to_numpy()))
        assert coords == sorted(coords)
    pdf = pts_cells.toPandas()
    assert sorted(pdf.columns) == sorted(["id", *grid.xcols(d), "cell"])
    assert len(pdf) == len(pts) and pdf["cell"].between(0, m - 1).all()
    assert np.array_equal(np.bincount(pdf["cell"], minlength=m), cells.pdf["cnt"].to_numpy())
    pdf = pdf.merge(cells.pdf, on="cell")
    for j in range(d):
        assert (pdf[f"x{j}"] >= pdf[f"lo{j}"] - 1e-9).all()
        assert (pdf[f"x{j}"] <= pdf[f"lo{j}"] + pdf["side"] + 1e-9).all()
    pairs = cells.pairs
    assert len(pairs) > 0
    assert (pairs.dtypes == np.int64).all()
    assert (pairs["cell"] != pairs["ncell"]).all()
    assert not pairs.duplicated().any()
    fwd = set(zip(pairs["cell"], pairs["ncell"]))
    assert fwd == set(zip(pairs["ncell"], pairs["cell"]))

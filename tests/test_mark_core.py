"""Tests for parallel MarkCore (repro.core.mark_core) incl. DuckDB oracle."""
import numpy as np
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro import synth_data as sd
from repro.core import grid
from repro.core.mark_core import mark_core
from repro.oracle import assert_equivalent


def _setup(spark, pts, eps, d):
    return grid.build_cells(sd.points_df(spark, pts), eps, d)


def _brute_core(pts, eps, min_pts):
    d2 = ((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2)
    return (d2 <= eps * eps).sum(axis=1) >= min_pts


@pytest.mark.parametrize("d", [2, 3, 5])
@pytest.mark.parametrize("use_qt", [False, True])
def test_mark_core_matches_brute(spark, d, use_qt):
    pts = sd.seed_spreader(400, d, seed=d)
    eps = 300.0 * np.sqrt(d)
    min_pts = 10
    df, cells = _setup(spark, pts, eps, d)
    flags, core_cnt = mark_core(spark, df, d, eps, min_pts, cells, use_quadtree=use_qt)
    pdf = flags.toPandas().sort_values("id")
    assert np.array_equal(pdf["is_core"].to_numpy(), _brute_core(pts, eps, min_pts))
    want = np.bincount(pdf.loc[pdf["is_core"], "cell"], minlength=len(cells.pdf))
    assert core_cnt.tolist() == want.tolist()


def test_mark_core_minpts_one_all_core(spark):
    pts = sd.seed_spreader(100, 2, seed=1)
    df, cells = _setup(spark, pts, 100.0, 2)
    flags, _ = mark_core(spark, df, 2, 100.0, 1, cells)
    assert flags.where(~F.col("is_core")).isEmpty()


def test_mark_core_minpts_above_n_none_core(spark):
    pts = sd.seed_spreader(50, 2, seed=2)
    df, cells = _setup(spark, pts, 100.0, 2)
    flags, _ = mark_core(spark, df, 2, 100.0, 1000, cells)
    assert flags.where(F.col("is_core")).isEmpty()


def test_mark_core_boundary_distance(spark):
    """Points exactly eps apart count each other (inclusive comparison)."""
    pts = np.array([[0.0, 0.0], [3.0, 4.0], [100.0, 100.0]])
    eps = 5.0
    df, cells = _setup(spark, pts, eps, 2)
    flags, _ = mark_core(spark, df, 2, eps, 2, cells)
    got = {r["id"]: r["is_core"] for r in flags.collect()}
    assert got == {0: True, 1: True, 2: False}


def test_mark_core_duplicates(spark):
    pts = np.vstack([np.tile([[5.0, 5.0]], (20, 1)), [[100.0, 100.0]]])
    df, cells = _setup(spark, pts, 1.0, 2)
    flags, _ = mark_core(spark, df, 2, 1.0, 20, cells)
    got = flags.toPandas().sort_values("id")["is_core"].tolist()
    assert got == [True] * 20 + [False]


def test_mark_core_oracle_sql(spark):
    """DuckDB cross-check: core flag = (#neighbors within eps) >= minPts."""
    pts = sd.seed_spreader(300, 2, seed=9)
    eps, min_pts = 250.0, 8
    df, cells = _setup(spark, pts, eps, 2)
    flags, _ = mark_core(spark, df, 2, eps, min_pts, cells)
    flags = flags.select("id", "is_core")
    pdf = pd.DataFrame({"id": np.arange(len(pts)), "x0": pts[:, 0], "x1": pts[:, 1]})
    assert_equivalent(
        flags,
        f"""
        SELECT a.id AS id,
               COUNT(*) >= {min_pts} AS is_core
        FROM p a JOIN p b
          ON (a.x0-b.x0)*(a.x0-b.x0) + (a.x1-b.x1)*(a.x1-b.x1) <= {eps}*{eps}
        GROUP BY a.id
        """,
        p=pdf,
    )


def test_mark_core_dense_cell_shortcut(spark):
    """A cell with ≥ minPts points must mark all its points core without any
    neighbor contribution (diagonal = eps)."""
    side = grid.cell_side(1.0, 2)
    rng = np.random.default_rng(3)
    pts = rng.random((30, 2)) * side * 0.999  # all in cell (0,0)
    df, cells = _setup(spark, pts, 1.0, 2)
    assert len(cells.pdf) == 1
    flags, core_cnt = mark_core(spark, df, 2, 1.0, 30, cells)
    assert flags.where(~F.col("is_core")).isEmpty()
    assert core_cnt.tolist() == [30]


@pytest.mark.parametrize("d", [7])
def test_mark_core_high_dim_kdtree_neighbors(spark, d):
    pts = sd.seed_spreader(200, d, seed=11)
    eps = 2500.0
    df, cells = _setup(spark, pts, eps, d)
    flags, _ = mark_core(spark, df, d, eps, 5, cells)
    got = flags.toPandas().sort_values("id")["is_core"].to_numpy()
    assert np.array_equal(got, _brute_core(pts, eps, 5))

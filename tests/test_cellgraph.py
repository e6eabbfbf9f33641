"""Tests for cell-graph construction and core clustering (repro.core.cellgraph)."""
import numpy as np
import pandas as pd
import pytest

from repro import synth_data as sd
from repro.core import grid
from repro.core.cellgraph import build_cell_graph
from repro.core.mark_core import mark_core
from repro.oracle import assert_equivalent
from repro.primitives.unionfind import UnionFind


def _setup(spark, pts, eps, d, min_pts):
    df, cells = grid.build_cells(sd.points_df(spark, pts), eps, d)
    flags, core_cnt = mark_core(spark, df, d, eps, min_pts, cells)
    core_pts = df.join(flags.where("is_core").select("id"), "id").select("id", "cell", *grid.xcols(d)).cache()
    return df, core_pts, core_cnt, cells


def _reference_cell_partition(core_pdf, eps):
    """Brute-force partition of core cells by core-point connectivity ≤ eps."""
    cells = sorted(core_pdf["cell"].unique())
    idx = {c: i for i, c in enumerate(cells)}
    uf = UnionFind(len(cells))
    xc = [c for c in core_pdf.columns if c.startswith("x")]
    pts = core_pdf[xc].to_numpy()
    labels = core_pdf["cell"].map(idx).to_numpy()
    d2 = ((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2)
    ii, jj = np.nonzero(d2 <= eps * eps)
    for a, b in zip(ii, jj):
        uf.union(int(labels[a]), int(labels[b]))
    groups = {}
    for c, i in idx.items():
        groups.setdefault(uf.find(i), set()).add(c)
    return set(frozenset(g) for g in groups.values())


def _partition_from_labels(cluster):
    groups = {}
    for c, l in enumerate(cluster):
        if l >= 0:
            groups.setdefault(l, set()).add(c)
    return set(frozenset(g) for g in groups.values())


@pytest.mark.parametrize("method", ["bcp", "qt", "usec", "delaunay"])
@pytest.mark.parametrize("bucketing", [False, True])
def test_methods_match_reference_2d(spark, method, bucketing):
    if method == "delaunay" and bucketing:
        pytest.skip("delaunay computes all edges at once; bucketing is a no-op")
    pts = sd.seed_spreader(350, 2, seed=10)
    eps, min_pts = 280.0, 8
    df, core_pts, core_cnt, cells = _setup(spark, pts, eps, 2, min_pts)
    labels, stats = build_cell_graph(
        spark, core_pts.select("cell", "x0", "x1"), core_cnt, cells,
        2, eps, method=method, bucketing=bucketing,
    )
    ref = _reference_cell_partition(core_pts.toPandas(), eps)
    assert _partition_from_labels(labels) == ref


@pytest.mark.parametrize("d", [3, 5])
def test_bcp_matches_reference_higher_d(spark, d):
    pts = sd.seed_spreader(300, d, seed=d + 20)
    eps, min_pts = 400.0 * np.sqrt(d), 8
    df, core_pts, core_cnt, cells = _setup(spark, pts, eps, d, min_pts)
    labels, _ = build_cell_graph(
        spark, core_pts.select("cell", *grid.xcols(d)), core_cnt, cells, d, eps
    )
    ref = _reference_cell_partition(core_pts.toPandas(), eps)
    assert _partition_from_labels(labels) == ref


def test_bucketing_prunes_queries(spark):
    """Bucketing must evaluate no more candidate edges than the flat mode and
    produce the identical partition."""
    pts = sd.seed_spreader(500, 2, seed=12)
    eps, min_pts = 350.0, 5
    df, core_pts, core_cnt, cells = _setup(spark, pts, eps, 2, min_pts)
    args = (spark, core_pts.select("cell", "x0", "x1"), core_cnt, cells, 2, eps)
    labels_flat, stats_flat = build_cell_graph(*args, bucketing=False)
    labels_b, stats_b = build_cell_graph(*args, bucketing=True, bucket_size=64)
    assert _partition_from_labels(labels_flat) == _partition_from_labels(labels_b)
    assert stats_b["n_evaluated"] <= stats_flat["n_evaluated"]


def test_no_core_cells(spark):
    pts = sd.seed_spreader(60, 2, seed=13)
    df, core_pts, core_cnt, cells = _setup(spark, pts, 200.0, 2, 1000)
    labels, stats = build_cell_graph(
        spark, core_pts.select("cell", "x0", "x1"), core_cnt, cells, 2, 200.0
    )
    assert labels.tolist() == [-1] * len(cells.pdf)
    assert stats["n_clusters"] == 0


def test_single_cell_graph(spark):
    rng = np.random.default_rng(5)
    side = grid.cell_side(10.0, 2)
    pts = rng.random((40, 2)) * side * 0.99
    df, core_pts, core_cnt, cells = _setup(spark, pts, 10.0, 2, 5)
    labels, stats = build_cell_graph(
        spark, core_pts.select("cell", "x0", "x1"), core_cnt, cells, 2, 10.0
    )
    assert stats["n_clusters"] == 1
    assert labels.tolist() == [0]


def test_cell_edges_oracle_sql(spark):
    """DuckDB cross-check: connected cell pairs = pairs of core cells whose
    min core-point distance ≤ eps (restricted to candidate neighbor pairs)."""
    pts = sd.seed_spreader(250, 2, seed=14)
    eps, min_pts = 300.0, 6
    df, core_pts, core_cnt, cells = _setup(spark, pts, eps, 2, min_pts)
    core_pdf = core_pts.toPandas()
    # Spark-side: evaluate all candidate edges via the flat path, reading the
    # UF merges indirectly through the label partition refinement is lossy;
    # instead recompute edges here with the kernel-independent definition.
    npairs = cells.pairs
    cand = npairs[npairs.cell.isin(set(core_pdf["cell"])) & npairs.ncell.isin(set(core_pdf["cell"]))]
    cand = cand[cand.cell < cand.ncell].reset_index(drop=True)
    rows = []
    for g, h in zip(cand["cell"], cand["ncell"]):
        a = core_pdf[core_pdf.cell == g][["x0", "x1"]].to_numpy()
        b = core_pdf[core_pdf.cell == h][["x0", "x1"]].to_numpy()
        d2 = ((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=2)
        rows.append({"gcell": g, "hcell": h, "connected": bool((d2 <= eps * eps).any())})
    got = spark.createDataFrame(pd.DataFrame(rows))
    assert_equivalent(
        got,
        f"""
        SELECT c.cell AS gcell, c.ncell AS hcell,
               MIN((a.x0-b.x0)*(a.x0-b.x0)+(a.x1-b.x1)*(a.x1-b.x1)) <= {eps * eps} AS connected
        FROM cand c
        JOIN corep a ON a.cell = c.cell
        JOIN corep b ON b.cell = c.ncell
        GROUP BY c.cell, c.ncell
        """,
        cand=cand,
        corep=core_pdf[["cell", "x0", "x1"]],
    )

"""Approximate DBSCAN tests: Gan&Tao rho-approximate semantics (sandwich)."""
import numpy as np
import pytest

from repro import synth_data as sd
from repro.core.dbscan import dbscan, dbscan_variant
from repro.core.validate import check_approx_valid, result_to_pandas


@pytest.mark.parametrize("rho", [0.001, 0.01, 0.1, 1.0])
def test_approx_valid_across_rho(spark, rho):
    pts = sd.seed_spreader(300, 2, seed=41)
    res = dbscan(spark, sd.points_df(spark, pts), 250.0, 8, 2, graph_method="approx", rho=rho)
    check_approx_valid(res, pts, 250.0, 8, rho)


@pytest.mark.parametrize("d", [3, 5])
def test_approx_valid_higher_d(spark, d):
    pts = sd.seed_spreader(250, d, seed=42 + d)
    eps = 400.0 * np.sqrt(d)
    res = dbscan(spark, sd.points_df(spark, pts), eps, 8, d, graph_method="approx", rho=0.01)
    check_approx_valid(res, pts, eps, 8, 0.01)


def test_approx_qt_variant(spark):
    pts = sd.seed_spreader(300, 3, seed=44)
    res = dbscan_variant(spark, sd.points_df(spark, pts), 500.0, 10, 3, "our-approx-qt", rho=0.05)
    check_approx_valid(res, pts, 500.0, 10, 0.05)


def test_approx_bucketing_variant(spark):
    pts = sd.seed_spreader(300, 3, seed=45)
    res = dbscan_variant(
        spark, sd.points_df(spark, pts), 500.0, 10, 3, "our-approx-bucketing", rho=0.05
    )
    check_approx_valid(res, pts, 500.0, 10, 0.05)


def test_approx_core_flags_equal_exact(spark):
    """Approximation only relaxes connectivity — core flags must match the
    exact run bit-for-bit."""
    pts = sd.seed_spreader(300, 2, seed=46)
    df = sd.points_df(spark, pts)
    exact = result_to_pandas(dbscan(spark, df, 250.0, 8, 2))
    approx = result_to_pandas(dbscan(spark, df, 250.0, 8, 2, graph_method="approx", rho=0.5))
    assert exact["is_core"].tolist() == approx["is_core"].tolist()


def test_approx_merges_at_most(spark):
    """Every exact cluster must be contained in exactly one approx cluster
    (approx can merge clusters, never split them)."""
    pts = sd.seed_spreader(300, 2, seed=47)
    df = sd.points_df(spark, pts)
    exact = result_to_pandas(dbscan(spark, df, 250.0, 8, 2))
    approx = result_to_pandas(dbscan(spark, df, 250.0, 8, 2, graph_method="approx", rho=1.0))
    for pdf in (exact, approx):
        pdf.set_index("id", inplace=True)
    core_ids = exact.index[exact["is_core"]]
    mapping = {}
    for i in core_ids:
        e = exact.loc[i, "clusters"][0]
        a = approx.loc[i, "clusters"][0]
        assert mapping.setdefault(e, a) == a, f"exact cluster {e} split by approx"

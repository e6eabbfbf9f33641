"""Baseline implementations must produce exactly the reference clustering.

All four baselines here are *exact* DBSCAN (our RP-DBSCAN stand-in replaces
the original's rho-approximate summaries with exact BCP precisely so it can
be validated), so every one of them is checked against the brute-force
reference, like the main pipelines.
"""
import numpy as np
import pytest

from repro import synth_data as sd
from repro.baselines.hpdbscan_like import hpdbscan
from repro.baselines.pdsdbscan_like import pdsdbscan
from repro.baselines.rpdbscan_like import rpdbscan
from repro.baselines.seq_gridbscan import dbscan_seq
from repro.core.reference import dbscan_brute
from repro.core.validate import assert_same_clustering
from tests.test_dbscan_exact import EPS_BOUNDARY, EPS_BOUNDARY_PTS


# ------------------------------------------------------------- serial numpy
@pytest.mark.parametrize("d", [2, 3, 5])
def test_seq_gridbscan_matches_brute(d):
    pts = sd.seed_spreader(400, d, seed=d * 3)
    eps, min_pts = 300.0 * np.sqrt(d), 10
    core_ref, labels_ref = dbscan_brute(pts, eps, min_pts)
    core, labels = dbscan_seq(pts, eps, min_pts)
    assert np.array_equal(core, core_ref)
    assert labels == labels_ref


def test_seq_gridbscan_edge_cases():
    # all noise
    rng = np.random.default_rng(0)
    pts = rng.random((100, 2)) * 1000
    core, labels = dbscan_seq(pts, 0.01, 2)
    assert not core.any() and all(l == frozenset() for l in labels)
    # single cluster
    pts = rng.random((50, 2))
    core, labels = dbscan_seq(pts, 10.0, 5)
    assert core.all() and len({next(iter(l)) for l in labels}) == 1
    # single point
    core, labels = dbscan_seq(np.array([[1.0, 1.0]]), 1.0, 1)
    assert core.tolist() == [True]


@pytest.mark.parametrize("min_pts", [1, 5, 30])
def test_seq_gridbscan_minpts(min_pts):
    pts = sd.seed_spreader(300, 2, seed=9)
    core_ref, labels_ref = dbscan_brute(pts, 250.0, min_pts)
    core, labels = dbscan_seq(pts, 250.0, min_pts)
    assert np.array_equal(core, core_ref) and labels == labels_ref


def test_seq_gridbscan_eps_boundary():
    """Two points of one cell just beyond eps do not count each other."""
    core_ref, labels_ref = dbscan_brute(EPS_BOUNDARY_PTS, EPS_BOUNDARY, 3)
    core, labels = dbscan_seq(EPS_BOUNDARY_PTS, EPS_BOUNDARY, 3)
    assert core_ref.tolist() == [False, False, True]
    assert np.array_equal(core, core_ref) and labels == labels_ref


# ----------------------------------------------------------- spark baselines
@pytest.mark.parametrize("d", [2, 3])
def test_pdsdbscan_matches_reference(spark, d):
    pts = sd.seed_spreader(300, d, seed=50 + d)
    eps, min_pts = 280.0 * np.sqrt(d), 8
    res = pdsdbscan(spark, sd.points_df(spark, pts), eps, min_pts, d)
    assert_same_clustering(res, pts, eps, min_pts)


def test_pdsdbscan_all_noise(spark):
    rng = np.random.default_rng(1)
    pts = rng.random((150, 2)) * 10000
    res = pdsdbscan(spark, sd.points_df(spark, pts), 0.5, 3, 2)
    assert_same_clustering(res, pts, 0.5, 3)


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("n_slabs", [1, 4, 16])
def test_hpdbscan_matches_reference(spark, d, n_slabs):
    pts = sd.seed_spreader(300, d, seed=60 + d)
    eps, min_pts = 280.0 * np.sqrt(d), 8
    res = hpdbscan(spark, sd.points_df(spark, pts), eps, min_pts, d, n_slabs=n_slabs)
    assert_same_clustering(res, pts, eps, min_pts)


def test_hpdbscan_border_multimembership(spark):
    left = np.stack([np.linspace(-4.0, 0.0, 40), np.zeros(40)], axis=1)
    right = np.stack([np.linspace(10.0, 14.0, 40), np.zeros(40)], axis=1)
    pts = np.vstack([left, right, [[5.0, 0.0]]])
    res = hpdbscan(spark, sd.points_df(spark, pts), 5.0, 40, 2, n_slabs=4)
    assert_same_clustering(res, pts, 5.0, 40)


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("n_parts", [2, 8])
def test_rpdbscan_matches_reference(spark, d, n_parts):
    pts = sd.seed_spreader(300, d, seed=70 + d)
    eps, min_pts = 280.0 * np.sqrt(d), 8
    res = rpdbscan(spark, sd.points_df(spark, pts), eps, min_pts, d, n_parts=n_parts)
    assert_same_clustering(res, pts, eps, min_pts)


def test_rpdbscan_varden(spark):
    pts = sd.seed_spreader(300, 2, seed=72, vary_density=True)
    res = rpdbscan(spark, sd.points_df(spark, pts), 260.0, 6, 2, n_parts=4)
    assert_same_clustering(res, pts, 260.0, 6)


@pytest.mark.parametrize("run", [pdsdbscan, hpdbscan, rpdbscan], ids=lambda f: f.__name__)
def test_baselines_eps_boundary(spark, run):
    """A sparse cell counts its own points by distance, not by cell: two
    points of one cell just beyond eps are not each other's neighbours."""
    res = run(spark, sd.points_df(spark, EPS_BOUNDARY_PTS), EPS_BOUNDARY, 3, 2)
    assert_same_clustering(res, EPS_BOUNDARY_PTS, EPS_BOUNDARY, 3)


def test_all_baselines_agree_on_skewed(spark):
    df = sd.geolife_like(spark, n=400, seed=2)
    pts = df.toPandas().sort_values("id")[["x0", "x1", "x2"]].to_numpy()
    eps, min_pts = 500.0, 10
    for fn in (pdsdbscan, hpdbscan, rpdbscan):
        res = fn(spark, df, eps, min_pts, 3)
        assert_same_clustering(res, pts, eps, min_pts)

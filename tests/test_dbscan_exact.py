"""End-to-end exact DBSCAN pipeline tests vs the brute-force reference."""
from collections import Counter
from contextlib import contextmanager

import numpy as np
import pytest
from pyspark.sql import functions as F

from repro import synth_data as sd
from repro.baselines.hpdbscan_like import hpdbscan
from repro.baselines.pdsdbscan_like import pdsdbscan
from repro.baselines.rpdbscan_like import rpdbscan
from repro.core.border import cluster_border
from repro.core.cellgraph import build_cell_graph
from repro.core.dbscan import CELL_METHODS, VARIANTS, dbscan, dbscan_variant
from repro.core.mark_core import mark_core
from repro.core.validate import (
    assert_same_clustering,
    canonical_labels,
    check_approx_valid,
    result_to_pandas,
)


def _run_and_check(spark, pts, eps, min_pts, d, **kw):
    res = dbscan(spark, sd.points_df(spark, pts), eps, min_pts, d, **kw)
    assert_same_clustering(res, pts, eps, min_pts)
    return res


def _run_variant_and_check(spark, pts, eps, min_pts, variant):
    """Run a named variant; exact ones must equal brute force, approximate
    ones must satisfy the rho-approximate semantics at the default rho."""
    res = dbscan_variant(spark, sd.points_df(spark, pts), eps, min_pts, pts.shape[1], variant)
    if VARIANTS[variant].get("graph_method") == "approx":
        check_approx_valid(res, pts, eps, min_pts, 0.01)
    else:
        assert_same_clustering(res, pts, eps, min_pts)
    return res


def _jobs_in_group(spark, group, fn):
    """Run ``fn()`` with its Spark jobs tagged ``group``; return (fn(), #jobs)."""
    sc = spark.sparkContext
    sc.setJobGroup(group, group)
    try:
        out = fn()
    finally:
        sc.setLocalProperty("spark.jobGroup.id", None)
    return out, len(sc.statusTracker().getJobIdsForGroup(group))


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("gen", ["simden", "varden"])
def test_seed_spreader_datasets(spark, d, gen):
    pts = sd.seed_spreader(400, d, seed=d * 7, vary_density=(gen == "varden"))
    _run_and_check(spark, pts, 300.0 * np.sqrt(d), 10, d)


@pytest.mark.parametrize("d", [5, 7])
def test_higher_dims(spark, d):
    pts = sd.seed_spreader(250, d, seed=d, noise_frac=0.01)
    _run_and_check(spark, pts, 600.0 * np.sqrt(d), 8, d)


def test_uniform_points(spark):
    rng = np.random.default_rng(0)
    pts = rng.random((300, 2)) * np.sqrt(300)
    _run_and_check(spark, pts, 1.0, 8, 2)


@pytest.mark.parametrize("min_pts", [1, 2, 5, 50])
def test_minpts_sweep(spark, min_pts):
    pts = sd.seed_spreader(300, 2, seed=21)
    _run_and_check(spark, pts, 250.0, min_pts, 2)


@pytest.mark.parametrize("variant", list(VARIANTS))
def test_minpts_one_no_noise(spark, variant):
    pts = sd.seed_spreader(150, 2, seed=22)
    res = _run_variant_and_check(spark, pts, 200.0, 1, variant)
    pdf = result_to_pandas(res)
    assert pdf["is_core"].all()
    assert (pdf["clusters"].apply(len) == 1).all()


@pytest.mark.parametrize("variant", list(VARIANTS))
def test_eps_tiny_all_noise(spark, variant):
    rng = np.random.default_rng(1)
    pts = rng.random((200, 2)) * 1000
    res = _run_variant_and_check(spark, pts, 0.001, 2, variant)
    pdf = result_to_pandas(res)
    assert not pdf["is_core"].any()
    assert (pdf["clusters"].apply(len) == 0).all()


def test_eps_huge_single_cluster(spark):
    pts = sd.seed_spreader(200, 3, seed=23)
    res = _run_and_check(spark, pts, 1e6, 5, 3)
    pdf = result_to_pandas(res)
    labels = canonical_labels(pdf)
    assert len({next(iter(l)) for l in labels}) == 1


@pytest.mark.parametrize("variant", list(VARIANTS))
def test_single_point(spark, variant):
    pts = np.array([[1.0, 2.0]])
    res = dbscan_variant(spark, sd.points_df(spark, pts), 1.0, 1, 2, variant)
    assert_same_clustering(res, pts, 1.0, 1)
    pdf = result_to_pandas(res)
    assert pdf["is_core"].tolist() == [True]


@pytest.mark.parametrize("variant", list(VARIANTS))
def test_single_point_noise(spark, variant):
    pts = np.array([[1.0, 2.0]])
    res = dbscan_variant(spark, sd.points_df(spark, pts), 1.0, 2, 2, variant)
    assert_same_clustering(res, pts, 1.0, 2)
    pdf = result_to_pandas(res)
    assert pdf["is_core"].tolist() == [False]
    assert pdf["clusters"].tolist() == [()]


@pytest.mark.parametrize("variant", list(VARIANTS))
def test_empty_input(spark, variant):
    res = dbscan_variant(spark, sd.points_df(spark, np.empty((0, 2))), 1.0, 1, 2, variant)
    assert res.columns == ["id", "is_core", "clusters"]
    assert res.count() == 0


LEAK_CHECKED = {
    "grid": lambda spark, df, eps, mp, d: dbscan(spark, df, eps, mp, d, cell_method="grid"),
    "box": lambda spark, df, eps, mp, d: dbscan(spark, df, eps, mp, d, cell_method="box"),
    "rpdbscan": rpdbscan,
    "pdsdbscan": pdsdbscan,
    "hpdbscan": hpdbscan,
}


@pytest.mark.parametrize("run", list(LEAK_CHECKED))
def test_leaves_only_result_cached(spark, run):
    """dbscan() and the Spark baselines unpersist every intermediate they
    cache; only the returned result stays cached until the caller unpersists
    it."""
    jsc = spark.sparkContext._jsc
    before = jsc.getPersistentRDDs().size()
    pts = sd.seed_spreader(200, 2, seed=29)
    res = LEAK_CHECKED[run](spark, sd.points_df(spark, pts), 250.0, 8, 2)
    res.unpersist()
    assert jsc.getPersistentRDDs().size() == before


BAD_ARGUMENTS = {
    "eps-zero": dict(eps=0.0),
    "eps-negative": dict(eps=-1.0),
    "eps-inf": dict(eps=float("inf")),
    "eps-nan": dict(eps=float("nan")),
    "minpts-zero": dict(min_pts=0),
    "graph-method-unknown": dict(graph_method="bogus"),
    "cell-method-unknown": dict(cell_method="bogus"),
    "usec-3d": dict(graph_method="usec", d=3, cols=3),
    "delaunay-3d": dict(graph_method="delaunay", d=3, cols=3),
    "d-below-columns": dict(d=2, cols=3),
    "d-above-columns": dict(d=3, cols=2),
    "rho-zero": dict(graph_method="approx", rho=0.0),
    "rho-negative": dict(graph_method="approx", rho=-0.5),
    "rho-nan": dict(graph_method="approx", rho=float("nan")),
    "rho-inf": dict(graph_method="approx", rho=float("inf")),
}


@pytest.mark.parametrize("case", list(BAD_ARGUMENTS))
def test_rejects_bad_arguments(spark, case):
    """Arguments no variant accepts raise ValueError on the driver before any
    Spark job runs."""
    kw = {**dict(eps=1.0, min_pts=2, d=2, cols=2), **BAD_ARGUMENTS[case]}
    df = sd.points_df(spark, np.zeros((4, kw.pop("cols"))))
    args = (kw.pop("eps"), kw.pop("min_pts"), kw.pop("d"))

    def call():
        with pytest.raises(ValueError):
            dbscan(spark, df, *args, **kw)

    _, jobs = _jobs_in_group(spark, f"test-bad-arguments-{case}", call)
    assert jobs == 0


@pytest.mark.parametrize("cell_method", ["grid", "box"])
def test_rejects_non_finite(spark, cell_method):
    """A NaN, infinite or null coordinate raises ValueError instead of being
    clustered, and the call leaves nothing cached.  The bad value is set in
    Spark: Arrow would turn a pandas NaN into a null."""
    jsc = spark.sparkContext._jsc
    before = jsc.getPersistentRDDs().size()
    df = sd.points_df(spark, sd.seed_spreader(60, 2, seed=31))
    for bad in (float("nan"), float("inf"), float("-inf"), None):
        x1 = F.when(F.col("id") == 7, F.lit(bad)).otherwise(F.col("x1"))
        with pytest.raises(ValueError, match="finite"):
            dbscan(spark, df.withColumn("x1", x1), 250.0, 4, 2, cell_method=cell_method)
    assert jsc.getPersistentRDDs().size() == before


@contextmanager
def _session_conf(spark, confs):
    """Set ``confs`` on the session for the block and restore the old values."""
    saved = {k: spark.conf.get(k) for k in confs}
    for k, v in confs.items():
        spark.conf.set(k, v)
    try:
        yield
    finally:
        for k, v in saved.items():
            spark.conf.set(k, v)


AQE = "spark.sql.adaptive.enabled"


@pytest.mark.parametrize("partitions", [1, 7, 64])
@pytest.mark.parametrize("variant", list(VARIANTS))
def test_result_independent_of_shuffle_partitions(spark, variant, partitions):
    """The clustering does not depend on the shuffle partition count, which
    is also the block count, so every phase's halo crosses block boundaries
    (5 % noise puts border points next to other blocks' cells), nor on
    adaptive execution, which the 64-partition case turns on (it may
    coalesce and re-plan the shuffles); the session's settings are restored
    afterwards."""
    confs = {"spark.sql.shuffle.partitions": str(partitions), AQE: str(partitions == 64).lower()}
    with _session_conf(spark, confs):
        pts = sd.seed_spreader(300, 2, seed=32, noise_frac=0.05)
        _run_variant_and_check(spark, pts, 250.0, 8, variant)


def _joins(df):
    """Join operators of ``df``'s executed plan, counted by name.  A cached
    frame's own plan is the one its cache ran; other cached frames it reads
    are leaves."""
    plan = df._jdf.queryExecution().executedPlan()
    while plan.nodeName() in ("AdaptiveSparkPlan", "InMemoryTableScan"):
        if plan.nodeName() == "AdaptiveSparkPlan":
            plan = plan.executedPlan()
        else:
            plan = plan.relation().cachedPlan()
    joins, todo = Counter(), [plan]
    while todo:
        node = todo.pop()
        name = node.nodeName()
        if name == "AdaptiveSparkPlan":
            todo.append(node.executedPlan())
        elif name.endswith("QueryStage"):
            todo.append(node.plan())
        else:
            if "Join" in name or name == "CartesianProduct":
                joins[name] += 1
            children = node.children()
            todo.extend(children.apply(i) for i in range(children.size()))
    return joins


# With eps = 1 the grid cell (0, 0) is [0, 0.707)^2.  It holds two core
# points and a border point A whose only core neighbours are in its own
# cell; B (cell (1, 0)) and the two helpers (cell (-1, 0)) are border points
# whose only core neighbours are in another cell; one point is noise.
BORDER_PTS = np.array(
    [[0.1, 0.1]] * 2  # the two core points
    + [[-0.5, 0.1]] * 2  # the helpers
    + [[0.6, 0.6], [1.0, 0.1], [5.0, 5.0]]  # A, B, noise
)


@pytest.mark.parametrize("adaptive", ["false", "true"], ids=["aqe-off", "aqe-on"])
@pytest.mark.parametrize("cell_method", list(CELL_METHODS))
def test_no_shuffled_join(spark, cell_method, adaptive):
    """With broadcast joins off in the session, every join that makes the
    points with their cell, the block pass's output and ClusterBorder's
    result is a broadcast hash join with a driver table: no join shuffles,
    with adaptive execution off or on."""
    assert spark.conf.get("spark.sql.autoBroadcastJoinThreshold") == "-1"
    with _session_conf(spark, {AQE: adaptive}):
        pts_cells, cells = CELL_METHODS[cell_method](sd.points_df(spark, BORDER_PTS), 1.0, 2)
        assert set(_joins(pts_cells)) <= {"BroadcastHashJoin"}
        marks = mark_core(pts_cells, 2, 1.0, 5, cells)
        cluster, _, rows = build_cell_graph(spark, marks, cells, 2, 1.0)
        result = cluster_border(spark, marks.points, cluster, rows)
        assert result_to_pandas(result)["clusters"].map(len).tolist() == [1] * 6 + [0]
        for df in (rows, result):
            assert set(_joins(df)) == {"BroadcastHashJoin"}, _joins(df)
        rows.unpersist()


@pytest.mark.parametrize("variant", list(VARIANTS))
def test_border_in_own_and_other_cell(spark, variant):
    """Border points whose core neighbours are in their own cell or only in
    another cell; see ``BORDER_PTS``."""
    pdf = result_to_pandas(_run_variant_and_check(spark, BORDER_PTS, 1.0, 5, variant))
    assert pdf["is_core"].tolist() == [True] * 2 + [False] * 5
    assert pdf["clusters"].map(len).tolist() == [1] * 6 + [0]


# eps-boundary inside one cell: the first two points share grid cell (-1, -1)
# (side eps/√2), yet their squared distance, as computed, exceeds eps² by
# 1.16e-10, so they are not neighbours; the third point, in cell (-1, 0), is
# within eps of both and is the only core point at minPts = 3.
EPS_BOUNDARY = 873.5278898504773
_SIDE = EPS_BOUNDARY / np.sqrt(2)
EPS_BOUNDARY_PTS = np.array([[-_SIDE, -_SIDE], [-1e-300, -1e-300], [-_SIDE / 2, 1e-9]])


@pytest.mark.parametrize("variant", list(VARIANTS))
def test_eps_boundary_in_one_cell(spark, variant):
    """A sparse cell counts its own points by distance, not by cell."""
    pts = EPS_BOUNDARY_PTS
    assert ((pts[0] - pts[1]) ** 2).sum() > EPS_BOUNDARY**2
    _run_variant_and_check(spark, pts, EPS_BOUNDARY, 3, variant)


# Inputs of the block pass's two-cell halo and of MarkCore's early exit, as
# (points, eps, minPts).
HALO_CASES = {
    # eps = 1, grid cells of side 0.707 along one row: a in cell 0, b in
    # cell 1, c1 and c2 in cell 3, so cell 3 neighbours cell 1 but not
    # cell 0.  b is core only by counting c1 and c2, and a is a border
    # point only through b.  At 7 and 64 blocks (weights 1, 1, 2) the three
    # cells lie in three blocks, so a's block reads b's flag from its halo
    # and needs cell 3, two hops from its own cell, to decide it.
    "two-hop-halo": (np.array([[0.6, 0.1], [1.4, 0.1], [2.2, 0.1], [2.3, 0.1]]), 1.0, 4),
    # eps = 5: 40 points at (1, 1) make a dense cell of more than 32 points
    # (counted after the first scan, on the points still below minPts),
    # and the sparse cells beside it hold points at exactly eps from it
    # ((6, 1) and (5, 4)) and just beyond ((6 + 1e-9, 1) and (5, 4 + 1e-7)).
    "sparse-beside-dense": (
        np.vstack([np.tile([[1.0, 1.0]], (40, 1)),
                   [[6.0, 1.0], [6.0 + 1e-9, 1.0], [4.0, 1.0], [5.0, 4.0], [5.0, 4.0 + 1e-7]]]),
        5.0,
        40,
    ),
}


@pytest.mark.parametrize("partitions", [1, 7, 64])
@pytest.mark.parametrize("variant", list(VARIANTS))
@pytest.mark.parametrize("case", list(HALO_CASES))
def test_halo_and_early_exit(spark, case, variant, partitions):
    """A block flags its halo's sparse cells from their own neighbourhoods,
    and MarkCore's early exit flags points on both sides of eps next to a
    dense cell as a full count does."""
    pts, eps, min_pts = HALO_CASES[case]
    with _session_conf(spark, {"spark.sql.shuffle.partitions": str(partitions)}):
        _run_variant_and_check(spark, pts, eps, min_pts, variant)


# Spark jobs per call with adaptive execution off on the inputs below, as
# measured when the ceiling was set (the count is the same at 1, 4, 7 and 64
# shuffle partitions).  A change that adds jobs to a call fails here.
MAX_JOBS = {1: 7, 8: 6}
JOB_COUNT_PTS = sd.seed_spreader(300, 2, seed=30, noise_frac=0.05)


@pytest.mark.parametrize("adaptive", ["false", "true"], ids=["aqe-off", "aqe-on"])
@pytest.mark.parametrize("min_pts", [1, 8], ids=["all-core", "with-noise"])
def test_job_count_same_across_calls(spark, min_pts, adaptive):
    """Clean calls on one cached input run the same number of Spark jobs,
    and with adaptive execution off no more than ``MAX_JOBS``."""
    pts = JOB_COUNT_PTS
    with _session_conf(spark, {AQE: adaptive}):
        df = sd.points_df(spark, pts).cache()
        df.count()
        jobs = []
        for i in range(3):
            res, n = _jobs_in_group(
                spark,
                f"test-job-count-{adaptive}-{min_pts}-{i}",
                lambda: dbscan(spark, df, 250.0, min_pts, 2),
            )
            res.unpersist()
            jobs.append(n)
        df.unpersist()
    assert len(set(jobs)) == 1, jobs
    if adaptive == "false":
        assert jobs[0] <= MAX_JOBS[min_pts], jobs


# One call of each variant on the input with noise above, adaptive execution
# off: the cell table's job, the block pass's three (the grid's cell numbers,
# the pass's ``need`` table, the collect of its small rows, which for
# Delaunay include the core points it triangulates) and border's two.  Box
# cells give the points their box from the driver's copy, with no broadcast
# of the grid's cell numbers, so they run one job fewer.
VARIANT_MAX_JOBS = {v: 5 if VARIANTS[v].get("cell_method") == "box" else 6 for v in VARIANTS}


@pytest.mark.parametrize("variant", list(VARIANTS))
def test_job_count_per_variant(spark, variant):
    df = sd.points_df(spark, JOB_COUNT_PTS).cache()
    df.count()
    with _session_conf(spark, {AQE: "false"}):
        res, jobs = _jobs_in_group(
            spark, f"test-job-count-{variant}", lambda: dbscan_variant(spark, df, 250.0, 8, 2, variant)
        )
    res.unpersist()
    df.unpersist()
    assert jobs <= VARIANT_MAX_JOBS[variant], jobs


def test_duplicate_points(spark):
    pts = np.vstack(
        [np.tile([[5.0, 5.0]], (30, 1)), np.tile([[50.0, 50.0]], (30, 1)), [[500.0, 500.0]]]
    )
    _run_and_check(spark, pts, 2.0, 10, 2)


@pytest.mark.parametrize("variant", list(VARIANTS))
def test_two_clusters_bridged_by_border(spark, variant):
    """Classic construction: a border point within eps of two clusters must
    belong to both (multi-membership)."""
    # Two line clusters whose inner endpoints are exactly eps from the
    # bridge; the bridge sees only 2 other points, far below minPts, so it
    # stays non-core while touching a core point of each cluster.
    left = np.stack([np.linspace(-4.0, 0.0, 40), np.zeros(40)], axis=1)
    right = np.stack([np.linspace(10.0, 14.0, 40), np.zeros(40)], axis=1)
    bridge = np.array([[5.0, 0.0]])
    pts = np.vstack([left, right, bridge])
    res = _run_variant_and_check(spark, pts, 5.0, 40, variant)
    pdf = result_to_pandas(res)
    assert len(pdf.loc[80, "clusters"]) == 2
    assert not pdf.loc[80, "is_core"]


def test_exactly_eps_connectivity(spark):
    """Two tight clumps whose closest points are exactly eps apart must merge
    (the definition is inclusive)."""
    a = np.tile([[0.0, 0.0]], (10, 1))
    b = np.tile([[3.0, 4.0]], (10, 1))
    pts = np.vstack([a, b])
    res = _run_and_check(spark, pts, 5.0, 5, 2)
    pdf = result_to_pandas(res)
    labels = canonical_labels(pdf)
    assert labels[0] == labels[10]


def test_variant_qt_matches(spark):
    pts = sd.seed_spreader(350, 3, seed=25)
    res = dbscan_variant(spark, sd.points_df(spark, pts), 400.0, 10, 3, "our-exact-qt")
    assert_same_clustering(res, pts, 400.0, 10)


def test_variant_bucketing_matches(spark):
    pts = sd.seed_spreader(350, 3, seed=26)
    res = dbscan_variant(
        spark, sd.points_df(spark, pts), 400.0, 10, 3, "our-exact-qt-bucketing"
    )
    assert_same_clustering(res, pts, 400.0, 10)


def test_geolife_like_skewed(spark):
    df = sd.geolife_like(spark, n=600, seed=1)
    pts = df.toPandas().sort_values("id")[["x0", "x1", "x2"]].to_numpy()
    res = dbscan(spark, df, 400.0, 10, 3)
    assert_same_clustering(res, pts, 400.0, 10)


def test_teraclicklog_like_single_cell(spark):
    df = sd.teraclicklog_like(spark, n=300, seed=1)
    pts = df.toPandas().sort_values("id")[[f"x{j}" for j in range(13)]].to_numpy()
    res, stats = dbscan(spark, df, 1500.0, 100, 13, return_stats=True)
    assert stats["n_cells"] == 1
    assert_same_clustering(res, pts, 1500.0, 100)


def test_stats_present(spark):
    pts = sd.seed_spreader(200, 2, seed=27)
    res, stats = dbscan(spark, sd.points_df(spark, pts), 250.0, 8, 2, return_stats=True)
    for k in ("n_cells", "t_cells", "t_markcore", "t_clustercore", "t_border", "t_total",
              "n_core_cells", "n_candidate_edges", "n_evaluated", "n_clusters"):
        assert k in stats
    assert stats["t_total"] > 0


def test_deterministic_across_runs(spark):
    pts = sd.seed_spreader(250, 2, seed=28)
    df = sd.points_df(spark, pts)
    a = result_to_pandas(dbscan(spark, df, 250.0, 8, 2))
    b = result_to_pandas(dbscan(spark, df, 250.0, 8, 2))
    assert canonical_labels(a) == canonical_labels(b)
    assert a["is_core"].tolist() == b["is_core"].tolist()

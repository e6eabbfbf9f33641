"""Figure 7 reproduction (as a table): running time vs minPts.

Expected shape (paper §7.2): our methods' time *increases* with minPts
(MarkCore is O(n·minPts) — larger minPts means more sparse cells doing
range counts), while pointwise baselines are ~flat in minPts (their range
queries don't depend on it).
"""
import time

import pytest

from repro import synth_data as sd
from repro.baselines.hpdbscan_like import hpdbscan
from repro.core.dbscan import dbscan

from .conftest import record, run_once

EPS = 300.0
MINPTS_OURS = [10, 100, 1000, 5000]
MINPTS_BASE = [10, 1000]

_cache = {}


def _ss3(spark, n):
    if "ss3" not in _cache:
        df = sd.points_df(spark, sd.seed_spreader(n, 3, seed=2)).cache()
        df.count()
        _cache["ss3"] = df
    return _cache["ss3"]


@pytest.mark.parametrize("min_pts", MINPTS_OURS)
def test_minpts_our_exact(benchmark, spark, bench_n, min_pts):
    df = _ss3(spark, bench_n)

    def run():
        res, stats = dbscan(spark, df, EPS, min_pts, 3, return_stats=True)
        res.unpersist()
        return stats

    stats = run_once(benchmark, run)
    benchmark.extra_info.update({"dataset": "ss-simden-3d", "min_pts": min_pts, "impl": "our-exact"})
    record(
        f"\nFIG7 dataset=ss-simden-3d minPts={min_pts} impl=our-exact "
        f"time={stats['t_total']:.2f}s clusters={stats['n_clusters']}"
    )


@pytest.mark.parametrize("min_pts", MINPTS_BASE)
def test_minpts_hpdbscan(benchmark, spark, bench_n, min_pts):
    df = _ss3(spark, bench_n)

    def run():
        t0 = time.perf_counter()
        res = hpdbscan(spark, df, EPS, min_pts, 3)
        res.count()
        res.unpersist()
        return time.perf_counter() - t0

    elapsed = run_once(benchmark, run)
    benchmark.extra_info.update(
        {"dataset": "ss-simden-3d", "min_pts": min_pts, "impl": "hpdbscan-like"}
    )
    record(f"FIG7 dataset=ss-simden-3d minPts={min_pts} impl=hpdbscan-like time={elapsed:.2f}s")

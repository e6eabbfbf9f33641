"""Figure 10 reproduction (as a table): running time vs rho for approximate
DBSCAN, with the best exact method as baseline.

Expected shape (paper §7.2): a small decrease in approx running time as rho
grows; the best exact method stays competitive or faster at correct
parameters (paper: exact ≈1.24x faster than approx in parallel).
"""
import pytest

from repro import synth_data as sd
from repro.core.dbscan import dbscan, dbscan_variant

from .conftest import record, run_once

EPS = 300.0
MIN_PTS = 100
RHOS = [0.001, 0.01, 0.1, 1.0]

_cache = {}


def _ss3(spark, n):
    if "ss3" not in _cache:
        df = sd.points_df(spark, sd.seed_spreader(n, 3, seed=2)).cache()
        df.count()
        _cache["ss3"] = df
    return _cache["ss3"]


@pytest.mark.parametrize("impl", ["our-approx", "our-approx-qt"])
@pytest.mark.parametrize("rho", RHOS)
def test_rho_sweep(benchmark, spark, bench_n, impl, rho):
    df = _ss3(spark, bench_n)

    def run():
        res, stats = dbscan_variant(spark, df, EPS, MIN_PTS, 3, impl, rho=rho, return_stats=True)
        res.unpersist()
        return stats

    stats = run_once(benchmark, run)
    benchmark.extra_info.update({"impl": impl, "rho": rho})
    record(
        f"\nFIG10 dataset=ss-simden-3d rho={rho} impl={impl} "
        f"time={stats['t_total']:.2f}s clusters={stats['n_clusters']}"
    )


def test_rho_sweep_exact_baseline(benchmark, spark, bench_n):
    df = _ss3(spark, bench_n)

    def run():
        res, stats = dbscan(spark, df, EPS, MIN_PTS, 3, return_stats=True)
        res.unpersist()
        return stats

    stats = run_once(benchmark, run)
    benchmark.extra_info.update({"impl": "our-exact"})
    record(f"FIG10 dataset=ss-simden-3d rho=- impl=our-exact time={stats['t_total']:.2f}s")

"""Figure 6 reproduction (as a table): running time vs eps for d >= 3.

Two workloads:
* SS-simden-3D — our-exact / our-exact-qt / our-approx vs hpdbscan-like /
  pdsdbscan-like.  Expected shape: ours flat-or-faster with growing eps,
  baselines slower with growing eps (pointwise range queries).
* GeoLife-like (skewed) — our-exact vs the bucketing variants.  Expected:
  bucketing prunes most connectivity queries (Figure 6(j) spike story).
"""
import time

import pytest

from repro import synth_data as sd
from repro.baselines.hpdbscan_like import hpdbscan
from repro.baselines.pdsdbscan_like import pdsdbscan
from repro.core.dbscan import dbscan, dbscan_variant

from .conftest import record, run_once

MIN_PTS = 100
EPS_SS = [150.0, 300.0, 600.0, 1200.0]
EPS_GEO = [20.0, 40.0, 80.0, 160.0]

_cache = {}


def _ss3(spark, n):
    if "ss3" not in _cache:
        df = sd.points_df(spark, sd.seed_spreader(n, 3, seed=2)).cache()
        df.count()
        _cache["ss3"] = df
    return _cache["ss3"]


def _geo(spark, n):
    if "geo" not in _cache:
        df = sd.geolife_like(spark, n=n, seed=1).cache()
        df.count()
        _cache["geo"] = df
    return _cache["geo"]


OURS = ["our-exact", "our-exact-qt", "our-approx"]


@pytest.mark.parametrize("impl", OURS)
@pytest.mark.parametrize("eps", EPS_SS)
def test_eps_ss3_ours(benchmark, spark, bench_n, impl, eps):
    df = _ss3(spark, bench_n)

    def run():
        res, stats = dbscan_variant(
            spark, df, eps, MIN_PTS, 3, impl, return_stats=True
        )
        res.unpersist()
        return stats

    stats = run_once(benchmark, run)
    benchmark.extra_info.update({"dataset": "ss-simden-3d", "eps": eps, "impl": impl})
    record(
        f"\nFIG6 dataset=ss-simden-3d eps={eps} impl={impl} "
        f"time={stats['t_total']:.2f}s clusters={stats['n_clusters']}"
    )


@pytest.mark.parametrize("impl", ["hpdbscan-like", "pdsdbscan-like"])
@pytest.mark.parametrize("eps", EPS_SS)
def test_eps_ss3_baselines(benchmark, spark, bench_n, impl, eps):
    df = _ss3(spark, bench_n)
    fn = hpdbscan if impl == "hpdbscan-like" else pdsdbscan

    def run():
        t0 = time.perf_counter()
        res = fn(spark, df, eps, MIN_PTS, 3)
        res.count()
        res.unpersist()
        return time.perf_counter() - t0

    elapsed = run_once(benchmark, run)
    benchmark.extra_info.update({"dataset": "ss-simden-3d", "eps": eps, "impl": impl})
    record(f"FIG6 dataset=ss-simden-3d eps={eps} impl={impl} time={elapsed:.2f}s")


@pytest.mark.parametrize("impl", ["our-exact", "our-exact-bucketing", "our-exact-qt-bucketing"])
@pytest.mark.parametrize("eps", EPS_GEO)
def test_eps_geolife_bucketing(benchmark, spark, bench_n, impl, eps):
    df = _geo(spark, bench_n)

    def run():
        res, stats = dbscan_variant(spark, df, eps, MIN_PTS, 3, impl, return_stats=True)
        res.unpersist()
        return stats

    stats = run_once(benchmark, run)
    benchmark.extra_info.update({"dataset": "geolife-like", "eps": eps, "impl": impl})
    record(
        f"\nFIG6 dataset=geolife-like eps={eps} impl={impl} time={stats['t_total']:.2f}s "
        f"evaluated={stats.get('n_evaluated')} of {stats.get('n_candidate_edges')} edges"
    )

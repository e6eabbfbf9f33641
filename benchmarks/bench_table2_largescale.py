"""Table 2 reproduction: our-exact vs RP-DBSCAN on the large-dataset
analogues, four eps values each, minPts=100.

Paper (scaled 1000x down here): GeoLife eps {20,40,80,160}; Cosmo50 and
OpenStreetMap eps ladders; TeraClickLog eps {1500..12000} where all points
fall in one cell.  GeoLife uses bucketing, as in the paper's table.
Expected shape: our-exact beats rpdbscan on every cell (paper: 18-577x) and
TeraClickLog times are ~flat in eps.
"""
import pytest

from jobs.common import DATASETS
from repro.baselines.rpdbscan_like import rpdbscan
from repro.core.dbscan import dbscan

from .conftest import record, run_once

CASES = [
    # (dataset, d, eps list, use bucketing for our-exact)
    ("geolife", 3, [20.0, 40.0, 80.0, 160.0], True),
    ("cosmo50", 3, [100.0, 200.0, 400.0, 800.0], False),
    ("osm", 2, [100.0, 200.0, 400.0, 800.0], False),
    ("teraclicklog", 13, [1500.0, 3000.0, 6000.0, 12000.0], False),
]
MIN_PTS = 100

_cache = {}


def _df(spark, name, n):
    if name not in _cache:
        df = DATASETS[name](spark, n=n, seed=1).cache()
        df.count()
        _cache[name] = df
    return _cache[name]


def _params():
    out = []
    for name, d, epss, bucketing in CASES:
        for eps in epss:
            out.append((name, d, eps, bucketing))
    return out


@pytest.mark.parametrize("name,d,eps,bucketing", _params())
def test_table2_our_exact(benchmark, spark, bench_n_t2, name, d, eps, bucketing):
    df = _df(spark, name, bench_n_t2)

    def run():
        res, stats = dbscan(
            spark, df, eps, MIN_PTS, d, bucketing=bucketing, return_stats=True
        )
        res.unpersist()
        return stats

    stats = run_once(benchmark, run)
    benchmark.extra_info.update(
        {"dataset": name, "eps": eps, "impl": "our-exact" + ("-bucketing" if bucketing else ""),
         "n_clusters": stats["n_clusters"], "n_cells": stats["n_cells"]}
    )
    record(
        f"\nTABLE2 dataset={name} eps={eps} impl=our-exact{'-bucketing' if bucketing else ''} "
        f"time={stats['t_total']:.2f}s clusters={stats['n_clusters']} cells={stats['n_cells']}"
    )


@pytest.mark.parametrize("name,d,eps,_b", _params())
def test_table2_rpdbscan(benchmark, spark, bench_n_t2, name, d, eps, _b):
    df = _df(spark, name, bench_n_t2)

    import time

    def run():
        t0 = time.perf_counter()
        res = rpdbscan(spark, df, eps, MIN_PTS, d)
        res.count()
        res.unpersist()
        return time.perf_counter() - t0

    elapsed = run_once(benchmark, run)
    benchmark.extra_info.update({"dataset": name, "eps": eps, "impl": "rpdbscan-like"})
    record(f"TABLE2 dataset={name} eps={eps} impl=rpdbscan-like time={elapsed:.2f}s")

"""Figure 11 reproduction (as a table): the six 2D implementations
(grid/box × BCP/USEC/Delaunay) plus an input-size scaling row.

Expected shape (paper §7.3): grid-based beat box-based (box pays cell
construction), Delaunay-based are slowest (DT construction overhead), and
our-2d-grid-bcp is fastest overall.
"""
import pytest

from repro import synth_data as sd
from repro.core.dbscan import dbscan_variant

from .conftest import record, run_once

EPS = 300.0
MIN_PTS = 100
VARIANTS = [
    "our-2d-grid-bcp",
    "our-2d-grid-usec",
    "our-2d-grid-delaunay",
    "our-2d-box-bcp",
    "our-2d-box-usec",
    "our-2d-box-delaunay",
]

_cache = {}


def _ds(spark, gen, n, key, **kw):
    if key not in _cache:
        df = sd.points_df(spark, sd.seed_spreader(n, 2, **kw)).cache()
        df.count()
        _cache[key] = df
    return _cache[key]


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("dataset", ["simden", "varden"])
def test_2d_variants(benchmark, spark, bench_n, variant, dataset):
    df = _ds(spark, None, bench_n, f"ss2-{dataset}", seed=3, vary_density=(dataset == "varden"))

    def run():
        res, stats = dbscan_variant(spark, df, EPS, MIN_PTS, 2, variant, return_stats=True)
        res.unpersist()
        return stats

    stats = run_once(benchmark, run)
    benchmark.extra_info.update({"dataset": f"ss-{dataset}-2d", "impl": variant})
    record(
        f"\nFIG11 dataset=ss-{dataset}-2d impl={variant} time={stats['t_total']:.2f}s "
        f"t_cells={stats['t_cells']:.2f}s clusters={stats['n_clusters']}"
    )


@pytest.mark.parametrize("n", [5000, 10000, 20000, 40000])
def test_2d_scaling_n(benchmark, spark, n):
    df = sd.points_df(spark, sd.seed_spreader(n, 2, seed=4)).cache()
    df.count()

    def run():
        res, stats = dbscan_variant(spark, df, EPS, MIN_PTS, 2, "our-2d-grid-bcp", return_stats=True)
        res.unpersist()
        return stats

    stats = run_once(benchmark, run)
    benchmark.extra_info.update({"dataset": "ss-simden-2d", "impl": "our-2d-grid-bcp", "n": n})
    record(f"FIG11c dataset=ss-simden-2d n={n} impl=our-2d-grid-bcp time={stats['t_total']:.2f}s")
    df.unpersist()

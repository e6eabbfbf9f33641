"""The benchmark's workloads: one seeded input generator plus DBSCAN parameters each.

Every workload uses minPts = 100 and n = 20,000 points, and hands the
program only the generated DataFrame. README.md says why each was chosen.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from pyspark.sql import DataFrame, SparkSession

from repro import synth_data as sd


@dataclass(frozen=True)
class Workload:
    name: str
    make: Callable[[SparkSession, int, int], DataFrame]  # (spark, n, seed) -> points
    d: int
    eps: float
    variant: str  # a key of repro.core.dbscan.VARIANTS
    n: int = 20000
    min_pts: int = 100


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "ss3d-exact",
            lambda spark, n, seed: sd.ss_simden(spark, n=n, d=3, seed=seed),
            d=3,
            eps=300.0,
            variant="our-exact",
        ),
        Workload(
            "geolife-bucketing",
            lambda spark, n, seed: sd.geolife_like(spark, n=n, seed=seed),
            d=3,
            eps=160.0,
            variant="our-exact-bucketing",
        ),
        Workload(
            "onecell-13d",
            lambda spark, n, seed: sd.teraclicklog_like(spark, n=n, seed=seed),
            d=13,
            eps=1500.0,
            variant="our-exact",
        ),
    )
}

"""Spatial datasets for the parallel-DBSCAN reproduction (SIGMOD 2020).

The paper evaluates on Gan&Tao's seed-spreader synthetics (SS-simden /
SS-varden), UniformFill, and five real datasets we cannot obtain offline.
The generators below produce scaled-down analogues preserving the property
each dataset exercises (see DESIGN.md §1.3). All are deterministic in
``seed`` and return a Spark DataFrame with columns id:long, x0..x{d-1}.
"""
import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession


def _rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


_DOMAIN = 1e5  # Gan&Tao use coordinates in [0, 1e5]


def points_df(spark: SparkSession, arr: np.ndarray) -> DataFrame:
    """Wrap an (n, d) numpy array as the canonical points DataFrame."""
    arr = np.asarray(arr, dtype=np.float64)
    cols = {"id": np.arange(len(arr), dtype=np.int64)}
    for j in range(arr.shape[1]):
        cols[f"x{j}"] = arr[:, j]
    # An explicit schema: Spark cannot infer one from zero rows.
    schema = ", ".join(["id long", *[f"x{j} double" for j in range(arr.shape[1])]])
    return spark.createDataFrame(pd.DataFrame(cols), schema)


def seed_spreader(
    n: int,
    d: int,
    *,
    seed: int = 0,
    restarts: int = 10,
    r_vicinity: float = 100.0,
    vary_density: bool = False,
    noise_frac: float = 0.001,
    domain: float = _DOMAIN,
) -> np.ndarray:
    """Gan&Tao-style seed spreader (numpy array form).

    A "spreader" performs a random walk: it emits batches of points uniformly
    within ``r_vicinity`` of its position, steps a little, and with
    probability ~restarts/n teleports to a fresh uniform location (starting a
    new cluster). ``vary_density`` draws a per-cluster radius from a
    geometric ladder, giving variable-density clusters (SS-varden).
    A ``noise_frac`` fraction of points is uniform noise.
    """
    g = _rng(seed)
    pts = np.empty((n, d))
    n_noise = int(n * noise_frac)
    n_walk = n - n_noise
    pos = g.random(d) * domain
    radius = r_vicinity * (2.0 ** g.integers(0, 4)) if vary_density else r_vicinity
    batch = 100
    i = 0
    p_restart = restarts / max(1, n_walk // batch)
    while i < n_walk:
        m = min(batch, n_walk - i)
        # Uniform in the L2 ball of `radius` around pos (rejection-free:
        # direction * radius * U^(1/d))
        dirs = g.normal(size=(m, d))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True) + 1e-12
        radii = radius * g.random(m) ** (1.0 / d)
        pts[i : i + m] = np.clip(pos + dirs * radii[:, None], 0, domain)
        i += m
        if g.random() < p_restart:
            pos = g.random(d) * domain
            if vary_density:
                radius = r_vicinity * (2.0 ** g.integers(0, 4))
        else:
            step = g.normal(size=d)
            step /= np.linalg.norm(step) + 1e-12
            pos = np.clip(pos + step * radius * 0.5, 0, domain)
    pts[n_walk:] = g.random((n_noise, d)) * domain
    return pts


def ss_simden(spark: SparkSession, *, n: int, d: int, seed: int = 0) -> DataFrame:
    """SS-simden analogue: similar-density seed-spreader clusters."""
    return points_df(spark, seed_spreader(n, d, seed=seed, vary_density=False))


def ss_varden(spark: SparkSession, *, n: int, d: int, seed: int = 0) -> DataFrame:
    """SS-varden analogue: variable-density seed-spreader clusters."""
    return points_df(spark, seed_spreader(n, d, seed=seed, vary_density=True))


def uniform_fill(spark: SparkSession, *, n: int, d: int, seed: int = 0) -> DataFrame:
    """UniformFill: uniform points in a hypergrid of side sqrt(n) (paper §7)."""
    g = _rng(seed)
    side = np.sqrt(n)
    return points_df(spark, g.random((n, d)) * side)


def geolife_like(spark: SparkSession, *, n: int, seed: int = 0) -> DataFrame:
    """GeoLife analogue (d=3): extremely skewed — ~90% of points in one tiny
    dense blob (the "city"), the rest multi-scale spread. Exercises the
    skewed cell-connectivity queries where bucketing wins (paper Fig. 6(j))."""
    g = _rng(seed)
    n_city = int(n * 0.9)
    city_center = np.array([0.4, 0.4, 0.1]) * _DOMAIN
    city = city_center + g.normal(scale=_DOMAIN * 0.002, size=(n_city, 3))
    n_rest = n - n_city
    # Travel traces: a few long low-density filaments plus wide noise.
    n_fil = n_rest // 2
    t = g.random(n_fil)[:, None]
    a = g.random((8, 3)) * _DOMAIN
    b = g.random((8, 3)) * _DOMAIN
    which = g.integers(0, 8, n_fil)
    fil = a[which] * (1 - t) + b[which] * t + g.normal(scale=_DOMAIN * 0.001, size=(n_fil, 3))
    wide = g.random((n_rest - n_fil, 3)) * _DOMAIN
    return points_df(spark, np.clip(np.vstack([city, fil, wide]), 0, _DOMAIN))


def cosmo50_like(spark: SparkSession, *, n: int, seed: int = 0) -> DataFrame:
    """Cosmo50 analogue (d=3): hierarchical halo structure — many Gaussian
    blobs of varied size on a web of filaments, ~10% background."""
    g = _rng(seed)
    n_blob = int(n * 0.9)
    k = 60
    centers = g.random((k, 3)) * _DOMAIN
    sizes = g.dirichlet(np.ones(k))
    counts = g.multinomial(n_blob, sizes)
    scales = _DOMAIN * 0.003 * (0.5 + g.random(k) * 2)
    parts = [
        centers[j] + g.normal(scale=scales[j], size=(counts[j], 3))
        for j in range(k)
        if counts[j] > 0
    ]
    bg = g.random((n - n_blob, 3)) * _DOMAIN
    return points_df(spark, np.clip(np.vstack(parts + [bg]), 0, _DOMAIN))


def osm_like(spark: SparkSession, *, n: int, seed: int = 0) -> DataFrame:
    """OpenStreetMap analogue (d=2): dense city blobs + road polylines +
    uniform background; mixed density at continental scale."""
    g = _rng(seed)
    n_city = int(n * 0.5)
    k = 25
    centers = g.random((k, 2)) * _DOMAIN
    counts = g.multinomial(n_city, g.dirichlet(np.ones(k)))
    cities = [
        centers[j] + g.normal(scale=_DOMAIN * 0.004, size=(counts[j], 2))
        for j in range(k)
        if counts[j] > 0
    ]
    n_road = int(n * 0.4)
    t = g.random(n_road)[:, None]
    ia = g.integers(0, k, n_road)
    ib = (ia + 1 + g.integers(0, k - 1, n_road)) % k
    roads = centers[ia] * (1 - t) + centers[ib] * t + g.normal(
        scale=_DOMAIN * 0.0008, size=(n_road, 2)
    )
    bg = g.random((n - n_city - n_road, 2)) * _DOMAIN
    return points_df(spark, np.clip(np.vstack(cities + [roads, bg]), 0, _DOMAIN))


def teraclicklog_like(spark: SparkSession, *, n: int, seed: int = 0) -> DataFrame:
    """TeraClickLog analogue (d=13): feature vectors so tightly packed that at
    the paper's parameters *all points fall into a single cell* — the
    degenerate case the paper highlights for Table 2 (trivial single
    cluster; measures constant-factor overheads only)."""
    g = _rng(seed)
    # One tight blob centred inside the first grid cell at eps=1500
    # (side = 1500/sqrt(13) ≈ 416): values stay well within [0, 416).
    pts = np.clip(g.normal(scale=15.0, size=(n, 13)) + 200.0, 1.0, 399.0)
    return points_df(spark, pts)


def household_like(spark: SparkSession, *, n: int, seed: int = 0) -> DataFrame:
    """Household analogue (d=7): a few elongated Gaussian clusters + noise."""
    g = _rng(seed)
    k = 6
    n_cl = int(n * 0.95)
    centers = g.random((k, 7)) * _DOMAIN
    counts = g.multinomial(n_cl, g.dirichlet(np.ones(k) * 3))
    scales = _DOMAIN * 0.005 * (0.5 + g.random((k, 7)))
    parts = [
        centers[j] + g.normal(size=(counts[j], 7)) * scales[j]
        for j in range(k)
        if counts[j] > 0
    ]
    bg = g.random((n - n_cl, 7)) * _DOMAIN
    return points_df(spark, np.clip(np.vstack(parts + [bg]), 0, _DOMAIN))

"""The paper's experiments (Table 2, Figs. 6-11 of §7) as tables, in one runner.

    python jobs/experiments.py [--only table2|fig6-ss3d|fig6-geolife|fig7|fig8|fig10|fig11]

Each row of ``MATRIX`` is one row of a table in EXPERIMENTS.md: a dataset of
``jobs.common.DATASETS`` (seed 0) at a fixed n, DBSCAN's parameters and one
implementation, ours (a key of ``repro.core.dbscan.VARIANTS``) or a baseline.
Every row runs under one protocol in ``jobs.common.get_spark``'s session. The
input is generated once and cached. A row of ours makes a cold call and then
``WARM_CALLS`` warm calls: ``warm_s`` is their median, ``warm_min_s`` their
minimum and ``stats`` the median call's, since single calls on a shared
4-core box spread about 2x. A baseline row makes one warm call
(``warm_s == warm_min_s``) to keep the full matrix near its 78 minutes: in
``BENCH_93e6cf6.json`` the baselines' calls took 52 of them and the warm
calls of all 76 rows of ours 7.2. Each call is timed as the wall time of
the call plus ``count()`` of its result, and each result is unpersisted
after it is checked. The check compares every call with
``seq_gridbscan.dbscan_seq`` on the same points: exact
implementations must match its core flags and cluster labels, approximate
ones its core flags. ``dbscan_seq``'s own time is recorded beside the row as
the serial floor. Fig. 9's thread rows run in one subprocess per thread count
with ``SPARK_MASTER=local[k]``, because one JVM cannot change its master.
Each session first measures and drops one ``WARM_UP`` row, so a cold call is
a row's first call in a session that has already run the pipeline.

The run writes ``BENCH_<short sha>.json`` at the repository root after each
figure (a figure measured again replaces its old rows, so ``--only`` runs add
up to one file) and exits 1 if any row it measured failed its check.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
import traceback
from dataclasses import asdict, dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from jobs.common import get_spark, load_dataset  # noqa: E402  (puts src on the path)

import numpy as np  # noqa: E402

from repro.baselines.hpdbscan_like import hpdbscan  # noqa: E402
from repro.baselines.pdsdbscan_like import pdsdbscan  # noqa: E402
from repro.baselines.rpdbscan_like import rpdbscan  # noqa: E402
from repro.baselines.seq_gridbscan import dbscan_seq  # noqa: E402
from repro.core.dbscan import dbscan_variant  # noqa: E402
from repro.core.validate import canonical_labels, result_to_pandas  # noqa: E402

# Scales: about 1000x below the paper's inputs (EXPERIMENTS.md says why).
N_SWEEP = 20_000  # Figs. 6, 7, 10 and 11
N_TABLE2 = 30_000
N_SPEEDUP = (50_000, 100_000)  # Fig. 8; Fig. 9's thread rows run at the larger
THREADS = (1, 2, 4, 8, 16)
N_SCALING_2D = (5_000, 10_000, 20_000, 40_000)  # Fig. 11(c)
MIN_PTS = 100
WARM_CALLS = 3  # per row of ours; a baseline row makes one

BASELINES = {"hpdbscan-like": hpdbscan, "pdsdbscan-like": pdsdbscan, "rpdbscan-like": rpdbscan}
FIGURES = ("table2", "fig6-ss3d", "fig6-geolife", "fig7", "fig8", "fig10", "fig11")


@dataclass(frozen=True)
class Row:
    figure: str
    dataset: str  # a key of jobs.common.DATASETS
    n: int
    d: int
    eps: float
    impl: str  # a key of VARIANTS or BASELINES
    min_pts: int = MIN_PTS
    rho: float = 0.01  # read by the approximate variants only
    threads: int | None = None  # None: this session; k: a local[k] subprocess


def _matrix() -> list[Row]:
    rows: list[Row] = []

    def add(fig, ds, n, d, epss, impls, **kw):
        rows.extend(Row(fig, ds, n, d, e, i, **kw) for e in epss for i in impls)

    for ds, d, epss, ours in (
        ("geolife", 3, (20.0, 40.0, 80.0, 160.0), "our-exact-bucketing"),
        ("cosmo50", 3, (100.0, 200.0, 400.0, 800.0), "our-exact"),
        ("osm", 2, (100.0, 200.0, 400.0, 800.0), "our-exact"),
        ("teraclicklog", 13, (1500.0, 3000.0, 6000.0, 12000.0), "our-exact"),
    ):
        add("table2", ds, N_TABLE2, d, epss, (ours, "rpdbscan-like"))
    add("fig6-ss3d", "ss-simden", N_SWEEP, 3, (150.0, 300.0, 600.0, 1200.0),
        ("our-exact", "our-exact-qt", "our-approx", "hpdbscan-like", "pdsdbscan-like"))
    add("fig6-geolife", "geolife", N_SWEEP, 3, (20.0, 40.0, 80.0, 160.0),
        ("our-exact", "our-exact-bucketing", "our-exact-qt-bucketing"))
    for mp in (10, 100, 1000, 5000):
        add("fig7", "ss-simden", N_SWEEP, 3, (300.0,),
            ("our-exact", "hpdbscan-like") if mp <= 1000 else ("our-exact",), min_pts=mp)
    for n in N_SPEEDUP:
        add("fig8", "ss-simden", n, 3, (300.0,), ("our-exact",))
    for k in THREADS:
        add("fig8", "ss-simden", N_SPEEDUP[-1], 3, (300.0,), ("our-exact",), threads=k)
    add("fig10", "ss-simden", N_SWEEP, 3, (300.0,), ("our-exact",))
    for rho in (0.001, 0.01, 0.1, 1.0):
        add("fig10", "ss-simden", N_SWEEP, 3, (300.0,), ("our-approx", "our-approx-qt"), rho=rho)
    for ds in ("ss-simden", "ss-varden"):
        add("fig11", ds, N_SWEEP, 2, (300.0,), [f"our-2d-{c}-{g}" for c in ("grid", "box")
                                                for g in ("bcp", "usec", "delaunay")])
    for n in N_SCALING_2D:
        add("fig11", "ss-simden", n, 2, (300.0,), ("our-2d-grid-bcp",))
    return rows


MATRIX = _matrix()
# Measured and dropped at the start of each session: a session's first call
# also pays for starting the Python workers and for the JVM's compiling (this
# row's first call took 6.3-15.8 s and its second 2.6-6.2 s in the 12
# sessions of one run of the matrix on 4 cores).
WARM_UP = Row("warm-up", "ss-simden", N_SWEEP, 3, 300.0, "our-exact")


def check(pdf, ids, core_ref, labels_ref, exact: bool) -> str:
    """'ok', or why a collected result differs from dbscan_seq's."""
    if not np.array_equal(pdf["id"].to_numpy(), ids):
        return "ids differ from the input"
    bad = int((pdf["is_core"].to_numpy(dtype=bool) != core_ref).sum())
    if bad:
        return f"core flags differ at {bad} points"
    if not exact:
        return "ok"
    try:
        labels = canonical_labels(pdf)
    except (AssertionError, KeyError) as e:
        return f"labels not canonicalisable: {e!r}"
    bad = sum(a != b for a, b in zip(labels, labels_ref))
    return f"cluster labels differ at {bad} points" if bad else "ok"


def _call(spark, df, row: Row):
    """One timed call: (seconds, stats or None, the result collected by id)."""
    t0 = time.perf_counter()
    if row.impl in BASELINES:
        res, stats = BASELINES[row.impl](spark, df, row.eps, row.min_pts, row.d), None
    else:
        res, stats = dbscan_variant(spark, df, row.eps, row.min_pts, row.d, row.impl,
                                    rho=row.rho, return_stats=True)
    res.count()
    wall = time.perf_counter() - t0
    pdf = result_to_pandas(res)
    res.unpersist()
    return wall, stats, pdf


def _record(row: Row, **measured) -> dict:
    """A row's record; every record has the same keys."""
    return asdict(row) | dict.fromkeys(
        ("master", "cold_s", "warm_s", "warm_min_s", "seq_s", "core_points", "stats", "check")
    ) | measured


def measure(spark, rows: list[Row]) -> list[dict]:
    """Measure rows in this session: one record per row, grouped by input."""
    out = []
    for key in dict.fromkeys((r.dataset, r.n, r.d) for r in rows):
        df = load_dataset(spark, *key)
        pdf = df.toPandas().sort_values("id")
        ids, pts = pdf["id"].to_numpy(), pdf[[f"x{j}" for j in range(key[2])]].to_numpy()
        seq = {}
        for row in (r for r in rows if (r.dataset, r.n, r.d) == key):
            if (row.eps, row.min_pts) not in seq:
                t0 = time.perf_counter()
                ref = dbscan_seq(pts, row.eps, row.min_pts)
                seq[row.eps, row.min_pts] = (time.perf_counter() - t0, ref)
            seq_s, (core_ref, labels_ref) = seq[row.eps, row.min_pts]
            rec = _record(row, master=spark.sparkContext.master, seq_s=seq_s,
                          core_points=int(core_ref.sum()))
            warm = []  # (seconds, stats) of the warm calls
            try:
                for k in range(1 + (1 if row.impl in BASELINES else WARM_CALLS)):
                    wall, stats, got = _call(spark, df, row)
                    rec["check"] = check(got, ids, core_ref, labels_ref, "approx" not in row.impl)
                    if rec["check"] != "ok":
                        rec["check"] = f"{'warm' if k else 'cold'} call: {rec['check']}"
                        break
                    if k:
                        warm.append((wall, stats))
                    else:
                        rec["cold_s"], rec["stats"] = wall, stats
                if warm:
                    warm.sort(key=lambda c: c[0])
                    rec["warm_s"], rec["stats"] = warm[len(warm) // 2]
                    rec["warm_min_s"] = warm[0][0]
            except Exception:  # a failed row is reported, and the matrix goes on
                rec["check"] = f"raised: {traceback.format_exc(limit=-1).strip()}"
            print(f"{row.figure} {row.dataset} n={row.n} d={row.d} eps={row.eps} "
                  f"minPts={row.min_pts} rho={row.rho} {row.impl} {rec['master']}: "
                  f"cold {rec['cold_s']} s, warm {rec['warm_s']} s (min {rec['warm_min_s']}), "
                  f"seq {seq_s:.2f} s, {rec['check']}", flush=True)
            out.append(rec)
        df.unpersist()
    return out


def _session():
    spark = get_spark("experiments")
    measure(spark, [WARM_UP])
    return spark


def _child() -> None:
    """A thread-count subprocess: rows as JSON on stdin, records on stdout's last line."""
    rows = [Row(**r) for r in json.load(sys.stdin)]
    spark = _session()
    recs = measure(spark, rows)
    spark.stop()
    print(json.dumps(recs, default=_plain))


def measure_threads(rows: list[Row]) -> list[dict]:
    """Measure rows in a fresh local[k] session per thread count k."""
    out = []
    for k in sorted({r.threads for r in rows}):
        mine = [r for r in rows if r.threads == k]
        env = {v: s for v, s in os.environ.items() if v != "PYSPARK_SUBMIT_ARGS"}
        proc = subprocess.run(
            [sys.executable, "-c", "from jobs.experiments import _child; _child()"],
            input=json.dumps([asdict(r) for r in mine]), capture_output=True, text=True,
            cwd=ROOT, env=env | {"SPARK_MASTER": f"local[{k}]"},
        )
        *log, last = proc.stdout.strip().splitlines() or [""]
        print("\n".join(log), flush=True)
        if proc.returncode == 0:
            out += json.loads(last)
        else:
            out += [_record(r, check=f"subprocess exited {proc.returncode}: "
                                  f"{proc.stderr[-500:]}") for r in mine]
    return out


def _plain(o):
    """JSON for numpy scalars and arrays in stats."""
    return o.item() if hasattr(o, "item") else o.tolist()


def _git(*args) -> str:
    out = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, check=False)
    return out.stdout.strip()


def environment(spark) -> dict:
    import pandas
    import pyspark

    sc = spark.sparkContext
    return {
        "git_sha": _git("rev-parse", "HEAD") or None,
        "worktree_dirty": bool(_git("status", "--porcelain", "--untracked-files=no")),
        "date": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "nproc": len(os.sched_getaffinity(0)),
        "master": sc.master,
        "default_parallelism": sc.defaultParallelism,
        "shuffle_partitions": spark.conf.get("spark.sql.shuffle.partitions"),
        "adaptive": spark.conf.get("spark.sql.adaptive.enabled"),
        "driver_memory": sc.getConf().get("spark.driver.memory"),
        "spark": spark.version,
        "pyspark": pyspark.__version__,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "pandas": pandas.__version__,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--only", choices=FIGURES, help="measure this figure's rows only")
    figs = [a] if (a := ap.parse_args(argv).only) else list(FIGURES)
    path = ROOT / f"BENCH_{_git('rev-parse', '--short', 'HEAD') or 'nogit'}.json"
    bench = json.loads(path.read_text()) if path.exists() else {"figures": {}, "rows": []}
    spark = _session()
    try:
        for fig in figs:
            rows = [r for r in MATRIX if r.figure == fig]
            t0 = time.perf_counter()
            recs = measure(spark, [r for r in rows if r.threads is None])
            recs += measure_threads([r for r in rows if r.threads is not None])
            bench["figures"][fig] = {"wall_s": time.perf_counter() - t0,
                                     "env": environment(spark)}
            bench["rows"] = [r for r in bench["rows"] if r["figure"] != fig] + recs
            path.write_text(json.dumps(bench, indent=1, default=_plain) + "\n")
    finally:
        spark.stop()
    failed = [r for r in bench["rows"] if r["figure"] in figs and r["check"] != "ok"]
    for r in failed:
        print(f"FAILED {r['figure']} {r['dataset']} eps={r['eps']} {r['impl']}: {r['check']}",
              file=sys.stderr)
    print(f"wrote {path.name}: {len(failed)} of "
          f"{sum(r['figure'] in figs for r in bench['rows'])} rows failed their check")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark of ``repro.core.dbscan.dbscan_variant``: clean, warm call time.

Run from the repository root:

    python3 perfbench/run.py --workload ss3d-exact --seed 1 --seconds 5 --trace 0

``--trace 0`` times calls with tracing off and prints the end-to-end metrics.
``--trace 1`` makes one extra, traced call and prints the per-layer metrics.
Every call's output is checked against the serial grid DBSCAN
(``repro.baselines.seq_gridbscan.dbscan_seq``) on the same input. The last
line of standard output is one JSON object: correct, attempted, failed,
metrics. README.md in this directory defines every workload and metric.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shlex
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench_work"  # Spark scratch, temp files and event log
DRIVER_MEM = "4g"  # jobs/common.py defaults to 24g, more than a small box has
SETUP_REPEATS = 3


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="keep making warm calls until this much time has passed "
                        "(at least one; exactly one with --trace 1)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def configure_environment(trace: bool) -> None:
    """Set what the Spark JVM and its Python workers read at launch.

    Must run before the first SparkSession is created. The session itself
    is still built by jobs.common.get_spark; this only pins the master to
    local[nproc], the driver memory, the scratch directories and, when
    tracing, an uncompressed single-file event log.
    """
    shutil.rmtree(WORK, ignore_errors=True)
    for sub in ("local", "tmp", "eventlog", "warehouse"):
        (WORK / sub).mkdir(parents=True)
    src = str(ROOT / "src")
    # Python workers import repro inside applyInPandas; they inherit PYTHONPATH.
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    sys.path[:0] = [src, str(ROOT)]
    os.environ["SPARK_MASTER"] = f"local[{len(os.sched_getaffinity(0))}]"
    os.environ["SPARK_DRIVER_MEM"] = DRIVER_MEM
    os.environ["SPARK_LOCAL_DIRS"] = str(WORK / "local")
    os.environ["TMPDIR"] = str(WORK / "tmp")
    # -XX:-UsePerfData: no hsperfdata files, so the JVMs write only under WORK.
    os.environ["SPARK_LAUNCHER_OPTS"] = f"-XX:-UsePerfData -Djava.io.tmpdir={WORK / 'tmp'}"
    os.environ.pop("PYSPARK_SUBMIT_ARGS", None)
    import jobs.common  # noqa: F401  composes PYSPARK_SUBMIT_ARGS from the variables above

    extra = [
        "--conf", "spark.ui.showConsoleProgress=false",
        "--conf", f"spark.sql.warehouse.dir={WORK / 'warehouse'}",
        "--driver-java-options", f"-Djava.io.tmpdir={WORK / 'tmp'} -XX:-UsePerfData",
    ]
    if trace:
        extra += [
            "--conf", "spark.eventLog.enabled=true",
            "--conf", f"spark.eventLog.dir={(WORK / 'eventlog').as_uri()}",
            "--conf", "spark.eventLog.compress=false",
            "--conf", "spark.eventLog.rolling.enabled=false",
            "--conf", "spark.eventLog.includeTaskMetricsAccumulators=false",
        ]
    head, sep, tail = os.environ["PYSPARK_SUBMIT_ARGS"].rpartition("pyspark-shell")
    if not sep:
        raise RuntimeError("jobs.common did not set PYSPARK_SUBMIT_ARGS")
    os.environ["PYSPARK_SUBMIT_ARGS"] = f"{head}{shlex.join(extra)} pyspark-shell{tail}"


@dataclass
class Call:
    label: str
    groups: list[str]
    wall_s: float | None = None
    result: object = None  # pandas frame: id, is_core, clusters (sorted tuples)
    stats: dict = field(default_factory=dict)
    error: str | None = None


class Bench:
    """One SparkSession, one seeded input, and the calls made on it."""

    def __init__(self, wl):
        from jobs.common import get_spark

        self.wl = wl
        t0 = time.perf_counter()
        self.spark = get_spark(f"perfbench-{wl.name}")
        self.session_s = time.perf_counter() - t0
        self.sc = self.spark.sparkContext
        self.calls: list[Call] = []

    def load(self, seed: int) -> None:
        """Generate, cache and count the input SETUP_REPEATS times; keep the last."""
        wl = self.wl
        self.input_s = []
        for _ in range(SETUP_REPEATS):
            self.spark.catalog.clearCache()
            t0 = time.perf_counter()
            df = wl.make(self.spark, wl.n, seed).cache()
            df.count()
            self.input_s.append(time.perf_counter() - t0)
        self.df = df
        pdf = df.toPandas().sort_values("id")
        self.ids = pdf["id"].to_numpy()
        self.pts = pdf[[f"x{j}" for j in range(wl.d)]].to_numpy()

    @property
    def setup_s(self) -> float:
        return self.session_s + statistics.median(self.input_s)

    def call(self, label: str, tracer=None) -> Call:
        """One clean call: no cached plan of an earlier call is left to reuse."""
        from repro.core.dbscan import dbscan_variant
        from repro.core.validate import result_to_pandas

        from phases import phase_groups

        # Untimed clean-call protocol: drop every cached plan, re-cache the input.
        self.spark.catalog.clearCache()
        self.df.cache()
        self.df.count()
        wl = self.wl
        args = (self.spark, self.df, wl.eps, wl.min_pts, wl.d, wl.variant)
        c = Call(label, phase_groups() if tracer else [f"perfbench-call:{label}"])
        self.calls.append(c)
        try:
            if tracer is None:
                self.sc.setJobGroup(c.groups[0], label)
                t0 = time.perf_counter()
                result, c.stats = dbscan_variant(*args, return_stats=True)
                c.wall_s = time.perf_counter() - t0
            else:
                c.wall_s, (result, c.stats) = tracer.call(dbscan_variant, *args, return_stats=True)
            self.sc.setJobGroup("perfbench-collect", "result check")
            c.result = result_to_pandas(result)
        except Exception:  # a failed call is counted, and the run goes on
            c.error = traceback.format_exc()
            print(f"call {label} raised:\n{c.error}", file=sys.stderr)
        return c

    def jobs_per_call(self) -> list[int]:
        tracker = self.sc.statusTracker()
        return [sum(len(tracker.getJobIdsForGroup(g)) for g in c.groups)
                for c in self.calls if c.error is None]

    def environment(self) -> dict:
        import numpy
        import pandas
        import pyspark

        sha = None
        if (ROOT / ".git").exists():
            out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True, check=False)
            sha = out.stdout.strip() or None
        return {
            "git_sha": sha,
            "nproc": len(os.sched_getaffinity(0)),
            "spark": self.spark.version,
            "pyspark": pyspark.__version__,
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "pandas": pandas.__version__,
            "spark_conf": dict(sorted(self.sc.getConf().getAll())),
        }

    def stop(self) -> None:
        """Stop Spark and wait for the JVM it launched to exit."""
        from pyspark import SparkContext

        gateway = SparkContext._gateway
        self.spark.stop()
        if gateway is None:
            return
        gateway.shutdown()
        proc = getattr(gateway, "proc", None)
        if proc is not None:
            proc.stdin.close()  # the JVM exits when its stdin closes
            try:
                proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()


def mismatch(call: Call, ids, core_ref, labels_ref) -> str | None:
    """Why a call's output differs from the serial oracle, or None."""
    import numpy as np

    from repro.core.validate import canonical_labels

    if call.error is not None:
        return "raised"
    pdf = call.result
    if not np.array_equal(pdf["id"].to_numpy(), ids):
        return "ids differ from the input"
    bad_core = int((pdf["is_core"].to_numpy(dtype=bool) != core_ref).sum())
    if bad_core:
        return f"core flags differ at {bad_core} points"
    try:
        labels = canonical_labels(pdf)
    except (AssertionError, KeyError) as e:
        return f"labels not canonicalisable: {e!r}"
    bad = sum(a != b for a, b in zip(labels, labels_ref))
    return f"cluster labels differ at {bad} points" if bad else None


def bcp_kernel(pts, core, eps: float, d: int) -> tuple[float, int]:
    """Time bcp_connected over every candidate core-cell pair, single-threaded.

    Cells are repro.core.grid cells of the serial run's core points; pairs
    are grid.neighbor_pairs of those cells, each unordered pair once.
    """
    import numpy as np
    import pandas as pd

    from repro.core import grid
    from repro.spatial.bcp import bcp_connected

    cpts = pts[core]
    cc = np.floor(cpts / grid.cell_side(eps, d)).astype(np.int64)
    uniq, inv = np.unique(cc, axis=0, return_inverse=True)
    inv = inv.ravel()
    cells = pd.DataFrame(uniq, columns=grid.ccols(d))
    cells.insert(0, "cell", np.arange(len(uniq)))
    pairs = grid.neighbor_pairs(cells, d)
    pairs = pairs[pairs["cell"] < pairs["ncell"]]
    order = np.argsort(inv, kind="stable")
    bounds = np.searchsorted(inv[order], np.arange(len(uniq) + 1))
    members = [cpts[order[bounds[i]:bounds[i + 1]]] for i in range(len(uniq))]
    t0 = time.perf_counter()
    for a, b in zip(pairs["cell"].to_numpy(), pairs["ncell"].to_numpy()):
        bcp_connected(members[a], members[b], eps)
    return time.perf_counter() - t0, len(pairs)


def traced_metrics(bench: Bench, warm: Call, traced: Call, tracer, seq_s: float,
                   failed_frac: float, core_ref) -> dict:
    """Per-layer metrics of the traced call (event log read after Spark stopped)."""
    from phases import PHASES, find_event_log, phase_spark_totals

    spark_totals = phase_spark_totals(find_event_log(WORK / "eventlog"))
    stat_key = {"grid": "t_cells", "mark_core": "t_markcore",
                "cellgraph": "t_clustercore", "border": "t_border"}
    m = {}
    for p in PHASES:
        t = spark_totals[p]
        m[f"{p}.wall_s"] = (tracer.wall_s[p], "s")
        m[f"{p}.stat_s"] = (traced.stats[stat_key[p]], "s")
        m[f"{p}.task_s"] = (t["task_s"], "s")
        m[f"{p}.jobs"] = (t["jobs"], "count")
        m[f"{p}.tasks"] = (t["tasks"], "count")
        m[f"{p}.shuffle_records"] = (t["shuffle_records"], "count")
        m[f"{p}.shuffle_mb"] = (t["shuffle_bytes"] / 1e6, "MB")
    task_s = sum(t["task_s"] for t in spark_totals.values())
    records = sum(t["shuffle_records"] for t in spark_totals.values())
    pdf = traced.result
    core = pdf["is_core"].to_numpy(dtype=bool)
    assigned = pdf["clusters"].map(len).to_numpy() > 0
    st = traced.stats
    cand, evaluated = st["n_candidate_edges"], st["n_evaluated"]
    bcp_s, bcp_pairs = bcp_kernel(bench.pts, core_ref, bench.wl.eps, bench.wl.d)
    m.update({
        "dbscan.wall_s": (traced.wall_s, "s"),
        "dbscan.jobs": (sum(t["jobs"] for t in spark_totals.values()), "count"),
        "dbscan.tasks": (sum(t["tasks"] for t in spark_totals.values()), "count"),
        "dbscan.task_s": (task_s, "s"),
        "dbscan.busy_cores": (task_s / traced.wall_s, "cores"),
        "dbscan.shuffle_records_per_point": (records / bench.wl.n, "records/point"),
        "dbscan.tracing_overhead_s": (traced.wall_s - warm.wall_s, "s"),
        "dbscan.failed_frac": (failed_frac, "ratio"),
        "dbscan.serial_gap": (warm.wall_s / seq_s, "ratio"),
        "grid.cells": (st["n_cells"], "count"),
        "grid.neighbor_pairs": (tracer.neighbor_pairs, "count"),
        "mark_core.core_points": (int(core.sum()), "count"),
        "cellgraph.core_cells": (st["n_core_cells"], "count"),
        "cellgraph.candidate_edges": (cand, "count"),
        "cellgraph.evaluated_edges": (evaluated, "count"),
        "cellgraph.evaluated_frac": (evaluated / cand if cand else 0.0, "ratio"),
        "cellgraph.clusters": (st["n_clusters"], "count"),
        "border.border_points": (int((~core & assigned).sum()), "count"),
        "border.noise_points": (int((~core & ~assigned).sum()), "count"),
        "spatial.bcp.s": (bcp_s, "s"),
        "spatial.bcp.pairs": (bcp_pairs, "count"),
        "seq_gridbscan.s": (seq_s, "s"),
    })
    return m


def run(args) -> int:
    configure_environment(bool(args.trace))
    from repro.baselines.seq_gridbscan import dbscan_seq

    from phases import PhaseTracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    bench = Bench(wl)
    try:
        bench.load(args.seed)
        first = bench.call("first")
        warm: list[Call] = []
        t_loop = time.perf_counter()
        while not warm or (not args.trace and time.perf_counter() - t_loop < args.seconds):
            warm.append(bench.call(f"warm-{len(warm)}"))
        tracer = PhaseTracer(bench.sc) if args.trace else None
        traced = bench.call("traced", tracer) if tracer else None
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        env = bench.environment()
        t0 = time.perf_counter()
        core_ref, labels_ref = dbscan_seq(bench.pts, wl.eps, wl.min_pts)
        seq_s = time.perf_counter() - t0
        jobs = bench.jobs_per_call()
    finally:
        bench.stop()

    why = {c.label: mismatch(c, bench.ids, core_ref, labels_ref) for c in bench.calls}
    failed = sum(w is not None for w in why.values())
    attempted = len(bench.calls)
    warm_s = [c.wall_s for c in warm if why[c.label] is None]
    report = {
        "workload": wl.name, "seed": args.seed, "n": wl.n, "d": wl.d, "eps": wl.eps,
        "min_pts": wl.min_pts, "variant": wl.variant, "trace": args.trace,
        "session_s": bench.session_s, "input_setup_s": bench.input_s,
        "first_call_s": first.wall_s, "warm_call_s": [c.wall_s for c in warm],
        "call_stats": {c.label: c.stats for c in bench.calls},
        "warm_samples": len(warm_s), "warm_max_s": max(warm_s, default=None),
        "jobs_per_call": jobs, "seq_gridbscan_s": seq_s,
        "mismatches": {k: v for k, v in why.items() if v is not None},
        "env": env,
    }
    if traced is not None:
        report["traced_call_s"] = traced.wall_s
        report["traced_phase_wall_s"] = tracer.wall_s
    print(json.dumps({"report": report}))

    if len(set(jobs)) > 1:
        print(f"Spark job count differs between calls: {jobs}", file=sys.stderr)
        return 1
    if first.error or not warm_s or (traced is not None and traced.error):
        print("a call needed for the metrics raised; see above", file=sys.stderr)
        return 1
    if args.trace:
        metrics = traced_metrics(bench, warm[0], traced, tracer, seq_s,
                                 failed / attempted, core_ref)
    else:
        metrics = {
            "call_s": (statistics.median(warm_s), "s"),
            "first_call_s": (first.wall_s, "s"),
            "setup_s": (bench.setup_s, "s"),
            "driver_peak_rss_mb": (rss_mb, "MB"),
        }
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    missing = [p for p in ("src/repro/core/dbscan.py", "jobs/common.py") if not (ROOT / p).is_file()]
    if missing:
        print(f"perfbench: the program is not here ({', '.join(missing)} missing under {ROOT})",
              file=sys.stderr)
        return 2
    return run(args)


if __name__ == "__main__":
    sys.exit(main())

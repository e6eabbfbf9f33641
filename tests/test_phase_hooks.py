"""The benchmark's phase hooks still fit the program.

``perfbench/phases.py`` traces a call by patching the entry points that
``repro.core.dbscan.dbscan`` calls (``grid.with_cells``, ``mark_core``,
``build_cell_graph``, ``cluster_border``) and ``grid.neighbor_pairs``.  A
renamed or reordered phase would silently skew its per-phase numbers, so
this test runs the unchanged tracer around one real call.
"""
import importlib.util
from pathlib import Path

import pytest

from repro import synth_data as sd
from repro.core.dbscan import dbscan
from repro.core.validate import assert_same_clustering
from tests.test_dbscan_exact import JOB_COUNT_PTS

_PHASES_PY = Path(__file__).resolve().parent.parent / "perfbench" / "phases.py"


def _phases():
    spec = importlib.util.spec_from_file_location("perfbench_phases", _PHASES_PY)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_phase_tracer_windows_and_border_jobs(spark):
    """All four windows open and partition the call's wall time, and the
    border window runs 2 jobs: the label broadcast and the result's count."""
    phases = _phases()
    sc = spark.sparkContext
    tracker = sc.statusTracker()
    groups = dict(zip(phases.PHASES, phases.phase_groups()))
    before = {p: len(tracker.getJobIdsForGroup(g)) for p, g in groups.items()}
    df = sd.points_df(spark, JOB_COUNT_PTS).cache()
    df.count()
    tracer = phases.PhaseTracer(sc)
    try:
        wall, res = tracer.call(dbscan, spark, df, 250.0, 8, 2)
    finally:
        sc.setLocalProperty("spark.jobGroup.id", None)
        sc.setLocalProperty("spark.job.description", None)
    jobs = {p: len(tracker.getJobIdsForGroup(g)) - before[p] for p, g in groups.items()}
    assert_same_clustering(res, JOB_COUNT_PTS, 250.0, 8)
    res.unpersist()
    df.unpersist()
    assert all(tracer.wall_s[p] > 0 for p in phases.PHASES), tracer.wall_s
    assert sum(tracer.wall_s.values()) == pytest.approx(wall, rel=1e-9, abs=1e-9)
    assert tracer.neighbor_pairs > 0
    assert jobs["border"] == 2, jobs

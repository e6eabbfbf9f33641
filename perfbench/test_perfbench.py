"""Tests of the benchmark itself: its oracle, and its event-log and phase bookkeeping.

Run from the repository root:  python3 -m pytest perfbench -q
"""
from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from phases import GROUP_PREFIX, PHASES, PhaseTracer, phase_spark_totals  # noqa: E402
from repro.baselines.seq_gridbscan import dbscan_seq  # noqa: E402
from repro.core.reference import dbscan_brute  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# dbscan_brute holds a 2048 x n x d block of distances; keep it small for d = 13.
SMALL_N = 1500


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_oracle_matches_brute_force(spark, name, seed):
    """The benchmark checks every call against dbscan_seq; dbscan_seq must be exact."""
    wl = WORKLOADS[name]
    pdf = wl.make(spark, SMALL_N, seed).toPandas().sort_values("id")
    pts = pdf[[f"x{j}" for j in range(wl.d)]].to_numpy()
    core_ref, labels_ref = dbscan_brute(pts, wl.eps, wl.min_pts)
    core, labels = dbscan_seq(pts, wl.eps, wl.min_pts)
    assert core_ref.any(), "the workload must have core points at this size"
    assert (core == core_ref).all()
    assert labels == labels_ref


def _event(kind, **fields):
    return json.dumps({"Event": kind, **fields}) + "\n"


def _job(job_id, stages, group=None):
    props = {"spark.jobGroup.id": group} if group else {}
    return _event("SparkListenerJobStart", **{"Job ID": job_id, "Stage IDs": stages,
                                              "Properties": props})


def _task(stage, run_ms, records=0, nbytes=0):
    return _event("SparkListenerTaskEnd", **{
        "Stage ID": stage,
        "Task Metrics": {
            "Executor Run Time": run_ms,
            "Shuffle Write Metrics": {"Shuffle Records Written": records,
                                      "Shuffle Bytes Written": nbytes},
        },
    })


def test_event_log_charges_each_stage_to_its_first_job(tmp_path):
    log = tmp_path / "app"
    log.write_text("".join([
        _job(0, [0], group="perfbench-call:warm-0"),  # untraced: not charged
        _task(0, 500, records=7),
        _job(1, [1, 2], group=GROUP_PREFIX + "grid"),
        _task(1, 100, records=3, nbytes=30),
        _task(2, 200),
        _job(2, [2, 3], group=GROUP_PREFIX + "mark_core"),  # stage 2 is skipped here
        _task(3, 50, records=5, nbytes=50),
        _task(3, 50),
        _job(3, [0, 4], group=GROUP_PREFIX + "border"),  # stage 0 ran untraced
        _task(4, 1000),
    ]))
    t = phase_spark_totals(log)
    assert t["grid"] == pytest.approx({"jobs": 1, "tasks": 2, "task_s": 0.3, "shuffle_records": 3,
                                       "shuffle_bytes": 30})
    assert t["mark_core"] == pytest.approx({"jobs": 1, "tasks": 2, "task_s": 0.1, "shuffle_records": 5,
                                            "shuffle_bytes": 50})
    assert t["cellgraph"]["jobs"] == 0 and t["cellgraph"]["tasks"] == 0
    assert t["border"]["tasks"] == 1 and t["border"]["task_s"] == pytest.approx(1.0)


class _FakeContext:
    def __init__(self):
        self.groups = []

    def setJobGroup(self, group, description):
        self.groups.append(group)


def test_phase_windows_partition_the_call_and_patches_are_undone(monkeypatch):
    import repro.core.dbscan as dbscan_mod
    import repro.core.grid as grid_mod

    # Stand-ins for the entry points, so that no Spark job runs.
    entry = [(grid_mod, "with_cells"), (dbscan_mod, "mark_core"),
             (dbscan_mod, "build_cell_graph"), (dbscan_mod, "cluster_border"),
             (grid_mod, "neighbor_pairs")]
    stubs = []
    for mod, attr in entry:
        stub = (lambda *a, **k: [1, 2, 3]) if attr == "neighbor_pairs" else (lambda *a, **k: None)
        monkeypatch.setattr(mod, attr, stub)
        stubs.append(stub)
    sc = _FakeContext()
    tracer = PhaseTracer(sc)

    def fake_dbscan():
        grid_mod.with_cells()
        grid_mod.neighbor_pairs()
        time.sleep(0.01)
        dbscan_mod.mark_core()
        time.sleep(0.02)
        dbscan_mod.build_cell_graph()
        dbscan_mod.cluster_border()
        time.sleep(0.01)
        return "out"

    wall, out = tracer.call(fake_dbscan)
    assert out == "out"
    assert sc.groups == [GROUP_PREFIX + p for p in PHASES]
    assert sum(tracer.wall_s.values()) == pytest.approx(wall, rel=1e-9, abs=1e-9)
    assert tracer.wall_s["mark_core"] >= 0.02
    assert tracer.neighbor_pairs == 3
    assert [getattr(mod, attr) for mod, attr in entry] == stubs

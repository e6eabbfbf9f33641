"""Per-phase trace of one dbscan() call, recorded from outside the program.

``PhaseTracer.call`` patches the entry points of the four phases of Alg. 1
(cells -> MarkCore -> ClusterCore -> border) for the duration of one call.
Entering an entry point opens that phase's window and tags the Spark jobs
that follow with the phase's job group. A window stays open until the next
phase starts, so jobs that the composition step in ``repro.core.dbscan``
triggers after an entry point returns (Spark runs lazily) are charged to
that phase, and the windows partition the call's wall time.

``phase_spark_totals`` reads the Spark event log of the traced run and sums
jobs, executed tasks, executor run time and shuffle writes per phase.
"""
from __future__ import annotations

import functools
import importlib
import json
import time
from pathlib import Path

PHASES = ("grid", "mark_core", "cellgraph", "border")

# (module, attribute, phase): calling the attribute opens the phase window.
ENTRY_POINTS = (
    ("repro.core.grid", "with_cells", "grid"),
    ("repro.core.dbscan", "mark_core", "mark_core"),
    ("repro.core.dbscan", "build_cell_graph", "cellgraph"),
    ("repro.core.dbscan", "cluster_border", "border"),
)

GROUP_PREFIX = "perfbench-trace:"


def phase_groups() -> list[str]:
    return [GROUP_PREFIX + p for p in PHASES]


class PhaseTracer:
    """Phase windows and Spark job groups for one traced call."""

    def __init__(self, sc):
        self.sc = sc
        self.wall_s = dict.fromkeys(PHASES, 0.0)
        self.neighbor_pairs: int | None = None
        self._phase: str | None = None
        self._since = 0.0

    def _enter(self, phase: str, now: float | None = None) -> None:
        now = time.perf_counter() if now is None else now
        if phase == self._phase:
            return
        self._close(now)
        self._phase, self._since = phase, now
        self.sc.setJobGroup(GROUP_PREFIX + phase, phase)

    def _close(self, now: float) -> None:
        if self._phase is not None:
            self.wall_s[self._phase] += now - self._since
            self._phase = None

    def _opens(self, fn, phase: str):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._enter(phase)
            return fn(*args, **kwargs)

        return wrapper

    def _counts_pairs(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            self.neighbor_pairs = len(out)
            return out

        return wrapper

    def call(self, fn, *args, **kwargs):
        """Run ``fn`` with the entry points patched; return (wall_s, result).

        The first window opens when the call starts and the last closes when
        it returns, so ``sum(self.wall_s.values())`` equals the wall time.
        A missing entry point raises AttributeError: the trace would be wrong.
        """
        saved, patches = [], []
        for modname, attr, phase in ENTRY_POINTS:
            mod = importlib.import_module(modname)
            original = getattr(mod, attr)
            saved.append((mod, attr, original))
            patches.append((mod, attr, self._opens(original, phase)))
        grid = importlib.import_module("repro.core.grid")
        saved.append((grid, "neighbor_pairs", grid.neighbor_pairs))
        patches.append((grid, "neighbor_pairs", self._counts_pairs(grid.neighbor_pairs)))
        for mod, attr, wrapper in patches:
            setattr(mod, attr, wrapper)
        try:
            t0 = time.perf_counter()
            self._enter(PHASES[0], t0)
            out = fn(*args, **kwargs)
            t1 = time.perf_counter()
            self._close(t1)
        finally:
            for mod, attr, original in saved:
                setattr(mod, attr, original)
        return t1 - t0, out


def _phase_of(group: str | None) -> str | None:
    if group and group.startswith(GROUP_PREFIX):
        return group[len(GROUP_PREFIX):]
    return None


def phase_spark_totals(log_path: Path) -> dict[str, dict[str, float]]:
    """Per phase: jobs, executed tasks, task_s, shuffle_records, shuffle_bytes.

    A stage is charged to the job group of the first job that lists it; a
    later job that lists it again skips it. Tasks are counted from
    SparkListenerTaskEnd, so skipped stages add none. Shuffle figures are
    the records and bytes the phase's tasks wrote.
    """
    totals = {
        p: {"jobs": 0, "tasks": 0, "task_s": 0.0, "shuffle_records": 0, "shuffle_bytes": 0}
        for p in PHASES
    }
    stage_phase: dict[int, str | None] = {}
    with open(log_path, encoding="utf-8") as f:
        for line in f:
            if '"SparkListenerJobStart"' in line:
                ev = json.loads(line)
                phase = _phase_of((ev.get("Properties") or {}).get("spark.jobGroup.id"))
                if phase is not None:
                    totals[phase]["jobs"] += 1
                for stage in ev["Stage IDs"]:
                    stage_phase.setdefault(stage, phase)
            elif '"SparkListenerTaskEnd"' in line:
                ev = json.loads(line)
                phase = stage_phase.get(ev["Stage ID"])
                if phase is None:
                    continue
                metrics = ev.get("Task Metrics") or {}
                shuffle = metrics.get("Shuffle Write Metrics") or {}
                t = totals[phase]
                t["tasks"] += 1
                t["task_s"] += metrics.get("Executor Run Time", 0) / 1000.0
                t["shuffle_records"] += shuffle.get("Shuffle Records Written", 0)
                t["shuffle_bytes"] += shuffle.get("Shuffle Bytes Written", 0)
    return totals


def find_event_log(log_dir: Path) -> Path:
    """The one uncompressed, non-rolling event log Spark wrote in ``log_dir``."""
    logs = [p for p in log_dir.iterdir() if p.is_file()]
    if len(logs) != 1:
        raise RuntimeError(f"expected one event log in {log_dir}, found {sorted(logs)}")
    return logs[0]

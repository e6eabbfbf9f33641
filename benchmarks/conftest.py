"""Shared helpers for the benchmark suite.

Scales are deliberately ~1000x below the paper's (10M–4.4B points): the
substrate is PySpark-on-4-cores with Python kernels, not Cilk-on-36-cores,
so absolute numbers differ by construction; EXPERIMENTS.md compares *shapes*.
``REPRO_BENCH_N`` / ``REPRO_BENCH_N_T2`` override the default sizes.
"""
import os

import pytest

BENCH_N = int(os.environ.get("REPRO_BENCH_N", "20000"))
BENCH_N_T2 = int(os.environ.get("REPRO_BENCH_N_T2", "30000"))


def run_once(benchmark, fn):
    """One untimed warm-up round, then a single timed round.

    The warm-up pays the first-call costs (Python workers, code paths the
    JVM has not compiled yet) that would otherwise fall on whichever case
    runs first; ``fn`` must unpersist what it caches, so the timed round
    reuses no result of the warm-up.  DBSCAN runs are seconds-long; more
    rounds would blow the suite budget without changing the ordering
    conclusions."""
    return benchmark.pedantic(fn, rounds=1, iterations=1, warmup_rounds=1)


@pytest.fixture(scope="session")
def bench_n():
    return BENCH_N


@pytest.fixture(scope="session")
def bench_n_t2():
    return BENCH_N_T2


_RESULTS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench_results.txt")


def record(line: str) -> None:
    """Print a result row and append it to bench_results.txt (pytest captures
    stdout, so the side file is the durable record a reader can diff against
    EXPERIMENTS.md)."""
    print("\n" + line)
    with open(_RESULTS, "a") as f:
        f.write(line + "\n")

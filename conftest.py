"""The test session is the jobs' session, ``jobs.common.get_spark``.

This file only sizes the driver, and names the size at the end of the test
log: it sets ``SPARK_DRIVER_MEM`` before
``jobs.common`` is imported, because that import composes
``PYSPARK_SUBMIT_ARGS`` and ``spark.driver.memory`` is read at JVM launch,
not from SparkConf. pytest loads this file before any test module, so no
test imports pyspark first.
"""
import os


def _driver_mem() -> str:
    """~75% of the container's memory limit, for the Spark driver JVM.

    Precedence: SPARK_DRIVER_MEM env (explicit override) > cgroup v2/v1
    limit > 48g fallback.

    The cgroup read is best-effort: the sandbox runs under gVisor, whose
    sysfs emulation may not pass the host limit through. An unbounded
    value (cgroup-v1's ~9.2e18 "unlimited" sentinel, or a missing limit)
    is treated as absent so the JVM is never handed an impossible heap.
    """
    if m := os.environ.get("SPARK_DRIVER_MEM"):
        return m
    for p in (
        "/sys/fs/cgroup/memory.max",
        "/sys/fs/cgroup/memory/memory.limit_in_bytes",
    ):
        try:
            raw = open(p).read().strip()
            if not raw or raw == "max":
                continue
            gib = int(raw) / (1 << 30)
            if not (1 <= gib <= 1024):  # v1 "unlimited" → ~8.6e9 GiB
                continue
            os.environ["_SPARK_DRIVER_MEM_SRC"] = f"cgroup:{p}={raw}"
            return f"{max(1, int(gib * 0.75))}g"
        except (OSError, ValueError):
            continue
    os.environ["_SPARK_DRIVER_MEM_SRC"] = "fallback"
    return "48g"


os.environ.setdefault("SPARK_DRIVER_MEM", _driver_mem())

import pytest  # noqa: E402

from jobs.common import get_spark  # noqa: E402


# The session's master and parallelism, for the line below.
_SESSION = pytest.StashKey[str]()


def pytest_terminal_summary(terminalreporter, config):
    """One line in the test log, also under ``-q``, that tells whether the
    cgroup derivation saw the real memory limit, where the session ran, and
    which daemon its Python workers forked from."""
    terminalreporter.write_line(
        f"[conftest] SPARK_DRIVER_MEM={os.environ['SPARK_DRIVER_MEM']} "
        f"(src={os.environ.get('_SPARK_DRIVER_MEM_SRC', 'env')}) "
        + config.stash.get(_SESSION, "")
    )


@pytest.fixture(scope="session")
def spark(request):
    """One SparkSession for the whole test session, with the jobs' settings."""
    s = get_spark("repro-tests")
    sc = s.sparkContext
    request.config.stash[_SESSION] = (
        f"master={sc.master} defaultParallelism={sc.defaultParallelism} "
        f"daemon={sc.getConf().get('spark.python.daemon.module', 'pyspark.daemon')}"
    )
    yield s
    s.stop()

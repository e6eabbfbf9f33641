"""The one SparkSession configuration, and the datasets the jobs load.

``get_spark`` builds the session of every job, of the experiment runner,
of perfbench and of the tests (the ``spark`` fixture in the repository's
``conftest.py``).  ``--master`` can be overridden through the SPARK_MASTER
environment variable, which is how ``experiments.py`` runs Fig. 9's thread
rows under local[1], local[2], ...

Importing this module puts the repository's ``src`` on the driver's
``sys.path`` and on ``PYTHONPATH``, which the Python workers inherit when
the session starts, so the jobs run from a checkout without installing
``repro``.
"""
from __future__ import annotations

import os
import sys
from pathlib import Path

_SRC = str(Path(__file__).resolve().parent.parent / "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))

# spark.driver.memory is read at JVM launch, not from SparkConf, so it must
# be in PYSPARK_SUBMIT_ARGS before pyspark is imported.
os.environ.setdefault(
    "PYSPARK_SUBMIT_ARGS",
    f"--master {os.environ.get('SPARK_MASTER', 'local[*]')} "
    f"--driver-memory {os.environ.get('SPARK_DRIVER_MEM', '24g')} "
    "--conf spark.driver.host=127.0.0.1 --conf spark.ui.enabled=false "
    "pyspark-shell",
)

from pyspark.sql import SparkSession  # noqa: E402

from repro import synth_data as sd  # noqa: E402


def get_spark(app: str) -> SparkSession:
    """The session: one shuffle partition per core, adaptive execution off
    (the shuffles are already sized, and it would run each shuffle stage as
    its own job), Arrow on, only explicitly hinted (cell-scale) tables
    broadcast, and Python workers forked from ``repro.worker_daemon``, which
    keeps a task from re-reading ``pyspark.zip``'s directory."""
    s = (
        SparkSession.builder.appName(app)
        .master(os.environ.get("SPARK_MASTER", "local[*]"))
        .config("spark.python.daemon.module", "repro.worker_daemon")
        .config("spark.sql.adaptive.enabled", "false")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .config("spark.driver.host", "127.0.0.1")
        .config("spark.ui.enabled", "false")
        .getOrCreate()
    )
    s.conf.set("spark.sql.shuffle.partitions", str(s.sparkContext.defaultParallelism))
    s.sparkContext.setLogLevel("ERROR")
    return s


# name -> generator in repro.synth_data; those named in TAKES_D also take
# the dimension d, the others have a fixed one.
DATASETS = {
    "ss-simden": sd.ss_simden,
    "ss-varden": sd.ss_varden,
    "uniform": sd.uniform_fill,
    "geolife": sd.geolife_like,
    "cosmo50": sd.cosmo50_like,
    "osm": sd.osm_like,
    "teraclicklog": sd.teraclicklog_like,
    "household": sd.household_like,
}
TAKES_D = {"ss-simden", "ss-varden", "uniform"}


def load_dataset(spark, name: str, n: int, d: int):
    kw = {"d": d} if name in TAKES_D else {}
    df = DATASETS[name](spark, n=n, **kw).cache()
    df.count()
    return df

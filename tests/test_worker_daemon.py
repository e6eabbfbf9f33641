"""The session's Python workers fork from ``repro.worker_daemon``, whose
patch stops ``importlib.invalidate_caches()`` from re-reading zip archives
while every zip module still imports."""
import os
import subprocess
import sys
import zipfile
from pathlib import Path

import pandas as pd

import repro

# Run in a fresh interpreter so the pytest process stays unpatched.
_PROBE = r"""
import importlib, sys, zipimport

sys.path.insert(0, sys.argv[1])
import zmod_a

reads = []
read_directory = zipimport._read_directory


def counting(archive):
    reads.append(archive)
    return read_directory(archive)


zipimport._read_directory = counting
importlib.invalidate_caches()
before = len(reads)

from repro.worker_daemon import keep_zip_directories

keep_zip_directories()
reads.clear()
importlib.invalidate_caches()
after = len(reads)

import zmod_b

print(before, after, type(zmod_b.__loader__).__name__, zmod_b.VALUE)
"""


def test_keep_zip_directories_stops_the_reread(tmp_path):
    archive = tmp_path / "mods.zip"
    with zipfile.ZipFile(archive, "w") as z:
        z.writestr("zmod_a.py", "VALUE = 'a'\n")
        z.writestr("zmod_b.py", "VALUE = 'b'\n")
    src = str(Path(repro.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run(
        [sys.executable, "-c", _PROBE, str(archive)], env=env, capture_output=True, text=True, check=True
    ).stdout.split()
    before, after = int(out[0]), int(out[1])
    assert before >= 1
    assert after == 0
    assert out[2:] == ["zipimporter", "b"]


def test_workers_run_under_the_repo_daemon(spark):
    assert spark.sparkContext.getConf().get("spark.python.daemon.module") == "repro.worker_daemon"

    def probe(batches):
        import zipimport

        for _ in batches:
            pass
        yield pd.DataFrame({"module": [zipimport.zipimporter.invalidate_caches.__module__]})

    rows = spark.range(1, numPartitions=1).mapInPandas(probe, "module string").collect()
    assert [r.module for r in rows] == ["repro.worker_daemon"]

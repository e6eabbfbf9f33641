"""The Python worker daemon of the jobs' session (``spark.python.daemon.module``).

Before every task pyspark's worker calls ``importlib.invalidate_caches()``
(``worker_util.setup_spark_files``).  Up to Python 3.12 that makes every
``zipimporter`` in ``sys.path_importer_cache`` re-read its archive's whole
directory: one importer per package imported from ``pyspark.zip`` (about
1,300 entries) or py4j's zip, so 0.1–0.25 s per task whatever its work.

This daemon turns the zip importers' ``invalidate_caches`` into a no-op and
then runs pyspark's own daemon, so every worker it forks inherits the patch.
That is safe because the archives on a worker's path are Spark's own and do
not change under a running daemon; an archive added later (``addPyFile``)
gets a new importer, which reads its directory when it is created, and the
other path finders are still invalidated.  From Python 3.13 on the re-read
is lazy and the no-op saves nothing.  Importing this module changes nothing.
"""
import zipimport


def _keep_directory(self) -> None:
    """A zip importer's ``invalidate_caches`` that keeps the directory it read."""


def keep_zip_directories() -> None:
    """Stop ``importlib.invalidate_caches()`` from re-reading zip archives."""
    zipimport.zipimporter.invalidate_caches = _keep_directory


if __name__ == "__main__":
    # Patch from the module under its own name, not from ``__main__``, so a
    # worker can tell whose no-op it runs.
    from repro.worker_daemon import keep_zip_directories

    keep_zip_directories()
    import pyspark.daemon

    pyspark.daemon.manager()

"""PySpark daemon entry point that starts workers from the installed pyspark.

Selected by ``spark.python.daemon.module`` in ``jobs/_common.get_spark``;
Spark runs it as ``python -m repro.spark_daemon`` with
``$SPARK_HOME/python/lib/pyspark.zip``, the py4j zip and the spark-core jar
at the front of ``sys.path``. Before every task, PySpark's worker calls
``importlib.invalidate_caches()``, which on CPython 3.11+ makes each cached
``zipimporter`` re-read its archive's whole directory: 0.1–0.3 s per task
with the 16 importers that pyspark's imports leave behind.

When the same pyspark (and py4j) is installed as a package directory, the
daemon drops the archive entries from ``sys.path`` before anything imports
pyspark, so the forked workers import only from directories and that call
costs nothing. Otherwise the path is left as Spark set it.

The daemon then imports ``repro.enumeration`` (and with it pyspark and the
matcher) and calls ``gc.freeze()`` before Spark's own daemon starts forking
workers. Workers start with ``repro`` already imported, and PySpark's worker
loop runs a full ``gc.collect()`` after every task: in a worker that has run
a level task that collect scanned about 73k tracked objects, 30-78 ms per
task, while with the daemon's objects frozen it scans a few dozen, in under
0.1 ms. Both imports happen under ``__main__`` only: neither this module's
top level nor ``repro/__init__`` may import pyspark, so that
:func:`worker_sys_path` runs before anything has imported it.
"""
from __future__ import annotations

import gc
import os
import sys
import zipfile
from importlib.machinery import PathFinder


def worker_sys_path(path: list[str]) -> list[str]:
    """``path`` without its file entries (zips, jars) when the directories
    left hold pyspark as a package and py4j, and that pyspark's
    ``version.py`` is byte-identical to the one in every ``pyspark.zip`` on
    ``path``; otherwise ``path`` unchanged."""
    dirs = [p for p in path if not os.path.isfile(p)]
    spec = PathFinder.find_spec("pyspark", dirs)
    if spec is None or spec.origin is None or PathFinder.find_spec("py4j", dirs) is None:
        return path
    with open(os.path.join(os.path.dirname(spec.origin), "version.py"), "rb") as f:
        version = f.read()
    for p in path:
        if os.path.basename(p) == "pyspark.zip":
            with zipfile.ZipFile(p) as z:
                if z.read("pyspark/version.py") != version:
                    return path
    return dirs


if __name__ == "__main__":
    path = worker_sys_path(sys.path)
    if path != sys.path:
        sys.path[:] = path
        sys.path_importer_cache.clear()
    import repro.enumeration  # noqa: F401
    from pyspark.daemon import manager

    gc.freeze()

    manager()

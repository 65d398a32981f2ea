"""The PySpark daemon entry point: which ``sys.path`` the workers get, and
that the session's workers really import the installed pyspark, start
warm from a frozen daemon and reach the JVM over Unix sockets."""
import os
import subprocess
import sys
import zipfile
from pathlib import Path

import pyspark
import pytest

from repro.spark_daemon import worker_sys_path

VERSION = b'__version__ = "4.1.2"\n'


@pytest.fixture
def site(tmp_path):
    """An empty site directory; the path under test puts it last."""
    d = tmp_path / "site"
    d.mkdir()
    return d


@pytest.fixture
def spark_path(tmp_path, site):
    """A ``sys.path`` shaped like the one Spark gives its daemon: the
    pyspark and py4j archives first, then a missing entry and the site."""
    with zipfile.ZipFile(tmp_path / "pyspark.zip", "w") as z:
        z.writestr("pyspark/__init__.py", "")
        z.writestr("pyspark/version.py", VERSION)
    with zipfile.ZipFile(tmp_path / "py4j-src.zip", "w") as z:
        z.writestr("py4j/__init__.py", "")
    return [str(tmp_path / "pyspark.zip"), str(tmp_path / "py4j-src.zip"),
            str(tmp_path / "missing"), str(site)]


def _install(site, name, version=None):
    pkg = site / name
    pkg.mkdir()
    (pkg / "__init__.py").write_bytes(b"")
    if version is not None:
        (pkg / "version.py").write_bytes(version)


class TestWorkerSysPath:
    def test_same_version_keeps_only_directories(self, spark_path, site):
        _install(site, "pyspark", VERSION)
        _install(site, "py4j")
        assert worker_sys_path(spark_path) == spark_path[2:]

    def test_different_version_keeps_path(self, spark_path, site):
        _install(site, "pyspark", b'__version__ = "4.0.0"\n')
        _install(site, "py4j")
        assert worker_sys_path(spark_path) == spark_path

    def test_no_pyspark_directory_keeps_path(self, spark_path, site):
        _install(site, "py4j")
        assert worker_sys_path(spark_path) == spark_path

    def test_no_py4j_directory_keeps_path(self, spark_path, site):
        _install(site, "pyspark", VERSION)
        assert worker_sys_path(spark_path) == spark_path


def _worker_imports(_):
    import sys
    import zipimport

    import pyspark

    zips = [k for k, v in sys.path_importer_cache.items() if isinstance(v, zipimport.zipimporter)]
    yield pyspark.__file__, zips


def test_workers_import_installed_pyspark(spark):
    """The workers run the driver's pyspark, and no task re-reads an archive
    when PySpark invalidates the import caches."""
    rdd = spark.sparkContext.parallelize([0], 1).mapPartitions(_worker_imports)
    [(worker_file, zips)] = rdd.collect()
    assert worker_file == pyspark.__file__
    assert zips == []


def test_workers_come_from_a_warm_frozen_daemon(spark):
    """Workers are forked from a daemon that imported repro, but not
    pandas, which no task uses, and froze its objects, so the collect
    PySpark runs after every task scans only what the task left behind;
    and they reach the JVM over Unix sockets."""

    def report(_):
        import sys

        warm = "repro.enumeration.gspan" in sys.modules
        pandas = "pandas" in sys.modules
        import gc
        import os

        gc.collect()
        yield (warm, pandas, gc.get_freeze_count(), len(gc.get_objects()),
               os.environ["PYTHON_UNIX_DOMAIN_ENABLED"])

    [(warm, pandas, frozen, tracked, unix)] = (
        spark.sparkContext.parallelize([0], 1).mapPartitions(report).collect())
    assert warm
    assert not pandas
    assert frozen > 0
    assert tracked < 10_000
    # Spark sets the flag to "True"; PySpark's daemon reads it case-insensitively.
    assert unix.lower() == "true"


SESSION_UNDER_LONG_TMPDIR = """
import pandas as pd

from jobs._common import get_spark

spark = get_spark("long-tmpdir")
assert spark.sparkContext.parallelize(range(4), 2).map(lambda x: x + 1).collect() == [1, 2, 3, 4]
assert spark.createDataFrame(pd.DataFrame({"a": [1, 2]})).toPandas()["a"].tolist() == [1, 2]
spark.stop()
"""


def test_session_starts_under_a_long_temp_dir(tmp_path):
    """A session whose JVM temp dir is deep enough that a worker socket
    placed there would pass the 108-byte cap on a Unix socket path still
    runs Python tasks: the sockets go to a short, fixed directory."""
    root = Path(__file__).resolve().parents[1]
    tmp = tmp_path / "t"
    tmp = Path(str(tmp) + "x" * (100 - len(str(tmp))))
    tmp.mkdir()
    assert len(str(tmp)) == 100
    env = {k: v for k, v in os.environ.items() if k != "PYSPARK_SUBMIT_ARGS"}
    env.update(
        PYTHONPATH=os.pathsep.join([str(root / "src"), str(root)]),
        SPARK_MASTER="local[2]", SPARK_DRIVER_MEM="1g", TMPDIR=str(tmp),
        JAVA_TOOL_OPTIONS=f"-Djava.io.tmpdir={tmp}")
    proc = subprocess.run([sys.executable, "-c", SESSION_UNDER_LONG_TMPDIR], cwd=root,
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-3000:]

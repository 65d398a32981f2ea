"""The PySpark daemon entry point: which ``sys.path`` the workers get, and
that the session's workers really import the installed pyspark."""
import zipfile

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

"""Shared helpers for spark-submit entrypoints.

Each job is a function taking a SparkSession and returning printable rows,
wrapped in a ``main()`` that builds a local session with :func:`get_spark`
when run standalone (``spark-submit jobs/<name>.py`` or
``python jobs/<name>.py``). The test fixture in conftest.py and the benchmark
build theirs with it too.
"""
from __future__ import annotations

import os
import sys
from pathlib import Path

RESULTS_DIR = Path(__file__).resolve().parent.parent / "results"


def get_spark(app_name: str):
    """Local session with the settings every job, test and benchmark run uses."""
    os.environ.setdefault(
        "PYSPARK_SUBMIT_ARGS",
        f"--master {os.environ.get('SPARK_MASTER', 'local[*]')} "
        f"--driver-memory {os.environ.get('SPARK_DRIVER_MEM', '8g')} "
        "--conf spark.driver.host=127.0.0.1 "
        "--conf spark.ui.enabled=false pyspark-shell",
    )
    from pyspark.sql import SparkSession

    s = (
        SparkSession.builder.appName(app_name)
        .config("spark.sql.shuffle.partitions", "64")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        # Stage progress bars are redrawn with \r on stderr and garble the
        # status lines callers print there.
        .config("spark.ui.showConsoleProgress", "false")
        # Workers import the installed pyspark instead of pyspark.zip, so a
        # task does not re-read the archive (see repro/spark_daemon.py).
        .config("spark.python.daemon.module", "repro.spark_daemon")
        # Workers talk to the JVM over Unix sockets: loopback TCP held each
        # task's input back about 40 ms. The directory is short and fixed
        # because a socket path is capped at 108 bytes and the default,
        # java.io.tmpdir, may be as deep as the checkout it is set under.
        .config("spark.python.unix.domain.socket.enabled", "true")
        .config("spark.python.unix.domain.socket.dir", "/tmp")
        .getOrCreate()
    )
    s.sparkContext.setLogLevel("ERROR")
    return s


def render_table(rows: list[dict], title: str) -> str:
    """GitHub-markdown table from a list of uniform dicts."""
    if not rows:
        return f"## {title}\n\n(no rows)\n"
    cols = list(rows[0])
    lines = [f"## {title}", "", "| " + " | ".join(cols) + " |",
             "|" + "|".join("---" for _ in cols) + "|"]
    for r in rows:
        lines.append("| " + " | ".join(str(r.get(c, "")) for c in cols) + " |")
    return "\n".join(lines) + "\n"


def emit(name: str, text: str) -> None:
    """Print a result block and persist it under results/<name>.md."""
    print(text)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.md").write_text(text)
    print(f"[written] results/{name}.md", file=sys.stderr)

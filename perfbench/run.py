"""TED discovery benchmark: verified wall time of one discovery call.

Run from the repository root::

    python3 perfbench/run.py --workload ted-aids --seed 0 --seconds 20 --trace 0

Each run generates the workload's molecule database from ``--seed``, starts
a Spark session through ``jobs/_common.get_spark`` (the program's own
settings) and makes discovery calls one at a time on one client: a closed
loop. The first call after session start is timed as ``cold_discovery_s``;
warm calls follow until ``--seconds`` have passed and at least MIN_WARM were
made, and their median is ``discovery_s``. Every call's answer is verified
outside the timed region against the stored reference for the database
(see :func:`verify`); ``--seed`` picks one of the REFERENCE_SEEDS databases
that ``references.json`` holds answers for.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` makes the same
untraced calls and then one traced warm call (see ``tracing.py``) and prints
the per-layer metrics. The last stdout line is one JSON object with keys
``correct``, ``attempted``, ``failed`` and ``metrics``; a full run record
(environment, every call, spans) is written under ``.perfbench/``. The exit
code is 0 only when every call verified.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

K = 5
E_MAX = 4
SETUP_REPS = 4          # the first also launches the JVM; setup_s is the median of the rest
MIN_WARM = 3            # warm calls per run, whatever --seconds says
REFERENCE_SEEDS = 32    # databases with a stored answer: seeds 0..31
UNCAPPED = 1 << 62      # embedding cap for the independent coverage recount
DEADLINE_S = 170        # hard stop for the whole run
SOFT_DEADLINE_S = 140   # no new warm call is started after this


@dataclass(frozen=True)
class Workload:
    profile: str     # repro.graphdb.generator.PROFILES key
    n_graphs: int
    variant: str     # a ted() variant, or "all_g"


WORKLOADS = {
    "ted-aids": Workload("aids_lite", 100, "ted"),
    "allg-aids": Workload("aids_lite", 100, "all_g"),
}


class Deadline(BaseException):
    """Raised by the alarm when a run overstays DEADLINE_S."""


def pin_environment() -> int:
    """Fix what the session is built from; returns the usable core count."""
    nproc = len(os.sched_getaffinity(0))
    for var in ("PYSPARK_SUBMIT_ARGS", "SPARK_SHUFFLE_PARTITIONS"):
        os.environ.pop(var, None)  # get_spark builds these from its defaults
    os.environ["SPARK_MASTER"] = f"local[{min(4, nproc)}]"
    os.environ["SPARK_DRIVER_MEM"] = "2g"
    # Python workers import repro; without src on their path every level
    # job fails with ModuleNotFoundError.
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
    )
    tmp = OUT / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    os.environ["SPARK_LOCAL_DIRS"] = str(tmp)
    os.environ["JAVA_TOOL_OPTIONS"] = f"-Djava.io.tmpdir={tmp} -XX:-UsePerfData"
    sys.path[:0] = [str(SRC), str(ROOT)]
    return nproc


def setup(name: str, wl: Workload, seed: int):
    """Set the workload up SETUP_REPS times and keep the last session.

    Each repetition is session start + ``molecule_db`` + ``to_edges_df`` +
    cache/count; all but the last are torn down again. The first one also
    launches the JVM and is left out of ``setup_s``.
    """
    from jobs._common import get_spark
    from repro.graphdb import molecule_db, to_edges_df

    reps = []
    for rep in range(SETUP_REPS):
        t0 = time.perf_counter()
        spark = get_spark(f"perfbench-{name}")
        t1 = time.perf_counter()
        graphs = molecule_db(wl.profile, wl.n_graphs, seed=seed)
        t2 = time.perf_counter()
        edges = to_edges_df(spark, graphs)
        t3 = time.perf_counter()
        edges = edges.cache()
        edges.count()
        t4 = time.perf_counter()
        reps.append({"session_start_s": t1 - t0, "molecule_db_s": t2 - t1,
                     "to_edges_df_s": t3 - t2, "cache_count_s": t4 - t3,
                     "total_s": t4 - t0})
        if rep < SETUP_REPS - 1:
            edges.unpersist()
            spark.stop()
    return spark, edges, graphs, reps


def discover(wl: Workload, spark, edges):
    from repro.core import all_g, ted

    if wl.variant == "all_g":
        return all_g(spark, edges, k=K, e_max=E_MAX)
    return ted(spark, edges, k=K, e_max=E_MAX, variant=wl.variant)


def answer(result) -> dict:
    from repro.isomorphism.dfscode import encode

    return {"coverage": result.coverage,
            "patterns": sorted(encode(c) for c in result.patterns)}


class TruncationWatch:
    """Counts level-job patterns that hit the embedding cap.

    ``ted`` reports truncation only for its enumeration (not for IPS) and
    ``all_g`` not at all, so every ``match_level`` result is inspected in
    the namespaces that call it. Installed once per process, before the
    first call; the tracer wraps on top of it.
    """

    SITES = ("repro.core.ted", "repro.enumeration.gspan")

    def __init__(self) -> None:
        import repro.core  # noqa: F401  (loads both sites)

        self.truncated = 0
        for module in self.SITES:
            mod = sys.modules[module]
            mod.match_level = self._watch(mod.match_level)

    def _watch(self, match_level):
        def watched(*args, **kwargs):
            out = match_level(*args, **kwargs)
            self.truncated += sum(ps.truncated for ps in out)
            return out

        return watched


def verify(result, graphs, reference: dict | None, truncated: int) -> list[str]:
    """Problems with one call's answer; empty when it is right.

    ``truncated`` is the number of level-job patterns of the call that hit
    the embedding cap. ``|Cov(P, D)|`` is recounted without Spark, with
    ``cover_set`` over the driver-held graphs and no embedding cap, so a
    capped or wrong count in the program shows as a mismatch.
    """
    from repro.graphdb.model import edge_key
    from repro.isomorphism.dfscode import is_min
    from repro.isomorphism.matcher import cover_set

    problems = []
    if result.timed_out:
        problems.append("timed out")
    if truncated:
        problems.append(f"{truncated} level-job patterns hit the embedding cap (truncated)")
    pats = result.patterns
    if len(pats) != K or len(set(pats)) != K:
        problems.append(f"expected {K} distinct patterns, got {len(pats)}")
    for code in pats:
        if not 1 <= len(code) <= E_MAX or not is_min(code):
            problems.append(f"pattern {code} is not a minimal code of 1..{E_MAX} edges")
    covered: set[int] = set()
    for code in pats:
        for g in graphs:
            covered.update(edge_key(g.gid, e) for e in cover_set(code, g, max_emb=UNCAPPED))
    if len(covered) != result.coverage:
        problems.append(f"coverage {result.coverage} != recounted {len(covered)}")
    total = sum(g.n_edges for g in graphs)
    if result.total_edges != total:
        problems.append(f"total_edges {result.total_edges} != {total}")
    if reference is not None and answer(result) != reference:
        problems.append(f"answer differs from reference (coverage {result.coverage} "
                        f"vs {reference['coverage']})")
    return problems


def load_reference(name: str, wl: Workload, db_seed: int) -> dict:
    """The stored answer for one database; a missing or stale entry is an
    error, so every call is checked against a known answer."""
    table = json.loads((HERE / "references.json").read_text())
    entry = table.get(name)
    if entry is None or str(db_seed) not in entry["seeds"]:
        raise SystemExit(f"perfbench: references.json has no {name} answer for "
                         f"database seed {db_seed}; run make_references.py")
    if entry["params"] != {"profile": wl.profile, "n_graphs": wl.n_graphs,
                           "variant": wl.variant, "k": K, "e_max": E_MAX}:
        raise SystemExit(f"perfbench: references.json was made for other {name} parameters")
    return entry["seeds"][str(db_seed)]


class Runner:
    """One benchmark run: the session, its calls and their verification."""

    def __init__(self, name: str, wl: Workload, db_seed: int) -> None:
        self.name, self.wl, self.db_seed = name, wl, db_seed
        self.reference = load_reference(name, wl, db_seed)
        self.watch: TruncationWatch | None = None
        self.calls: list[dict] = []
        self.spark = self.edges = self.graphs = None
        self.setup_reps: list[dict] = []

    def start(self) -> None:
        self.watch = TruncationWatch()
        self.spark, self.edges, self.graphs, self.setup_reps = setup(
            self.name, self.wl, self.db_seed)

    def call(self, label: str, tracer=None) -> dict:
        """One timed discovery call, verified after the clock stops."""
        from tracing import DISCOVERY

        group = f"{self.name}/{label}"
        self.spark.sparkContext.setJobGroup(group, group)
        rec = {"label": label, "group": group}
        result = None
        self.watch.truncated = 0
        t0 = time.perf_counter()
        try:
            if tracer is None:
                result = discover(self.wl, self.spark, self.edges)
            else:
                tracer.call_id = group
                tracer.install()
                try:
                    with tracer.span(DISCOVERY):
                        result = discover(self.wl, self.spark, self.edges)
                finally:
                    tracer.uninstall()
        except Exception:
            rec["problems"] = ["raised: " + traceback.format_exc(limit=3)]
        rec["seconds"] = time.perf_counter() - t0
        if result is not None:
            rec["problems"] = verify(result, self.graphs, self.reference,
                                     self.watch.truncated)
            rec["answer"] = answer(result)
            rec["result"] = result
        self.calls.append(rec)
        status = "ok" if not rec["problems"] else "FAILED: " + "; ".join(rec["problems"])
        print(f"[{self.name}] {label}: {rec['seconds']:.3f} s, {status}", file=sys.stderr)
        return rec

    def warm_loop(self, seconds: float, t_run: float) -> list[float]:
        """Warm calls until ``seconds`` have passed and at least MIN_WARM
        were made; none starts that could end past SOFT_DEADLINE_S."""
        times: list[float] = []
        t0 = time.perf_counter()
        while len(times) < MIN_WARM or time.perf_counter() - t0 < seconds:
            if times and time.perf_counter() - t_run + times[-1] > SOFT_DEADLINE_S:
                break
            times.append(self.call(f"warm{len(times)}")["seconds"])
        return times

    def environment(self, nproc: int) -> dict:
        import pyspark

        sc = self.spark.sparkContext
        conf = self.spark.conf
        return {
            "nproc": nproc,
            "master": sc.master,
            "default_parallelism": sc.defaultParallelism,
            "shuffle_partitions": conf.get("spark.sql.shuffle.partitions"),
            "aqe": conf.get("spark.sql.adaptive.enabled"),
            "driver_memory": sc.getConf().get("spark.driver.memory", ""),
            "pyspark": pyspark.__version__,
            "python": platform.python_version(),
            "k": K,
            "e_max": E_MAX,
            "db_seed": self.db_seed,
        }


def stop_spark(spark) -> None:
    """Stop the session, then end the gateway JVM and wait for it."""
    from pyspark import SparkContext

    gateway = SparkContext._gateway
    spark.stop()
    if gateway is None:
        return
    proc = getattr(gateway, "proc", None)
    gateway.shutdown()
    SparkContext._gateway = SparkContext._jvm = None
    if proc is not None:
        proc.stdin.close()  # the JVM exits when its stdin closes
        try:
            proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


def cpu_steal_s() -> float:
    """CPU time the hypervisor took from this machine since boot (Linux);
    a run's share of it tells a noisy host from a slow program."""
    try:
        with open("/proc/stat") as f:
            fields = f.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return float("nan")


def quartiles(xs: list[float]) -> dict:
    if len(xs) < 2:
        return {"p25": xs[0], "p50": xs[0], "p75": xs[0], "n": len(xs)}
    q = statistics.quantiles(xs, n=4)
    return {"p25": q[0], "p50": statistics.median(xs), "p75": q[2], "n": len(xs)}


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def coverage(rec: dict) -> int:
    return rec.get("answer", {}).get("coverage", 0)


def end_to_end(runner: Runner, cold: dict, warm: list[float]) -> dict:
    ok = sum(1 for c in runner.calls if not c["problems"])
    return {
        "discovery_s": metric(statistics.median(warm), "s"),
        "cold_discovery_s": metric(cold["seconds"], "s"),
        "setup_s": metric(statistics.median(r["total_s"] for r in runner.setup_reps[1:]), "s"),
        "coverage_rate": metric(coverage(cold) / sum(g.n_edges for g in runner.graphs), "ratio"),
        "verified_frac": metric(ok / len(runner.calls), "ratio"),
        "driver_peak_rss_mb": metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "repro").is_dir() or not (ROOT / "jobs" / "_common.py").is_file():
        print(f"perfbench: no program to measure under {ROOT}", file=sys.stderr)
        return 2

    t_run = time.perf_counter()
    steal0 = cpu_steal_s()
    nproc = pin_environment()

    def on_alarm(signum, frame):
        raise Deadline(f"run exceeded {DEADLINE_S} s")

    signal.signal(signal.SIGALRM, on_alarm)
    signal.alarm(DEADLINE_S)
    runner = Runner(args.workload, WORKLOADS[args.workload], args.seed % REFERENCE_SEEDS)
    record: dict = {"workload": args.workload, "seed": args.seed,
                    "seconds": args.seconds, "trace": args.trace}
    try:
        runner.start()
        record["environment"] = runner.environment(nproc)
        cold = runner.call("cold")
        warm = runner.warm_loop(args.seconds, t_run)
        record["discovery_s"] = quartiles(warm)
        if args.trace:
            from layers import traced_metrics

            metrics = traced_metrics(runner, statistics.median(warm), record)
        else:
            metrics = end_to_end(runner, cold, warm)
    except Deadline:
        traceback.print_exc()
        return 3
    finally:
        signal.alarm(0)
        if runner.spark is not None:
            stop_spark(runner.spark)

    failed = sum(1 for c in runner.calls if c["problems"])
    record["cpu_steal_s"] = cpu_steal_s() - steal0
    record["wall_s"] = time.perf_counter() - t_run
    record["setup"] = runner.setup_reps
    record["calls"] = [{k: v for k, v in c.items() if k != "result"} for c in runner.calls]
    record["metrics"] = metrics
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, default=str))

    print(f"workload {args.workload} seed {args.seed}: {json.dumps(record['environment'])}")
    d = record["discovery_s"]
    print(f"coverage = {coverage(runner.calls[0])} edges")
    print(f"discovery_s quartiles p25={d['p25']:.4f} p50={d['p50']:.4f} "
          f"p75={d['p75']:.4f} n={d['n']}")
    for key, m in metrics.items():
        print(f"{key} = {m['value']} {m['unit']}")
    print(f"run: {record['wall_s']:.1f} s wall, {record['cpu_steal_s']:.2f} s CPU steal")
    print(f"record: {path.relative_to(ROOT)}")
    print(json.dumps({"correct": failed == 0, "attempted": len(runner.calls),
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

"""The benchmark's tracer (``perfbench/tracing.py``) wraps program
functions by module and attribute name, and a traced run fails outright if
one of them is gone. Check those names from the test suite, and run the
tracer and its checks (``perfbench/layers.py``) around real discovery
calls, so a rename or a changed job shape fails here rather than in the
benchmark. The benchmark's own answer check (``perfbench/run.py``'s
``verify`` against ``references.json``) runs here too, so a wrong answer
fails here rather than as ``correct: false``."""
import dataclasses
import importlib
import importlib.util
import inspect
import sys
import time
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
TRACING = PERFBENCH / "tracing.py"


def _by_path(name: str):
    """``perfbench/<name>.py`` loaded by path (``perfbench`` is no package);
    its dataclasses need the module in ``sys.modules`` while it runs."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


SITES = [(module, attr) for module, attr, _ in _by_path("tracing").FUNCTION_SITES]


@pytest.mark.parametrize("module, attr", SITES, ids=[f"{m}.{a}" for m, a in SITES])
def test_function_site_resolves(module, attr):
    assert callable(getattr(importlib.import_module(module), attr))


def test_level_job_sites_keep_their_shape():
    """The tracer records ``match_level(spark, edges, codes, *,
    want_extensions)`` calls and proxies ``match_level_df``'s frame."""
    from repro.core.maintain import PatternMaintainer
    from repro.enumeration import distributed

    assert callable(distributed.match_level_df)
    assert callable(PatternMaintainer.offer)
    params = inspect.signature(distributed.match_level).parameters
    assert list(params) == ["spark", "edges", "codes", "want_extensions"]
    assert params["want_extensions"].kind is inspect.Parameter.KEYWORD_ONLY


def test_level_job_rows_are_the_nonempty_pairs(
    spark, tiny_edges, tiny_db, clique_edges, clique_db
):
    """The tracer checks the rows of ``match_level_df(...).toPandas()``
    against a serial ``match_stats`` replay: one row per (pattern, graph)
    pair with an embedding, none for the others and none twice. Checked on
    level-1 codes plus their children, and on the 7-clique's 3- and 4-edge
    paths, of which the 4-edge one hits the embedding cap."""
    from repro.enumeration.distributed import match_level, match_level_df
    from repro.enumeration.gspan import level1_codes
    from repro.graphdb.spark_io import graphs_from_rows
    from repro.isomorphism.matcher import match_stats

    l1 = level1_codes(tiny_db)
    two_levels = l1 + [
        ps.code + (e,) for ps in match_level(spark, tiny_db, l1) for e in sorted(ps.extensions)
    ]
    path = tuple((i, i + 1, "C", "-", "C") for i in range(4))
    for edges, db, codes in (
        (tiny_edges, tiny_db, two_levels), (clique_edges, clique_db, [path[:3], path])
    ):
        graphs = graphs_from_rows(edges.collect())
        expected = {
            (pid, g.gid)
            for pid, code in enumerate(codes)
            for g in graphs
            if match_stats(code, g, want_extensions=False).n_embeddings
        }
        for want_extensions in (True, False):
            pdf = match_level_df(spark, db, codes, want_extensions=want_extensions).toPandas()
            rows = list(zip(pdf["pattern_id"].tolist(), pdf["graph_id"].tolist()))
            assert len(rows) == len(set(rows))
            assert set(rows) == expected


def _perfbench_modules():
    """``tracing`` and ``layers`` imported as ``perfbench/run.py`` imports
    them, with ``perfbench/`` on ``sys.path``; the caller's ``sys.path`` and
    ``sys.modules`` are restored afterwards."""
    saved = {name: sys.modules.pop(name, None) for name in ("tracing", "layers")}
    sys.path.insert(0, str(TRACING.parent))
    try:
        return importlib.import_module("tracing"), importlib.import_module("layers")
    finally:
        sys.path.remove(str(TRACING.parent))
        for name, module in saved.items():
            sys.modules.pop(name, None)
            if module is not None:
                sys.modules[name] = module


@pytest.mark.parametrize("algo", ["ted", "all_g"])
def test_traced_call_passes_the_benchmark_checks(spark, tiny_edges, tiny_mol_db, algo):
    """The benchmark's tracer, installed around one discovery call as
    ``perfbench/run.py --trace 1`` installs it, leaves the caller's job
    group in place, finds its discovery span consistent
    (``layers.span_problems``), and replays the level jobs' frontiers
    serially to the same non-empty pair count as their rows."""
    from repro.core import all_g, ted

    tracing, layers = _perfbench_modules()
    run = {"ted": lambda: ted(spark, tiny_edges, k=3, e_max=3),
           "all_g": lambda: all_g(spark, tiny_edges, k=3, e_max=3)}[algo]
    sc = spark.sparkContext
    group = f"test-traced-{algo}"
    sc.setJobGroup(group, group)
    tracer = tracing.Tracer()
    try:
        t0 = time.perf_counter()
        tracer.call_id = group
        tracer.install()
        try:
            with tracer.span(tracing.DISCOVERY):
                run()
        finally:
            tracer.uninstall()
        seconds = time.perf_counter() - t0
        assert sc.getLocalProperty("spark.jobGroup.id") == group
    finally:
        sc.setLocalProperty("spark.jobGroup.id", None)
        sc.setLocalProperty("spark.job.description", None)
    root = next(i for i, s in enumerate(tracer.spans) if s.name == tracing.DISCOVERY)
    assert layers.span_problems(tracer.spans, root, seconds) == []
    _, serial_nonempty = layers.replay_serial(tracer.level_calls, tiny_mol_db)
    assert serial_nonempty == sum(lc.nonempty_rows for lc in tracer.level_calls)
    assert (serial_nonempty > 0) == (algo == "ted")


@pytest.mark.parametrize("name", ["ted-aids", "allg-aids"])
def test_benchmark_answer_verifies(spark, name):
    """Each benchmark workload's seed-0 discovery call, made as
    ``perfbench/run.py`` makes it, passes the benchmark's own ``verify``
    against the stored reference answer, and a coverage off by one fails
    it."""
    from repro.graphdb import molecule_db, to_edges_df

    run = _by_path("run")
    wl = run.WORKLOADS[name]
    graphs = molecule_db(wl.profile, wl.n_graphs, seed=0)
    result = run.discover(wl, spark, to_edges_df(spark, graphs))
    reference = run.load_reference(name, wl, 0)
    assert run.verify(result, graphs, reference, 0) == []
    wrong = dataclasses.replace(result, coverage=result.coverage + 1)
    assert run.verify(wrong, graphs, reference, 0) != []

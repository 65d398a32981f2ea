"""The benchmark's tracer (``perfbench/tracing.py``) wraps program
functions by module and attribute name, and a traced run fails outright if
one of them is gone. Check those names from the test suite, so a rename
fails here rather than in the benchmark."""
import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _tracing():
    """``perfbench/tracing.py`` loaded by path (``perfbench`` is no package);
    its dataclasses need the module in ``sys.modules`` while it runs."""
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


SITES = [(module, attr) for module, attr, _ in _tracing().FUNCTION_SITES]


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


def test_level_job_rows_are_the_nonempty_pairs(spark, tiny_edges, clique_edges):
    """The tracer checks the rows of ``match_level_df(...).toPandas()``
    against a serial ``match_stats`` replay: one row per (pattern, graph)
    pair with an embedding, none for the others and none twice. Checked on
    level-1 codes plus their children, and on the 7-clique's 3- and 4-edge
    paths, of which the 4-edge one hits the embedding cap."""
    from repro.enumeration.distributed import match_level, match_level_df
    from repro.enumeration.gspan import level1_codes
    from repro.graphdb.spark_io import graphs_from_pandas
    from repro.isomorphism.matcher import match_stats

    l1 = level1_codes(tiny_edges)
    two_levels = l1 + [
        ps.code + (e,) for ps in match_level(spark, tiny_edges, l1) for e in sorted(ps.extensions)
    ]
    path = tuple((i, i + 1, "C", "-", "C") for i in range(4))
    for edges, codes in ((tiny_edges, two_levels), (clique_edges, [path[:3], path])):
        graphs = graphs_from_pandas(edges.toPandas())
        expected = {
            (pid, g.gid)
            for pid, code in enumerate(codes)
            for g in graphs
            if match_stats(code, g, want_extensions=False).n_embeddings
        }
        for want_extensions in (True, False):
            pdf = match_level_df(spark, edges, codes, want_extensions=want_extensions).toPandas()
            rows = list(zip(pdf["pattern_id"].tolist(), pdf["graph_id"].tolist()))
            assert len(rows) == len(set(rows))
            assert set(rows) == expected

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

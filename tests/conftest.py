"""Shared fixtures for Spark-dependent tests: one tiny molecule database,
its cached edge DataFrame and its graph-resident handle, reused across the
whole session, the benchmark's aids_lite-100 edge table, plus a one-graph
clique database on which the matcher's embedding cap triggers."""
import pytest

from repro.graphdb.generator import molecule_db
from repro.graphdb.model import make_graph
from repro.graphdb.spark_io import GraphDB, to_edges_df


@pytest.fixture(scope="session")
def tiny_mol_db():
    """12 small eMol-lite molecules — the standard correctness workload."""
    return molecule_db("emol_lite", 12, seed=42)


@pytest.fixture(scope="session")
def tiny_edges(spark, tiny_mol_db):
    df = to_edges_df(spark, tiny_mol_db).cache()
    df.count()
    yield df
    df.unpersist()


@pytest.fixture(scope="session")
def aids_edges(spark):
    """aids_lite-100, seed 0: the benchmark's database."""
    df = to_edges_df(spark, molecule_db("aids_lite", 100, seed=0)).cache()
    df.count()
    yield df
    df.unpersist()


@pytest.fixture(scope="session")
def clique_edges(spark):
    """One single-label 7-clique. The 4-edge path and 4-star have 2520
    embeddings each, over the 2000 cap; no pattern of <= 3 edges has more
    than 840."""
    n = 7
    g = make_graph(0, ["C"] * n, [(u, v) for u in range(n) for v in range(u + 1, n)])
    df = to_edges_df(spark, [g]).cache()
    df.count()
    yield df
    df.unpersist()


@pytest.fixture(scope="session")
def tiny_db(tiny_edges):
    """The :class:`GraphDB` handle of ``tiny_edges``."""
    return GraphDB.build(tiny_edges)


@pytest.fixture(scope="session")
def aids_db(aids_edges):
    """The :class:`GraphDB` handle of ``aids_edges``."""
    return GraphDB.build(aids_edges)


@pytest.fixture(scope="session")
def clique_db(clique_edges):
    """The :class:`GraphDB` handle of ``clique_edges``."""
    return GraphDB.build(clique_edges)

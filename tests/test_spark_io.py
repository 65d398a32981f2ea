"""Spark edge-table encoding and graph-handle tests, with
DuckDB-oracle-checked statistics."""
import importlib

import pandas as pd
import pytest

from repro.core import all_g, fsg_g, ted
from repro.graphdb.spark_io import (
    DB_STATS_SQL,
    EDGE_SCHEMA,
    GraphDB,
    db_stats,
    graphs_from_rows,
    per_graph_edge_counts,
    to_edges_df,
    to_edges_pandas,
)
from repro.oracle import assert_equivalent
from repro.vqf.catapult import catapult_lite
from repro.vqf.fs import top_k_frequent


class TestRoundTrip:
    def test_pandas_round_trip(self, tiny_mol_db):
        pdf = to_edges_pandas(tiny_mol_db)
        back = graphs_from_rows(pdf.itertuples(index=False))
        assert [(g.gid, g.vlabels, g.edges) for g in back] == [
            (g.gid, g.vlabels, g.edges) for g in tiny_mol_db
        ]

    def test_spark_round_trip(self, spark, tiny_mol_db, tiny_edges):
        back = graphs_from_rows(tiny_edges.collect())
        assert [(g.gid, g.edges) for g in back] == [(g.gid, g.edges) for g in tiny_mol_db]

    def test_schema_columns(self, tiny_edges):
        assert tiny_edges.columns == ["graph_id", "eid", "u", "v", "ul", "vl", "el"]

    def test_row_count_is_total_edges(self, tiny_mol_db, tiny_edges):
        assert tiny_edges.count() == sum(g.n_edges for g in tiny_mol_db)


class TestStats:
    def test_db_stats_against_oracle(self, spark, tiny_mol_db, tiny_edges):
        stats = db_stats(tiny_edges)
        assert_equivalent(stats, DB_STATS_SQL, edges=to_edges_pandas(tiny_mol_db))

    def test_db_stats_values(self, tiny_mol_db, tiny_edges):
        row = db_stats(tiny_edges).collect()[0]
        assert row["n_graphs"] == len(tiny_mol_db)
        assert row["e_max"] == max(g.n_edges for g in tiny_mol_db)
        assert row["v_max"] == max(g.n_vertices for g in tiny_mol_db)
        assert row["total_edges"] == sum(g.n_edges for g in tiny_mol_db)

    def test_per_graph_edge_counts(self, spark, tiny_mol_db, tiny_db):
        counts = pd.DataFrame(
            list(per_graph_edge_counts(tiny_db).items()), columns=["graph_id", "n"]
        )
        assert_equivalent(
            spark.createDataFrame(counts),
            "SELECT graph_id, count(*) AS n FROM edges GROUP BY graph_id",
            edges=to_edges_pandas(tiny_mol_db),
        )


CALLS = {
    **{
        f"ted-{variant}": lambda spark, edges, variant=variant: ted(
            spark, edges, k=3, e_max=3, variant=variant)
        for variant in ("base", "prm", "ips", "ted")
    },
    "fsg_g": lambda spark, edges: fsg_g(spark, edges, k=3, e_max=3, sup_min=0.3),
    "all_g": lambda spark, edges: all_g(spark, edges, k=3, e_max=3),
    "top_k_frequent": lambda spark, edges: top_k_frequent(spark, edges, k=3, e_max=3),
    "catapult_lite": lambda spark, edges: catapult_lite(spark, edges, k=3, e_max=3),
}


class TestBalancedHandle:
    """The handle comes from one collect of the edge table, and its graphs
    are dealt into partitions by edge count (aids_lite-100)."""

    def test_build_runs_one_job_of_one_stage(self, spark, aids_edges):
        """No shuffle: the collect is the build's only job and stage."""
        sc = spark.sparkContext
        keys = ("spark.jobGroup.id", "spark.job.description", "spark.job.interruptOnCancel")
        caller = {k: sc.getLocalProperty(k) for k in keys}
        group = "test-graphdb-build"
        sc.setJobGroup(group, group)
        try:
            GraphDB.build(aids_edges)
        finally:
            for k, v in caller.items():
                sc.setLocalProperty(k, v)
        st = sc.statusTracker()
        [job] = st.getJobIdsForGroup(group)
        assert len(st.getJobInfo(job).stageIds) == 1

    def test_partitions_hold_each_graph_once_balanced_by_edges(self, spark, aids_edges):
        db = GraphDB.build(aids_edges)
        parts = db.graphs.glom().map(lambda gs: [(g.gid, g.n_edges) for g in gs]).collect()
        assert len(parts) == spark.sparkContext.defaultParallelism
        gids = [gid for part in parts for gid, _ in part]
        assert sorted(gids) == sorted(db.edge_counts)
        loads = [sum(n for _, n in part) for part in parts]
        assert max(loads) - min(loads) <= max(db.edge_counts.values())


def _persisted(spark) -> int:
    return spark.sparkContext._jsc.getPersistentRDDs().size()


class TestHandleLifetime:
    """A discovery call's database handle is released when the call ends,
    also when it raises, so no cached RDD outlives the call."""

    @pytest.mark.parametrize("call", list(CALLS))
    def test_no_cached_rdd_outlives_a_call(self, spark, tiny_edges, call):
        before = _persisted(spark)
        CALLS[call](spark, tiny_edges)
        assert _persisted(spark) == before

    @pytest.mark.parametrize("call", [c for c in CALLS if c != "all_g"])
    def test_no_cached_rdd_outlives_a_call_that_raises(
        self, spark, tiny_edges, monkeypatch, call
    ):
        """``match_level`` raises on the call's first level job (ALL_g
        runs none), after the handle is built."""

        class Stop(Exception):
            pass

        def stop(*args, **kwargs):
            raise Stop

        for name in ("repro.core.ted", "repro.enumeration.gspan"):
            monkeypatch.setattr(importlib.import_module(name), "match_level", stop)
        before = _persisted(spark)
        with pytest.raises(Stop):
            CALLS[call](spark, tiny_edges)
        assert _persisted(spark) == before

    def test_failed_build_leaves_nothing_cached(self, spark):
        loop = spark.createDataFrame([(0, 0, 1, 1, "C", "C", "-")], EDGE_SCHEMA)  # u == v
        before = _persisted(spark)
        with pytest.raises(Exception, match="bad edge"):
            GraphDB.build(loop)
        assert _persisted(spark) == before

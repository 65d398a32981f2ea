"""Spark encoding of a graph database, and the handle every discovery job
runs on.

A database is one edge DataFrame with schema :data:`EDGE_SCHEMA` —
``(graph_id, eid, u, v, ul, vl, el)`` with ``u < v`` and ``ul``/``vl`` the
endpoint vertex labels (denormalized so matching never needs a vertex-table
join). :func:`graph_rdd` is the one place where edge rows become
:class:`Graph` objects: it hashes the table on ``graph_id`` into one
partition per core, so each graph lies whole in one partition, and
rebuilds each partition's graphs with :func:`graphs_from_rows`. A discovery
call builds a :class:`GraphDB` from it once: the graph RDD cached for the
call, plus the per-graph edge counts and the edge-label triples of one
collect pass over it. Every later job of the call only reads the handle.
:func:`db_stats` stays a DataFrame aggregation; it, the handle's counts and
its triples are oracle-checked against DuckDB in the tests.
"""
from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterable

import pandas as pd
from pyspark import RDD
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F
from pyspark.sql.types import LongType, StringType, StructField, StructType

from repro.graphdb.model import Graph

EDGE_SCHEMA = StructType(
    [
        StructField("graph_id", LongType(), False),
        StructField("eid", LongType(), False),
        StructField("u", LongType(), False),
        StructField("v", LongType(), False),
        StructField("ul", StringType(), False),
        StructField("vl", StringType(), False),
        StructField("el", StringType(), False),
    ]
)


def to_edges_pandas(graphs: list[Graph]) -> pd.DataFrame:
    """Flatten a list of graphs into the edge-table pandas frame."""
    rows = [
        (g.gid, eid, u, v, g.vlabels[u], g.vlabels[v], el)
        for g in graphs
        for eid, (u, v, el) in enumerate(g.edges)
    ]
    return pd.DataFrame(rows, columns=[f.name for f in EDGE_SCHEMA.fields])


def to_edges_df(spark: SparkSession, graphs: list[Graph]) -> DataFrame:
    """Ship a driver-side database to Spark as one edge DataFrame."""
    return spark.createDataFrame(to_edges_pandas(graphs), schema=EDGE_SCHEMA)


def graphs_from_rows(rows: Iterable[tuple]) -> list[Graph]:
    """Rebuild :class:`Graph` objects, in graph-id order, from edge rows in
    :data:`EDGE_SCHEMA` order (``Row`` objects, or a pandas frame's
    ``itertuples(index=False)``) that hold every edge of each of their
    graphs, in any order; the inverse of :func:`to_edges_pandas`.

    Vertices are inferred from edges — valid because generated graphs are
    connected with >= 1 edge.
    """
    by_graph: dict[int, list[tuple]] = {}
    for gid, eid, u, v, ul, vl, el in rows:
        by_graph.setdefault(int(gid), []).append((int(eid), int(u), int(v), ul, vl, el))
    out: list[Graph] = []
    for gid in sorted(by_graph):
        edges = sorted(by_graph[gid])
        vlabels = [""] * (max(v for _, _, v, *_ in edges) + 1)
        for _, u, v, ul, vl, _ in edges:
            vlabels[u], vlabels[v] = ul, vl
        out.append(Graph(gid, tuple(vlabels), tuple((u, v, el) for _, u, v, _, _, el in edges)))
    return out


def graph_rdd(edges: DataFrame) -> RDD:
    """The edge table as an RDD of :class:`Graph` objects, hashed on
    ``graph_id`` into ``defaultParallelism`` partitions (one task per core),
    each graph whole in one partition. A shuffle with an explicit partition
    count is never coalesced by adaptive query execution."""
    n = edges.sparkSession.sparkContext.defaultParallelism
    return edges.repartition(n, "graph_id").rdd.mapPartitions(graphs_from_rows)


@dataclass
class GraphDB:
    """A graph database resident in Spark for one discovery call. Build it
    with :meth:`build` and use it in a ``with`` block, which unpersists its
    cache on exit, so the cache does not outlive the call."""

    graphs: RDD                                 # cached Graphs, see graph_rdd
    edge_counts: dict[int, int]                 # {graph_id: |E(G)|}
    triples: frozenset[tuple[str, str, str]]    # (min label, edge label, max label)
    build_s: float                              # wall time of build()

    @classmethod
    def build(cls, edges: DataFrame) -> "GraphDB":
        """Cache :func:`graph_rdd` of ``edges`` and read its edge counts and
        triples in the pass that fills the cache."""
        t0 = time.perf_counter()
        graphs = graph_rdd(edges).cache()
        try:
            summary = graphs.map(lambda g: (g.gid, g.n_edges, g.edge_triple_set)).collect()
        except BaseException:
            graphs.unpersist()
            raise
        return cls(
            graphs=graphs,
            edge_counts={gid: n for gid, n, _ in summary},
            triples=frozenset().union(*(t for _, _, t in summary)),
            build_s=time.perf_counter() - t0,
        )

    def __enter__(self) -> "GraphDB":
        return self

    def __exit__(self, *exc) -> None:
        self.graphs.unpersist()


def db_stats(edges: DataFrame) -> DataFrame:
    """Table-2-style dataset statistics as one aggregate row.

    Columns: ``n_graphs, e_max, v_max, e_avg, v_avg, total_edges`` — computed
    with a per-graph aggregate then a global one (pure Catalyst plan).
    """
    per_graph = edges.groupBy("graph_id").agg(
        F.count("*").alias("n_edges"),
        (F.greatest(F.max("u"), F.max("v")) + F.lit(1)).alias("n_vertices"),
    )
    return per_graph.agg(
        F.count("*").alias("n_graphs"),
        F.max("n_edges").alias("e_max"),
        F.max("n_vertices").alias("v_max"),
        F.round(F.avg("n_edges"), 1).alias("e_avg"),
        F.round(F.avg("n_vertices"), 1).alias("v_avg"),
        F.sum("n_edges").alias("total_edges"),
    )


#: DuckDB SQL equivalent of :func:`db_stats` — used with the oracle.
DB_STATS_SQL = """
SELECT count(*)            AS n_graphs,
       max(n_edges)        AS e_max,
       max(n_vertices)     AS v_max,
       round(avg(n_edges), 1)    AS e_avg,
       round(avg(n_vertices), 1) AS v_avg,
       sum(n_edges)        AS total_edges
FROM (
    SELECT graph_id,
           count(*) AS n_edges,
           greatest(max(u), max(v)) + 1 AS n_vertices
    FROM edges GROUP BY graph_id
)
"""


def per_graph_edge_counts(db: GraphDB) -> dict[int, int]:
    """``{graph_id: |E(G)|}`` of the database (used by PRM bounds)."""
    return db.edge_counts

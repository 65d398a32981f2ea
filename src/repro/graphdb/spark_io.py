"""Spark encoding of a graph database, and the handle every discovery job
runs on.

A database is one edge DataFrame with schema :data:`EDGE_SCHEMA` —
``(graph_id, eid, u, v, ul, vl, el)`` with ``u < v`` and ``ul``/``vl`` the
endpoint vertex labels (denormalized so matching never needs a vertex-table
join). Every discovery call, TED and every baseline, builds one
:class:`GraphDB` from it, and :meth:`GraphDB.build` is the one place where
edge rows become :class:`Graph` objects: it collects the table to the
driver in one job, rebuilds the graphs there with :func:`graphs_from_rows`,
and deals them into one partition per core, balanced by edge count, so each
graph lies whole in one partition and no partition holds many more edges
than another. The RDD ships the graphs from the driver, so a job over it
runs no shuffle and no Python build stage, and there is nothing to cache.
The handle also keeps the driver-side graphs themselves, in graph-id order,
so a frontier too narrow to pay for a job is matched on the driver over
them, and holds the per-graph edge counts read from them. Every job of the
call only reads the handle. :func:`db_stats` stays a DataFrame
aggregation; it, the handle's counts and the database's edge-label triples
(:func:`repro.enumeration.gspan.level1_codes`) are oracle-checked against
DuckDB in the tests.
"""
from __future__ import annotations

import heapq
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

from pyspark import RDD
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F
from pyspark.sql.types import LongType, StringType, StructField, StructType

from repro.graphdb.model import Graph

if TYPE_CHECKING:
    import pandas as pd

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


def to_edges_pandas(graphs: list[Graph]) -> "pd.DataFrame":
    """Flatten a list of graphs into the edge-table pandas frame."""
    import pandas as pd  # not at the top: Spark's workers import this module

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


def balanced_bins(graphs: list[Graph], n: int) -> list[list[Graph]]:
    """Deal ``graphs`` into ``n`` bins by edge count: largest graph first,
    each into the least-loaded bin (lowest index on a tie). Any two bins'
    edge loads then differ by at most the largest graph's edge count. Each
    bin is in graph-id order."""
    heap = [(0, i) for i in range(n)]
    bins: list[list[Graph]] = [[] for _ in range(n)]
    for g in sorted(graphs, key=lambda g: (-g.n_edges, g.gid)):
        load, i = heapq.heappop(heap)
        bins[i].append(g)
        heapq.heappush(heap, (load + g.n_edges, i))
    return [sorted(b, key=lambda g: g.gid) for b in bins]


@dataclass
class GraphDB:
    """A graph database ready for the Spark jobs of one discovery call.
    It holds no Spark cache, so it needs no release."""

    graphs: RDD                                 # Graphs, see build()
    driver_graphs: list[Graph]                  # the same graphs, in graph-id order
    edge_counts: dict[int, int]                 # {graph_id: |E(G)|}
    build_s: float                              # wall time of build()

    @classmethod
    def build(cls, edges: DataFrame) -> "GraphDB":
        """The handle of ``edges``: its graphs, rebuilt on the driver from
        one collect, as an RDD of ``defaultParallelism`` partitions (one task
        per core) dealt by :func:`balanced_bins`, each graph whole in one
        partition, plus the graphs themselves as a list and their edge
        counts. Each partition's graphs travel pickled in its
        tasks, so a job over the RDD reads no table and runs no shuffle."""
        t0 = time.perf_counter()
        graphs = graphs_from_rows(edges.toPandas().itertuples(index=False))
        sc = edges.sparkSession.sparkContext
        n = sc.defaultParallelism
        return cls(
            graphs=sc.parallelize(balanced_bins(graphs, n), n).flatMap(lambda b: b),
            driver_graphs=graphs,
            edge_counts={g.gid: g.n_edges for g in graphs},
            build_s=time.perf_counter() - t0,
        )


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

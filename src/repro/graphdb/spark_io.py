"""Spark encoding of a graph database.

A database is one edge DataFrame with schema :data:`EDGE_SCHEMA` —
``(graph_id, eid, u, v, ul, vl, el)`` with ``u < v`` and ``ul``/``vl`` the
endpoint vertex labels (denormalized so matching never needs a vertex-table
join). All dataset statistics are DataFrame aggregations over this table and
are oracle-checked against DuckDB in the tests.
"""
from __future__ import annotations

import pandas as pd
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


def graphs_from_pandas(pdf: pd.DataFrame) -> list[Graph]:
    """Rebuild :class:`Graph` objects from edge rows (inverse of
    :func:`to_edges_pandas`). Used inside the level job's ``mapInPandas``
    tasks, where ``pdf`` holds every edge of each graph in one
    ``graph_id``-hashed partition, and in tests.

    Vertices are inferred from edges — valid because generated graphs are
    connected with >= 1 edge.
    """
    out: list[Graph] = []
    for gid, grp in pdf.groupby("graph_id", sort=True):
        grp = grp.sort_values("eid")
        nv = int(max(grp["u"].max(), grp["v"].max())) + 1
        vlabels: list[str] = [""] * nv
        edges = []
        for u, v, ul, vl, el in zip(grp["u"], grp["v"], grp["ul"], grp["vl"], grp["el"]):
            vlabels[int(u)] = ul
            vlabels[int(v)] = vl
            edges.append((int(u), int(v), el))
        out.append(Graph(int(gid), tuple(vlabels), tuple(edges)))
    return out


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


def per_graph_edge_counts(edges: DataFrame) -> dict[int, int]:
    """``{graph_id: |E(G)|}`` collected to the driver (used by PRM bounds)."""
    rows = edges.groupBy("graph_id").agg(F.count("*").alias("n")).collect()
    return {int(r["graph_id"]): int(r["n"]) for r in rows}

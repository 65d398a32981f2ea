"""Subgraph matching as a multi-way self-join on the edge table.

For a fixed DFS-code pattern this module emits ONE SQL string that computes
all embeddings (one row per embedding) purely relationally: the edge table is
doubled into both orientations, one join per pattern edge, label equality
predicates, and pairwise ``!=`` injectivity filters. The same string runs on
Spark (Catalyst plan over a temp view) and on DuckDB (the oracle), so a wrong
join produces a hard test failure rather than a silently different cover set.

This is the pure-DataFrame counterpart of :mod:`repro.isomorphism.matcher`
and is cross-checked against it in the tests. The enumeration's Spark jobs
use the Python matcher instead, in tasks over the partitions of the call's
graph RDD (:class:`repro.graphdb.spark_io.GraphDB`): patterns change every level, and generating and optimizing a fresh m-way
join per candidate pattern per level would dominate runtime, as DESIGN.md
documents.
"""
from __future__ import annotations

from pyspark.sql import DataFrame, SparkSession

from repro.isomorphism.dfscode import DFSCode


def _q(label: str) -> str:
    return "'" + label.replace("'", "''") + "'"


def embeddings_sql(code: DFSCode, edges_view: str = "edges") -> str:
    """SQL producing one row per embedding: ``graph_id, v0..vn, e0..em``."""
    directed = (
        f"SELECT graph_id, eid, u AS src, v AS dst, ul AS sl, vl AS dl, el FROM {edges_view} "
        "UNION ALL "
        f"SELECT graph_id, eid, v AS src, u AS dst, vl AS sl, ul AS dl, el FROM {edges_view}"
    )
    n_vertices = max(max(i, j) for i, j, *_ in code) + 1
    vcol: dict[int, str] = {}  # pattern vertex -> bound column expr
    joins = []
    preds: list[str] = []
    for t, (i, j, li, el, lj) in enumerate(code):
        a = f"t{t}"
        if t == 0:
            vcol[0], vcol[1] = f"{a}.src", f"{a}.dst"
            preds += [f"{a}.sl = {_q(li)}", f"{a}.el = {_q(el)}", f"{a}.dl = {_q(lj)}"]
            joins.append(f"directed {a}")
            continue
        on = [f"{a}.graph_id = t0.graph_id", f"{a}.el = {_q(el)}"]
        if i < j:  # forward: j is a fresh vertex bound to a.dst
            on += [f"{a}.src = {vcol[i]}", f"{a}.sl = {_q(li)}", f"{a}.dl = {_q(lj)}"]
            vcol[j] = f"{a}.dst"
        else:  # backward: both endpoints already bound
            on += [f"{a}.src = {vcol[i]}", f"{a}.dst = {vcol[j]}"]
        joins.append(f"JOIN directed {a} ON " + " AND ".join(on))
    # Injectivity between every pair of bound pattern vertices.
    for x in range(n_vertices):
        for y in range(x + 1, n_vertices):
            preds.append(f"{vcol[x]} <> {vcol[y]}")
    sel = ["t0.graph_id AS graph_id"]
    sel += [f"{vcol[x]} AS v{x}" for x in range(n_vertices)]
    sel += [f"t{t}.eid AS e{t}" for t in range(len(code))]
    return (
        f"WITH directed AS ({directed})\n"
        f"SELECT {', '.join(sel)}\nFROM " + "\n".join(joins) + "\nWHERE " + " AND ".join(preds)
    )


def cover_sql(code: DFSCode, edges_view: str = "edges") -> str:
    """SQL for the cover set: ``SELECT DISTINCT graph_id, eid`` over all
    edges matched by any embedding (Definition 2 lifted to the whole DB)."""
    emb = embeddings_sql(code, edges_view)
    unions = " UNION ALL ".join(
        f"SELECT graph_id, e{t} AS eid FROM emb" for t in range(len(code))
    )
    return f"WITH emb AS (\n{emb}\n)\nSELECT DISTINCT graph_id, eid FROM ({unions})"


def coverage_count_sql(code: DFSCode, edges_view: str = "edges") -> str:
    """SQL for ``|Cov(p, D)|`` as a single row ``(coverage BIGINT)``."""
    return f"SELECT count(*) AS coverage FROM ({cover_sql(code, edges_view)})"


def cover_df(spark: SparkSession, edges: DataFrame, code: DFSCode) -> DataFrame:
    """Run :func:`cover_sql` through Catalyst over ``edges``."""
    edges.createOrReplaceTempView("edges")
    return spark.sql(cover_sql(code))


def embeddings_df(spark: SparkSession, edges: DataFrame, code: DFSCode) -> DataFrame:
    """Run :func:`embeddings_sql` through Catalyst over ``edges``."""
    edges.createOrReplaceTempView("edges")
    return spark.sql(embeddings_sql(code))

"""One enumeration level as a distributed Spark scan/aggregate job.

The frontier (a list of DFS codes) is broadcast as the bare codes; the edge
table is hashed on ``graph_id`` into ``defaultParallelism`` partitions, so
every graph lies in exactly one partition, and each partition is one
``mapInPandas`` task. The task groups the frontier by DFS-code prefix
(``code[:-1]``, the pattern's parent under rightmost extension) with
:func:`repro.isomorphism.matcher.prepare_frontier`, rebuilds its partition's
graphs once and matches the frontier against each of them with
:func:`repro.isomorphism.matcher.match_frontier`: per graph, each
prefix's embeddings are enumerated once, the children of a prefix with no
embedding are skipped, and every other child's embeddings are the prefix
embeddings extended by its last entry (gSpan's projection). 1-edge patterns
have an empty prefix and are matched directly. Where the prefix or a child
reaches the embedding cap, that child is matched from the root with
``match_stats``, so every row is exactly what ``match_stats`` gives.
Preparing in the tasks rather than on the driver keeps the pattern graphs
out of the broadcast: the 5150 codes of level 4 on aids_lite-100 pickle to
175 KB and unpickle in about 2 ms, where the prepared frontier took 774 KB
and about 60 ms, on one core of a 4-vCPU VM. The job emits one row per
(pattern, graph) with embeddings:

    (pattern_id, graph_id, covered: array<long>, exts: array<string>,
     truncated: boolean)

``covered`` holds *global* edge keys (``edge_key(gid, eid)``), so cover sets
are disjoint across graphs and per-pattern totals are plain sums; ``exts``
is empty when the caller asks for no extensions (a level at ``E_max``). The
driver folds the rows into :class:`PatternLevelStats` for PES-Index
maintenance — the only state that must be sequential (it is the paper's
swapping stream). :func:`match_level` owns the level's broadcast and
destroys it once the rows are collected, so its file in the session's
temporary directory does not outlive the level.

The partition count is ``defaultParallelism`` (one task per core), not more.
Each Python task has a fixed cost. It used to be 0.1-0.3 s, because PySpark's
worker calls ``importlib.invalidate_caches()`` before every task and each
``zipimporter`` over ``pyspark.zip`` then re-reads its archive; the session's
daemon (:mod:`repro.spark_daemon`) makes workers import the installed
pyspark instead, which leaves no zip importer to re-read. With that, and
before matching was shared by prefix, on the 1378-pattern level-3 frontier
of aids_lite-100 on 4 cores (10 alternating rounds), 4 partitions took a
median 0.60 s, 8 took 0.61 s and 16 took 0.66 s: 4 still has the lowest
median, by at most 1.1x, where it was 1.5-2.3x before. A shuffle with an explicit partition count is also never
coalesced by adaptive query execution, which folds a ``groupBy`` shuffle of
this small table into a single task.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import pandas as pd
from pyspark import Broadcast
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql.types import (
    ArrayType,
    BooleanType,
    LongType,
    StringType,
    StructField,
    StructType,
)

from repro.graphdb.model import edge_key
from repro.graphdb.spark_io import graphs_from_pandas
from repro.isomorphism.dfscode import DFSCode, Edge5
from repro.isomorphism.matcher import match_frontier, prepare_frontier

LEVEL_SCHEMA = StructType(
    [
        StructField("pattern_id", LongType(), False),
        StructField("graph_id", LongType(), False),
        StructField("covered", ArrayType(LongType(), False), False),
        StructField("exts", ArrayType(StringType(), False), False),
        StructField("truncated", BooleanType(), False),
    ]
)


@dataclass
class PatternLevelStats:
    """Database-wide aggregate for one frontier pattern."""

    code: DFSCode
    support_gids: frozenset[int]      # graphs with >= 1 embedding
    cover: frozenset[int]             # global edge keys = Cov(p, D)
    extensions: frozenset[Edge5]      # observed rightmost extensions
    truncated: bool                   # any graph hit the embedding cap

    @property
    def support(self) -> int:
        return len(self.support_gids)

    @property
    def coverage(self) -> int:
        return len(self.cover)


def _encode_ext(e: Edge5) -> str:
    return f"{e[0]},{e[1]},{e[2]},{e[3]},{e[4]}"


def _decode_ext(s: str) -> Edge5:
    i, j, li, el, lj = s.split(",")
    return (int(i), int(j), li, el, lj)


def match_level_df(
    spark: SparkSession,
    edges: DataFrame,
    codes: list[DFSCode] | Broadcast,
    *,
    want_extensions: bool = True,
) -> DataFrame:
    """The level job as a lazy DataFrame (schema :data:`LEVEL_SCHEMA`).

    ``codes`` is the frontier, or a Spark broadcast of it that the caller
    destroys after collecting the rows; a plain list is broadcast here and
    the broadcast lives as long as the session. The bare codes are shipped
    once per executor. The edges are hash-partitioned on ``graph_id`` into
    ``defaultParallelism`` partitions; each ``mapInPandas`` task
    concatenates all Arrow batches of its partition (a graph never leaves
    its partition but may be split across batches), prepares the frontier
    once (:func:`prepare_frontier`: grouped by prefix, each code and prefix
    materialized as a pattern graph), rebuilds the graphs once and matches
    the whole frontier against each. A partition with no rows emits
    nothing.
    """
    bc = codes if isinstance(codes, Broadcast) else spark.sparkContext.broadcast(codes)
    want_ext = want_extensions
    columns = [f.name for f in LEVEL_SCHEMA.fields]

    def run_partition(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        parts = list(batches)
        if not parts:
            return
        prepared = prepare_frontier(bc.value)
        rows = []
        for g in graphs_from_pandas(pd.concat(parts, ignore_index=True)):
            for pid, ms in match_frontier(prepared, g, want_extensions=want_ext):
                rows.append(
                    (
                        pid,
                        g.gid,
                        [edge_key(g.gid, e) for e in sorted(ms.covered_eids)],
                        sorted(_encode_ext(e) for e in ms.extensions),
                        ms.truncated,
                    )
                )
        if rows:
            yield pd.DataFrame(rows, columns=columns)

    n_parts = spark.sparkContext.defaultParallelism
    return edges.repartition(n_parts, "graph_id").mapInPandas(run_partition, LEVEL_SCHEMA)


def match_level(
    spark: SparkSession,
    edges: DataFrame,
    codes: list[DFSCode],
    *,
    want_extensions: bool = True,
) -> list[PatternLevelStats]:
    """Run the level job and fold rows into per-pattern aggregates.

    Returns one entry per input code, in input order (patterns with zero
    support get empty aggregates). The frontier's broadcast is destroyed
    once the rows are collected.
    """
    bc = spark.sparkContext.broadcast(list(codes))
    try:
        pdf = match_level_df(spark, edges, bc, want_extensions=want_extensions).toPandas()
    finally:
        bc.destroy()
    supports: list[set[int]] = [set() for _ in codes]
    covers: list[set[int]] = [set() for _ in codes]
    exts: list[set[Edge5]] = [set() for _ in codes]
    trunc = [False] * len(codes)
    decoded: dict[str, Edge5] = {}  # each distinct extension string is parsed once
    for pid, gid, covered, ext_strs, truncated in zip(
        pdf["pattern_id"].tolist(),
        pdf["graph_id"].tolist(),
        pdf["covered"],
        pdf["exts"],
        pdf["truncated"].tolist(),
    ):
        supports[pid].add(gid)
        covers[pid].update(covered.tolist())
        for s in ext_strs:
            e = decoded.get(s)
            if e is None:
                e = decoded[s] = _decode_ext(s)
            exts[pid].add(e)
        trunc[pid] = trunc[pid] or truncated
    return [
        PatternLevelStats(
            code=codes[i],
            support_gids=frozenset(supports[i]),
            cover=frozenset(covers[i]),
            extensions=frozenset(exts[i]),
            truncated=trunc[i],
        )
        for i in range(len(codes))
    ]

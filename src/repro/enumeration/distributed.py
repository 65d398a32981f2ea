"""Spark jobs over a graph database's graphs: one enumeration level
(:func:`match_level`), or a whole pattern tree (:func:`mine_tree`).

Both jobs run one task per partition of a discovery call's
:class:`repro.graphdb.spark_io.GraphDB`: the database's graphs, rebuilt on
the driver from one collect of the edge table and dealt into
``defaultParallelism`` partitions balanced by edge count, so every graph
lies whole in one partition. The graphs travel pickled in the tasks, so no
job shuffles the edge table or rebuilds a graph from rows. A partition with
no graphs emits nothing.

**The level job.** The frontier (a list of DFS codes) travels as the bare
codes in the task closure, and each task matches it against its graphs with
:func:`repro.isomorphism.matcher.match_frontier`, the one frontier matcher
both jobs share. It groups the frontier by parent (``code[:-1]``, under
rightmost extension), enumerates each parent's embeddings once per graph,
skips the graphs where the parent has none, and extends the embeddings by
each child's last entry (gSpan's projection). 1-edge patterns have an
empty parent and are matched directly; where the parent or a child reaches
the embedding cap, that child is matched from the root, so every row is
exactly what ``match_stats`` gives. The level job keeps no embeddings
between levels. Preparing the frontier in the tasks rather than on the
driver keeps the pattern graphs out of the closure: the 5150 codes of
level 4 on aids_lite-100 pickle to 175 KB and unpickle in about 2 ms, where
the prepared frontier took 774 KB and about 60 ms, on one core of a 4-vCPU
VM. The closure goes with each of the level's tasks, so a level creates
and destroys no broadcast (PySpark broadcasts a closure by itself only
past 1 MB). The job is a DataFrame over the tasks' rows, one row per
(pattern, graph) with embeddings:

    (pattern_id, graph_id, covered: array<long>, exts: array<string>,
     truncated: boolean)

``covered`` holds *global* edge keys (``edge_key(gid, eid)``), so cover sets
are disjoint across graphs and per-pattern totals are plain sums; ``exts``
is empty when the caller asks for no extensions (a level at ``E_max``). The
driver folds the rows into :class:`PatternLevelStats` for PES-Index
maintenance — the only state that must be sequential (it is the paper's
swapping stream).

**Narrow frontiers stay on the driver.** A level job pays a fixed cost of
about 50 ms plus about 25 ms for its DataFrame, so the frontiers that are
narrow by their role (each enumeration's roots, and IPS's chains after
their first step) are matched on the driver by a :class:`ProjectedMatcher`
over the graphs the handle keeps there, with no job.

**The tree job.** :func:`mine_tree` runs the whole level loop in each task:
:func:`repro.enumeration.gspan.mine_graphs`, which matches each level over
the task's graphs with a :class:`ProjectedMatcher` and grows children from
them. The matcher calls the same ``match_frontier``, but hands it each
pattern's embeddings kept from the previous level, so a child is tried
only in the graphs that hold its parent, by extending the parent's kept
embeddings; no parent is re-enumerated. Nothing crosses between tasks or
reaches the driver until the loop is done, so it serves the enumerations
that keep every pattern with support >= 1: ALL_g, ALL_t and OPT. Each task
returns the ``(code, cover)`` of every pattern that occurs in its graphs,
the cover as global edge keys over those graphs, the loop's
:class:`repro.enumeration.gspan.EnumStats`, and its own graph count, pair
count and wall time. Covers are disjoint across partitions, so the
driver merges them by union. The partitions are balanced by edge count,
not by matching work, so task times still differ.

The partition count is ``defaultParallelism`` (one task per core), not more,
because each Python task has a fixed cost. The session
(``jobs/_common.get_spark`` and :mod:`repro.spark_daemon`) removes three
parts of it. Workers import the installed pyspark, not ``pyspark.zip``,
whose importers re-read the archive before every task (0.1-0.3 s). They
reach the JVM over Unix sockets, where loopback TCP held each task's input
back about 40 ms. And they are forked from a daemon that imported ``repro``
and froze its objects, so the ``gc.collect()`` PySpark runs after every task
no longer scans about 73k objects (30-78 ms). After the first fix, and
before matching was shared by prefix, on the 1378-pattern level-3 frontier
of aids_lite-100 on 4 cores (10 alternating rounds), 4 partitions took a
median 0.60 s, 8 took 0.61 s and 16 took 0.66 s: 4 still had the lowest
median, by at most 1.1x, where it was 1.5-2.3x before. That comparison has
not been repeated since the other two fixes.
"""
from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Iterator

from pyspark.sql import DataFrame, SparkSession
from pyspark.sql.types import (
    ArrayType,
    BooleanType,
    LongType,
    StringType,
    StructField,
    StructType,
)

from repro.graphdb.model import Graph, edge_key
from repro.graphdb.spark_io import GraphDB
from repro.isomorphism.dfscode import DFSCode, Edge5, encode
from repro.isomorphism.matcher import Kept, match_frontier

if TYPE_CHECKING:
    from repro.enumeration.gspan import EnumStats

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


def _decode_ext(s: str) -> Edge5:
    i, j, li, el, lj = s.split(",")
    return (int(i), int(j), li, el, lj)


def _fold(
    codes: list[DFSCode],
    rows: Iterable[tuple[int, int, Iterable[int], Iterable[Edge5], bool]],
) -> list[PatternLevelStats]:
    """Fold ``(pattern index, graph id, covered edge keys, extensions,
    truncated)`` rows into one :class:`PatternLevelStats` per code, in
    input order (patterns with no row get empty aggregates)."""
    supports: list[set[int]] = [set() for _ in codes]
    covers: list[set[int]] = [set() for _ in codes]
    exts: list[set[Edge5]] = [set() for _ in codes]
    trunc = [False] * len(codes)
    for pid, gid, covered, extensions, truncated in rows:
        supports[pid].add(gid)
        covers[pid].update(covered)
        exts[pid].update(extensions)
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


class ProjectedMatcher:
    """A level matcher over graphs held in this process: each call matches
    one level and returns what :func:`match_level` would for a database of
    these graphs, with no Spark job. Between calls it keeps gSpan's
    projected database. It is the level matcher of
    :func:`repro.enumeration.gspan.mine_graphs` in the tree job's tasks,
    and on the driver it matches the frontiers too narrow to pay for a
    level job over a :class:`GraphDB`'s ``driver_graphs``: the roots of
    :func:`repro.enumeration.gspan.enumerate_gspan`, and IPS's roots and
    its depths after the first: the level matcher of
    :func:`repro.core.ted.ips_initial_patterns` builds one over the chain
    heads' support graphs at its first depth past the level job and keeps
    it to the end of the walk.

    A level asked for extensions keeps each pattern's embeddings in every
    graph where it occurs, or None in a graph where they reach the
    embedding cap, and passes them to the next level's
    :func:`repro.isomorphism.matcher.match_frontier` as ``kept``: a code
    whose parent (``code[:-1]``) the previous level kept is tried only in
    the graphs where the parent occurs. Codes with no kept parent, such as
    the 1-edge roots, are matched as in the level job. Each level's state
    replaces the previous one once the level is matched; a level asked for
    no extensions (one at ``E_max``) keeps none. ``pairs`` counts the
    (pattern, graph) pairs a level routes: per code, the graphs holding its
    kept parent, or every graph (of which ``match_frontier`` tries a root
    only in those holding its edge-label triple).
    """

    def __init__(self, graphs: list[Graph]) -> None:
        self.graphs = graphs
        self.pairs = 0
        self._kept: Kept = {}

    def __call__(self, codes: list[DFSCode], want_extensions: bool) -> list[PatternLevelStats]:
        prev = self._kept
        self.pairs += sum(len(prev.get(code[:-1], self.graphs)) for code in codes)
        kept: Kept = {code: [] for code in codes} if want_extensions else {}

        def rows():
            for pid, g, ms, embs in match_frontier(
                codes, self.graphs, want_extensions=want_extensions, kept=prev
            ):
                if want_extensions:
                    kept[codes[pid]].append((g, embs))
                yield (pid, g.gid, [edge_key(g.gid, e) for e in ms.covered_eids],
                       ms.extensions, ms.truncated)

        level = _fold(codes, rows())
        self._kept = kept
        return level


def match_level_df(
    spark: SparkSession,
    db: GraphDB,
    codes: list[DFSCode],
    *,
    want_extensions: bool = True,
) -> DataFrame:
    """The level job as a lazy DataFrame (schema :data:`LEVEL_SCHEMA`).

    The frontier ``codes`` travels as bare codes in the task closure. Each
    task matches the whole frontier against the graphs of its partition of
    ``db.graphs`` with :func:`repro.isomorphism.matcher.match_frontier`,
    keeping nothing.
    """
    want_ext = want_extensions

    def run_partition(graphs: Iterator[Graph]) -> Iterator[tuple]:
        for pid, g, ms, _ in match_frontier(codes, list(graphs), want_extensions=want_ext):
            yield (
                pid,
                g.gid,
                [edge_key(g.gid, e) for e in ms.covered_eids],
                [encode((e,)) for e in ms.extensions],
                ms.truncated,
            )

    return spark.createDataFrame(db.graphs.mapPartitions(run_partition), LEVEL_SCHEMA)


def match_level(
    spark: SparkSession,
    edges: GraphDB,
    codes: list[DFSCode],
    *,
    want_extensions: bool = True,
) -> list[PatternLevelStats]:
    """Run the level job over the database ``edges`` (a :class:`GraphDB`)
    and fold its rows into per-pattern aggregates.

    Returns one entry per input code, in input order (patterns with zero
    support get empty aggregates).
    """
    pdf = match_level_df(spark, edges, codes, want_extensions=want_extensions).toPandas()
    decoded: dict[str, Edge5] = {}  # each distinct extension string is parsed once

    def ext(s: str) -> Edge5:
        e = decoded.get(s)
        if e is None:
            e = decoded[s] = _decode_ext(s)
        return e

    return _fold(codes, (
        (pid, gid, covered.tolist(), map(ext, ext_strs), truncated)
        for pid, gid, covered, ext_strs, truncated in zip(
            pdf["pattern_id"].tolist(),
            pdf["graph_id"].tolist(),
            pdf["covered"],
            pdf["exts"],
            pdf["truncated"].tolist(),
        )
    ))


def mine_tree(
    db: GraphDB,
    *,
    e_max: int,
    deadline: float | None = None,
) -> list[tuple[list[tuple[DFSCode, frozenset[int]]], EnumStats, dict]]:
    """Run the tree job over the database ``db``: each task runs
    :func:`repro.enumeration.gspan.mine_graphs` over its graphs and returns
    ``(found, stats, task)``: ``(code, cover)`` per pattern found, the
    loop's :class:`repro.enumeration.gspan.EnumStats`, and
    ``{"graphs", "pairs", "task_s"}`` (its graph count, the pairs its
    :class:`ProjectedMatcher` routed, and the loop's wall time). Returns one
    such triple per non-empty task. A ``perf_counter`` value means nothing
    in another process, so the time left before ``deadline`` is read once,
    when the job is submitted, and each task stops between its own levels
    once that much time has passed since it started."""
    budget = None if deadline is None else deadline - time.perf_counter()

    def run_partition(graphs_in: Iterator[Graph]) -> Iterator[tuple]:
        from repro.enumeration.gspan import mine_graphs  # gspan imports this module

        graphs = list(graphs_in)
        if not graphs:
            return
        t0 = time.perf_counter()
        match = ProjectedMatcher(graphs)
        found, stats = mine_graphs(graphs, e_max=e_max, matcher=match,
                                   deadline=None if budget is None else t0 + budget)
        task = {"graphs": len(graphs), "pairs": match.pairs,
                "task_s": round(time.perf_counter() - t0, 4)}
        yield [(ps.code, ps.cover) for ps in found], stats, task

    return db.graphs.mapPartitions(run_partition).collect()

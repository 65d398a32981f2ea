"""Level-synchronous gSpan enumeration: one level loop, two places to run it.

:func:`level_loop` streams each level's surviving patterns — in canonical
DFS-code order — to a visitor callback (TED's PatternMaintain, or a
baseline's accumulator), then grows the next frontier by rightmost
extension, keeping only minimal codes (each isomorphism class enumerated
exactly once) and applying support pruning (frequent-subgraph mining) and an
optional ``extend_filter`` (TED's PRM rules). How a level is matched is its
parameter:

- :func:`enumerate_gspan` runs the loop on the driver. Level 1, the
  database's roots, is matched on the driver too, over the graphs the
  call's :class:`repro.graphdb.spark_io.GraphDB` holds there; each later
  level is one Spark job over the handle
  (:func:`repro.enumeration.distributed.match_level`). TED and FSG use it:
  PRM needs the global pattern set P, and FSG's threshold needs
  database-wide support, between every two levels.
- :func:`mine_graphs` runs the loop over the graphs one process holds. Its
  level matcher (:class:`repro.enumeration.distributed.ProjectedMatcher`)
  keeps each pattern's embeddings for its children, as gSpan keeps its
  projected database, so a child is only looked for where its parent
  occurs. With no threshold and no filter, no decision waits for the rest
  of the database, so the materializing baselines run it inside the tasks
  of one Spark job (:func:`repro.enumeration.distributed.mine_tree`).
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass, fields
from typing import Callable, Iterable

from pyspark.sql import SparkSession

from repro.enumeration.distributed import PatternLevelStats, ProjectedMatcher, match_level
from repro.graphdb.model import Graph
from repro.graphdb.spark_io import GraphDB
from repro.isomorphism.dfscode import DFSCode, code_key, is_min

#: Matches one level: ``(codes, want_extensions)`` -> one
#: :class:`PatternLevelStats` per code, in input order.
LevelMatcher = Callable[[list[DFSCode], bool], list[PatternLevelStats]]


def _roots(graphs: Iterable[Graph]) -> list[DFSCode]:
    """The distinct 1-edge codes of ``graphs``, one per normalized
    ``(li, el, lj)`` edge-label triple (``li <= lj``, the minimal
    orientation), in canonical order."""
    triples = frozenset().union(*(g.edge_triple_set for g in graphs))
    return sorted((((0, 1, a, el, b),) for a, el, b in triples), key=code_key)


def level1_codes(db: GraphDB) -> list[DFSCode]:
    """All distinct 1-edge patterns of the database, read from the graphs
    its handle keeps on the driver."""
    return _roots(db.driver_graphs)


@dataclass
class EnumStats:
    """Bookkeeping for one enumeration run."""

    n_matched: int = 0          # frontier patterns matched or taken from ``matched``
    n_visited: int = 0          # patterns streamed to the visitor
    n_pruned_support: int = 0   # dropped by the support threshold
    n_pruned_filter: int = 0    # subtrees cut by extend_filter (PRM)
    n_children_nonmin: int = 0  # extensions discarded by the minimality check
    n_is_min: int = 0           # extensions checked by ``is_min``
    levels: int = 0
    timed_out: bool = False
    truncated: bool = False     # any (pattern, graph) hit the embedding cap
    peak_frontier: int = 0

    @classmethod
    def total(cls, parts: Iterable[EnumStats]) -> EnumStats:
        """The stats of one run split into ``parts``: counts add up,
        ``levels`` and ``peak_frontier`` take the maximum, and a flag is set
        if any part set it."""
        parts = list(parts)

        def combine(name: str, default: object) -> object:
            values = [getattr(p, name) for p in parts]
            if isinstance(default, bool):
                return any(values)
            return max(values, default=0) if name in ("levels", "peak_frontier") else sum(values)

        return cls(**{f.name: combine(f.name, f.default) for f in fields(cls)})


def level_loop(
    frontier: list[DFSCode],
    match: LevelMatcher,
    *,
    e_max: int,
    min_support_frac: float = 0.0,
    visitor: Callable[[PatternLevelStats], None] | None = None,
    extend_filter: Callable[[PatternLevelStats], bool] | None = None,
    deadline: float | None = None,
    matched: dict[DFSCode, PatternLevelStats] | None = None,
) -> EnumStats:
    """Enumerate the patterns with ``|E| <= e_max`` that grow from the
    1-edge codes ``frontier``, matching each level with ``match``.

    ``min_support_frac`` is the paper's ``sup_min``: patterns occurring in
    fewer than ``ceil(frac * |D|)`` graphs are dropped *and* their subtrees
    pruned (support is anti-monotone under rightmost extension). With
    ``frac = 0`` every pattern with support >= 1 survives — the ALL setting.
    ``|D|`` is the union of the level-1 supports: every edge matches the
    root of its own label triple.

    ``visitor`` sees each surviving pattern exactly once, in canonical
    DFS-code order within each level. ``extend_filter`` decides whether a
    surviving pattern's subtree is explored (TED's PRM hook). Once
    ``time.perf_counter()`` passes ``deadline`` the loop stops before it
    grows the next level, with ``timed_out`` set, and checks no extension
    with ``is_min``; a run whose last level has no extensions to grow is
    complete, not timed out.

    ``matched`` maps DFS codes to stats computed earlier over the same
    database, with extensions for every code shorter than ``e_max``. A
    frontier code found there is popped and used as is; only the rest go to
    ``match``, and a level with no rest does not call it. A level whose
    codes have ``e_max`` edges is matched without extensions, since nothing
    reads them.
    """
    threshold = 1
    matched = {} if matched is None else matched
    stats = EnumStats()
    while frontier:
        stats.levels += 1
        stats.peak_frontier = max(stats.peak_frontier, len(frontier))
        todo = [c for c in frontier if c not in matched]
        level = [matched.pop(c) for c in frontier if c in matched]
        if todo:
            level += match(todo, any(len(c) < e_max for c in todo))
        stats.n_matched += len(level)
        if stats.levels == 1 and min_support_frac > 0:
            n_graphs = len(frozenset().union(*(ps.support_gids for ps in level)))
            threshold = max(1, math.ceil(min_support_frac * n_graphs))
        parents: list[PatternLevelStats] = []  # the patterns to extend
        for ps in sorted(level, key=lambda s: code_key(s.code)):
            if ps.truncated:
                stats.truncated = True
            if ps.support < threshold:
                stats.n_pruned_support += 1
                continue
            stats.n_visited += 1
            if visitor is not None:
                visitor(ps)
            if len(ps.code) >= e_max:
                continue
            if extend_filter is not None and not extend_filter(ps):
                stats.n_pruned_filter += 1
                continue
            parents.append(ps)
        if (deadline is not None and any(ps.extensions for ps in parents)
                and time.perf_counter() > deadline):
            stats.timed_out = True
            break
        children: list[DFSCode] = []
        for ps in parents:
            stats.n_is_min += len(ps.extensions)
            for ext in ps.extensions:
                child = ps.code + (ext,)
                if is_min(child):
                    children.append(child)
                else:
                    stats.n_children_nonmin += 1
        frontier = sorted(children, key=code_key)
    return stats


def enumerate_gspan(
    spark: SparkSession,
    db: GraphDB,
    *,
    e_max: int,
    min_support_frac: float = 0.0,
    visitor: Callable[[PatternLevelStats], None] | None = None,
    extend_filter: Callable[[PatternLevelStats], bool] | None = None,
    deadline: float | None = None,
    matched: dict[DFSCode, PatternLevelStats] | None = None,
) -> EnumStats:
    """Enumerate all (or all frequent) patterns with ``|E| <= e_max`` in the
    database ``db``: :func:`level_loop` on the driver, one
    :func:`match_level` job per level after the first. The roots that are
    not in ``matched`` are matched on the driver by a
    :class:`ProjectedMatcher` over ``db.driver_graphs``: a root is tried
    only in the graphs holding its edge-label triple, which costs less than
    a job's fixed overhead.

    ``deadline`` (a ``time.perf_counter()`` value) and ``matched`` are
    :func:`level_loop`'s: ``matched`` holds stats computed earlier over the
    same database.
    """

    def match(codes: list[DFSCode], want: bool) -> list[PatternLevelStats]:
        if len(codes[0]) == 1:
            return ProjectedMatcher(db.driver_graphs)(codes, want)
        return match_level(spark, db, codes, want_extensions=want)

    return level_loop(
        level1_codes(db),
        match,
        e_max=e_max,
        min_support_frac=min_support_frac,
        visitor=visitor,
        extend_filter=extend_filter,
        deadline=deadline,
        matched=matched,
    )


def mine_graphs(
    graphs: list[Graph],
    *,
    e_max: int,
    deadline: float | None = None,
    matcher: ProjectedMatcher | None = None,
) -> tuple[list[PatternLevelStats], EnumStats]:
    """Every pattern with ``|E| <= e_max`` and an embedding in ``graphs``,
    in stream order (by size, then canonical DFS-code order), with its cover
    and support over these graphs: :func:`level_loop` with a
    :class:`ProjectedMatcher` over ``graphs`` as the level matcher and these
    graphs' own 1-edge codes as roots. Pass ``matcher`` (built over the same
    graphs) to read its pair count afterwards.

    Each prefix of a minimal DFS code is a connected subgraph of the
    pattern, so it occurs wherever the pattern does, and the loop reaches
    every pattern that occurs here. Split the database into parts and run
    this on each: when no (pattern, graph) pair hits the embedding cap,
    the patterns found, with their covers and supports united over the
    parts, are exactly what :func:`enumerate_gspan` streams with
    ``min_support_frac=0``. A capped prefix may hide extensions, and
    ``truncated`` then says so. The loop stops at ``deadline`` (see
    :func:`level_loop`). Split this way, the parts' stats add up with
    :meth:`EnumStats.total`, except that ``n_visited`` counts a pattern once
    per part that holds it.
    """
    found: list[PatternLevelStats] = []
    stats = level_loop(
        _roots(graphs),
        ProjectedMatcher(graphs) if matcher is None else matcher,
        e_max=e_max,
        visitor=found.append,
        deadline=deadline,
    )
    return found, stats

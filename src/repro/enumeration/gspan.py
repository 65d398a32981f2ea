"""Level-synchronous gSpan enumeration driver.

Each DFS level is one Spark job (:func:`repro.enumeration.distributed
.match_level`); the driver streams the level's surviving patterns — in
canonical DFS-code order — to a visitor callback (TED's PatternMaintain, or
a baseline's accumulator), then grows the next frontier by rightmost
extension, keeping only minimal codes (each isomorphism class enumerated
exactly once) and applying support pruning (frequent-subgraph mining) and an
optional ``extend_filter`` (TED's PRM rules).
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable

from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from repro.enumeration.distributed import PatternLevelStats, match_level
from repro.isomorphism.dfscode import DFSCode, code_key, is_min


def level1_codes(edges: DataFrame) -> list[DFSCode]:
    """All distinct 1-edge patterns, from one distinct-scan over the edge
    table (labels normalized so ``li <= lj`` — the minimal orientation)."""
    rows = (
        edges.select(
            F.least("ul", "vl").alias("a"), F.col("el"), F.greatest("ul", "vl").alias("b")
        )
        .distinct()
        .collect()
    )
    codes = [((0, 1, r["a"], r["el"], r["b"]),) for r in rows]
    return sorted(codes, key=code_key)


@dataclass
class EnumStats:
    """Bookkeeping for one enumeration run."""

    n_matched: int = 0          # frontier patterns matched or taken from ``matched``
    n_visited: int = 0          # patterns streamed to the visitor
    n_pruned_support: int = 0   # dropped by the support threshold
    n_pruned_filter: int = 0    # subtrees cut by extend_filter (PRM)
    n_children_nonmin: int = 0  # extensions discarded by the minimality check
    levels: int = 0
    timed_out: bool = False
    truncated: bool = False     # any (pattern, graph) hit the embedding cap
    peak_frontier: int = 0


def enumerate_gspan(
    spark: SparkSession,
    edges: DataFrame,
    *,
    e_max: int,
    min_support_frac: float = 0.0,
    visitor: Callable[[PatternLevelStats], None] | None = None,
    extend_filter: Callable[[PatternLevelStats], bool] | None = None,
    time_limit_s: float | None = None,
    matched: dict[DFSCode, PatternLevelStats] | None = None,
    roots: list[DFSCode] | None = None,
) -> EnumStats:
    """Enumerate all (or all frequent) patterns with ``|E| <= e_max``.

    ``min_support_frac`` is the paper's ``sup_min``: patterns occurring in
    fewer than ``ceil(frac * |D|)`` graphs are dropped *and* their subtrees
    pruned (support is anti-monotone under rightmost extension). With
    ``frac = 0`` every pattern with support >= 1 survives — the ALL setting.
    ``|D|`` is the union of the level-1 supports: every edge matches the
    root of its own label triple.

    ``visitor`` sees each surviving pattern exactly once, in canonical
    DFS-code order within each level. ``extend_filter`` decides whether a
    surviving pattern's subtree is explored (TED's PRM hook).

    ``matched`` maps DFS codes to stats computed earlier by
    :func:`match_level` over the same edges, with extensions for every code
    shorter than ``e_max``. A frontier code found there is popped and used
    as is; only the rest go to the level job, and a level with no rest
    starts no job. A level whose codes have ``e_max`` edges is matched
    without extensions, since nothing reads them.

    ``roots`` is :func:`level1_codes` of ``edges`` when the caller already
    has it; by default the edge table is scanned for it.
    """
    threshold = 1
    matched = {} if matched is None else matched
    t0 = time.perf_counter()
    stats = EnumStats()
    frontier = level1_codes(edges) if roots is None else roots
    while frontier:
        stats.levels += 1
        stats.peak_frontier = max(stats.peak_frontier, len(frontier))
        todo = [c for c in frontier if c not in matched]
        level = [matched.pop(c) for c in frontier if c in matched]
        if todo:
            level += match_level(
                spark, edges, todo, want_extensions=any(len(c) < e_max for c in todo)
            )
        stats.n_matched += len(level)
        if stats.levels == 1 and min_support_frac > 0:
            n_graphs = len(frozenset().union(*(ps.support_gids for ps in level)))
            threshold = max(1, math.ceil(min_support_frac * n_graphs))
        children: list[DFSCode] = []
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
            for ext in ps.extensions:
                child = ps.code + (ext,)
                if is_min(child):
                    children.append(child)
                else:
                    stats.n_children_nonmin += 1
        frontier = sorted(children, key=code_key)
        if time_limit_s is not None and time.perf_counter() - t0 > time_limit_s:
            stats.timed_out = True
            break
    return stats

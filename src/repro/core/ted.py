"""The TED framework — Algorithm 3 plus the two optimizations of Section 5.

Variants (paper Section 7 naming):

- ``base``: TED_BASE — level-synchronous enumeration with integrated
  swap-based PatternMaintain; only k patterns (plus one frontier) in memory.
- ``prm``:  BASE + Promising Right-Most Extension (Definition 7) — subtrees
  whose best-possible descendant benefit cannot beat the swap threshold are
  never extended. Definition 7's bound (the uncovered edges of every graph
  holding the pattern) is the cheap first test; a subtree it keeps is cut
  if the tighter :func:`reach_bound` (the uncovered edges a descendant
  within E_max can reach from the pattern's embeddings) cannot beat the
  threshold either. Both bound the same ``Score_B``, so Theorem 3 holds
  for either (DESIGN.md §3 item 3).
- ``ips``:  BASE + Initial Pattern Selection — initial P comes from a
  BFS-style greedy walk over the level-1 roots instead of the first k
  enumerated subgraphs.
- ``ted``:  PRM + IPS (the complete algorithm).

Approximation (Theorem 4): coverage >= OPT/4 under the swap strategy; the
guarantee is independent of stream order, so the level-synchronous stream
(DESIGN.md §3.2) preserves it.
"""
from __future__ import annotations

import time
from dataclasses import asdict
from typing import Container, Iterable, Mapping

from pyspark.sql import DataFrame, SparkSession

from repro.core.maintain import PatternMaintainer
from repro.core.result import AlgoResult
from repro.enumeration.distributed import PatternLevelStats, ProjectedMatcher, match_level
from repro.enumeration.gspan import EnumStats, enumerate_gspan, level1_codes, level_loop
from repro.graphdb.model import Graph, edge_key, split_edge_key
from repro.graphdb.spark_io import GraphDB, per_graph_edge_counts
from repro.isomorphism.dfscode import DFSCode, Edge5, code_key
from repro.isomorphism.dfscode import is_min  # noqa: F401  (the benchmark's tracer wraps it here)

VARIANTS = ("base", "prm", "ips", "ted")


def reach_bound(
    cover: Iterable[int], r: int, graphs: Mapping[int, Graph], covered: Container[int]
) -> int:
    """PRM's reach bound: the edges that a descendant adding at most ``r``
    edges to a pattern with cover ``cover`` can cover and ``covered`` does
    not hold.

    A descendant's code extends the pattern's, so each of its embeddings
    contains one of the pattern's, and its at most ``r`` new edges hang
    connected off that embedding's vertices. So every edge it covers has an
    endpoint at most ``r - 1`` hops from a vertex of ``cover``, in the same
    graph. ``graphs`` maps graph ids to the graphs ``cover``'s edge keys
    point into."""
    eids_by_graph: dict[int, list[int]] = {}
    for key in cover:
        gid, eid = split_edge_key(key)
        eids_by_graph.setdefault(gid, []).append(eid)
    bound = 0
    for gid, eids in eids_by_graph.items():
        g = graphs[gid]
        seen = {x for eid in eids for x in g.edges[eid][:2]}
        ring = seen
        for _ in range(r - 1):
            ring = {v for u in ring for v, _, _ in g.adj[u]} - seen
            seen |= ring
        reach = {eid for u in seen for _, _, eid in g.adj[u]}
        bound += sum(1 for eid in reach if edge_key(gid, eid) not in covered)
    return bound


def ips_initial_patterns(
    spark: SparkSession,
    db: GraphDB,
    *,
    k: int,
    e_max: int,
    e_min: int = 1,
    matched: dict[DFSCode, PatternLevelStats] | None = None,
    deadline: float | None = None,
) -> tuple[list[tuple[DFSCode, frozenset[int]]], EnumStats]:
    """Initial Pattern Selection (Section 5.2).

    One greedy chain per level-1 root: the chain steps to its head's child
    with the highest coverage (least ``code_key`` on a tie) while coverage
    strictly improves and the head has fewer than E_max edges. The walk is
    :func:`level_loop` over the roots: its level matcher moves each chain
    to its best child once the level is matched, and its ``extend_filter``
    extends the chains' heads only. A chain is keyed by its first entry,
    which every code of the chain shares and no two roots do.

    Only depth 1, the children of every root, is wide enough to pay for a
    Spark job (:func:`match_level`). The roots are matched on the driver
    over ``db.driver_graphs``; from depth 2 on, one
    :class:`ProjectedMatcher` over the heads' support graphs matches the
    chains' children on the driver, keeping each depth's embeddings for the
    next. A head's children occur only where the head does, so every stat
    equals the job's.

    Returns the top-k chain heads by coverage as (code, cover) pairs, and
    the walk's :class:`EnumStats`. Every stats entry is also stored in
    ``matched`` by code, so the enumeration that follows need not match
    those patterns again. No depth starts once ``time.perf_counter()`` has
    passed ``deadline``; the chains then stay at their heads, and the
    stats say ``timed_out``.
    """
    matched = {} if matched is None else matched
    heads: dict[Edge5, PatternLevelStats] = {}
    driver: ProjectedMatcher | None = None  # matches depth 2 on

    def rank(ps: PatternLevelStats) -> tuple:
        return -ps.coverage, code_key(ps.code)

    def match(codes: list[DFSCode], want: bool) -> list[PatternLevelStats]:
        nonlocal driver
        if len(codes[0]) == 1:
            level = ProjectedMatcher(db.driver_graphs)(codes, want)
        elif len(codes[0]) == 2:  # depth 1, also the enumeration's whole level 2
            level = match_level(spark, db, codes, want_extensions=want)
        else:
            if driver is None:
                gids = frozenset().union(*(heads[c[0]].support_gids for c in codes))
                driver = ProjectedMatcher([g for g in db.driver_graphs if g.gid in gids])
            level = driver(codes, want)
        matched.update((ps.code, ps) for ps in level)
        # best first, so a chain moves only to its best child, and only if
        # that child beats the head
        for ps in sorted(level, key=rank):
            head = heads.get(ps.code[0])
            if head is None or ps.coverage > head.coverage:
                heads[ps.code[0]] = ps
        return level

    stats = level_loop(
        level1_codes(db),
        match,
        e_max=e_max,
        extend_filter=lambda ps: heads[ps.code[0]] is ps,
        deadline=deadline,
    )
    top = sorted(heads.values(), key=rank)
    return [(ps.code, ps.cover) for ps in top if len(ps.code) >= e_min][:k], stats


def ted(
    spark: SparkSession,
    edges: DataFrame,
    *,
    k: int,
    e_max: int,
    e_min: int = 1,
    alpha: float = 1.0,
    variant: str = "ted",
    time_limit_s: float | None = None,
) -> AlgoResult:
    """Run a TED variant and return its result + instrumentation.

    ``e_min`` is the VINCENT pattern budget's minimum pattern size
    (Section 6.2 MinE): patterns with fewer edges are traversed but not
    eligible for P. The discovery problem itself (Definition 3) has no
    minimum, so ``e_min=1`` is the default everywhere except the VQF
    studies.

    ``truncated`` is set when any pattern matched, by IPS or by the
    enumeration, hit the matcher's embedding cap, so its cover set (and
    possibly its extensions) may be incomplete.

    ``time_limit_s`` counts from the call's start: the handle's build
    spends it too, and IPS and the enumeration get the same deadline, so
    neither starts a depth or level past it.

    ``extra["enum"]`` and ``extra["ips"]`` hold the enumeration's and IPS's
    :class:`EnumStats` as dicts, ``timed_out`` among their fields; IPS's
    are all zero for a variant without IPS. ``extra["prm"]`` counts the
    subtrees cut by Definition 7's bound (``def7_pruned``) and by
    :func:`reach_bound` (``reach_pruned``), which add up to ``n_pruned``,
    and the time spent in :func:`reach_bound` (``reach_s``); all zero for
    a variant without PRM."""
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}")
    use_prm = variant in ("prm", "ted")
    use_ips = variant in ("ips", "ted")
    t0 = time.perf_counter()
    deadline = None if time_limit_s is None else t0 + time_limit_s

    db = GraphDB.build(edges)
    edge_counts = per_graph_edge_counts(db)
    maintainer = PatternMaintainer(k=k, alpha=alpha)
    matched: dict[DFSCode, PatternLevelStats] = {}  # IPS's stats, reused by the enumeration

    ips_stats = EnumStats()  # stays empty when the variant runs no IPS
    if use_ips:
        initial, ips_stats = ips_initial_patterns(
            spark, db, k=k, e_max=e_max, e_min=e_min, matched=matched, deadline=deadline,
        )
        for code, cover in initial:
            maintainer.offer(code, cover)

    def visitor(ps: PatternLevelStats) -> None:
        if len(ps.code) < e_min:  # below the pattern budget's MinE
            return
        if ps.code in maintainer:  # already in P (seeded by IPS)
            return
        maintainer.offer(ps.code, ps.cover)

    prm = {"def7_pruned": 0, "reach_pruned": 0, "reach_s": 0.0}
    graphs = {g.gid: g for g in db.driver_graphs}

    def prm_filter(ps: PatternLevelStats) -> bool:
        # Extend only if even covering every uncovered edge a descendant
        # could reach might beat the swap threshold. Before P is full there
        # is no threshold — always extend.
        if len(maintainer) < k:
            return True
        threshold = maintainer.swap_threshold()
        # Definition 7: the uncovered edges of the graphs containing ps
        covered = maintainer.index.covered_per_graph
        if sum(edge_counts[g] - covered.get(g, 0) for g in ps.support_gids) < threshold:
            prm["def7_pruned"] += 1
            return False
        if ps.truncated:  # a capped cover may miss embeddings a descendant extends
            return True
        t = time.perf_counter()
        bound = reach_bound(ps.cover, e_max - len(ps.code), graphs, maintainer.index.rcov)
        prm["reach_s"] += time.perf_counter() - t
        if bound < threshold:
            prm["reach_pruned"] += 1
            return False
        return True

    enum_stats = enumerate_gspan(
        spark,
        db,
        e_max=e_max,
        min_support_frac=0.0,
        visitor=visitor,
        extend_filter=prm_filter if use_prm else None,
        deadline=deadline,
        matched=matched,
    )
    elapsed = time.perf_counter() - t0
    idx = maintainer.index
    return AlgoResult(
        name={"base": "BASE", "prm": "PRM", "ips": "IPS", "ted": "TED"}[variant],
        patterns=maintainer.patterns,
        coverage=idx.cov_total,
        total_edges=sum(edge_counts.values()),
        elapsed_s=elapsed,
        timed_out=enum_stats.timed_out,
        truncated=ips_stats.truncated or enum_stats.truncated,
        index_time_s=idx.maintenance_time_s,
        index_size_bytes=idx.estimated_size_bytes(),
        n_enumerated=enum_stats.n_visited,
        n_pruned=enum_stats.n_pruned_filter,
        n_swaps=maintainer.stats.n_swaps,
        extra={
            "alpha": alpha,
            "k": k,
            "e_max": e_max,
            "handle_s": db.build_s,
            "enum": asdict(enum_stats),
            "ips": asdict(ips_stats),
            "prm": prm,
        },
    )


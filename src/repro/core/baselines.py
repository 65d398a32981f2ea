"""Baselines of Section 3 / Section 7: ALL_g, ALL_t, FSG_g, FSG_t, OPT.

All four materialize the candidate set S (all subgraphs, or the frequent
ones) before selecting patterns — exactly the memory behaviour the paper
criticizes; ``stored_candidate_bytes`` surfaces it. The ``_g`` variants run
greedy MaxCover (Algorithm 1), the ``_t`` variants stream the materialized
candidates through the same swap-based maintenance TED uses. ``opt_exact``
solves max-k-cover optimally (Figure 13's OPT) — small databases only.

Where S is mined depends on the support threshold. ALL_g, ALL_t and OPT
keep every pattern with support >= 1, so one Spark job mines the whole
pattern tree: each task runs the level loop over its own graphs
(:func:`repro.enumeration.distributed.mine_tree`), and the driver merges the
covers per pattern and orders S as the driver loop streams it. FSG's
threshold needs database-wide support between levels, so FSG keeps the
driver loop (:func:`repro.enumeration.gspan.enumerate_gspan`), one job per
level over the call's :class:`repro.graphdb.spark_io.GraphDB`. The tracer
sees no level job of the tree job, so ALL_g, ALL_t and OPT report its
phases and per-task stats in ``AlgoResult.extra``. Every method reports its
enumeration's :class:`repro.enumeration.gspan.EnumStats` as
``extra["enum"]``.

Every method builds the call's handle first and runs its enumeration on
it, so each reports the handle's build time (``extra["handle_s"]``) and
reads the database's edge total (``AlgoResult.total_edges``) from it with
:func:`repro.graphdb.spark_io.per_graph_edge_counts`. ``time_limit_s``
counts from the call's start, the handle's build included.
"""
from __future__ import annotations

import time
from dataclasses import asdict

from pyspark.sql import DataFrame, SparkSession

from repro.core.maintain import PatternMaintainer
from repro.core.result import AlgoResult
from repro.enumeration.distributed import mine_tree
from repro.enumeration.gspan import EnumStats, enumerate_gspan
from repro.graphdb.spark_io import GraphDB, per_graph_edge_counts
from repro.isomorphism.dfscode import DFSCode, code_key
from repro.maxcover.exact import exact_max_cover
from repro.maxcover.greedy import greedy_max_cover


def _mine_tree(
    db: GraphDB, *, e_max: int, deadline: float | None
) -> tuple[dict[DFSCode, frozenset[int]], EnumStats, dict]:
    """S from the tree job: each pattern's cover merged over the tasks, in
    stream order ``(len(code), code_key(code))``. A cover one task holds is
    kept as that task's frozenset; only the covers of codes several tasks
    hold are united. The stats are the tasks' :meth:`EnumStats.total`, with
    ``n_visited`` set to ``|S|``: ``n_matched`` counts (pattern, task)
    pairs and ``n_children_nonmin`` repeats a rejection in every task whose
    graphs hold the parent. The report holds the job and merge times and,
    per non-empty task, its stats' fields and its graph count, pair count
    and wall time."""
    t0 = time.perf_counter()
    results = mine_tree(db, e_max=e_max, deadline=deadline)
    t1 = time.perf_counter()
    held: dict[DFSCode, list[frozenset[int]]] = {}
    for found, _, _ in results:
        for code, cover in found:
            held.setdefault(code, []).append(cover)
    sets = {code: covers[0] if len(covers) == 1 else frozenset().union(*covers)
            for code, covers in sorted(held.items(), key=lambda kv: (len(kv[0]), code_key(kv[0])))}
    stats = EnumStats.total(st for _, st, _ in results)
    stats.n_visited = len(sets)
    report = {"phases": {"mining_s": t1 - t0, "merge_s": time.perf_counter() - t1},
              "partitions": [{**asdict(st), **task} for _, st, task in results]}
    return sets, stats, report


def enumerate_cover_sets(
    spark: SparkSession,
    db: GraphDB,
    *,
    e_max: int,
    min_support_frac: float = 0.0,
    deadline: float | None = None,
) -> tuple[dict[DFSCode, frozenset[int]], EnumStats, dict]:
    """Materialize S (Algorithm 1 line 1 / Algorithm 2 line 1): every
    enumerated pattern's cover set in the database ``db``, in DFS-code
    stream order. Returns ``(sets, stats, report)``; ``stats`` says whether
    the enumeration timed out or hit the embedding cap, and ``report`` holds
    what the run reports in ``AlgoResult.extra``. With
    ``min_support_frac == 0`` S is mined by the tree job (see
    :func:`_mine_tree`), else by the driver loop, whose level jobs the
    tracer sees, and the report is empty. Mining stops at ``deadline``, a
    ``time.perf_counter()`` value."""
    if min_support_frac == 0:
        return _mine_tree(db, e_max=e_max, deadline=deadline)
    sets: dict[DFSCode, frozenset[int]] = {}
    stats = enumerate_gspan(
        spark,
        db,
        e_max=e_max,
        min_support_frac=min_support_frac,
        visitor=lambda ps: sets.__setitem__(ps.code, ps.cover),
        deadline=deadline,
    )
    return sets, stats, {}


def _candidate_bytes(sets: dict[DFSCode, frozenset[int]]) -> int:
    """Footprint of the materialized S: 8 bytes per stored cover-set edge
    plus the pattern codes themselves (~40 bytes per code entry)."""
    return sum(8 * len(c) + 40 * len(code) for code, c in sets.items())


def _run_materialized(
    spark: SparkSession,
    edges: DataFrame,
    *,
    name: str,
    k: int,
    e_max: int,
    min_support_frac: float,
    strategy: str,  # "greedy" | "swap" | "exact"
    alpha: float = 1.0,
    time_limit_s: float | None = None,
) -> AlgoResult:
    t0 = time.perf_counter()
    db = GraphDB.build(edges)
    total_edges = sum(per_graph_edge_counts(db).values())
    sets, enum_stats, report = enumerate_cover_sets(
        spark,
        db,
        e_max=e_max,
        min_support_frac=min_support_frac,
        deadline=None if time_limit_s is None else t0 + time_limit_s,
    )
    t_select = time.perf_counter()
    index_time = 0.0
    index_bytes = 0
    n_swaps = 0
    if strategy == "greedy":
        chosen, covered = greedy_max_cover(sets, k)
    elif strategy == "exact":
        chosen, covered = exact_max_cover(sets, k)
    elif strategy == "swap":
        maintainer = PatternMaintainer(k=k, alpha=alpha)
        for code, cover in sets.items():  # insertion order == stream order
            maintainer.offer(code, cover)
        chosen = maintainer.patterns
        covered = set()
        for c in chosen:
            covered |= sets[c]
        index_time = maintainer.index.maintenance_time_s
        index_bytes = maintainer.index.estimated_size_bytes()
        n_swaps = maintainer.stats.n_swaps
    else:
        raise ValueError(f"unknown strategy {strategy!r}")
    t_end = time.perf_counter()
    extra = {
        "k": k,
        "e_max": e_max,
        "sup_min": min_support_frac,
        "enum": asdict(enum_stats),  # the tree job's are summed over its tasks (see _mine_tree)
        "handle_s": db.build_s,
        **report,
    }
    if "phases" in extra:
        extra["phases"]["selection_s"] = t_end - t_select
    return AlgoResult(
        name=name,
        patterns=list(chosen),
        coverage=len(covered),
        total_edges=total_edges,
        elapsed_s=t_end - t0,
        timed_out=enum_stats.timed_out,
        truncated=enum_stats.truncated,
        index_time_s=index_time,
        index_size_bytes=index_bytes,
        n_enumerated=len(sets),
        n_swaps=n_swaps,
        stored_candidate_bytes=_candidate_bytes(sets),
        extra=extra,
    )


def all_g(spark, edges, *, k, e_max, time_limit_s=None) -> AlgoResult:
    """Algorithm 1: enumerate all subgraphs, then greedy MaxCover."""
    return _run_materialized(
        spark, edges, name="ALL_g", k=k, e_max=e_max, min_support_frac=0.0,
        strategy="greedy", time_limit_s=time_limit_s,
    )


def all_t(spark, edges, *, k, e_max, alpha=1.0, time_limit_s=None) -> AlgoResult:
    """ALL_g variant: materialized all-subgraph stream + swap-based search."""
    return _run_materialized(
        spark, edges, name="ALL_t", k=k, e_max=e_max, min_support_frac=0.0,
        strategy="swap", alpha=alpha, time_limit_s=time_limit_s,
    )


def fsg_g(spark, edges, *, k, e_max, sup_min=0.1, time_limit_s=None) -> AlgoResult:
    """Algorithm 2: frequent subgraphs (sup >= sup_min), then greedy MaxCover."""
    return _run_materialized(
        spark, edges, name=f"FSG_g({sup_min})", k=k, e_max=e_max,
        min_support_frac=sup_min, strategy="greedy", time_limit_s=time_limit_s,
    )


def fsg_t(spark, edges, *, k, e_max, sup_min=0.1, alpha=1.0, time_limit_s=None) -> AlgoResult:
    """FSG_g variant: frequent-subgraph stream + swap-based search."""
    return _run_materialized(
        spark, edges, name=f"FSG_t({sup_min})", k=k, e_max=e_max,
        min_support_frac=sup_min, strategy="swap", alpha=alpha,
        time_limit_s=time_limit_s,
    )


def opt_exact(spark, edges, *, k, e_max, time_limit_s=None) -> AlgoResult:
    """Exact optimum over all enumerated subgraphs (Figure 13's OPT)."""
    return _run_materialized(
        spark, edges, name="OPT", k=k, e_max=e_max, min_support_frac=0.0,
        strategy="exact", time_limit_s=time_limit_s,
    )

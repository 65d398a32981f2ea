"""CATAPULT-lite — stand-in for the closed-source CATAPULT [16] baseline.

CATAPULT selects "canned patterns" for visual query formulation by balancing
pattern coverage and diversity over clusters of small data graphs. This
reproduction keeps its qualitative position (between FS's pure-frequency
ranking and TED's pure edge coverage) with an MMR-style greedy:

    score(c | selected) = support_frac(c) * |E(c)|
                          - LAMBDA * max_{s in selected} sim(c, s)

where ``sim`` is Jaccard similarity of edge-label-triple sets — frequent,
reasonably large, mutually diverse patterns. DESIGN.md documents the
substitution.
"""
from __future__ import annotations

from pyspark.sql import DataFrame, SparkSession

from repro.enumeration.gspan import enumerate_gspan
from repro.graphdb.spark_io import GraphDB
from repro.isomorphism.dfscode import DFSCode, code_key, code_to_graph

LAMBDA = 2.0  # weight of the redundancy penalty


def _triple_sim(a: frozenset, b: frozenset) -> float:
    if not a or not b:
        return 0.0
    return len(a & b) / len(a | b)


def catapult_lite(
    spark: SparkSession,
    edges: DataFrame,
    *,
    k: int,
    e_max: int,
    e_min: int = 1,
    sup_min: float = 0.1,
) -> list[tuple[DFSCode, int]]:
    """Select k canned patterns: frequent candidates, MMR-greedy picking.

    ``e_min`` is the VQF pattern budget's minimum size (MinE)."""
    cands: list[tuple[DFSCode, int]] = []
    db = GraphDB.build(edges)
    enumerate_gspan(
        spark,
        db,
        e_max=e_max,
        min_support_frac=sup_min,
        visitor=lambda ps: cands.append((ps.code, ps.support))
        if len(ps.code) >= e_min
        else None,
    )
    n_graphs = len(db.edge_counts)
    cands.sort(key=lambda t: code_key(t[0]))  # deterministic base order
    triples = {code: code_to_graph(code).edge_triple_set for code, _ in cands}
    selected: list[tuple[DFSCode, int]] = []
    remaining = list(cands)
    while remaining and len(selected) < k:
        best, best_score = None, float("-inf")
        for code, sup in remaining:
            base = (sup / n_graphs) * len(code)
            redun = max(
                (_triple_sim(triples[code], triples[s]) for s, _ in selected),
                default=0.0,
            )
            score = base - LAMBDA * redun
            if score > best_score:
                best, best_score = (code, sup), score
        selected.append(best)
        remaining.remove(best)
    return selected

"""FS comparator: top-k maximal frequent subgraphs.

The paper's "FS" pattern set (Figure 3(b)) consists of sizable frequent
subgraphs sharing common substructure — the standard GUI practice of showing
*maximal* frequent patterns (a frequent pattern with a frequent 1-edge
supergraph is redundant for display; literal top-k-by-support would return
k single edges). Ranking among maximal patterns: support desc, then size
desc, then code order for determinism.
"""
from __future__ import annotations

from pyspark.sql import DataFrame, SparkSession

from repro.enumeration.gspan import enumerate_gspan
from repro.graphdb.spark_io import GraphDB
from repro.isomorphism.dfscode import DFSCode, code_key, code_to_graph
from repro.isomorphism.matcher import contains


def _maximal(found: list[tuple[DFSCode, int]]) -> list[tuple[DFSCode, int]]:
    """Drop patterns with a frequent supergraph one edge larger.

    Sufficient for maximality within the mined set: containment is checked
    against the (size+1) stratum — if any strictly larger frequent
    supergraph exists, so does one with exactly one more edge (frequency is
    anti-monotone along subgraph chains).
    """
    by_size: dict[int, list[DFSCode]] = {}
    for code, _ in found:
        by_size.setdefault(len(code), []).append(code)
    out = []
    for code, sup in found:
        uppers = by_size.get(len(code) + 1, [])
        g_upper = [(u, code_to_graph(u)) for u in uppers]
        if not any(contains(gu, code) for _, gu in g_upper):
            out.append((code, sup))
    return out


def top_k_frequent(
    spark: SparkSession,
    edges: DataFrame,
    *,
    k: int,
    e_max: int,
    e_min: int = 1,
    sup_min: float = 0.3,
) -> list[tuple[DFSCode, int]]:
    """Mine frequent subgraphs, keep the maximal ones, return the top-k as
    (code, support). ``e_min`` is the VQF pattern budget's minimum size."""
    found: list[tuple[DFSCode, int]] = []
    enumerate_gspan(
        spark,
        GraphDB.build(edges),
        e_max=e_max,
        min_support_frac=sup_min,
        visitor=lambda ps: found.append((ps.code, ps.support))
        if len(ps.code) >= e_min
        else None,
    )
    maximal = _maximal(found)
    maximal.sort(key=lambda t: (-t[1], -len(t[0]), code_key(t[0])))
    return maximal[:k]

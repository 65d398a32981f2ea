"""Embedding matcher: enumerate all subgraph-isomorphic embeddings of a
DFS-code pattern in a data graph, and derive from them

- the cover set ``Cov(p, G)`` (union of matched edge ids — Definition 2),
- the embedding count, and
- the set of canonical rightmost extensions observed in ``G`` (the gSpan
  candidate children of ``p``).

Embeddings follow the code's own DFS order, so candidate vertices are always
adjacent to the partial embedding — no global backtracking search is needed.
A per-(pattern, graph) embedding cap guards against pathological blowup on
near-unlabeled graphs. It is a fixed policy of this module
(:data:`DEFAULT_MAX_EMB`); a hit is surfaced in :class:`MatchResult`, and
from there in every algorithm's ``AlgoResult.truncated``. Tests assert it
never triggers on the molecule data and that it is reported on a clique.
"""
from __future__ import annotations

from dataclasses import dataclass

from repro.graphdb.model import Graph
from repro.isomorphism.dfscode import DFSCode, code_to_graph, rightmost_path

#: Cap on embeddings enumerated per (pattern, graph).
DEFAULT_MAX_EMB = 2000


@dataclass
class MatchResult:
    """Aggregate of all embeddings of one pattern in one graph."""

    n_embeddings: int
    covered_eids: set[int]  # local edge ids within the graph
    extensions: set[tuple[int, int, str, str, str]]
    truncated: bool  # True if the embedding cap was hit


def iter_embeddings(code: DFSCode, g: Graph, max_emb: int = DEFAULT_MAX_EMB):
    """Yield ``(vmap, eids)`` for each embedding, stopping after ``max_emb``.

    ``match_stats`` passes its cap through; the VQF step model uses it to
    place patterns on edge-disjoint regions of a query."""
    i0, j0, l0, el0, l1 = code[0]
    count = 0
    # Iterative DFS over partial embeddings: stack of (vmap, used_vs, eids, t).
    stack: list[tuple[list[int], set[int], list[int], int]] = []
    for v0 in range(g.n_vertices):
        if g.vlabels[v0] != l0:
            continue
        for nbr, el, eid in g.adj[v0]:
            if el == el0 and g.vlabels[nbr] == l1:
                stack.append(([v0, nbr], {v0, nbr}, [eid], 1))
    while stack:
        vmap, used_v, eids, t = stack.pop()
        if t == len(code):
            yield vmap, eids
            count += 1
            if count >= max_emb:
                return
            continue
        i, j, li, el, lj = code[t]
        if j == len(vmap):  # forward: bind a new vertex for j
            gv = vmap[i]
            for nbr, nel, eid in g.adj[gv]:
                if nel == el and nbr not in used_v and g.vlabels[nbr] == lj:
                    stack.append((vmap + [nbr], used_v | {nbr}, eids + [eid], t + 1))
        else:  # backward: required edge between two bound vertices
            hit = g.edge_lookup.get((vmap[i], vmap[j]))
            if hit is not None and hit[0] == el:
                stack.append((vmap, used_v, eids + [hit[1]], t + 1))


def match_stats(
    code: DFSCode,
    g: Graph,
    *,
    want_extensions: bool = True,
    max_emb: int = DEFAULT_MAX_EMB,
    pattern: Graph | None = None,
) -> MatchResult:
    """Match ``code`` in ``g`` and aggregate embeddings.

    ``pattern`` may be passed to avoid re-materializing ``code_to_graph``
    when matching the same pattern across many graphs.
    """
    p = pattern if pattern is not None else code_to_graph(code)
    if not g.could_contain(p):
        return MatchResult(0, set(), set(), False)
    rmpath = rightmost_path(code)
    rmpath_set = set(rmpath)
    rmv = rmpath[-1]
    n_pv = p.n_vertices

    n_emb = 0
    covered: set[int] = set()
    exts: set[tuple[int, int, str, str, str]] = set()
    for vmap, eids in iter_embeddings(code, g, max_emb):
        n_emb += 1
        covered.update(eids)
        if not want_extensions:
            continue
        inv = {gv: pi for pi, gv in enumerate(vmap)}
        # Backward extensions: rightmost vertex to an earlier rmpath vertex,
        # along a graph edge the pattern does not already have.
        gv_rm = vmap[rmv]
        for nbr, el, _ in g.adj[gv_rm]:
            pj = inv.get(nbr)
            if (
                pj is not None
                and pj in rmpath_set
                and pj != rmv
                and (min(rmv, pj), max(rmv, pj)) not in p.edge_lookup
            ):
                exts.add((rmv, pj, p.vlabels[rmv], el, p.vlabels[pj]))
        # Forward extensions: rmpath vertex to a fresh graph vertex.
        for pi in rmpath:
            gv = vmap[pi]
            for nbr, el, _ in g.adj[gv]:
                if nbr not in inv:
                    exts.add((pi, n_pv, p.vlabels[pi], el, g.vlabels[nbr]))
    return MatchResult(n_emb, covered, exts, n_emb == max_emb)


def contains(g: Graph, pattern_code: DFSCode) -> bool:
    """True iff the pattern has at least one embedding in ``g``."""
    p = code_to_graph(pattern_code)
    if not g.could_contain(p):
        return False
    return next(iter_embeddings(pattern_code, g), None) is not None


def cover_set(code: DFSCode, g: Graph, *, max_emb: int = DEFAULT_MAX_EMB) -> set[int]:
    """``Cov(p, G)`` as a set of local edge ids (Definition 2)."""
    return match_stats(code, g, want_extensions=False, max_emb=max_emb).covered_eids

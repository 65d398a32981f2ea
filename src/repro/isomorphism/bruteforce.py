"""Brute-force reference implementations — test oracles only.

Exponential-time but obviously-correct versions of canonicalization,
subgraph enumeration, and cover-set computation, used to validate the gSpan
machinery and the distributed enumeration on tiny graphs.
"""
from __future__ import annotations

from itertools import permutations

from repro.graphdb.model import Graph, induced_subgraph


def canonical_form_bruteforce(g: Graph):
    """Canonical form by minimizing over all vertex permutations.

    Two graphs are isomorphic iff their canonical forms are equal. O(n!) —
    only for graphs with <= ~8 vertices in tests.
    """
    best = None
    for perm in permutations(range(g.n_vertices)):
        # perm maps old vertex -> new id; rebuild label tuple indexed by new id
        vl: list[str | None] = [None] * g.n_vertices
        for old, new in enumerate(perm):
            vl[new] = g.vlabels[old]
        edges = tuple(
            sorted(
                (min(perm[u], perm[v]), max(perm[u], perm[v]), el)
                for u, v, el in g.edges
            )
        )
        cand = (tuple(vl), edges)
        if best is None or cand < best:
            best = cand
    return best


def connected_edge_subsets(g: Graph, e_max: int) -> list[frozenset[int]]:
    """All connected subsets of edge ids of size 1..e_max.

    BFS over edge sets, expanding by edges adjacent to the current subgraph.
    """
    adj_edges: list[set[int]] = [set() for _ in range(g.n_vertices)]
    for eid, (u, v, _) in enumerate(g.edges):
        adj_edges[u].add(eid)
        adj_edges[v].add(eid)
    found: set[frozenset[int]] = set()
    frontier = [frozenset([eid]) for eid in range(g.n_edges)]
    found.update(frontier)
    size = 1
    while frontier and size < e_max:
        nxt: set[frozenset[int]] = set()
        for es in frontier:
            verts = {x for eid in es for x in g.edges[eid][:2]}
            candidates = set().union(*(adj_edges[v] for v in verts)) - es
            for eid in candidates:
                bigger = es | {eid}
                if bigger not in found:
                    found.add(bigger)
                    nxt.add(bigger)
        frontier = list(nxt)
        size += 1
    return sorted(found, key=lambda s: (len(s), sorted(s)))


def distinct_patterns_bruteforce(
    db: list[Graph], e_max: int
) -> dict[object, dict[int, set[frozenset[int]]]]:
    """All distinct connected patterns (by brute-force canonical form) with
    their occurrences: ``{canon: {gid: {edge-id sets}}}``.

    Support of a pattern = number of distinct gids; cover set over a graph =
    union of its edge-id sets there.
    """
    out: dict[object, dict[int, set[frozenset[int]]]] = {}
    for g in db:
        for es in connected_edge_subsets(g, e_max):
            canon = canonical_form_bruteforce(induced_subgraph(g, es))
            out.setdefault(canon, {}).setdefault(g.gid, set()).add(es)
    return out

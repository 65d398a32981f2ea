"""Query sampling for the VQF studies (Tables 5–6, Exp 7).

The paper uses 5 real PubChem compounds per dataset (identified by CID,
|E| in [30, 62]) as queries — external data. Substitution: queries are
sampled *connected subgraphs of the generated data graphs*, which preserves
the property that matters (queries are realistic structures partially
coverable by mined patterns). For Exp 7, "frequent" queries are assembled
from frequent patterns (so FS covers them well) and "infrequent" queries are
grown around rare-label edges (motif tails), matching the paper's
frequent/infrequent query split.
"""
from __future__ import annotations

import numpy as np

from repro.graphdb.model import Graph, induced_subgraph, make_graph
from repro.isomorphism.dfscode import DFSCode, code_to_graph

#: Labels that only motif scaffolds produce (the backbone alphabet is
#: C/N/O/S/Cl/F) — edges touching these are infrequent-pattern territory.
RARE_LABELS = {"P", "Br", "I", "B", "Si", "Se", "As", "Na", "K", "Zn"}


def _grow_connected(
    g: Graph,
    rng: np.random.Generator,
    n_edges: int,
    seed_eid: int,
    *,
    prefer_rare: bool = False,
) -> frozenset[int]:
    """Random connected edge set of ``n_edges`` edges grown from one edge.

    With ``prefer_rare`` the growth stays inside rare-label (scaffold)
    regions when possible — this is what makes a sampled query *infrequent*:
    its structure is motif territory that frequent patterns do not cover.
    """
    chosen = {seed_eid}
    frontier_v = set(g.edges[seed_eid][:2])
    while len(chosen) < n_edges:
        cands = sorted(
            {eid for v in frontier_v for _, _, eid in g.adj[v] if eid not in chosen}
        )
        if not cands:
            break
        pool = cands
        if prefer_rare:
            rare = [
                eid
                for eid in cands
                if g.vlabels[g.edges[eid][0]] in RARE_LABELS
                or g.vlabels[g.edges[eid][1]] in RARE_LABELS
            ]
            if rare and rng.random() < 0.85:
                pool = rare
        eid = int(rng.choice(pool))
        chosen.add(eid)
        frontier_v |= set(g.edges[eid][:2])
    return frozenset(chosen)


def sample_query(
    db: list[Graph],
    *,
    e_min: int,
    e_max: int,
    seed: int = 0,
    prefer_rare: bool = False,
) -> Graph:
    """Sample one query: a connected subgraph of a random data graph with
    |E| in [e_min, e_max]. ``prefer_rare`` seeds growth at a rare-label edge
    (infrequent-query mode for Exp 7)."""
    rng = np.random.default_rng(seed)
    target = int(rng.integers(e_min, e_max + 1))
    big = [g for g in db if g.n_edges >= target]
    if not big:
        raise ValueError(f"no graph has >= {target} edges")
    for _ in range(64):
        g = big[int(rng.integers(0, len(big)))]
        seed_candidates = range(g.n_edges)
        if prefer_rare:
            rare = [
                eid
                for eid, (u, v, _) in enumerate(g.edges)
                if g.vlabels[u] in RARE_LABELS or g.vlabels[v] in RARE_LABELS
            ]
            if not rare:
                continue
            seed_candidates = rare
        seed_eid = int(rng.choice(list(seed_candidates)))
        es = _grow_connected(g, rng, target, seed_eid, prefer_rare=prefer_rare)
        if len(es) >= e_min:
            return induced_subgraph(g, es)
    raise RuntimeError("query sampling failed to reach the target size")


def frequent_query(
    frequent_codes: list[DFSCode], *, n_patterns: int = 3, seed: int = 0
) -> Graph:
    """Assemble a query guaranteed to contain frequent patterns: chain
    ``n_patterns`` sampled frequent patterns with C–C bridge edges."""
    rng = np.random.default_rng(seed)
    multi_edge = [c for c in frequent_codes if len(c) >= 2] or frequent_codes
    picks = [
        code_to_graph(multi_edge[int(rng.integers(0, len(multi_edge)))])
        for _ in range(n_patterns)
    ]
    vlabels: list[str] = []
    edges: list[tuple[int, int, str]] = []
    anchors: list[int] = []
    for p in picks:
        base = len(vlabels)
        vlabels.extend(p.vlabels)
        edges.extend((base + u, base + v, el) for u, v, el in p.edges)
        anchors.append(base)
    el = picks[0].edges[0][2]  # reuse the profile's edge-label convention
    for a, b in zip(anchors, anchors[1:]):  # bridge components into one graph
        edges.append((a, b, el))
    return make_graph(-1, vlabels, edges)


def query_set(
    db: list[Graph],
    frequent_codes: list[DFSCode],
    *,
    n_queries: int,
    rho: float,
    e_min: int = 8,
    e_max: int = 16,
    seed: int = 0,
) -> list[Graph]:
    """Exp-7 query set QS_rho: fraction ``rho`` infrequent queries."""
    n_infreq = round(rho * n_queries)
    out = [
        sample_query(db, e_min=e_min, e_max=e_max, seed=seed * 1000 + i, prefer_rare=True)
        for i in range(n_infreq)
    ]
    out += [
        frequent_query(frequent_codes, seed=seed * 1000 + 500 + i)
        for i in range(n_queries - n_infreq)
    ]
    return out

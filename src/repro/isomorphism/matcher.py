"""Embedding matcher: enumerate all subgraph-isomorphic embeddings of a
DFS-code pattern in a data graph, and derive from them

- the cover set ``Cov(p, G)`` (union of matched edge ids — Definition 2),
- the embedding count, and
- the set of canonical rightmost extensions observed in ``G`` (the gSpan
  candidate children of ``p``).

Embeddings follow the code's own DFS order, so candidate vertices are always
adjacent to the partial embedding — no global backtracking search is needed.
:func:`match_stats` matches one pattern in one graph. :func:`match_frontier`
matches a whole enumeration level in a list of graphs, and it is the one
frontier matcher of both Spark jobs
(:mod:`repro.enumeration.distributed`): it groups the level by parent
(DFS-code prefix) and extends the parent's embeddings in each graph by each
child's last entry, gSpan's projection. The level job's tasks enumerate
each parent once per graph; the tree job's matcher
(:class:`repro.enumeration.distributed.ProjectedMatcher`) passes in the
embeddings it kept from the previous level. :func:`match_child` is the step
for one child: it extends given parent embeddings, or matches from the root
where they are missing or reach the cap, so its result always equals
:func:`match_stats`.

A per-(pattern, graph) embedding cap guards against pathological blowup on
near-unlabeled graphs. It is a fixed policy of this module
(:data:`DEFAULT_MAX_EMB`); a hit is surfaced in :class:`MatchResult`, and
from there in every algorithm's ``AlgoResult.truncated``. Tests assert it
never triggers on the molecule data and that it is reported on a clique.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Iterable, Iterator, NamedTuple

from repro.graphdb.model import Graph
from repro.isomorphism.dfscode import DFSCode, Edge5, code_to_graph, rightmost_path

#: Cap on embeddings enumerated per (pattern, graph).
DEFAULT_MAX_EMB = 2000

#: A (partial) embedding ``(vmap, eids)``: ``vmap[p]`` is the graph vertex
#: bound to pattern vertex ``p``, ``eids[t]`` the graph edge bound to code
#: entry ``t``; ``len(eids)`` entries are bound.
Embedding = tuple[list[int], list[int]]


@dataclass
class MatchResult:
    """Aggregate of all embeddings of one pattern in one graph."""

    n_embeddings: int
    covered_eids: set[int]  # local edge ids within the graph
    extensions: set[Edge5]
    truncated: bool  # True if the embedding cap was hit


def _step(g: Graph, entry: Edge5, vmap: list[int], eids: list[int]) -> list[Embedding]:
    """The partial embeddings that bind ``entry`` onto ``(vmap, eids)``.

    A forward entry binds a fresh neighbour of ``vmap[i]`` to the new pattern
    vertex ``j``; a backward entry requires the graph edge between the two
    bound vertices. Each result is a new ``(vmap, eids)``; a pattern has a
    handful of vertices, so freshness is a scan of ``vmap``.
    """
    i, j, _, el, lj = entry
    out = []
    if j == len(vmap):  # forward: bind a new vertex for j
        for nbr, nel, eid in g.adj[vmap[i]]:
            if nel == el and g.vlabels[nbr] == lj and nbr not in vmap:
                out.append((vmap + [nbr], eids + [eid]))
    else:  # backward: required edge between two bound vertices
        hit = g.edge_lookup.get((vmap[i], vmap[j]))
        if hit is not None and hit[0] == el:
            out.append((vmap, eids + [hit[1]]))
    return out


def iter_embeddings(code: DFSCode, g: Graph, max_emb: int = DEFAULT_MAX_EMB):
    """Yield ``(vmap, eids)`` for each embedding of ``code`` in ``g``,
    stopping after ``max_emb``.

    ``vmap[p]`` is the graph vertex bound to pattern vertex ``p`` and
    ``eids[t]`` the graph edge bound to code entry ``t``. The search is
    depth-first over partial embeddings, so which embeddings come first when
    the cap cuts it short depends only on ``code`` and ``g``. Callers:
    :func:`match_stats` (with its cap), :func:`match_frontier` (for a parent
    that is not kept, once per graph), :func:`match_child` (from the root),
    :func:`contains` (first hit only) and the VQF step model, which places
    patterns on edge-disjoint regions of a query.
    """
    i0, j0, l0, el0, l1 = code[0]
    count = 0
    stack: list[Embedding] = []
    for v0 in range(g.n_vertices):
        if g.vlabels[v0] != l0:
            continue
        for nbr, el, eid in g.adj[v0]:
            if el == el0 and g.vlabels[nbr] == l1:
                stack.append(([v0, nbr], [eid]))
    n_entries = len(code)
    while stack:
        vmap, eids = stack.pop()
        t = len(eids)
        if t == n_entries:
            yield vmap, eids
            count += 1
            if count >= max_emb:
                return
            continue
        stack += _step(g, code[t], vmap, eids)


def _aggregate(
    embeddings: Iterable[Embedding],
    g: Graph,
    p: Graph,
    rmpath: list[int],
    *,
    want_extensions: bool,
    max_emb: int,
) -> MatchResult:
    """Fold the ``(vmap, eids)`` embeddings of pattern ``p`` in ``g`` into a
    :class:`MatchResult`; ``rmpath`` is the pattern's rightmost path and
    ``max_emb`` the cap the embeddings were enumerated under."""
    rmpath_set = set(rmpath)
    rmv = rmpath[-1]
    n_pv = p.n_vertices
    n_emb = 0
    covered: set[int] = set()
    exts: set[Edge5] = set()
    for vmap, eids in embeddings:
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
    return _aggregate(
        iter_embeddings(code, g, max_emb), g, p, rightmost_path(code),
        want_extensions=want_extensions, max_emb=max_emb,
    )


class FrontierChild(NamedTuple):
    """One frontier pattern, prepared once per :func:`match_frontier` call."""

    index: int          # position in the frontier
    code: DFSCode
    pattern: Graph      # ``code_to_graph(code)``
    rmpath: list[int]   # ``rightmost_path(code)``


#: Where each pattern of a level occurs: per pattern, ``(graph, embeddings)``
#: for every graph holding it, with the embeddings None where they reach
#: :data:`DEFAULT_MAX_EMB`.
Kept = dict[DFSCode, list[tuple[Graph, list[Embedding] | None]]]


def _complete(embeddings: Iterable[Embedding]) -> list[Embedding] | None:
    """All of ``embeddings``, enumerated under the cap, or None if they
    reach :data:`DEFAULT_MAX_EMB`: which ones survive the cap depends on the
    search order, so a capped list is no base to extend."""
    embs = list(islice(embeddings, DEFAULT_MAX_EMB))
    return None if len(embs) == DEFAULT_MAX_EMB else embs


def _parent_embeddings(
    parent: DFSCode, graphs: list[Graph]
) -> Iterator[tuple[Graph, list[Embedding] | None]]:
    """``(graph, embeddings)`` for every graph where ``parent`` occurs, its
    embeddings enumerated once per graph; None for the empty parent (in
    every graph) and where the parent is capped."""
    if not parent:
        yield from ((g, None) for g in graphs)
        return
    pattern = code_to_graph(parent)
    for g in graphs:
        if g.could_contain(pattern):
            embs = _complete(iter_embeddings(parent, g))
            if embs != []:
                yield g, embs


def match_child(
    child: FrontierChild,
    parent_embs: list[Embedding] | None,
    g: Graph,
    *,
    want_extensions: bool = True,
) -> tuple[MatchResult, list[Embedding] | None]:
    """Match ``child`` in ``g`` by extending every embedding of its parent
    (``child.code[:-1]``) in ``g`` by the child's last entry — gSpan's
    projection — or from the root when ``parent_embs`` is None.

    Returns the :class:`MatchResult`, which equals ``match_stats(child.code,
    g)``, and the child's embeddings, or None when they reach
    :data:`DEFAULT_MAX_EMB`. A child whose extension reaches the cap is
    matched from the root too; and a parent capped in ``g`` must come as
    None, since its embeddings are incomplete.
    """
    embs = None
    if parent_embs is not None:
        last = child.code[-1]
        embs = _complete(e for vmap, eids in parent_embs for e in _step(g, last, vmap, eids))
    if embs is None:
        if not g.could_contain(child.pattern):
            return MatchResult(0, set(), set(), False), []
        embs = list(islice(iter_embeddings(child.code, g), DEFAULT_MAX_EMB))
    ms = _aggregate(
        embs, g, child.pattern, child.rmpath,
        want_extensions=want_extensions, max_emb=DEFAULT_MAX_EMB,
    )
    return ms, None if ms.truncated else embs


def match_frontier(
    codes: list[DFSCode],
    graphs: list[Graph],
    *,
    want_extensions: bool = True,
    kept: Kept | None = None,
) -> Iterator[tuple[int, Graph, MatchResult, list[Embedding] | None]]:
    """Match a frontier in ``graphs``; yield ``(index, graph, MatchResult,
    embeddings)`` for every (pattern, graph) pair with an embedding, the
    embeddings as :func:`match_child` returns them.

    The codes are grouped by parent (``code[:-1]``). A parent in ``kept`` is
    taken as kept: only its graphs are tried, from its embeddings there.
    Any other parent is enumerated once per graph, and the graphs where it
    has no embedding are skipped. Each child is then matched by
    :func:`match_child`, so each result equals ``match_stats(code, g)``:
    where the parent or the child reaches the embedding cap, that child is
    matched from the root.
    """
    groups: dict[DFSCode, list[int]] = {}
    for idx, code in enumerate(codes):
        groups.setdefault(code[:-1], []).append(idx)
    for parent, indices in groups.items():
        children = [
            FrontierChild(i, codes[i], code_to_graph(codes[i]), rightmost_path(codes[i]))
            for i in indices
        ]
        where = kept.get(parent) if kept else None
        if where is None:
            where = _parent_embeddings(parent, graphs)
        for g, parent_embs in where:
            for child in children:
                ms, embs = match_child(child, parent_embs, g, want_extensions=want_extensions)
                if ms.n_embeddings:
                    yield child.index, g, ms, embs


def contains(g: Graph, pattern_code: DFSCode) -> bool:
    """True iff the pattern has at least one embedding in ``g``."""
    p = code_to_graph(pattern_code)
    if not g.could_contain(p):
        return False
    return next(iter_embeddings(pattern_code, g), None) is not None


def cover_set(code: DFSCode, g: Graph, *, max_emb: int = DEFAULT_MAX_EMB) -> set[int]:
    """``Cov(p, G)`` as a set of local edge ids (Definition 2)."""
    return match_stats(code, g, want_extensions=False, max_emb=max_emb).covered_eids

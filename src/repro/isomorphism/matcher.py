"""Embedding matcher: enumerate all subgraph-isomorphic embeddings of a
DFS-code pattern in a data graph, and derive from them

- the cover set ``Cov(p, G)`` (union of matched edge ids — Definition 2),
- the embedding count, and
- the set of rightmost extensions observed in ``G`` (the gSpan candidate
  children of ``p``).

Everything here is gSpan's one extension step
(:mod:`repro.isomorphism.dfscode`) applied to a data graph's adjacency
lists: :func:`iter_embeddings` seeds with ``first_embeddings`` and binds
entry after entry with ``step``, following the code's own DFS order, so
candidate vertices are always adjacent to the partial embedding and no
global backtracking search is needed; the extensions come from
``rightmost_extensions``, which needs no pattern graph. :func:`match_stats`
matches one pattern in one graph. :func:`match_frontier` matches a whole
enumeration level in a list of graphs, and it is the one frontier matcher
of both Spark jobs (:mod:`repro.enumeration.distributed`): it groups the
level by parent (DFS-code prefix) and extends the parent's embeddings in
each graph by each child's last entry with the same ``step``, gSpan's
projection. The level job's tasks enumerate each parent once per graph;
the tree job's matcher
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
from repro.isomorphism.dfscode import (
    DFSCode,
    Edge5,
    Embedding,
    code_to_graph,
    first_embeddings,
    rightmost_extensions,
    rightmost_path,
    step,
)

#: Cap on embeddings enumerated per (pattern, graph).
DEFAULT_MAX_EMB = 2000


@dataclass
class MatchResult:
    """Aggregate of all embeddings of one pattern in one graph."""

    n_embeddings: int
    covered_eids: set[int]  # local edge ids within the graph
    extensions: set[Edge5]
    truncated: bool  # True if the embedding cap was hit


def iter_embeddings(code: DFSCode, g: Graph, max_emb: int = DEFAULT_MAX_EMB):
    """Yield ``(vmap, eids)`` for each embedding of ``code`` in ``g``,
    stopping after ``max_emb``.

    ``vmap[p]`` is the graph vertex bound to pattern vertex ``p`` and
    ``eids[t]`` the graph edge bound to code entry ``t``. The search is
    depth-first over partial embeddings, seeded with
    :func:`~repro.isomorphism.dfscode.first_embeddings` and grown with
    :func:`~repro.isomorphism.dfscode.step`, so which embeddings come first
    when the cap cuts it short depends only on ``code`` and ``g``. Callers:
    :func:`match_stats` (with its cap), :func:`match_frontier` (for a parent
    that is not kept, once per graph), :func:`match_child` (from the root),
    :func:`contains` (first hit only) and the VQF step model, which places
    patterns on edge-disjoint regions of a query.
    """
    adj, vlabels = g.adj, g.vlabels
    stack = first_embeddings(adj, vlabels, code[0][2:])
    n_entries = len(code)
    count = 0
    while stack:
        vmap, eids = stack.pop()
        t = len(eids)
        if t == n_entries:
            yield vmap, eids
            count += 1
            if count >= max_emb:
                return
            continue
        stack += step(adj, vlabels, code[t], vmap, eids)


def _aggregate(
    embeddings: Iterable[Embedding],
    g: Graph,
    rmpath: list[int],
    *,
    want_extensions: bool,
    max_emb: int,
) -> MatchResult:
    """Fold the ``(vmap, eids)`` embeddings of a pattern in ``g`` into a
    :class:`MatchResult`; ``rmpath`` is the pattern's rightmost path and
    ``max_emb`` the cap the embeddings were enumerated under."""
    n_emb = 0
    covered: set[int] = set()
    exts: set[Edge5] = set()
    for vmap, eids in embeddings:
        n_emb += 1
        covered.update(eids)
        if want_extensions:
            exts.update(rightmost_extensions(g.adj, g.vlabels, rmpath, vmap, eids))
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
        iter_embeddings(code, g, max_emb), g, rightmost_path(code),
        want_extensions=want_extensions, max_emb=max_emb,
    )


class FrontierChild(NamedTuple):
    """One frontier pattern, prepared once per :func:`match_frontier` call."""

    index: int          # position in the frontier
    code: DFSCode
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
        embs = _complete(
            x for vmap, eids in parent_embs for x in step(g.adj, g.vlabels, last, vmap, eids)
        )
    if embs is None:
        embs = list(islice(iter_embeddings(child.code, g), DEFAULT_MAX_EMB))
    ms = _aggregate(
        embs, g, child.rmpath,
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
    has no embedding are skipped. A 1-edge child (empty parent) is tried
    only in the graphs whose ``edge_triple_set`` holds its edge-label triple.
    Each child is then matched by :func:`match_child`, so each result equals
    ``match_stats(code, g)``: where the parent or the child reaches the
    embedding cap, that child is matched from the root.
    """
    groups: dict[DFSCode, list[int]] = {}
    for idx, code in enumerate(codes):
        groups.setdefault(code[:-1], []).append(idx)
    for parent, indices in groups.items():
        children = [FrontierChild(i, codes[i], rightmost_path(codes[i])) for i in indices]
        # a root's triple in the normalized (min label, edge label, max label) order
        triples = [] if parent else [
            (min(li, lj), el, max(li, lj)) for _, _, li, el, lj in (c.code[0] for c in children)
        ]
        where = kept.get(parent) if kept else None
        if where is None:
            where = _parent_embeddings(parent, graphs)
        for g, parent_embs in where:
            todo = children if parent else [
                c for c, t in zip(children, triples) if t in g.edge_triple_set
            ]
            for child in todo:
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

"""Embedding matcher: enumerate all subgraph-isomorphic embeddings of a
DFS-code pattern in a data graph, and derive from them

- the cover set ``Cov(p, G)`` (union of matched edge ids — Definition 2),
- the embedding count, and
- the set of canonical rightmost extensions observed in ``G`` (the gSpan
  candidate children of ``p``).

Embeddings follow the code's own DFS order, so candidate vertices are always
adjacent to the partial embedding — no global backtracking search is needed.
:func:`match_stats` matches one pattern in one graph; :func:`match_frontier`
matches a whole enumeration level in one graph, enumerating the embeddings
of each shared parent (DFS-code prefix) once and extending them by each
child's last entry. :func:`match_child` is that step for one child: it
extends given parent embeddings, or matches from the root where they are
missing or reach the cap, so its result always equals :func:`match_stats`.
The tree job's level matcher
(:class:`repro.enumeration.distributed.ProjectedMatcher`) calls it with
embeddings kept from the previous level.

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
    :func:`match_stats` (with its cap), :func:`match_frontier` (for the
    shared prefix of a group of children), :func:`match_child` (from the
    root), :func:`contains` (first hit only) and the VQF step model, which
    places patterns on edge-disjoint regions of a query.
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
    """One frontier pattern, prepared once per level task."""

    index: int          # position in the frontier
    code: DFSCode
    pattern: Graph      # ``code_to_graph(code)``
    rmpath: list[int]   # ``rightmost_path(code)``


class PrefixGroup(NamedTuple):
    """The frontier patterns that share the DFS-code prefix ``code[:-1]``,
    i.e. the rightmost-extension children of one parent."""

    prefix: DFSCode        # ``()`` for 1-edge patterns
    pattern: Graph | None  # ``code_to_graph(prefix)``; None for ``()``
    children: list[FrontierChild]


def prepare_frontier(codes: list[DFSCode]) -> list[PrefixGroup]:
    """Group a frontier of equal-length or mixed codes by their prefix
    ``code[:-1]``, in order of first appearance; children keep input order."""
    groups: dict[DFSCode, list[FrontierChild]] = {}
    for idx, code in enumerate(codes):
        groups.setdefault(code[:-1], []).append(
            FrontierChild(idx, code, code_to_graph(code), rightmost_path(code))
        )
    return [
        PrefixGroup(prefix, code_to_graph(prefix) if prefix else None, children)
        for prefix, children in groups.items()
    ]


def _prefix_states(group: PrefixGroup, g: Graph) -> list[Embedding] | None:
    """Every embedding of the group's prefix in ``g``, or None when the
    children must be matched from the root: 1-edge children (empty prefix),
    or a prefix whose enumeration reaches :data:`DEFAULT_MAX_EMB`."""
    if not group.prefix:
        return None
    if not g.could_contain(group.pattern):
        return []
    embs = list(islice(iter_embeddings(group.prefix, g), DEFAULT_MAX_EMB))
    return None if len(embs) == DEFAULT_MAX_EMB else embs


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
    :data:`DEFAULT_MAX_EMB`. Which embeddings survive the cap depends on the
    search order, so a child whose extension reaches the cap is matched from
    the root too; and a parent capped in ``g`` must come as None, since its
    embeddings are incomplete.
    """
    embs = None
    if parent_embs is not None:
        last = child.code[-1]
        embs = list(islice(
            (e for vmap, eids in parent_embs for e in _step(g, last, vmap, eids)),
            DEFAULT_MAX_EMB,
        ))
        if len(embs) == DEFAULT_MAX_EMB:
            embs = None
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
    prepared: list[PrefixGroup], g: Graph, *, want_extensions: bool = True
) -> Iterator[tuple[int, MatchResult]]:
    """Match a prepared frontier in ``g``; yield ``(index, MatchResult)`` for
    every pattern with at least one embedding.

    The prefix of each group is enumerated once, and each child is matched
    from the prefix embeddings by :func:`match_child`. No child of a prefix
    without an embedding is looked at. Each result equals
    ``match_stats(code, g)``: when the prefix or the child reaches the
    embedding cap, that child is matched from the root.
    """
    for group in prepared:
        states = _prefix_states(group, g)
        if states == []:
            continue
        for child in group.children:
            ms, _ = match_child(child, states, g, want_extensions=want_extensions)
            if ms.n_embeddings:
                yield child.index, ms


def contains(g: Graph, pattern_code: DFSCode) -> bool:
    """True iff the pattern has at least one embedding in ``g``."""
    p = code_to_graph(pattern_code)
    if not g.could_contain(p):
        return False
    return next(iter_embeddings(pattern_code, g), None) is not None


def cover_set(code: DFSCode, g: Graph, *, max_emb: int = DEFAULT_MAX_EMB) -> set[int]:
    """``Cov(p, G)`` as a set of local edge ids (Definition 2)."""
    return match_stats(code, g, want_extensions=False, max_emb=max_emb).covered_eids

"""gSpan DFS codes: representation, lexicographic order, minimality, and
gSpan's one extension step.

A DFS code is a tuple of 5-tuples ``(i, j, li, el, lj)`` describing edges in
DFS discovery order over pattern vertices ``0..n-1``; ``i < j`` is a forward
edge (``j`` is a newly discovered vertex), ``i > j`` a backward edge. The
*minimal* DFS code of a graph under the gSpan order is a canonical form:
two labeled graphs are isomorphic iff their minimal codes are equal. gSpan
enumerates each isomorphism class exactly once by only growing codes that
remain minimal (``is_min``).

One projection step serves both growing candidates and testing minimality.
It works on a graph given as adjacency lists ``(adj, vlabels)``: a
:class:`Graph`'s, or a code's own. An :data:`Embedding` ``(vmap, eids)``
binds a code prefix to the graph; :func:`first_embeddings` binds the first
entry, :func:`step` binds the next entry onto an embedding, and
:func:`rightmost_extensions` lists the entries an embedding can grow by.
:func:`min_code_of_graph` and :func:`is_min` regrow a code over its graph
with them, picking or checking the least extension at each entry; the
matcher (:mod:`repro.isomorphism.matcher`) enumerates a code's embeddings
in data graphs and collects its candidate children with the same three.

Reference: Yan & Han, "gSpan: Graph-Based Substructure Pattern Mining",
ICDM 2002 (paper's [9]).
"""
from __future__ import annotations

from typing import Iterator, Sequence

from repro.graphdb.model import Graph, make_graph

#: One DFS-code entry: (i, j, label_i, edge_label, label_j).
Edge5 = tuple[int, int, str, str, str]
#: A full DFS code.
DFSCode = tuple[Edge5, ...]


def edge_lt(a: Edge5, b: Edge5) -> bool:
    """gSpan lexicographic order on DFS-code entries (``a < b``).

    Structural order on ``(i, j)`` first (forward/backward rules of the gSpan
    paper), then label order ``(li, el, lj)`` when structure ties.
    """
    ia, ja, ib, jb = a[0], a[1], b[0], b[1]
    if (ia, ja) != (ib, jb):
        fa, fb = ia < ja, ib < jb
        if fa and fb:  # both forward
            return ja < jb or (ja == jb and ia > ib)
        if not fa and not fb:  # both backward
            return ia < ib or (ia == ib and ja < jb)
        if not fa:  # a backward, b forward
            return ia < jb
        return ja <= ib  # a forward, b backward
    return a[2:] < b[2:]


def _entry_key(e: Edge5) -> tuple:
    """A sort key for one DFS-code entry whose tuple order is :func:`edge_lt`:
    ``(j, 0, -i, ...)`` for a forward entry, ``(i, 1, j, ...)`` for a
    backward one, then the labels."""
    i, j, li, el, lj = e
    return (j, 0, -i, li, el, lj) if i < j else (i, 1, j, li, el, lj)


def code_key(code: DFSCode) -> tuple:
    """Sort key for the total order on DFS codes: entry-wise :func:`edge_lt`,
    a proper prefix before its extensions."""
    return tuple(map(_entry_key, code))


def code_to_graph(code: DFSCode, gid: int = -1) -> Graph:
    """Materialize the pattern graph described by a DFS code."""
    n = max(max(i, j) for i, j, *_ in code) + 1
    vlabels = [""] * n
    edges = []
    for i, j, li, el, lj in code:
        vlabels[i] = li
        vlabels[j] = lj
        edges.append((i, j, el))
    return make_graph(gid, vlabels, edges)


def rightmost_path(code: DFSCode) -> list[int]:
    """Pattern-vertex ids on the rightmost path, root first.

    The rightmost vertex is the latest-discovered vertex; the path follows
    forward edges back to the root. Depends only on the code, not on any
    particular embedding.
    """
    rm = max(max(i, j) for i, j, *_ in code)
    path = [rm]
    cur = rm
    for i, j, *_ in reversed(code):
        if i < j and j == cur:  # forward edge ending at cur
            path.append(i)
            cur = i
    path.reverse()
    if path[0] != 0:
        raise ValueError(f"malformed code (rightmost path {path}): {code}")
    return path


#: An embedding of a code's first ``len(eids)`` entries in a graph:
#: ``vmap[p]`` is the graph vertex bound to pattern vertex ``p``, ``eids[t]``
#: the graph edge bound to code entry ``t``.
Embedding = tuple[list[int], list[int]]
#: ``adj[u]`` = the ``(neighbor, elabel, eid)`` of every edge at ``u``.
Adj = Sequence[Sequence[tuple[int, str, int]]]


def first_embeddings(
    adj: Adj, vlabels: Sequence[str], labels: tuple[str, str, str]
) -> list[Embedding]:
    """The embeddings of the first entry ``(0, 1, *labels)`` in the graph
    ``(adj, vlabels)``: every edge orientation ``(a, b)`` whose label triple
    is ``labels``, in vertex order of ``a``, then in ``adj[a]`` order."""
    l0, el0, l1 = labels
    return [
        ([a, b], [eid])
        for a, la in enumerate(vlabels)
        if la == l0
        for b, el, eid in adj[a]
        if el == el0 and vlabels[b] == l1
    ]


def step(
    adj: Adj, vlabels: Sequence[str], entry: Edge5, vmap: list[int], eids: list[int]
) -> list[Embedding]:
    """The embeddings that bind ``entry``, the code's next entry, onto the
    embedding ``(vmap, eids)`` in the graph ``(adj, vlabels)``.

    A forward entry binds a fresh neighbour of ``vmap[i]`` to the new pattern
    vertex ``j``; a backward entry needs the graph edge between the two
    bound vertices. Each result is a new ``(vmap, eids)``; a pattern has a
    handful of vertices, so freshness is a scan of ``vmap``.
    """
    i, j, _, el, lj = entry
    if j == len(vmap):  # forward: bind a new vertex for j
        return [
            (vmap + [b], eids + [eid])
            for b, bel, eid in adj[vmap[i]]
            if bel == el and vlabels[b] == lj and b not in vmap
        ]
    gj = vmap[j]  # backward: the edge between two bound vertices
    return [(vmap, eids + [eid]) for b, bel, eid in adj[vmap[i]] if b == gj and bel == el]


def rightmost_extensions(
    adj: Adj, vlabels: Sequence[str], rmpath: list[int], vmap: list[int], eids: list[int]
) -> Iterator[Edge5]:
    """Every rightmost extension of the embedding ``(vmap, eids)`` of a code
    with rightmost path ``rmpath``, in the graph ``(adj, vlabels)``, as the
    code entry it appends (repeats included).

    Backward: the rightmost vertex to an earlier rightmost-path vertex,
    along a graph edge the embedding does not use; in a simple graph that is
    exactly a pattern edge the code lacks. Forward: any rightmost-path
    vertex to a graph vertex the embedding does not bind.
    """
    rmv = rmpath[-1]
    grm = vmap[rmv]
    for b, el, eid in adj[grm]:
        if b in vmap and eid not in eids:
            j = vmap.index(b)
            if j in rmpath:
                yield (rmv, j, vlabels[grm], el, vlabels[b])
    n = len(vmap)
    for i in rmpath:
        gi = vmap[i]
        for b, el, _ in adj[gi]:
            if b not in vmap:
                yield (i, n, vlabels[gi], el, vlabels[b])


def _next_rmpath(rmpath: list[int], e: Edge5) -> list[int]:
    """The rightmost path after appending entry ``e`` to a code whose
    rightmost path is ``rmpath``."""
    i, j = e[0], e[1]
    return rmpath[: rmpath.index(i) + 1] + [j] if i < j else rmpath


def min_code_of_graph(g: Graph) -> DFSCode:
    """The canonical (minimal) DFS code of the connected graph ``g``:
    ``min_code_of_graph(g1) == min_code_of_graph(g2)`` iff ``g1`` and ``g2``
    are isomorphic.

    Grows the code one entry at a time, keeping every embedding of the
    current minimal prefix and picking the globally minimal rightmost
    extension at each step — the greedy choice is globally optimal because
    DFS-code comparison is lexicographic in the entry sequence.
    """
    if g.n_edges == 0:
        raise ValueError("DFS codes are defined for graphs with >= 1 edge")
    adj, vlabels = g.adj, g.vlabels
    first = min(
        min((vlabels[u], el, vlabels[v]), (vlabels[v], el, vlabels[u]))
        for u, v, el in g.edges
    )
    code: list[Edge5] = [(0, 1, *first)]
    rmpath = [0, 1]
    embs = first_embeddings(adj, vlabels, first)
    while len(code) < g.n_edges:
        best = min(
            (e for vmap, eids in embs for e in rightmost_extensions(adj, vlabels, rmpath, vmap, eids)),
            key=_entry_key,
        )
        code.append(best)
        rmpath = _next_rmpath(rmpath, best)
        embs = [x for vmap, eids in embs for x in step(adj, vlabels, best, vmap, eids)]
    return tuple(code)


def is_min(code: DFSCode) -> bool:
    """True iff ``code`` is the canonical minimal code of its own graph.

    The minimal code starts from the smallest edge triple over both
    orientations of every edge, so a code with an entry whose smaller
    orientation sorts below its first entry's labels is rejected before any
    search (gSpan's cheap pre-check). Otherwise the code is regrown on its
    own graph as in :func:`min_code_of_graph`, keeping only the embeddings
    of ``code[:t]``, and rejected at the first step where some rightmost
    extension sorts below ``code[t]`` or none equals it. The graph is the
    code's adjacency lists (edge id = position in the code), not a
    :class:`Graph`, whose construction would cost about as much as the
    search.
    """
    first = code[0][2:]
    for _, _, li, el, lj in code:
        if min((li, el, lj), (lj, el, li)) < first:
            return False
    n = max(max(i, j) for i, j, *_ in code) + 1
    vlabels = [""] * n
    adj: list[list[tuple[int, str, int]]] = [[] for _ in range(n)]
    for eid, (i, j, li, el, lj) in enumerate(code):
        vlabels[i], vlabels[j] = li, lj
        adj[i].append((j, el, eid))
        adj[j].append((i, el, eid))
    rmpath = [0, 1]
    embs = first_embeddings(adj, vlabels, first)
    for entry in code[1:]:
        found = False
        for vmap, eids in embs:
            for e in rightmost_extensions(adj, vlabels, rmpath, vmap, eids):
                if e == entry:
                    found = True
                elif edge_lt(e, entry):
                    return False
        if not found:  # not a rightmost-extension code at all
            return False
        rmpath = _next_rmpath(rmpath, entry)
        embs = [x for vmap, eids in embs for x in step(adj, vlabels, entry, vmap, eids)]
    return True


def encode(code: DFSCode) -> str:
    """Serialize a code to a compact string. The benchmark's reference
    answers and the VQF pattern table use it, and the level job's ``exts``
    column holds each extension as the string of a one-entry code."""
    return ";".join(f"{i},{j},{li},{el},{lj}" for i, j, li, el, lj in code)


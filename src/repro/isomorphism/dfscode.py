"""gSpan DFS codes: representation, lexicographic order, minimality.

A DFS code is a tuple of 5-tuples ``(i, j, li, el, lj)`` describing edges in
DFS discovery order over pattern vertices ``0..n-1``; ``i < j`` is a forward
edge (``j`` is a newly discovered vertex), ``i > j`` a backward edge. The
*minimal* DFS code of a graph under the gSpan order is a canonical form:
two labeled graphs are isomorphic iff their minimal codes are equal. gSpan
enumerates each isomorphism class exactly once by only growing codes that
remain minimal (``is_min``).

Reference: Yan & Han, "gSpan: Graph-Based Substructure Pattern Mining",
ICDM 2002 (paper's [9]).
"""
from __future__ import annotations

from typing import Iterable, Iterator, Sequence

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


#: An embedding of a code onto the vertices of the graph the code is
#: searched in: (vmap, inverse of vmap, used edge ids).
_Emb = tuple[list[int], dict[int, int], frozenset[int]]
#: ``adj[u]`` = the ``(neighbor, elabel, eid)`` of every edge at ``u``.
_Adj = Sequence[Sequence[tuple[int, str, int]]]


def _first_entry_states(
    edges: Iterable[tuple[int, int, str]], vlabels: Sequence[str], labels: tuple[str, str, str]
) -> list[_Emb]:
    """Every orientation ``(a, b)`` of an edge (``eid`` = position in
    ``edges``) whose label triple is ``labels``, as an embedding of the
    first entry ``(0, 1, *labels)``."""
    return [
        ([a, b], {a: 0, b: 1}, frozenset([eid]))
        for eid, (u, v, el) in enumerate(edges)
        for a, b in ((u, v), (v, u))
        if (vlabels[a], el, vlabels[b]) == labels
    ]


def _next_rmpath(rmpath: list[int], e: Edge5) -> list[int]:
    """The rightmost path after appending entry ``e`` to a code whose
    rightmost path is ``rmpath``."""
    i, j = e[0], e[1]
    return rmpath[: rmpath.index(i) + 1] + [j] if i < j else rmpath


def _rightmost_extensions(
    adj: _Adj, vlabels: Sequence[str], rmpath: list[int], states: list[_Emb]
) -> Iterator[tuple[Edge5, _Emb, int, int | None]]:
    """Every rightmost extension of every embedding in ``states`` of a code
    with rightmost path ``rmpath``, along an edge of the graph
    ``(adj, vlabels)`` that the embedding does not use yet.

    Yields ``(entry, state, eid, new_vertex)``; ``new_vertex`` is the graph
    vertex a forward entry discovers and None for a backward entry.
    :func:`_grow` builds the extended embeddings of the picked ones.
    """
    rmpath_set = set(rmpath)
    rmv = rmpath[-1]
    for state in states:
        vmap, inv, used = state
        # Backward extensions: rightmost vertex -> earlier rightmost-path vertex.
        gv = vmap[rmv]
        for nbr, el, eid in adj[gv]:
            if eid in used:
                continue
            j = inv.get(nbr)
            if j is None or j not in rmpath_set or j == rmv:
                continue
            yield (rmv, j, vlabels[gv], el, vlabels[nbr]), state, eid, None
        # Forward extensions: any rightmost-path vertex -> new vertex.
        n_mapped = len(vmap)
        for pi in rmpath:
            gv2 = vmap[pi]
            for nbr, el, eid in adj[gv2]:
                if eid in used or nbr in inv:
                    continue
                yield (pi, n_mapped, vlabels[gv2], el, vlabels[nbr]), state, eid, nbr


def _grow(picks: list[tuple[_Emb, int, int | None]]) -> list[_Emb]:
    """The distinct embeddings the picked ``(state, eid, new_vertex)``
    extensions lead to (symmetric graphs produce repeats)."""
    seen: set[tuple[tuple[int, ...], frozenset[int]]] = set()
    out: list[_Emb] = []
    for (vmap, inv, used), eid, nbr in picks:
        if nbr is not None:
            vmap, inv = vmap + [nbr], {**inv, nbr: len(vmap)}
        used = used | {eid}
        key = (tuple(vmap), used)
        if key not in seen:
            seen.add(key)
            out.append((vmap, inv, used))
    return out


def min_code_of_graph(g: Graph) -> DFSCode:
    """The canonical (minimal) DFS code of ``g``.

    Grows the code one entry at a time, keeping every embedding of the
    current minimal prefix and picking the globally minimal rightmost
    extension at each step — the greedy choice is globally optimal because
    DFS-code comparison is lexicographic in the entry sequence.
    """
    if g.n_edges == 0:
        raise ValueError("DFS codes are defined for graphs with >= 1 edge")
    first = min(
        min((g.vlabels[u], el, g.vlabels[v]), (g.vlabels[v], el, g.vlabels[u]))
        for u, v, el in g.edges
    )
    code: list[Edge5] = [(0, 1, *first)]
    rmpath = [0, 1]
    states = _first_entry_states(g.edges, g.vlabels, first)
    while len(code) < g.n_edges:
        best: Edge5 | None = None
        picks: list[tuple[_Emb, int, int | None]] = []
        for t, state, eid, nbr in _rightmost_extensions(g.adj, g.vlabels, rmpath, states):
            if best is None or edge_lt(t, best):
                best, picks = t, [(state, eid, nbr)]
            elif t == best:
                picks.append((state, eid, nbr))
        assert best is not None, "connected graph must always extend"
        code.append(best)
        rmpath = _next_rmpath(rmpath, best)
        states = _grow(picks)
    return tuple(code)


def is_min(code: DFSCode) -> bool:
    """True iff ``code`` is the canonical minimal code of its own graph.

    The minimal code starts from the smallest edge triple over both
    orientations of every edge, so a code with an entry whose smaller
    orientation sorts below its first entry's labels is rejected before any
    search (gSpan's cheap pre-check). Otherwise the code is regrown on its
    own graph as in :func:`min_code_of_graph`, keeping only the embeddings
    that reproduce ``code[:t]``, and rejected at the first step where some
    rightmost extension sorts below ``code[t]``. The graph is the code's
    adjacency lists (edge id = position in the code), not a :class:`Graph`,
    whose construction would cost about as much as the search.
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
    states = _first_entry_states([(i, j, el) for i, j, _, el, _ in code], vlabels, first)
    for target in code[1:]:
        picks: list[tuple[_Emb, int, int | None]] = []
        for e, state, eid, nbr in _rightmost_extensions(adj, vlabels, rmpath, states):
            if e == target:
                picks.append((state, eid, nbr))
            elif edge_lt(e, target):
                return False
        if not picks:  # not a rightmost-extension code at all
            return False
        rmpath = _next_rmpath(rmpath, target)
        states = _grow(picks)
    return True


def canonical(g: Graph) -> DFSCode:
    """Canonical form of a labeled graph (alias of :func:`min_code_of_graph`).

    ``canonical(g1) == canonical(g2)`` iff ``g1`` and ``g2`` are isomorphic.
    """
    return min_code_of_graph(g)


def encode(code: DFSCode) -> str:
    """Serialize a code to a compact string (for Arrow columns / broadcast)."""
    return ";".join(f"{i},{j},{li},{el},{lj}" for i, j, li, el, lj in code)


def decode(s: str) -> DFSCode:
    """Inverse of :func:`encode`."""
    out = []
    for part in s.split(";"):
        i, j, li, el, lj = part.split(",")
        out.append((int(i), int(j), li, el, lj))
    return tuple(out)

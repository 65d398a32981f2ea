"""Small labeled undirected graph — the unit stored in a graph database.

A :class:`Graph` is immutable and hashable. Vertices are ``0..n-1`` with
string labels; edges are undirected ``(u, v, elabel)`` triples normalized to
``u < v``. Edge ids are positions in the ``edges`` tuple; the *global* edge
key combines ``(gid, eid)`` into one int64 so cover sets across the whole
database are flat integer sets (cheap to union, hash, and ship through
Arrow).
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

#: Shift for packing (gid, eid) into one int64. Supports up to ~1M edges per
#: graph and ~8.7e12 graphs — far beyond any database here.
_EID_BITS = 20
_EID_MASK = (1 << _EID_BITS) - 1

#: Edge label used for "unlabeled" edges. Per the paper's footnote 5, an
#: unlabeled edge behaves as if labeled by the concatenation of its endpoint
#: labels; matching always compares (ul, el, vl) triples, so a constant
#: sentinel label is equivalent.
UNLABELED = "-"


def edge_key(gid: int, eid: int) -> int:
    """Pack a (graph id, edge id) pair into a single int64 cover-set key."""
    return (gid << _EID_BITS) | eid


def split_edge_key(key: int) -> tuple[int, int]:
    """Inverse of :func:`edge_key`."""
    return key >> _EID_BITS, key & _EID_MASK


@dataclass(frozen=True)
class Graph:
    """An immutable small labeled graph.

    Attributes:
        gid: unique index of the graph within its database (-1 for patterns).
        vlabels: vertex labels, position = vertex id.
        edges: normalized ``(u, v, elabel)`` triples with ``u < v``; the
            position of a triple is the edge id used in cover sets.
    """

    gid: int
    vlabels: tuple[str, ...]
    edges: tuple[tuple[int, int, str], ...]

    def __post_init__(self) -> None:
        for u, v, _ in self.edges:
            if not (0 <= u < v < len(self.vlabels)):
                raise ValueError(f"bad edge ({u},{v}) for {len(self.vlabels)} vertices")
        if len({(u, v) for u, v, _ in self.edges}) != len(self.edges):
            raise ValueError("parallel edges are not allowed (simple graph)")

    @property
    def n_vertices(self) -> int:
        return len(self.vlabels)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    @cached_property
    def adj(self) -> tuple[tuple[tuple[int, str, int], ...], ...]:
        """Adjacency: ``adj[u]`` = tuple of ``(neighbor, elabel, eid)``."""
        a: list[list[tuple[int, str, int]]] = [[] for _ in range(self.n_vertices)]
        for eid, (u, v, el) in enumerate(self.edges):
            a[u].append((v, el, eid))
            a[v].append((u, el, eid))
        return tuple(tuple(x) for x in a)

    @cached_property
    def label_multiset(self) -> dict[str, int]:
        """Vertex-label counts — a cheap containment pre-filter."""
        d: dict[str, int] = {}
        for l in self.vlabels:
            d[l] = d.get(l, 0) + 1
        return d

    @cached_property
    def edge_triple_set(self) -> frozenset[tuple[str, str, str]]:
        """Set of normalized (min_label, elabel, max_label) edge triples."""
        return frozenset(
            (min(self.vlabels[u], self.vlabels[v]), el, max(self.vlabels[u], self.vlabels[v]))
            for u, v, el in self.edges
        )

    def is_connected(self) -> bool:
        """BFS connectivity check (isolated vertices count as disconnecting)."""
        if self.n_vertices == 0:
            return True
        seen = {0}
        stack = [0]
        while stack:
            u = stack.pop()
            for v, _, _ in self.adj[u]:
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        return len(seen) == self.n_vertices

    def could_contain(self, pattern: "Graph") -> bool:
        """Necessary (not sufficient) conditions for ``pattern ⊆ self``.

        Used as a pre-filter before running the embedding matcher.
        """
        if pattern.n_vertices > self.n_vertices or pattern.n_edges > self.n_edges:
            return False
        mine = self.label_multiset
        for l, c in pattern.label_multiset.items():
            if mine.get(l, 0) < c:
                return False
        return pattern.edge_triple_set <= self.edge_triple_set

    def relabel(self, gid: int) -> "Graph":
        """Copy with a different graph id."""
        return Graph(gid, self.vlabels, self.edges)


def make_graph(
    gid: int,
    vlabels: list[str] | tuple[str, ...],
    edges: list[tuple[int, int] | tuple[int, int, str]],
) -> Graph:
    """Convenience constructor: normalizes edge orientation, defaults the
    edge label to :data:`UNLABELED`, and sorts edges for a canonical id order."""
    norm = []
    for e in edges:
        u, v = e[0], e[1]
        el = e[2] if len(e) > 2 else UNLABELED
        if u > v:
            u, v = v, u
        norm.append((u, v, el))
    norm.sort()
    return Graph(gid, tuple(vlabels), tuple(norm))


def induced_subgraph(g: Graph, eids: frozenset[int]) -> Graph:
    """Subgraph of ``g`` on the given edges, vertices relabeled to 0..m-1."""
    verts = sorted({x for eid in eids for x in g.edges[eid][:2]})
    remap = {v: i for i, v in enumerate(verts)}
    return Graph(
        -1,
        tuple(g.vlabels[v] for v in verts),
        tuple(sorted((remap[u], remap[v], el) for u, v, el in (g.edges[e] for e in sorted(eids)))),
    )

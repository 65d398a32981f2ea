"""The paper's analytical VQF step model (Section 7.1).

Assumptions, verbatim from the paper: (1) a pattern p in P can be used to
construct query Q iff p is a subgraph of Q; (2) multiple used patterns
occupy non-overlapping isomorphic subgraphs of Q. One pattern placement is
one step (pattern-at-a-time); each remaining edge is one step
(edge-at-a-time). ``Steps`` is the *minimum* step count under greedy
largest-pattern-first edge-disjoint packing (exact minimum packing is
NP-hard; greedy is the standard estimate and is applied identically to every
compared pattern set).
"""
from __future__ import annotations

from repro.graphdb.model import Graph
from repro.isomorphism.dfscode import DFSCode
from repro.isomorphism.matcher import contains, iter_embeddings


def usable_patterns(patterns: list[DFSCode], query: Graph) -> list[DFSCode]:
    """Patterns usable for Q — assumption (1): p subgraph-isomorphic to Q."""
    return [p for p in patterns if contains(query, p)]


def formulation_steps(patterns: list[DFSCode], query: Graph) -> tuple[int, int]:
    """``(steps, n_patterns_placed)`` to build Q with pattern set P.

    Greedy: repeatedly place the largest usable pattern on an embedding
    whose edges are all still unconstructed; leftover edges cost one step
    each.
    """
    usable = sorted(usable_patterns(patterns, query), key=len, reverse=True)
    used_edges: set[int] = set()
    placements = 0
    for code in usable:
        if len(code) <= 1:
            continue  # a 1-edge pattern is no better than edge-at-a-time
        placed = True
        while placed:
            placed = False
            for _, eids in iter_embeddings(code, query):
                if not (set(eids) & used_edges):
                    used_edges.update(eids)
                    placements += 1
                    placed = True
                    break
    remaining = query.n_edges - len(used_edges)
    return placements + remaining, placements


def reduction_ratio(steps_x: int, steps_ted: int) -> float:
    """RR = (Steps_X - Steps_TED) / Steps_X (Section 7.1)."""
    return (steps_x - steps_ted) / steps_x if steps_x else 0.0

"""Greedy max-k-cover — the paper's MaxCover procedure (Algorithm 1,
lines 4–9), with the classical (1 - 1/e) guarantee."""
from __future__ import annotations

from typing import Hashable


def greedy_max_cover(
    sets: dict[Hashable, frozenset[int]], k: int
) -> tuple[list[Hashable], set[int]]:
    """Pick up to ``k`` keys greedily maximizing marginal coverage.

    Ties break on insertion order of ``sets`` (callers pass DFS-code order,
    making results deterministic). Returns the chosen keys (in pick order)
    and the union of their sets.
    """
    chosen: list[Hashable] = []
    covered: set[int] = set()
    remaining = dict(sets)
    for _ in range(min(k, len(sets))):
        best_key, best_gain = None, 0
        for key, s in remaining.items():
            gain = len(s - covered)
            if gain > best_gain:
                best_key, best_gain = key, gain
        if best_key is None:  # nothing adds coverage
            break
        chosen.append(best_key)
        covered |= remaining.pop(best_key)
    return chosen, covered

"""PatternMaintain — Algorithm 3 lines 8–16.

Keeps at most ``k`` patterns. While P has fewer than ``k`` patterns every
offered candidate is inserted; afterwards a candidate ``g`` is swapped in
for the minimum-loss pattern ``p_t`` iff the swapping criterion (Eq. 1)

    Score_B > (1 + alpha) * Score_L + (1 - alpha) * |Cov(P, D)| / k

holds. ``alpha = 1`` is Swap_1 [23], ``alpha = 0`` is Swap_2 [24], and
``alpha in (0, 1)`` is Swap_alpha [25]. All score bookkeeping lives in the
PES-Index.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.pes_index import PESIndex
from repro.isomorphism.dfscode import DFSCode


@dataclass
class MaintainerStats:
    n_offered: int = 0
    n_inserted: int = 0   # accepted while |P| < k
    n_swaps: int = 0      # accepted via the swapping criterion
    n_rejected: int = 0


@dataclass
class PatternMaintainer:
    """Streaming top-k pattern set with swap-based maintenance."""

    k: int
    alpha: float = 1.0
    index: PESIndex = field(default_factory=PESIndex)
    stats: MaintainerStats = field(default_factory=MaintainerStats)

    def __len__(self) -> int:
        return len(self.index.cover_sets)

    @property
    def patterns(self) -> list[DFSCode]:
        return list(self.index.cover_sets)

    @property
    def coverage(self) -> int:
        return self.index.cov_total

    def __contains__(self, code: DFSCode) -> bool:
        return code in self.index.cover_sets

    def swap_threshold(self) -> float:
        """RHS of Eq. 1 for the current P — also the PRM pruning threshold."""
        score_l, _ = self.index.select()
        return (1 + self.alpha) * score_l + (1 - self.alpha) * self.index.cov_total / self.k

    def offer(self, code: DFSCode, cover: frozenset[int]) -> bool:
        """Consider one enumerated pattern; returns True iff it entered P."""
        self.stats.n_offered += 1
        if len(self) < self.k:
            self.index.insert(code, cover)
            self.stats.n_inserted += 1
            return True
        if self.index.benefit(cover) > self.swap_threshold():
            _, p_t = self.index.select()
            self.index.update(p_t, code, cover)
            self.stats.n_swaps += 1
            return True
        self.stats.n_rejected += 1
        return False

"""Uniform result record for TED, its variants, and all baselines —
everything the paper's tables/figures report about one run."""
from __future__ import annotations

from dataclasses import dataclass, field

from repro.isomorphism.dfscode import DFSCode


@dataclass
class AlgoResult:
    """Outcome + instrumentation of one pattern-discovery run."""

    name: str
    patterns: list[DFSCode]
    coverage: int                 # |Cov(P, D)|
    total_edges: int              # sum of |E(G)| over D
    elapsed_s: float              # paper's Processing Time
    timed_out: bool = False       # paper's INF
    truncated: bool = False       # a (pattern, graph) hit the embedding cap
    index_time_s: float = 0.0     # Table 4: PES-Index maintenance time
    index_size_bytes: int = 0     # Table 3: PES-Index size
    n_enumerated: int = 0         # patterns streamed through the search
    n_pruned: int = 0             # subtrees cut by PRM
    n_swaps: int = 0
    stored_candidate_bytes: int = 0  # ALL/FSG: footprint of materialized S
    extra: dict = field(default_factory=dict)

    @property
    def coverage_rate(self) -> float:
        """Paper's Coverage Rate: covered edges / total edges in D."""
        return self.coverage / self.total_edges if self.total_edges else 0.0

    def row(self) -> dict:
        """Flat dict for tables / EXPERIMENTS.md."""
        return {
            "algo": self.name,
            "coverage_rate": round(self.coverage_rate, 4),
            "coverage": self.coverage,
            "truncated": self.truncated,
            "time_s": "INF" if self.timed_out else round(self.elapsed_s, 2),
            "index_time_s": round(self.index_time_s, 3),
            "index_kb": round(self.index_size_bytes / 1024, 1),
            "n_enumerated": self.n_enumerated,
            "n_pruned": self.n_pruned,
            "n_swaps": self.n_swaps,
        }

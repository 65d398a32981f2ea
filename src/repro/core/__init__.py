"""The paper's contribution: PES-Index, swapping-based PatternMaintain,
the TED framework (base / PRM / IPS / full), and the four adapted baselines
ALL_g, ALL_t, FSG_g, FSG_t plus the exact-OPT reference wiring."""
from repro.core.pes_index import PESIndex
from repro.core.maintain import PatternMaintainer
from repro.core.result import AlgoResult
from repro.core.ted import ted
from repro.core.baselines import all_g, all_t, fsg_g, fsg_t, opt_exact

__all__ = [
    "PESIndex",
    "PatternMaintainer",
    "AlgoResult",
    "ted",
    "all_g",
    "all_t",
    "fsg_g",
    "fsg_t",
    "opt_exact",
]

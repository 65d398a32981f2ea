"""Distributed subgraph enumeration substrate: level-synchronous gSpan over
Spark, either as one scan/aggregate job per DFS level (TED and FSG, with
frequent-subgraph mining by support-threshold pruning) or as one job whose
tasks each mine the whole pattern tree of their graphs (ALL_g, ALL_t, OPT).
Both jobs match a level with the same frontier matcher."""
from repro.enumeration.distributed import PatternLevelStats, match_level, match_level_df
from repro.enumeration.gspan import EnumStats, enumerate_gspan, level1_codes

__all__ = [
    "PatternLevelStats",
    "match_level",
    "match_level_df",
    "EnumStats",
    "enumerate_gspan",
    "level1_codes",
]

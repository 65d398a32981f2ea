"""Distributed subgraph enumeration substrate: level-synchronous gSpan over
Spark, either as one job per DFS level over a call's graph-resident
database handle (TED and FSG, with frequent-subgraph mining by
support-threshold pruning) or as one job whose tasks each mine the whole
pattern tree of their graphs (ALL_g, ALL_t, OPT). Both jobs run on the same
graph-partitioned RDD of graphs and match a level with the same frontier
matcher."""
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

"""VINCENT / user-study simulation substrate (Section 6, Exp 6–7).

Replaces the paper's 15 human volunteers with the paper's own analytical
step model (Section 7.1): a pattern is usable for query Q iff it is a
subgraph of Q; used patterns occupy edge-disjoint embeddings; remaining
edges are added one-at-a-time. Provides the FS and CATAPULT-lite comparator
pattern sets, query sampling, and the motif-library stand-in for PubChem
biological importance."""
from repro.vqf.fs import top_k_frequent
from repro.vqf.catapult import catapult_lite
from repro.vqf.steps import usable_patterns, formulation_steps, reduction_ratio
from repro.vqf.queries import sample_query, frequent_query, query_set
from repro.vqf.repository import bio_importance_count

__all__ = [
    "top_k_frequent",
    "catapult_lite",
    "usable_patterns",
    "formulation_steps",
    "reduction_ratio",
    "sample_query",
    "frequent_query",
    "query_set",
    "bio_importance_count",
]

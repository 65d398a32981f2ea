"""Graph-database substrate: labeled-graph model, synthetic molecule
generators (stand-ins for AIDS / eMol / PubChem), the Spark edge-table
encoding, and the graph-resident handle every distributed job runs on."""
from repro.graphdb.model import Graph, edge_key, split_edge_key
from repro.graphdb.generator import molecule_db, motif_library, PROFILES
from repro.graphdb.spark_io import (
    EDGE_SCHEMA,
    to_edges_df,
    to_edges_pandas,
    graphs_from_rows,
    GraphDB,
    db_stats,
    per_graph_edge_counts,
)

__all__ = [
    "Graph",
    "edge_key",
    "split_edge_key",
    "molecule_db",
    "motif_library",
    "PROFILES",
    "EDGE_SCHEMA",
    "to_edges_df",
    "to_edges_pandas",
    "graphs_from_rows",
    "GraphDB",
    "db_stats",
    "per_graph_edge_counts",
]

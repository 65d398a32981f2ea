"""Unit tests for the labeled-graph model."""
import pytest

from repro.graphdb.model import Graph, edge_key, make_graph, split_edge_key
from tests.helpers import random_connected_graph


class TestConstruction:
    def test_make_graph_normalizes_orientation(self):
        g = make_graph(0, ["C", "N"], [(1, 0)])
        assert g.edges == ((0, 1, "-"),)

    def test_make_graph_sorts_edges(self):
        g = make_graph(0, ["C", "N", "O"], [(1, 2), (0, 1)])
        assert g.edges == ((0, 1, "-"), (1, 2, "-"))

    def test_explicit_edge_label(self):
        g = make_graph(0, ["C", "C"], [(0, 1, "2")])
        assert g.edges[0][2] == "2"

    def test_rejects_out_of_range_edge(self):
        with pytest.raises(ValueError):
            Graph(0, ("C",), ((0, 1, "-"),))

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            Graph(0, ("C", "N"), ((1, 1, "-"),))

    def test_rejects_parallel_edges(self):
        with pytest.raises(ValueError):
            Graph(0, ("C", "N"), ((0, 1, "-"), (0, 1, "2")))

    def test_counts(self):
        g = make_graph(0, ["C", "N", "O"], [(0, 1), (1, 2)])
        assert g.n_vertices == 3 and g.n_edges == 2

    def test_hashable_and_frozen(self):
        g = make_graph(0, ["C", "N"], [(0, 1)])
        assert hash(g) == hash(make_graph(0, ["C", "N"], [(0, 1)]))
        with pytest.raises(Exception):
            g.gid = 5


class TestAdjacency:
    def test_adjacency_symmetric(self):
        g = make_graph(0, ["C", "N", "O"], [(0, 1), (1, 2)])
        assert (1, "-", 0) in g.adj[0]
        assert (0, "-", 0) in g.adj[1]
        assert (2, "-", 1) in g.adj[1]

    @pytest.mark.parametrize("seed", range(10))
    def test_adjacency_degree_sums_to_twice_edges(self, seed):
        g = random_connected_graph(seed)
        assert sum(len(a) for a in g.adj) == 2 * g.n_edges


class TestEdgeKey:
    @pytest.mark.parametrize("gid,eid", [(0, 0), (1, 7), (42, 999), (39999, 1000), (10**6, 2**20 - 1)])
    def test_round_trip(self, gid, eid):
        assert split_edge_key(edge_key(gid, eid)) == (gid, eid)

    def test_keys_unique_across_graphs(self):
        keys = {edge_key(g, e) for g in range(100) for e in range(50)}
        assert len(keys) == 5000


class TestPrefilters:
    def test_could_contain_label_multiset(self):
        big = make_graph(0, ["C", "C", "N"], [(0, 1), (1, 2)])
        small = make_graph(-1, ["C", "N"], [(0, 1)])
        assert big.could_contain(small)
        assert not small.could_contain(big)

    def test_could_contain_edge_triples(self):
        g = make_graph(0, ["C", "C", "N"], [(0, 1), (1, 2)])
        p = make_graph(-1, ["N", "N"], [(0, 1)])
        assert not g.could_contain(p)

    def test_could_contain_respects_edge_labels(self):
        g = make_graph(0, ["C", "C"], [(0, 1, "1")])
        p = make_graph(-1, ["C", "C"], [(0, 1, "2")])
        assert not g.could_contain(p)

    def test_label_multiset(self):
        g = make_graph(0, ["C", "C", "N"], [(0, 1), (1, 2)])
        assert g.label_multiset == {"C": 2, "N": 1}


class TestConnectivity:
    def test_connected_path(self):
        assert make_graph(0, ["C"] * 3, [(0, 1), (1, 2)]).is_connected()

    def test_disconnected_when_vertex_isolated(self):
        assert not make_graph(0, ["C"] * 3, [(0, 1)]).is_connected()

    @pytest.mark.parametrize("seed", range(15))
    def test_random_graphs_connected(self, seed):
        assert random_connected_graph(seed).is_connected()

    def test_relabel(self):
        g = make_graph(0, ["C", "N"], [(0, 1)])
        assert g.relabel(7).gid == 7 and g.relabel(7).edges == g.edges

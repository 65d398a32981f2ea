"""Tests for the embedding matcher — cover sets, counts, extensions —
cross-checked against brute-force subgraph enumeration, and the
prefix-shared frontier matcher cross-checked against per-code matching."""
import random
from itertools import islice

import pytest

from repro.graphdb.generator import molecule_db
from repro.graphdb.model import induced_subgraph, make_graph
from repro.isomorphism.bruteforce import canonical_form_bruteforce, connected_edge_subsets
from repro.isomorphism.dfscode import code_to_graph, is_min, min_code_of_graph
from repro.isomorphism.matcher import (
    DEFAULT_MAX_EMB,
    MatchResult,
    contains,
    cover_set,
    iter_embeddings,
    match_frontier,
    match_stats,
)
from tests.helpers import random_connected_graph, tiny_db


class TestBasics:
    def test_single_edge_in_triangle(self):
        tri = make_graph(0, ["C", "C", "C"], [(0, 1), (1, 2), (0, 2)])
        p = min_code_of_graph(make_graph(-1, ["C", "C"], [(0, 1)]))
        ms = match_stats(p, tri)
        assert ms.n_embeddings == 6  # 3 edges x 2 orientations
        assert ms.covered_eids == {0, 1, 2}

    def test_no_match_wrong_label(self):
        g = make_graph(0, ["C", "C"], [(0, 1)])
        p = min_code_of_graph(make_graph(-1, ["C", "N"], [(0, 1)]))
        assert match_stats(p, g).n_embeddings == 0
        assert not contains(g, p)

    def test_edge_label_respected(self):
        g = make_graph(0, ["C", "C"], [(0, 1, "1")])
        p = min_code_of_graph(make_graph(-1, ["C", "C"], [(0, 1, "2")]))
        assert not contains(g, p)

    def test_injectivity(self):
        # pattern C-C-C needs 3 distinct vertices; a single C-C edge has 2
        g = make_graph(0, ["C", "C"], [(0, 1)])
        p = min_code_of_graph(make_graph(-1, ["C"] * 3, [(0, 1), (1, 2)]))
        assert match_stats(p, g).n_embeddings == 0

    def test_backward_edge_matching(self):
        tri = make_graph(0, ["C", "C", "C"], [(0, 1), (1, 2), (0, 2)])
        code = min_code_of_graph(tri)
        ms = match_stats(code, tri)
        assert ms.n_embeddings == 6  # automorphisms of labeled triangle
        assert ms.covered_eids == {0, 1, 2}

    def test_truncation_flag(self):
        # near-clique of identical labels: tiny cap must trigger
        g = make_graph(0, ["C"] * 5, [(u, v) for u in range(5) for v in range(u + 1, 5)])
        p = min_code_of_graph(make_graph(-1, ["C", "C"], [(0, 1)]))
        ms = match_stats(p, g, max_emb=3)
        assert ms.truncated and ms.n_embeddings == 3

    def test_iter_embeddings_yields_consistent_edges(self):
        tri = make_graph(0, ["C", "C", "N"], [(0, 1), (1, 2), (0, 2)])
        p = min_code_of_graph(make_graph(-1, ["C", "N"], [(0, 1)]))
        for vmap, eids in iter_embeddings(p, tri):
            assert len(vmap) == 2 and len(eids) == 1
            u, v, _ = tri.edges[eids[0]]
            assert {u, v} == set(vmap)


def _bruteforce_match(pattern_code, g):
    """Reference: occurrences of a pattern as connected edge subsets."""
    pcanon = canonical_form_bruteforce(code_to_graph(pattern_code))
    m = len(pattern_code)
    occ = [
        es
        for es in connected_edge_subsets(g, m)
        if len(es) == m and canonical_form_bruteforce(induced_subgraph(g, es)) == pcanon
    ]
    cover = set().union(*occ) if occ else set()
    return occ, cover


class TestVsBruteForce:
    @pytest.mark.parametrize("seed", range(30))
    def test_cover_sets_match(self, seed):
        g = random_connected_graph(seed, n_min=4, n_max=7)
        # patterns: every distinct <=3-edge subgraph of a *different* graph
        pg = random_connected_graph(seed + 123, n_min=3, n_max=6)
        codes = {
            min_code_of_graph(induced_subgraph(pg, es))
            for es in connected_edge_subsets(pg, 3)
        }
        for code in sorted(codes, key=len)[:12]:
            _, bf_cover = _bruteforce_match(code, g)
            assert cover_set(code, g) == bf_cover

    @pytest.mark.parametrize("seed", range(15))
    def test_embedding_existence_matches(self, seed):
        g = random_connected_graph(seed, n_min=4, n_max=7)
        pg = random_connected_graph(seed + 77, n_min=3, n_max=5)
        for es in connected_edge_subsets(pg, 2):
            code = min_code_of_graph(induced_subgraph(pg, es))
            occ, _ = _bruteforce_match(code, g)
            assert contains(g, code) == bool(occ)


class TestExtensions:
    @pytest.mark.parametrize("seed", range(20))
    def test_extensions_are_real_children(self, seed):
        """Every minimal extension corresponds to an actual occurrence of the
        child pattern in the graph."""
        g = random_connected_graph(seed, n_min=4, n_max=7)
        p = min_code_of_graph(make_graph(-1, ["C", "C"], [(0, 1)]))
        ms = match_stats(p, g)
        for ext in ms.extensions:
            child = p + (ext,)
            if is_min(child):
                assert contains(g, child)

    @pytest.mark.parametrize("seed", range(20))
    def test_every_child_occurrence_has_an_extension(self, seed):
        """Completeness: if a 2-edge pattern occurs in g, some 1-edge parent
        must report an extension leading to it."""
        g = random_connected_graph(seed, n_min=4, n_max=7)
        two_edge_codes = {
            min_code_of_graph(induced_subgraph(g, es))
            for es in connected_edge_subsets(g, 2)
            if len(es) == 2
        }
        produced = set()
        one_edge_codes = {
            min_code_of_graph(induced_subgraph(g, es))
            for es in connected_edge_subsets(g, 1)
        }
        for p in one_edge_codes:
            for ext in match_stats(p, g).extensions:
                child = p + (ext,)
                if is_min(child):
                    produced.add(child)
        assert two_edge_codes <= produced

    def test_minimal_children_of_multi_edge_parents_are_exact(self):
        """For every minimal code ``p`` of a connected subgraph with up to
        3 edges, the minimal codes among ``p``'s observed children are
        exactly the minimal codes of the connected ``(|p|+1)``-edge
        subgraphs whose prefix is ``p``. Ring closures (backward last
        entries) are among the children checked."""
        n_ring_closures = 0
        for seed in range(20):
            g = random_connected_graph(seed, n_min=4, n_max=7, edge_labels=["-", "="])
            by_size: dict[int, set] = {}
            for es in connected_edge_subsets(g, 4):
                code = min_code_of_graph(induced_subgraph(g, es))
                by_size.setdefault(len(es), set()).add(code)
            for size in (1, 2, 3):
                for p in by_size.get(size, ()):
                    children = {p + (e,) for e in match_stats(p, g).extensions}
                    minimal = {c for c in children if is_min(c)}
                    assert minimal == {c for c in by_size.get(size + 1, ()) if c[:-1] == p}
                    n_ring_closures += sum(c[-1][0] > c[-1][1] for c in minimal)
        assert n_ring_closures > 0

    def test_prefilter_short_circuits(self):
        g = make_graph(0, ["C", "C"], [(0, 1)])
        p = min_code_of_graph(make_graph(-1, ["S", "S"], [(0, 1)]))
        assert match_stats(p, g) == MatchResult(0, set(), set(), False)


def _assert_frontier_matches(codes, graphs):
    """``match_frontier`` yields exactly the non-empty (pattern, graph) pairs,
    each with the ``MatchResult`` that ``match_stats`` gives."""
    for want_ext in (True, False):
        got = [
            (i, g.gid, ms)
            for i, g, ms, _ in match_frontier(codes, graphs, want_extensions=want_ext)
        ]
        expected = {}
        for g in graphs:
            for i, code in enumerate(codes):
                ms = match_stats(code, g, want_extensions=want_ext)
                if ms.n_embeddings:
                    expected[i, g.gid] = ms
        assert len(got) == len({(i, gid) for i, gid, _ in got})  # each pair at most once
        assert {(i, gid): ms for i, gid, ms in got} == expected


def _results(codes, g):
    """``(index, MatchResult)`` of every pattern with an embedding in ``g``."""
    return [(i, ms) for i, _, ms, _ in match_frontier(codes, [g])]


def _minimal_levels(graphs, e_max):
    """The whole minimal-code pattern tree of ``graphs``, one frontier per
    level, grown by rightmost extension as the enumeration grows it."""
    frontier = sorted({
        min_code_of_graph(make_graph(-1, [g.vlabels[u], g.vlabels[v]], [(0, 1, el)]))
        for g in graphs
        for u, v, el in g.edges
    })
    levels = []
    while frontier:
        levels.append(frontier)
        if len(frontier[0]) == e_max:
            break
        frontier = sorted({
            code + (ext,)
            for code in frontier
            for g in graphs
            for ext in match_stats(code, g).extensions
            if is_min(code + (ext,))
        })
    return levels


def _clique(n):
    return make_graph(0, ["C"] * n, [(u, v) for u in range(n) for v in range(u + 1, n)])


PATH3 = ((0, 1, "C", "-", "C"), (1, 2, "C", "-", "C"), (2, 3, "C", "-", "C"))


class TestMatchFrontier:
    @pytest.mark.parametrize("seed", range(8))
    def test_minimal_child_frontiers_random(self, seed):
        graphs = tiny_db(seed, n_graphs=6, edge_labels=["-", "="])
        for codes in _minimal_levels(graphs, 4):
            _assert_frontier_matches(codes, graphs)

    def test_minimal_child_frontiers_molecules(self):
        graphs = molecule_db("emol_lite", 8, seed=3)
        for codes in _minimal_levels(graphs, 4):
            _assert_frontier_matches(codes, graphs)

    @pytest.mark.parametrize("seed", range(4))
    def test_mixed_parent_frontiers(self, seed):
        """Like IPS's jobs: the children of a few parents, in no canonical
        order, here also of mixed lengths and including non-minimal codes."""
        graphs = molecule_db("emol_lite", 6, seed=seed)
        rng = random.Random(seed)
        codes = []
        for level in _minimal_levels(graphs, 3):
            for parent in rng.sample(level, min(len(level), 5)):
                exts = set().union(*(match_stats(parent, g).extensions for g in graphs))
                codes += [parent + (e,) for e in sorted(exts)]
        rng.shuffle(codes)
        assert len({c[:-1] for c in codes}) > 1
        _assert_frontier_matches(codes, graphs)

    def test_child_reaching_cap_matches_from_root(self):
        """On a single-label 7-clique the 3-edge path has 840 embeddings,
        under the cap, but the 4-edge path child has 2520, over it."""
        g = _clique(7)
        assert len(list(iter_embeddings(PATH3, g))) == 840
        codes = [PATH3 + (e,) for e in sorted(match_stats(PATH3, g).extensions)]
        _assert_frontier_matches(codes, [g])
        path4 = codes.index(PATH3 + ((3, 4, "C", "-", "C"),))
        ms = dict(_results(codes, g))[path4]
        assert ms.truncated and ms.n_embeddings == DEFAULT_MAX_EMB

    def test_prefix_reaching_cap_matches_from_root(self):
        """On a single-label 9-clique the 3-edge path itself has 3024
        embeddings, so every child is matched from the root."""
        g = _clique(9)
        assert len(list(islice(iter_embeddings(PATH3, g), DEFAULT_MAX_EMB))) == DEFAULT_MAX_EMB
        codes = [PATH3 + (e,) for e in sorted(match_stats(PATH3, g).extensions)]
        _assert_frontier_matches(codes, [g])
        assert all(ms.truncated for _, ms in _results(codes, g))

    def test_cap_keeps_match_stats_embeddings(self):
        """Which embeddings survive the cap depends on the search order, so
        capped patterns are matched from the root. A hub N has one C and
        2001 O neighbours; a second component is C-N-O plus C-S, searched
        after the hub. C-N-O has 2002 embeddings: ``match_stats`` keeps the
        2000 that drop the hub's first O, extending C-N in adjacency order
        would drop its last O instead, so the covers would differ. C-N-O
        plus C-S embeds only in the second component, which a prefix
        enumeration stopped at the cap never reaches."""
        n_o = DEFAULT_MAX_EMB + 1
        g = make_graph(
            0,
            ["C", "N", "O", "S", "C", "N"] + ["O"] * n_o,
            [(0, 1), (1, 2), (0, 3), (4, 5)] + [(5, 6 + o) for o in range(n_o)],
        )
        cno = ((0, 1, "C", "-", "N"), (1, 2, "N", "-", "O"))
        codes = [cno, cno + ((0, 3, "C", "-", "S"),)]
        _assert_frontier_matches(codes, [g])
        got = dict(_results(codes, g))
        assert got[0].truncated and got[1].n_embeddings == 1

    def test_one_edge_frontier(self):
        tri = make_graph(0, ["C", "C", "N"], [(0, 1), (1, 2), (0, 2)])
        codes = [((0, 1, "C", "-", "C"),), ((0, 1, "C", "-", "N"),), ((0, 1, "C", "-", "O"),)]
        _assert_frontier_matches(codes, [tri])
        assert [i for i, _ in _results(codes, tri)] == [0, 1]

    def test_roots_tried_only_where_their_triple_occurs(self):
        """A 1-edge code is tried only in the graphs whose edge triples hold
        its normalized triple; a non-minimal orientation such as O-C is
        still found wherever C-O is (aids_lite-100)."""
        graphs = molecule_db("aids_lite", 100, seed=0)
        o_c = ((0, 1, "O", "-", "C"),)
        codes = [o_c, ((0, 1, "C", "-", "O"),), ((0, 1, "B", "-", "B"),), ((0, 1, "C", "-", "Xe"),)]
        _assert_frontier_matches(codes, graphs)
        holding = {g.gid for g in graphs if ("C", "-", "O") in g.edge_triple_set}
        assert holding and {g.gid for _, g, _, _ in match_frontier([o_c], graphs)} == holding

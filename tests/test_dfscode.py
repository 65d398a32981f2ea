"""Tests for gSpan DFS-code machinery — cross-checked against brute force."""
from functools import cmp_to_key

import pytest

from repro.graphdb.model import induced_subgraph, make_graph
from repro.isomorphism import dfscode
from repro.isomorphism.bruteforce import canonical_form_bruteforce, connected_edge_subsets
from repro.isomorphism.dfscode import (
    code_key,
    code_to_graph,
    edge_lt,
    is_min,
    min_code_of_graph,
    rightmost_path,
)
from repro.isomorphism.matcher import match_stats
from tests.helpers import random_connected_graph


class TestEdgeOrder:
    def test_forward_smaller_target_first(self):
        assert edge_lt((0, 2, "C", "-", "C"), (0, 3, "C", "-", "C"))

    def test_forward_same_target_deeper_source_first(self):
        assert edge_lt((2, 3, "C", "-", "C"), (0, 3, "C", "-", "C"))

    def test_backward_before_forward_from_same_vertex(self):
        # backward (2,0) vs forward (2,3): backward first
        assert edge_lt((2, 0, "C", "-", "C"), (2, 3, "C", "-", "C"))

    def test_forward_before_backward_of_later_vertex(self):
        # forward (0,1) precedes backward (2,0)
        assert edge_lt((0, 1, "C", "-", "C"), (2, 0, "C", "-", "C"))

    def test_backward_smaller_target_first(self):
        assert edge_lt((3, 0, "C", "-", "C"), (3, 1, "C", "-", "C"))

    def test_label_tiebreak(self):
        assert edge_lt((0, 1, "C", "-", "C"), (0, 1, "C", "-", "N"))
        assert edge_lt((0, 1, "C", "-", "N"), (0, 1, "N", "-", "C"))

    @pytest.mark.parametrize("seed", range(20))
    def test_total_order_on_sampled_tuples(self, seed):
        import numpy as np

        rng = np.random.default_rng(seed)
        tuples = []
        for _ in range(12):
            j = int(rng.integers(1, 5))
            fwd = rng.random() < 0.6
            if fwd:
                i = int(rng.integers(0, j))
            else:
                i, j = j, int(rng.integers(0, j))
            tuples.append((i, j, "CN"[rng.integers(0, 2)], "-", "CN"[rng.integers(0, 2)]))
        for a in tuples:
            assert not edge_lt(a, a)  # irreflexive
            for b in tuples:
                if a != b:
                    assert edge_lt(a, b) != edge_lt(b, a)  # antisymmetric


def code_cmp(a, b) -> int:
    """Reference total order on DFS codes: entry-wise :func:`edge_lt`,
    a proper prefix first (the oracle for :func:`code_key`)."""
    for x, y in zip(a, b):
        if x == y:
            continue
        return -1 if edge_lt(x, y) else 1
    return len(a) - len(b)


class TestCodeKey:
    """``code_key``'s tuple order is the reference order ``code_cmp``."""

    @pytest.mark.parametrize("seed", range(4))
    def test_agrees_with_code_cmp(self, seed):
        import numpy as np

        # every prefix of every observed child: mixed lengths, shared prefixes
        codes = sorted({c[:n] for c in _children(seed) for n in range(1, len(c) + 1)})
        rng = np.random.default_rng(seed)
        for _ in range(5000):
            a, b = (codes[int(x)] for x in rng.integers(0, len(codes), 2))
            ref = code_cmp(a, b)
            assert (code_key(a) < code_key(b)) == (ref < 0)
            assert (code_key(a) == code_key(b)) == (ref == 0)

    def test_entry_order_is_edge_lt(self):
        entries = [
            (i, j, li, "-", lj)
            for i in range(4) for j in range(4) if i != j
            for li in "CN" for lj in "CN"
        ]
        for a in entries:
            for b in entries:
                assert (code_key((a,)) < code_key((b,))) == edge_lt(a, b)

    def test_sort_matches_reference(self):
        codes = [c for seed in range(4) for c in _children(seed)]
        assert sorted(codes, key=code_key) == sorted(codes, key=cmp_to_key(code_cmp))


class TestRightmostPath:
    def test_single_edge(self):
        assert rightmost_path(((0, 1, "C", "-", "C"),)) == [0, 1]

    def test_path_graph(self):
        code = ((0, 1, "C", "-", "C"), (1, 2, "C", "-", "C"))
        assert rightmost_path(code) == [0, 1, 2]

    def test_branch_goes_through_latest_forward_chain(self):
        # star: 0-1, 0-2 — rightmost path is 0,2
        code = ((0, 1, "C", "-", "C"), (0, 2, "C", "-", "N"))
        assert rightmost_path(code) == [0, 2]

    def test_backward_edge_does_not_change_path(self):
        code = ((0, 1, "C", "-", "C"), (1, 2, "C", "-", "C"), (2, 0, "C", "-", "C"))
        assert rightmost_path(code) == [0, 1, 2]


class TestCodeGraphRoundTrip:
    @pytest.mark.parametrize("seed", range(25))
    def test_code_to_graph_isomorphic_to_source(self, seed):
        g = random_connected_graph(seed)
        code = min_code_of_graph(g)
        back = code_to_graph(code)
        assert canonical_form_bruteforce(back) == canonical_form_bruteforce(g)


class TestMinimality:
    @pytest.mark.parametrize("seed", range(60))
    def test_min_code_is_canonical(self, seed):
        """Isomorphic graphs (random relabelings) share one minimal code."""
        import numpy as np

        g = random_connected_graph(seed)
        code = min_code_of_graph(g)
        assert is_min(code)
        rng = np.random.default_rng(seed + 10_000)
        perm = list(rng.permutation(g.n_vertices))
        g2 = make_graph(
            1,
            [g.vlabels[perm.index(i)] for i in range(g.n_vertices)],
            [(perm[u], perm[v], el) for u, v, el in g.edges],
        )
        assert min_code_of_graph(g2) == code

    @pytest.mark.parametrize("seed", range(30))
    def test_canonical_separates_nonisomorphic(self, seed):
        g1 = random_connected_graph(seed)
        g2 = random_connected_graph(seed + 500)
        same_bf = canonical_form_bruteforce(g1) == canonical_form_bruteforce(g2)
        assert (min_code_of_graph(g1) == min_code_of_graph(g2)) == same_bf

    def test_non_minimal_code_detected(self):
        # Path C-C-N: minimal code starts at the C-N end... both orientations
        # share labels; build one starting with the "wrong" first entry.
        bad = ((0, 1, "N", "-", "C"), (1, 2, "C", "-", "C"))
        assert not is_min(bad)
        good = ((0, 1, "C", "-", "C"), (1, 2, "C", "-", "N"))
        assert is_min(good)

    def test_triangle_min_code(self):
        g = make_graph(0, ["C", "C", "C"], [(0, 1), (1, 2), (0, 2)])
        code = min_code_of_graph(g)
        assert code == ((0, 1, "C", "-", "C"), (1, 2, "C", "-", "C"), (2, 0, "C", "-", "C"))

    def test_min_code_requires_edges(self):
        with pytest.raises(ValueError):
            min_code_of_graph(make_graph(0, ["C"], []))


def _children(seed):
    """Every rightmost-extension child, observed in a random graph, of the
    minimal code of each of its connected subgraphs with up to 3 edges."""
    g = random_connected_graph(seed, edge_labels=["-", "="])
    codes = {
        min_code_of_graph(induced_subgraph(g, es)) for es in connected_edge_subsets(g, 3)
    }
    return [
        code + (ext,) for code in sorted(codes) for ext in sorted(match_stats(code, g).extensions)
    ]


def _all_grown_codes(g):
    """Every code that grows over all of ``g`` by rightmost extensions from
    any first edge orientation, with the rightmost path recomputed by
    :func:`rightmost_path` at every step (brute force)."""
    out = []

    def grow(code, vmap, used):
        if len(used) == g.n_edges:
            out.append(tuple(code))
            return
        rmpath = rightmost_path(tuple(code))
        inv = {gv: p for p, gv in enumerate(vmap)}
        rmv = rmpath[-1]
        for nbr, el, eid in g.adj[vmap[rmv]]:
            p = inv.get(nbr)
            if eid not in used and p is not None and p in rmpath and p != rmv:
                e = (rmv, p, g.vlabels[vmap[rmv]], el, g.vlabels[nbr])
                grow(code + [e], vmap, used | {eid})
        for p in rmpath:
            for nbr, el, eid in g.adj[vmap[p]]:
                if eid not in used and nbr not in inv:
                    e = (p, len(vmap), g.vlabels[vmap[p]], el, g.vlabels[nbr])
                    grow(code + [e], vmap + [nbr], used | {eid})

    for eid, (u, v, el) in enumerate(g.edges):
        for a, b in ((u, v), (v, u)):
            grow([(0, 1, g.vlabels[a], el, g.vlabels[b])], [a, b], {eid})
    return out


class TestMinCodeBruteForce:
    """The greedy minimal code is the least of every code grown over the
    graph, and ``is_min`` accepts exactly that one."""

    @pytest.mark.parametrize("labels", [["C"], ["C", "N"]], ids=["one_label", "two_labels"])
    def test_min_over_all_grown_codes(self, labels):
        graphs = (
            random_connected_graph(seed, n_min=4, n_max=6, extra_edge_p=0.25, labels=labels)
            for seed in range(100)
        )
        for g in [g for g in graphs if g.n_edges <= 7][:30]:  # few enough growth orders
            codes = _all_grown_codes(g)
            best = min(codes, key=cmp_to_key(code_cmp))
            assert min_code_of_graph(g) == best
            assert [c for c in set(codes) if is_min(c)] == [best]


class TestIsMinPreCheck:
    """``is_min`` rejects a code whose entry has a smaller label triple than
    its first entry before any search, and otherwise regrows the code and
    stops at the first step where a smaller extension exists."""

    @pytest.mark.parametrize("seed", range(40))
    def test_agrees_with_full_check(self, seed):
        for child in _children(seed):
            assert is_min(child) == (min_code_of_graph(code_to_graph(child)) == child)

    def test_skips_full_check(self, monkeypatch):
        """Some codes are rejected before any search: the search's first
        step, which embeds the first entry, runs for fewer codes than are
        checked."""
        children = [c for seed in range(40) for c in _children(seed)]
        searched = []
        real = dfscode.first_embeddings

        def counted(*args):
            searched.append(args)
            return real(*args)

        monkeypatch.setattr(dfscode, "first_embeddings", counted)
        for child in children:
            is_min(child)
        assert 0 < len(searched) < len(children)

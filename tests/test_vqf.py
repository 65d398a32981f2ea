"""Tests for the VQF user-study simulation (steps model, query sampling,
comparator pattern sets, biological-importance repository)."""
import pytest

from repro.graphdb.generator import motif_library
from repro.graphdb.model import make_graph
from repro.isomorphism.dfscode import min_code_of_graph
from repro.vqf.catapult import catapult_lite
from repro.vqf.fs import top_k_frequent
from repro.vqf.queries import frequent_query, query_set, sample_query
from repro.vqf.repository import bio_importance_count, repository_canon
from repro.vqf.steps import formulation_steps, reduction_ratio, usable_patterns


def code(vlabels, edges):
    return min_code_of_graph(make_graph(-1, vlabels, edges))


class TestStepsModel:
    def test_no_patterns_is_edge_at_a_time(self):
        q = make_graph(-1, ["C"] * 4, [(0, 1), (1, 2), (2, 3)])
        steps, placed = formulation_steps([], q)
        assert steps == 3 and placed == 0

    def test_full_pattern_is_one_step(self):
        q = make_graph(-1, ["C"] * 3, [(0, 1), (1, 2)])
        steps, placed = formulation_steps([code(["C"] * 3, [(0, 1), (1, 2)])], q)
        assert steps == 1 and placed == 1

    def test_partial_pattern_plus_edges(self):
        q = make_graph(-1, ["C", "C", "C", "N"], [(0, 1), (1, 2), (2, 3)])
        p = code(["C"] * 3, [(0, 1), (1, 2)])
        steps, placed = formulation_steps([p], q)
        assert placed == 1 and steps == 2  # pattern + 1 leftover edge

    def test_single_edge_patterns_do_not_help(self):
        q = make_graph(-1, ["C", "C"], [(0, 1)])
        steps, placed = formulation_steps([code(["C", "C"], [(0, 1)])], q)
        assert steps == 1 and placed == 0

    def test_disjoint_placement_of_same_pattern_twice(self):
        # two disjoint C-C-C paths joined by an N bridge
        q = make_graph(
            -1,
            ["C", "C", "C", "N", "C", "C", "C"],
            [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6)],
        )
        p = code(["C"] * 3, [(0, 1), (1, 2)])
        steps, placed = formulation_steps([p], q)
        assert placed == 2 and steps == 2 + 2  # two placements + 2 bridges

    def test_unusable_pattern_ignored(self):
        q = make_graph(-1, ["C", "C"], [(0, 1)])
        p = code(["S", "S"], [(0, 1)])
        assert usable_patterns([p], q) == []

    def test_reduction_ratio(self):
        assert reduction_ratio(10, 5) == 0.5
        assert reduction_ratio(10, 12) == pytest.approx(-0.2)
        assert reduction_ratio(0, 0) == 0.0


class TestQuerySampling:
    @pytest.mark.parametrize("seed", range(8))
    def test_sample_query_size_and_connectivity(self, tiny_mol_db, seed):
        q = sample_query(tiny_mol_db, e_min=4, e_max=8, seed=seed)
        assert 4 <= q.n_edges <= 8 and q.is_connected()

    @pytest.mark.parametrize("seed", range(5))
    def test_rare_seeded_query_contains_rare_label(self, seed):
        from repro.graphdb.generator import molecule_db

        db = molecule_db("aids_lite", 30, seed=9)
        q = sample_query(db, e_min=3, e_max=6, seed=seed, prefer_rare=True)
        assert q.is_connected()

    def test_frequent_query_contains_source_patterns(self):
        codes = [code(["C", "C", "N"], [(0, 1), (1, 2)])]
        q = frequent_query(codes, n_patterns=2, seed=1)
        from repro.isomorphism.matcher import contains

        assert q.is_connected()
        assert contains(q, codes[0])

    def test_query_set_rho_mix(self, tiny_mol_db):
        codes = [code(["C", "C"], [(0, 1)]), code(["C", "C", "C"], [(0, 1), (1, 2)])]
        qs = query_set(tiny_mol_db, codes, n_queries=10, rho=0.3, e_min=3, e_max=6)
        assert len(qs) == 10 and all(q.is_connected() for q in qs)


class TestRepository:
    def test_repository_contains_all_motifs(self):
        repo = repository_canon(False)
        assert len(repo) == len(motif_library(False))

    def test_motif_pattern_is_important(self):
        benzene = next(m for m in motif_library() if m.n_edges == 6)
        n, hits = bio_importance_count([min_code_of_graph(benzene)])
        assert n == 1

    def test_non_motif_not_important(self):
        weird = code(["Br", "Br"], [(0, 1)])
        assert bio_importance_count([weird])[0] == 0


class TestComparatorPatternSets:
    def test_top_k_frequent_sorted_by_support(self, spark, tiny_edges):
        pats = top_k_frequent(spark, tiny_edges, k=5, e_max=2, sup_min=0.3)
        sups = [s for _, s in pats]
        assert sups == sorted(sups, reverse=True) and len(pats) <= 5

    def test_top_k_frequent_meets_threshold(self, spark, tiny_mol_db, tiny_edges):
        pats = top_k_frequent(spark, tiny_edges, k=5, e_max=2, sup_min=0.5)
        assert all(s >= 0.5 * len(tiny_mol_db) for _, s in pats)

    def test_catapult_returns_k_distinct(self, spark, tiny_edges):
        pats = catapult_lite(spark, tiny_edges, k=4, e_max=2, sup_min=0.2)
        codes = [c for c, _ in pats]
        assert len(codes) == len(set(codes)) and 1 <= len(codes) <= 4

    def test_catapult_diversity_differs_from_fs(self, spark, tiny_edges):
        fs = [c for c, _ in top_k_frequent(spark, tiny_edges, k=4, e_max=2, sup_min=0.2)]
        cat = [c for c, _ in catapult_lite(spark, tiny_edges, k=4, e_max=2, sup_min=0.2)]
        assert fs != cat  # MMR diversification must change the selection

    def test_pattern_supports_match_direct_count(self, spark, tiny_mol_db, tiny_db):
        from repro.enumeration.distributed import match_level
        from repro.isomorphism.matcher import contains

        codes = [code(["C", "C"], [(0, 1)]), code(["C", "N"], [(0, 1)])]
        stats = match_level(spark, tiny_db, codes, want_extensions=False)
        sups = {ps.code: ps.support for ps in stats}
        for c in codes:
            assert sups[c] == sum(contains(g, c) for g in tiny_mol_db)

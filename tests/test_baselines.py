"""Baseline (ALL_g / ALL_t / FSG_g / FSG_t / OPT) behaviour tests."""
import dataclasses
import functools
import time

import pytest

from repro.core.baselines import (
    all_g,
    all_t,
    enumerate_cover_sets,
    fsg_g,
    fsg_t,
    opt_exact,
)
from repro.core.maintain import PatternMaintainer
from repro.core.ted import ted
from repro.enumeration.gspan import EnumStats, enumerate_gspan
from repro.graphdb.model import edge_key
from repro.graphdb.spark_io import GraphDB
from repro.isomorphism.bruteforce import distinct_patterns_bruteforce
from repro.maxcover.exact import exact_max_cover
from repro.maxcover.greedy import greedy_max_cover

K, E_MAX = 3, 3


class TestEnumerateCoverSets:
    def test_matches_bruteforce_sets(self, spark, tiny_mol_db, tiny_db):
        sets, stats, _ = enumerate_cover_sets(spark, tiny_db, e_max=2)
        assert not stats.timed_out
        bf = distinct_patterns_bruteforce(tiny_mol_db, 2)
        assert len(sets) == len(bf)
        bf_covers = set()
        for occ in bf.values():
            cov = set()
            for gid, esets in occ.items():
                for es in esets:
                    cov |= {edge_key(gid, e) for e in es}
            bf_covers.add(frozenset(cov))
        assert set(sets.values()) == bf_covers

    def test_frequent_sets_subset(self, spark, tiny_db):
        all_sets, _, _ = enumerate_cover_sets(spark, tiny_db, e_max=2)
        freq_sets, _, _ = enumerate_cover_sets(spark, tiny_db, e_max=2, min_support_frac=0.5)
        assert set(freq_sets) < set(all_sets)


class TestAlgorithms:
    def test_all_g_equals_greedy_over_sets(self, spark, tiny_edges, tiny_db):
        sets, _, _ = enumerate_cover_sets(spark, tiny_db, e_max=E_MAX)
        _, cov = greedy_max_cover(sets, K)
        r = all_g(spark, tiny_edges, k=K, e_max=E_MAX)
        assert r.coverage == len(cov)

    def test_all_g_tracks_candidate_memory(self, spark, tiny_edges):
        r = all_g(spark, tiny_edges, k=K, e_max=E_MAX)
        assert r.stored_candidate_bytes > 0 and r.n_enumerated > 0

    def test_fsg_g_enumerates_fewer(self, spark, tiny_edges):
        ra = all_g(spark, tiny_edges, k=K, e_max=E_MAX)
        rf = fsg_g(spark, tiny_edges, k=K, e_max=E_MAX, sup_min=0.5)
        assert rf.n_enumerated < ra.n_enumerated
        assert rf.coverage <= ra.coverage

    def test_all_t_uses_swaps(self, spark, tiny_edges):
        r = all_t(spark, tiny_edges, k=K, e_max=E_MAX)
        assert r.index_size_bytes > 0
        assert len(r.patterns) <= K

    def test_fsg_t_runs(self, spark, tiny_edges):
        r = fsg_t(spark, tiny_edges, k=K, e_max=E_MAX, sup_min=0.3)
        assert 0 < r.coverage <= r.total_edges

    def test_opt_dominates_all(self, spark, tiny_edges):
        opt = opt_exact(spark, tiny_edges, k=K, e_max=E_MAX)
        for r in (
            all_g(spark, tiny_edges, k=K, e_max=E_MAX),
            all_t(spark, tiny_edges, k=K, e_max=E_MAX),
            fsg_g(spark, tiny_edges, k=K, e_max=E_MAX, sup_min=0.3),
            fsg_t(spark, tiny_edges, k=K, e_max=E_MAX, sup_min=0.3),
        ):
            assert r.coverage <= opt.coverage

    def test_greedy_all_g_within_bound_of_opt(self, spark, tiny_edges):
        opt = opt_exact(spark, tiny_edges, k=K, e_max=E_MAX)
        r = all_g(spark, tiny_edges, k=K, e_max=E_MAX)
        assert r.coverage >= (1 - 1 / 2.718281828) * opt.coverage

    def test_time_limit_reports_inf(self, spark, tiny_edges):
        r = all_g(spark, tiny_edges, k=K, e_max=4, time_limit_s=0.0)
        assert r.timed_out and r.row()["time_s"] == "INF"

    def test_reports_enumeration_counters(self, spark, tiny_edges, tiny_db):
        """ALL_g's counters come from the tasks of its one mining job and
        sum over them: ``n_matched`` counts (pattern, task) pairs, and a
        non-minimal child is rejected in every task whose graphs hold its
        parent, so ``n_children_nonmin`` is at least the driver loop's."""
        r = all_g(spark, tiny_edges, k=K, e_max=E_MAX)
        stats = enumerate_gspan(spark, tiny_db, e_max=E_MAX)
        parts = r.extra["partitions"]
        assert stats.n_visited == r.n_enumerated
        enum = r.extra["enum"]
        assert enum["n_matched"] == sum(p["n_visited"] for p in parts) >= r.n_enumerated
        assert enum["n_children_nonmin"] == sum(p["n_children_nonmin"] for p in parts)
        assert enum["n_children_nonmin"] >= stats.n_children_nonmin > 0

    def test_result_row_shape(self, spark, tiny_edges):
        row = all_g(spark, tiny_edges, k=K, e_max=2).row()
        assert {"algo", "coverage_rate", "truncated", "time_s"} <= set(row)


class TestTreeJobAnswers:
    """ALL_t's swap stream and OPT see S in the driver loop's order, so
    their answers equal selection over the S the driver loop streams."""

    @pytest.fixture(scope="class")
    def driver_sets(self, spark, tiny_db):
        sets = {}
        enumerate_gspan(spark, tiny_db, e_max=E_MAX,
                        visitor=lambda ps: sets.__setitem__(ps.code, ps.cover))
        return sets

    def test_all_t_unchanged(self, spark, tiny_edges, driver_sets):
        m = PatternMaintainer(k=K, alpha=1.0)
        for code, cover in driver_sets.items():
            m.offer(code, cover)
        covered = frozenset().union(*(driver_sets[c] for c in m.patterns))
        r = all_t(spark, tiny_edges, k=K, e_max=E_MAX)
        assert (r.patterns, r.coverage, r.n_swaps, r.n_enumerated) == (
            m.patterns, len(covered), m.stats.n_swaps, len(driver_sets))

    def test_opt_exact_unchanged(self, spark, tiny_edges, driver_sets):
        chosen, covered = exact_max_cover(driver_sets, K)
        r = opt_exact(spark, tiny_edges, k=K, e_max=E_MAX)
        assert (list(r.patterns), r.coverage) == (list(chosen), len(covered))


class TestTruncation:
    def test_not_truncated_on_molecules(self, spark, tiny_edges):
        assert not all_g(spark, tiny_edges, k=K, e_max=E_MAX).truncated

    @pytest.mark.parametrize("e_max, expected", [(3, False), (4, True)])
    def test_all_g_reports_cap_on_clique(self, spark, clique_edges, e_max, expected):
        r = all_g(spark, clique_edges, k=K, e_max=e_max)
        assert r.truncated is expected
        assert r.row()["truncated"] is expected


#: Every discovery method, TED's variants included, by test id.
METHODS = {
    "base": functools.partial(ted, variant="base"),
    "ted": functools.partial(ted, variant="ted"),
    "fsg_g": functools.partial(fsg_g, sup_min=0.3),
    "fsg_t": functools.partial(fsg_t, sup_min=0.3),
    "all_g": all_g,
    "all_t": all_t,
    "opt_exact": opt_exact,
}


@pytest.mark.parametrize("method", list(METHODS))
class TestOneHandlePerCall:
    """Each discovery call gets its database from one :class:`GraphDB`."""

    def test_builds_one_handle(self, spark, tiny_edges, monkeypatch, method):
        built = []

        def build(edges, _real=GraphDB.build):
            built.append(_real(edges))
            return built[-1]

        monkeypatch.setattr(GraphDB, "build", build)
        r = METHODS[method](spark, tiny_edges, k=K, e_max=2)
        assert len(built) == 1
        assert r.total_edges == sum(built[0].edge_counts.values()) == tiny_edges.count()
        assert r.extra["handle_s"] == built[0].build_s

    def test_time_limit_counts_the_handle(self, spark, tiny_edges, monkeypatch, method):
        """The limit runs from the call's start: a build that outlasts it
        leaves the enumeration no time past its first level."""

        def slow_build(edges, _real=GraphDB.build):
            time.sleep(0.5)
            return _real(edges)

        monkeypatch.setattr(GraphDB, "build", slow_build)
        assert METHODS[method](spark, tiny_edges, k=K, e_max=3, time_limit_s=0.4).timed_out


@pytest.mark.parametrize("method", list(METHODS))
def test_record_holds_every_enum_stats_field(spark, tiny_edges, method):
    """Each method reports its enumeration's :class:`EnumStats` whole in
    ``extra["enum"]``; TED also IPS's in ``extra["ips"]``, and the tree job
    each task's in its ``extra["partitions"]`` entry."""
    fields = {f.name for f in dataclasses.fields(EnumStats)}
    r = METHODS[method](spark, tiny_edges, k=K, e_max=2)
    assert set(r.extra["enum"]) == fields
    assert r.extra["enum"]["n_visited"] == r.n_enumerated > 0
    if method in ("base", "ted"):
        assert set(r.extra["ips"]) == fields
        assert (r.extra["ips"]["levels"] > 0) is (method == "ted")
    if method in ("all_g", "all_t", "opt_exact"):
        assert r.extra["partitions"]
        for p in r.extra["partitions"]:
            assert set(p) == fields | {"graphs", "pairs", "task_s"}

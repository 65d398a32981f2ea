"""Distributed enumeration tests: level jobs and gSpan driver vs brute
force, support thresholds, oracle-checked support aggregation, and results
that do not depend on how the edge table is partitioned."""
import dataclasses
import importlib
import math
import os
import random

import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.core.baselines import all_g, all_t, enumerate_cover_sets, fsg_g, opt_exact
from repro.core.ted import ted
from repro.enumeration import gspan
from repro.enumeration.distributed import ProjectedMatcher, match_level, match_level_df
from repro.enumeration.gspan import EnumStats, enumerate_gspan, level1_codes, mine_graphs
from repro.graphdb.generator import molecule_db
from repro.graphdb.model import edge_key, make_graph
from repro.graphdb.spark_io import GraphDB, to_edges_df, to_edges_pandas
from repro.isomorphism.bruteforce import (
    canonical_form_bruteforce,
    distinct_patterns_bruteforce,
)
from repro.isomorphism.dfscode import code_key, code_to_graph, is_min, min_code_of_graph
from repro.isomorphism.matcher import match_stats
from repro.maxcover.greedy import greedy_max_cover
from repro.oracle import assert_equivalent
from tests.helpers import tiny_db


class TestLevel1Codes:
    def test_all_triples_present(self, spark, tiny_mol_db, tiny_db):
        codes = level1_codes(tiny_db)
        expected = set()
        for g in tiny_mol_db:
            for u, v, el in g.edges:
                a, b = sorted((g.vlabels[u], g.vlabels[v]))
                expected.add(((0, 1, a, el, b),))
        assert set(codes) == expected

    def test_sorted_canonically(self, tiny_db):
        codes = level1_codes(tiny_db)
        assert codes == sorted(codes, key=code_key)

    def test_triples_against_oracle(self, spark, tiny_mol_db, tiny_db):
        triples = pd.DataFrame(sorted(code[0][2:] for code in level1_codes(tiny_db)),
                               columns=["a", "el", "b"])
        assert_equivalent(
            spark.createDataFrame(triples),
            "SELECT DISTINCT least(ul, vl) AS a, el, greatest(ul, vl) AS b FROM edges",
            edges=to_edges_pandas(tiny_mol_db),
        )


class TestMatchLevel:
    def test_matches_python_matcher(self, spark, tiny_mol_db, tiny_db):
        codes = level1_codes(tiny_db)[:6]
        stats = match_level(spark, tiny_db, codes)
        for ps in stats:
            exp_sup, exp_cov = set(), set()
            exp_ext = set()
            for g in tiny_mol_db:
                ms = match_stats(ps.code, g)
                if ms.n_embeddings:
                    exp_sup.add(g.gid)
                    exp_cov |= {edge_key(g.gid, e) for e in ms.covered_eids}
                    exp_ext |= ms.extensions
            assert ps.support_gids == exp_sup
            assert ps.cover == exp_cov
            assert ps.extensions == exp_ext

    def test_output_order_matches_input(self, spark, tiny_db):
        codes = level1_codes(tiny_db)
        stats = match_level(spark, tiny_db, codes)
        assert [ps.code for ps in stats] == codes

    def test_without_extensions_same_stats(
        self, spark, tiny_db, clique_db, two_level_codes
    ):
        """Skipping the extension walk leaves support, cover and the cap
        flag as they are; on the 7-clique the 4-edge path hits the cap."""
        path = [(0, 1, "C", "-", "C"), (1, 2, "C", "-", "C"),
                (2, 3, "C", "-", "C"), (3, 4, "C", "-", "C")]
        clique_codes = [tuple(path[:3]), tuple(path)]
        for db, codes in ((tiny_db, two_level_codes), (clique_db, clique_codes)):
            full = match_level(spark, db, codes, want_extensions=True)
            bare = match_level(spark, db, codes, want_extensions=False)
            assert [(ps.code, ps.support_gids, ps.cover, ps.truncated) for ps in bare] == [
                (ps.code, ps.support_gids, ps.cover, ps.truncated) for ps in full
            ]
            assert any(ps.extensions for ps in full)
            assert not any(ps.extensions for ps in bare)
        assert [ps.truncated for ps in bare] == [False, True]

    def test_frees_broadcasts(self, spark, tiny_db):
        """No level leaves a file in the session's temporary directory:
        the frontier travels in the task closure, not in a broadcast."""
        tmp = spark.sparkContext._temp_dir
        codes = level1_codes(tiny_db)
        match_level(spark, tiny_db, codes)
        before = sorted(os.listdir(tmp))
        for _ in range(3):
            match_level(spark, tiny_db, codes)
        assert sorted(os.listdir(tmp)) == before

    def test_level_df_schema(self, spark, tiny_db):
        codes = level1_codes(tiny_db)[:2]
        df = match_level_df(spark, tiny_db, codes)
        assert df.columns == ["pattern_id", "graph_id", "covered", "exts", "truncated"]

    def test_level_job_runs_one_task_per_core(self, spark, tiny_db):
        """The matching stage is not coalesced into a single task."""
        sc = spark.sparkContext
        codes = level1_codes(tiny_db)
        group = "test-level-job-parallelism"
        sc.setJobGroup(group, group)
        try:
            match_level_df(spark, tiny_db, codes).toPandas()
        finally:
            sc.setLocalProperty("spark.jobGroup.id", None)
            sc.setLocalProperty("spark.job.description", None)
        st = sc.statusTracker()
        stage_ids = [s for j in st.getJobIdsForGroup(group) for s in st.getJobInfo(j).stageIds]
        assert st.getStageInfo(max(stage_ids)).numTasks == sc.defaultParallelism

    def test_support_aggregation_oracle(self, spark, tiny_mol_db, tiny_db):
        """Spark countDistinct support aggregate vs DuckDB over the level rows."""
        codes = level1_codes(tiny_db)
        ldf = match_level_df(spark, tiny_db, codes, want_extensions=False).cache()
        agg = ldf.groupBy("pattern_id").agg(
            F.countDistinct("graph_id").alias("support"),
            F.sum(F.size("covered")).alias("coverage"),
        )
        rows = ldf.select("pattern_id", "graph_id", F.size("covered").alias("ncov")).toPandas()
        assert_equivalent(
            agg,
            "SELECT pattern_id, count(DISTINCT graph_id) AS support, sum(ncov) AS coverage "
            "FROM rows GROUP BY pattern_id",
            rows=rows,
        )
        ldf.unpersist()


RESPLITS = {
    "one": lambda df: df.repartition(1),
    "sixty_four": lambda df: df.repartition(64),
    "round_robin_7": lambda df: df.repartition(7),
}


@pytest.fixture(scope="module")
def two_level_codes(spark, tiny_db):
    """Level-1 codes plus one child per observed extension of each."""
    l1 = level1_codes(tiny_db)
    return l1 + [
        ps.code + (ext,) for ps in match_level(spark, tiny_db, l1) for ext in sorted(ps.extensions)
    ]


@pytest.fixture(scope="module")
def ted_on_tiny(spark, tiny_edges):
    return ted(spark, tiny_edges, k=3, e_max=3, variant="ted")


@pytest.mark.parametrize("resplit", list(RESPLITS.values()), ids=list(RESPLITS))
class TestInputPartitioning:
    """Results do not depend on how the edge table is split, including
    splits that cut graphs across input partitions."""

    def test_match_level_stats_identical(
        self, spark, tiny_edges, tiny_db, two_level_codes, resplit
    ):
        edges = resplit(tiny_edges)
        parts = edges.select("graph_id", F.spark_partition_id().alias("part")).distinct()
        graphs_cut = parts.groupBy("graph_id").count().where("count > 1").count()
        assert (graphs_cut > 0) == (edges.rdd.getNumPartitions() > 1)
        expected = match_level(spark, tiny_db, two_level_codes)
        assert match_level(spark, GraphDB.build(edges), two_level_codes) == expected

    def test_ted_identical(self, spark, tiny_edges, ted_on_tiny, resplit):
        r = ted(spark, resplit(tiny_edges), k=3, e_max=3, variant="ted")
        assert (r.patterns, r.coverage) == (ted_on_tiny.patterns, ted_on_tiny.coverage)


def driver_stream(spark, edges, e_max):
    """S as the driver loop streams it, ``[(code, cover)]``, and its stats."""
    seen = []
    stats = enumerate_gspan(spark, GraphDB.build(edges), e_max=e_max,
                            visitor=lambda ps: seen.append((ps.code, ps.cover)))
    return seen, stats


class TestTreeJob:
    """The materializing baselines mine S in one job whose tasks each run
    the level loop over their own graphs; the merged S is the driver
    loop's: the same codes, covers and order."""

    @pytest.mark.parametrize(
        "db, e_max, truncated",
        [("tiny_edges", 3, False), ("tiny_edges", 4, False), ("clique_edges", 3, False),
         ("clique_edges", 4, True), ("aids_edges", 4, False)],
    )
    def test_same_stream_as_driver_loop(self, request, spark, db, e_max, truncated):
        """On the clique one task holds the only graph, so even its capped
        run matches the driver loop's."""
        edges = request.getfixturevalue(db)
        expected, stats = driver_stream(spark, edges, e_max)
        sets, tree_stats, _ = enumerate_cover_sets(spark, GraphDB.build(edges), e_max=e_max)
        assert list(sets.items()) == expected
        assert stats.truncated is tree_stats.truncated is truncated
        assert tree_stats.n_visited == stats.n_visited and not tree_stats.timed_out

    @pytest.mark.parametrize("resplit", list(RESPLITS.values()), ids=list(RESPLITS))
    def test_input_split_changes_nothing(self, spark, tiny_edges, resplit):
        expected, _ = driver_stream(spark, tiny_edges, 3)
        sets, _, _ = enumerate_cover_sets(spark, GraphDB.build(resplit(tiny_edges)), e_max=3)
        assert list(sets.items()) == expected

    def test_one_partition_equals_one_per_core(self, spark, tiny_mol_db, tiny_edges):
        """The loop over the whole database in one process is the driver
        loop, counters included; the job's tasks split the graphs."""
        found, stats = mine_graphs(tiny_mol_db, e_max=3)
        expected, driver_stats = driver_stream(spark, tiny_edges, 3)
        assert [(ps.code, ps.cover) for ps in found] == expected
        assert stats == driver_stats
        r = all_g(spark, tiny_edges, k=3, e_max=3)
        assert r.n_enumerated == len(found)
        parts = r.extra["partitions"]
        assert 1 <= len(parts) <= spark.sparkContext.defaultParallelism
        assert sum(p["graphs"] for p in parts) == len(tiny_mol_db)

    def test_reports_phases_and_tasks(self, spark, tiny_edges):
        r = all_g(spark, tiny_edges, k=3, e_max=3)
        phases = r.extra["phases"]
        assert list(phases) == ["mining_s", "merge_s", "selection_s"]
        assert all(t >= 0 for t in phases.values()) and sum(phases.values()) <= r.elapsed_s
        fields = [f.name for f in dataclasses.fields(EnumStats)]
        for p in r.extra["partitions"]:
            assert list(p) == [*fields, "graphs", "pairs", "task_s"]
            assert p["levels"] == 3 and p["n_visited"] > 0 and p["task_s"] > 0
            assert p["graphs"] > 0 and p["pairs"] >= p["n_visited"]
            assert p["n_is_min"] >= p["n_children_nonmin"] > 0
            assert not p["timed_out"] and not p["truncated"]

    def test_total_of_the_parts(self, aids_db):
        """The stats of a database split into the four ``gid % 4`` parts
        add up by :meth:`EnumStats.total` as written out by hand; the last
        part gets a spent deadline, so only it sets ``timed_out``."""
        parts = [mine_graphs([g for g in aids_db.driver_graphs if g.gid % 4 == i], e_max=4,
                             deadline=0.0 if i == 3 else None)[1] for i in range(4)]
        assert [p.timed_out for p in parts] == [False, False, False, True]
        assert EnumStats.total(parts) == EnumStats(
            n_matched=sum(p.n_matched for p in parts),
            n_visited=sum(p.n_visited for p in parts),
            n_pruned_support=sum(p.n_pruned_support for p in parts),
            n_pruned_filter=sum(p.n_pruned_filter for p in parts),
            n_children_nonmin=sum(p.n_children_nonmin for p in parts),
            n_is_min=sum(p.n_is_min for p in parts),
            levels=max(p.levels for p in parts),
            timed_out=any(p.timed_out for p in parts),
            truncated=any(p.truncated for p in parts),
            peak_frontier=max(p.peak_frontier for p in parts),
        )
        assert EnumStats.total(parts[:1]) == parts[0]
        assert EnumStats.total([]) == EnumStats()

    def test_time_limit_stops_every_task(self, spark, tiny_edges):
        r = all_g(spark, tiny_edges, k=3, e_max=4, time_limit_s=0.0)
        assert r.timed_out
        assert all(p["timed_out"] and p["levels"] == 1 for p in r.extra["partitions"])

    @pytest.mark.parametrize("e_max", [2, 3, 4])
    def test_no_extensions_at_e_max_in_task(self, tiny_mol_db, monkeypatch, e_max):
        """The in-task loop skips the extension walk at ``e_max``; forcing
        it everywhere changes no pattern, cover or counter."""
        found, stats = mine_graphs(tiny_mol_db, e_max=e_max)
        asked = []

        def forced(self, codes, want_extensions, _real=ProjectedMatcher.__call__):
            asked.append((len(codes[0]), want_extensions))
            return _real(self, codes, True)

        monkeypatch.setattr(ProjectedMatcher, "__call__", forced)
        ref, ref_stats = mine_graphs(tiny_mol_db, e_max=e_max)
        assert set(asked) == {(n, n < e_max) for n in range(1, e_max + 1)}
        assert [(ps.code, ps.support_gids, ps.cover, ps.truncated) for ps in found] == [
            (ps.code, ps.support_gids, ps.cover, ps.truncated) for ps in ref
        ]
        assert stats == ref_stats

    @pytest.mark.parametrize("e_max", [3, 4])
    def test_kept_embeddings_with_mixed_caps(self, spark, e_max):
        """The kept embeddings give the driver loop's stream, counters
        included, when a parent is capped in some graphs and not in others:
        the 2-edge path C-C-C has 2070 embeddings in a hub with 46 C leaves,
        over the cap, 210 in the 7-clique and a few in the molecules. Its
        children must be matched from the root in the hub: its child
        C-C-C-O, with the O on the hub's first leaf, has 45 embeddings there,
        and extending the 2000 capped parent embeddings finds fewer."""
        n_leaves = 46
        db = molecule_db("emol_lite", 10, seed=2) + [
            make_graph(10, ["C"] * 7, [(u, v) for u in range(7) for v in range(u + 1, 7)]),
            make_graph(11, ["C"] * (n_leaves + 1) + ["O"],
                       [(0, i) for i in range(1, n_leaves + 1)] + [(1, n_leaves + 1)]),
        ]
        expected = []
        stats = enumerate_gspan(
            spark, GraphDB.build(to_edges_df(spark, db)), e_max=e_max,
            visitor=lambda ps: expected.append((ps.code, ps.support_gids, ps.cover, ps.truncated)),
        )
        found, tree_stats = mine_graphs(db, e_max=e_max)
        assert [(ps.code, ps.support_gids, ps.cover, ps.truncated) for ps in found] == expected
        assert tree_stats == stats and stats.truncated
        path2 = next(ps for ps in found if ps.code == ((0, 1, "C", "-", "C"), (1, 2, "C", "-", "C")))
        assert path2.truncated and {10, 11} < path2.support_gids

    @pytest.mark.parametrize("e_max", [2, 3, 4])
    def test_children_tried_only_where_parent_occurs(self, tiny_mol_db, e_max):
        """A task tries each root in every graph and each minimal child only
        in the graphs that hold its parent, so its pairs are roots x graphs
        plus, per child, its parent's support in the task."""
        for graphs in (tiny_mol_db, tiny_mol_db[:5], tiny_mol_db[5:]):
            match = ProjectedMatcher(graphs)
            found, _ = mine_graphs(graphs, e_max=e_max, matcher=match)
            support = {ps.code: ps.support for ps in found}
            n_roots = sum(len(ps.code) == 1 for ps in found)
            routed = sum(support[ps.code[:-1]] for ps in found if len(ps.code) > 1)
            assert match.pairs == n_roots * len(graphs) + routed
            assert match.pairs < len(found) * len(graphs)

    @pytest.mark.parametrize("resplit", [None, *RESPLITS.values()], ids=["cached", *RESPLITS])
    def test_tasks_count_the_edges(self, spark, tiny_edges, resplit):
        """ALL_g, ALL_t and OPT report the edge table's count as
        ``total_edges``, however the table is split, also when every task
        stops after its first level."""
        edges = tiny_edges if resplit is None else resplit(tiny_edges)
        total = tiny_edges.count()
        for run in (all_g, all_t, opt_exact):
            assert run(spark, edges, k=3, e_max=2).total_edges == total
        r = all_g(spark, edges, k=3, e_max=4, time_limit_s=0.0)
        assert r.timed_out and r.total_edges == total


class TestProjectedMatcher:
    def test_frontier_mixing_kept_and_unkept_parents(self, spark, tiny_mol_db, tiny_db):
        """After levels 1 and 2, a frontier that mixes level-3 children, whose
        parents are kept, with level-2 codes, whose level-1 parents are no
        longer kept, gives what a fresh matcher and the level job give."""
        match = ProjectedMatcher(tiny_mol_db)
        level1 = match(level1_codes(tiny_db), True)
        level2 = match(sorted({
            ps.code + (e,) for ps in level1 for e in ps.extensions if is_min(ps.code + (e,))
        }, key=code_key), True)
        level3 = [ps.code + (e,) for ps in level2 for e in sorted(ps.extensions)]
        mixed = level3[::4] + [ps.code for ps in level2[::2]]
        random.Random(0).shuffle(mixed)
        assert {len(c) for c in mixed} == {2, 3}
        got = match(mixed, True)
        assert all(ps.support for ps in got)
        assert got == ProjectedMatcher(tiny_mol_db)(mixed, True)
        assert got == match_level(spark, tiny_db, mixed)


@pytest.mark.parametrize("seed", [1, 2, 3])
class TestGSpanVsBruteForce:
    def test_same_patterns_supports_covers(self, spark, seed):
        db = tiny_db(seed, n_graphs=6, n_min=4, n_max=7)
        seen = {}
        enumerate_gspan(spark, GraphDB.build(to_edges_df(spark, db)), e_max=3, visitor=lambda ps: seen.__setitem__(ps.code, ps))
        bf = distinct_patterns_bruteforce(db, 3)
        assert len(seen) == len(bf)
        bf_keyed = {}
        for canon, occ in bf.items():
            cov = set()
            for gid, esets in occ.items():
                for es in esets:
                    cov |= {edge_key(gid, e) for e in es}
            bf_keyed[canon] = (frozenset(occ), frozenset(cov))
        for code, ps in seen.items():
            canon = canonical_form_bruteforce(code_to_graph(code))
            sup, cov = bf_keyed[canon]
            assert ps.support_gids == sup and ps.cover == cov


class TestSupportThreshold:
    def test_frequent_subset_of_all(self, spark, tiny_db):
        all_codes, freq_codes = set(), set()
        enumerate_gspan(spark, tiny_db, e_max=3,
                        visitor=lambda ps: all_codes.add(ps.code))
        enumerate_gspan(spark, tiny_db, e_max=3, min_support_frac=0.5,
                        visitor=lambda ps: freq_codes.add(ps.code))
        assert freq_codes < all_codes

    def test_threshold_enforced(self, spark, tiny_mol_db, tiny_db):
        frac = 0.5
        thresh = math.ceil(frac * len(tiny_mol_db))
        sups = []
        enumerate_gspan(spark, tiny_db, e_max=3, min_support_frac=frac,
                        visitor=lambda ps: sups.append(ps.support))
        assert sups and all(s >= thresh for s in sups)

    def test_antimonotone_no_frequent_child_missed(self, spark, tiny_mol_db, tiny_db):
        """Every frequent pattern found by ALL-enumeration must also be found
        with support pruning on (anti-monotonicity of support)."""
        frac = 0.4
        thresh = math.ceil(frac * len(tiny_mol_db))
        all_frequent, mined = set(), set()
        enumerate_gspan(
            spark, tiny_db, e_max=3,
            visitor=lambda ps: all_frequent.add(ps.code) if ps.support >= thresh else None,
        )
        enumerate_gspan(spark, tiny_db, e_max=3, min_support_frac=frac,
                        visitor=lambda ps: mined.add(ps.code))
        assert mined == all_frequent


class TestControls:
    def test_e_max_respected(self, spark, tiny_db):
        sizes = []
        enumerate_gspan(spark, tiny_db, e_max=2, visitor=lambda ps: sizes.append(len(ps.code)))
        assert max(sizes) == 2

    def test_time_limit_flags(self, spark, tiny_db):
        stats = enumerate_gspan(spark, tiny_db, e_max=4, deadline=0.0)
        assert stats.timed_out

    def test_run_with_no_next_level_is_complete(self, spark, tiny_db):
        """At ``e_max = 1`` the loop ends after level 1, so a spent time
        limit cuts nothing: both loops stream every root, not timed out."""
        graphs = molecule_db("aids_lite", 10, seed=0)
        found, stats = mine_graphs(graphs, e_max=1, deadline=0.0)
        ref, ref_stats = mine_graphs(graphs, e_max=1)
        assert [ps.code for ps in found] == [ps.code for ps in ref]
        assert stats == ref_stats and not stats.timed_out
        stats = enumerate_gspan(spark, tiny_db, e_max=1, deadline=0.0)
        assert stats.n_visited == len(level1_codes(tiny_db)) and not stats.timed_out

    def test_no_is_min_past_the_deadline(self, spark, aids_edges, monkeypatch):
        """A spent deadline stops every loop before it checks an extension:
        IPS's and TED's enumeration on the driver, and every task of
        ALL_g's tree job."""
        calls = []

        def counted(code, _real=gspan.is_min):
            calls.append(code)
            return _real(code)

        monkeypatch.setattr(gspan, "is_min", counted)
        r = ted(spark, aids_edges, k=5, e_max=4, variant="ted", time_limit_s=0.0)
        assert r.timed_out and r.extra["ips"]["timed_out"] and r.extra["enum"]["timed_out"]
        assert r.extra["ips"]["n_is_min"] == r.extra["enum"]["n_is_min"] == len(calls) == 0
        r = all_g(spark, aids_edges, k=5, e_max=4, time_limit_s=0.0)
        assert r.timed_out and r.extra["partitions"]
        assert all(p["timed_out"] and p["n_is_min"] == 0 for p in r.extra["partitions"])

    def test_extend_filter_prunes(self, spark, tiny_db):
        unpruned = EnumStats()
        n_all, n_pruned = [], []
        s1 = enumerate_gspan(spark, tiny_db, e_max=3)
        s2 = enumerate_gspan(spark, tiny_db, e_max=3, extend_filter=lambda ps: len(ps.code) < 1)
        assert s2.n_visited < s1.n_visited and s2.n_pruned_filter > 0


ALGOS = {
    "all_g": all_g,
    "fsg_g": fsg_g,
    "ted": lambda spark, edges, **kw: ted(spark, edges, variant="ted", **kw),
}


@pytest.mark.parametrize("e_max", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("algo", list(ALGOS))
def test_no_extensions_at_e_max_changes_nothing(
    spark, tiny_edges, tiny_db, monkeypatch, algo, e_max
):
    """Levels whose codes have ``e_max`` edges are matched without
    extensions; answers and counters equal a run that asks for them
    everywhere. The level jobs, with IPS's depths after the first on the
    driver, serve sizes 2..e_max; the roots are matched on the driver, which
    asks for their extensions only when ``e_max > 1``.
    ALL_g's level loop runs inside the tasks of one job, out of the patch's
    reach: its answer must equal greedy MaxCover over the S the driver loop
    streams when it asks for extensions everywhere (``TestTreeJob`` checks
    the in-task loop with the same patch)."""
    run = ALGOS[algo]
    r = run(spark, tiny_edges, k=3, e_max=e_max)
    asked, on_driver = [], []
    for name in ("repro.core.ted", "repro.enumeration.gspan"):
        mod = importlib.import_module(name)

        def forced(spark, edges, codes, *, want_extensions, _real=mod.match_level):
            asked.append((len(codes[0]), want_extensions))
            return _real(spark, edges, codes, want_extensions=True)

        monkeypatch.setattr(mod, "match_level", forced)

    def forced_driver(self, codes, want_extensions, _real=ProjectedMatcher.__call__):
        on_driver.append((len(codes[0]), want_extensions))
        return _real(self, codes, True)

    monkeypatch.setattr(ProjectedMatcher, "__call__", forced_driver)
    if algo == "all_g":
        sets = {}
        stats = enumerate_gspan(spark, tiny_db, e_max=e_max,
                                visitor=lambda ps: sets.__setitem__(ps.code, ps.cover))
        chosen, covered = greedy_max_cover(sets, 3)
        assert (r.patterns, r.coverage, r.n_enumerated, r.truncated, r.timed_out) == (
            chosen, len(covered), len(sets), stats.truncated, stats.timed_out)
    else:
        ref = run(spark, tiny_edges, k=3, e_max=e_max)

        def untimed(res):
            extra = {**res.extra, "handle_s": 0.0}
            if "prm" in extra:
                extra["prm"] = {**extra["prm"], "reach_s": 0.0}
            return dataclasses.replace(res, elapsed_s=0.0, index_time_s=0.0, extra=extra)

        assert untimed(r) == untimed(ref)
    assert {want for n, want in on_driver if n == 1} == {e_max > 1}
    assert set(asked) | {(n, want) for n, want in on_driver if n > 1} == {
        (n, n < e_max) for n in range(2, e_max + 1)}

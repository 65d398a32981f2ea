"""TED framework tests: variant validity, incremental-vs-recomputed
coverage, the Theorem-4 approximation bound against exact OPT, the
optimization strategies' behaviour, that PRM's reach bound is sound
against every brute-force descendant, that IPS equals a serial reference
walk, that the enumeration does not repeat IPS's level jobs, that the
narrow frontiers matched on the driver equal the level jobs', and that
embedding-cap truncation is reported."""
import importlib
import random
import time

import pytest

from repro.core.baselines import all_g, fsg_g, opt_exact
from repro.core.maintain import PatternMaintainer
from repro.core.pes_index import PESIndex
from repro.core.ted import ips_initial_patterns, match_level, reach_bound, ted
from repro.enumeration.distributed import PatternLevelStats, ProjectedMatcher
from repro.enumeration.gspan import enumerate_gspan, level1_codes
from repro.graphdb.generator import molecule_db
from repro.graphdb.model import edge_key, induced_subgraph, make_graph, split_edge_key
from repro.graphdb.spark_io import GraphDB, to_edges_df
from repro.isomorphism.bruteforce import distinct_patterns_bruteforce
from repro.isomorphism.dfscode import code_key, code_to_graph, encode, is_min, min_code_of_graph
from repro.isomorphism.matcher import cover_set, match_stats
from tests.helpers import tiny_db

K, E_MAX = 3, 3

# PRM-vs-BASE differential grid: (database, seed, k, alpha). A seeded sample
# of it is checked on every run; all 72 cases were equal when it was drawn.
PRM_GRID = [
    (db, seed, k, alpha)
    for db in ("tiny", "emol_lite-30")
    for seed in range(12)
    for k, alpha in ((3, 1.0), (5, 0.5), (4, 0.0))
]
PRM_CASES = random.Random(0).sample(PRM_GRID, 6)

# Answers-unchanged matrix: (profile, graphs, seed, e_max, alphas), k = 5.
ANSWER_MATRIX = [
    *(("aids_lite", 100, seed, 4, (0.0, 0.5, 1.0)) for seed in range(3)),
    *(("emol_lite", 30, 0, e_max, (1.0,)) for e_max in (3, 4, 5)),
]


def _answer(r):
    """What a discovery call answers: its pattern set, coverage and flag."""
    return {encode(c) for c in r.patterns}, r.coverage, r.truncated


@pytest.fixture(scope="module", params=["base", "prm", "ips", "ted"])
def variant_result(request, spark, tiny_edges):
    return ted(spark, tiny_edges, k=K, e_max=E_MAX, variant=request.param)


class TestVariantValidity:
    def test_at_most_k_patterns(self, variant_result):
        assert 1 <= len(variant_result.patterns) <= K

    def test_patterns_within_e_max(self, variant_result):
        assert all(len(c) <= E_MAX for c in variant_result.patterns)

    def test_patterns_are_minimal_codes(self, variant_result):
        assert all(is_min(c) for c in variant_result.patterns)

    def test_patterns_connected(self, variant_result):
        assert all(code_to_graph(c).is_connected() for c in variant_result.patterns)

    def test_coverage_rate_in_unit_interval(self, variant_result):
        assert 0 < variant_result.coverage_rate <= 1

    def test_incremental_coverage_matches_recomputation(
        self, spark, tiny_db, variant_result
    ):
        stats = match_level(spark, tiny_db, variant_result.patterns, want_extensions=False)
        assert len(frozenset().union(*(ps.cover for ps in stats))) == variant_result.coverage

    def test_not_truncated_on_molecules(self, variant_result):
        assert not variant_result.truncated

    def test_instrumentation_populated(self, variant_result):
        assert variant_result.elapsed_s > 0
        assert variant_result.index_size_bytes > 0
        assert variant_result.n_enumerated > 0

    def test_enumeration_counters_reported(self, variant_result):
        """With no support threshold every matched pattern is visited."""
        assert variant_result.extra["enum"]["n_matched"] == variant_result.n_enumerated
        assert variant_result.extra["enum"]["n_children_nonmin"] > 0

    def test_prm_counters_reported(self, variant_result):
        """The subtrees cut by each of PRM's two tests add up to
        ``n_pruned``; a variant without PRM cuts none and spends no time."""
        prm = variant_result.extra["prm"]
        assert prm["def7_pruned"] + prm["reach_pruned"] == variant_result.n_pruned
        if variant_result.name in ("BASE", "IPS"):
            assert prm == {"def7_pruned": 0, "reach_pruned": 0, "reach_s": 0.0}


class TestApproximationBound:
    @pytest.mark.parametrize("seed", [11, 12, 13])
    def test_ted_at_least_quarter_of_opt(self, spark, seed):
        db = tiny_db(seed, n_graphs=6, n_min=4, n_max=7)
        edges = to_edges_df(spark, db)
        opt = opt_exact(spark, edges, k=K, e_max=E_MAX)
        for variant in ("base", "ted"):
            r = ted(spark, edges, k=K, e_max=E_MAX, variant=variant)
            assert r.coverage >= opt.coverage / 4, (
                f"{variant}: {r.coverage} < OPT/4 = {opt.coverage / 4}"
            )

    @pytest.mark.parametrize("seed", [11, 12])
    def test_ted_within_opt(self, spark, seed):
        db = tiny_db(seed, n_graphs=6, n_min=4, n_max=7)
        edges = to_edges_df(spark, db)
        opt = opt_exact(spark, edges, k=K, e_max=E_MAX)
        r = ted(spark, edges, k=K, e_max=E_MAX)
        assert r.coverage <= opt.coverage


class TestOptimizations:
    def test_prm_prunes_without_losing_coverage(self, spark, tiny_edges):
        """Theorem 3: PRM never prunes a subtree that would change the
        answer, so its patterns and coverage equal BASE's exactly
        (DESIGN.md §3.3)."""
        cases = [("tiny_edges", tiny_edges, K, 1.0)]
        for db, seed, k, alpha in PRM_CASES:
            graphs = tiny_db(seed) if db == "tiny" else molecule_db("emol_lite", 30, seed=seed)
            cases.append((f"{db} seed={seed}", to_edges_df(spark, graphs), k, alpha))
        for name, edges, k, alpha in cases:
            base = ted(spark, edges, k=k, e_max=E_MAX, alpha=alpha, variant="base")
            prm = ted(spark, edges, k=k, e_max=E_MAX, alpha=alpha, variant="prm")
            assert _answer(prm) == _answer(base), f"{name} k={k} alpha={alpha}"
            assert prm.n_enumerated <= base.n_enumerated, f"{name} k={k} alpha={alpha}"

    @pytest.mark.parametrize("profile, n, seed, e_max, alphas", ANSWER_MATRIX, ids=[
        f"{profile}-{n}-seed{seed}-emax{e_max}" for profile, n, seed, e_max, _ in ANSWER_MATRIX])
    def test_answers_unchanged_by_prm(self, spark, profile, n, seed, e_max, alphas):
        """PRM equals BASE, and TED equals IPS: patterns, coverage and
        ``truncated``."""
        edges = to_edges_df(spark, molecule_db(profile, n, seed=seed)).cache()
        try:
            for alpha in alphas:
                run = {v: _answer(ted(spark, edges, k=5, e_max=e_max, alpha=alpha, variant=v))
                       for v in ("base", "prm", "ips", "ted")}
                assert run["prm"] == run["base"], f"alpha={alpha}"
                assert run["ted"] == run["ips"], f"alpha={alpha}"
        finally:
            edges.unpersist()

    @pytest.mark.parametrize("variant", ["prm", "ted"])
    def test_reach_bound_cuts_more_than_definition_7(
        self, spark, aids_edges, monkeypatch, variant
    ):
        """aids_lite-100, k=5, E_max=4: with the reach bound a call visits
        fewer patterns than with Definition 7's bound alone (the reach
        bound made to never cut), and answers the same."""
        ted_module = importlib.import_module("repro.core.ted")
        reach = ted(spark, aids_edges, k=5, e_max=4, variant=variant)
        monkeypatch.setattr(ted_module, "reach_bound", lambda *a: float("inf"))
        def7 = ted(spark, aids_edges, k=5, e_max=4, variant=variant)
        assert _answer(reach) == _answer(def7)
        assert reach.n_enumerated < def7.n_enumerated
        assert reach.extra["prm"]["reach_pruned"] > 0
        assert def7.extra["prm"]["reach_pruned"] == 0

    def test_full_ted_coverage_at_least_base_minus_slack(self, spark, tiny_edges):
        base = ted(spark, tiny_edges, k=K, e_max=E_MAX, variant="base")
        full = ted(spark, tiny_edges, k=K, e_max=E_MAX, variant="ted")
        assert full.coverage >= 0.95 * base.coverage

    def test_ips_produces_k_disjoint_initial_patterns(self, spark, tiny_db):
        init, _ = ips_initial_patterns(spark, tiny_db, k=K, e_max=E_MAX)
        codes = [c for c, _ in init]
        assert 1 <= len(codes) <= K and len(set(codes)) == len(codes)
        assert all(is_min(c) and len(c) <= E_MAX for c in codes)

    def test_ips_initial_patterns_sorted_by_coverage(self, spark, tiny_db):
        init, _ = ips_initial_patterns(spark, tiny_db, k=K, e_max=E_MAX)
        sizes = [len(cov) for _, cov in init]
        assert sizes == sorted(sizes, reverse=True)

    def test_invalid_variant_raises(self, spark, tiny_edges):
        with pytest.raises(ValueError):
            ted(spark, tiny_edges, k=K, e_max=E_MAX, variant="bogus")


class TestReachBound:
    """PRM's reach bound is sound: no descendant within E_max of a pattern
    covers more edges outside P than the pattern's :func:`reach_bound`.
    Checked against every brute-force pattern, with P empty and with P
    built by the maintainer from the whole level-ordered stream."""

    @pytest.mark.parametrize("e_max", [3, 4])
    @pytest.mark.parametrize("db_name, seed", [("tiny", 1), ("tiny", 2), ("emol_lite-12", 42)])
    def test_no_descendant_beats_the_bound(self, db_name, seed, e_max):
        db = tiny_db(seed) if db_name == "tiny" else molecule_db("emol_lite", 12, seed=seed)
        graphs = {g.gid: g for g in db}

        def min_code(per_graph):  # of a pattern's first brute-force occurrence
            gid, occurrences = next(iter(per_graph.items()))
            return min_code_of_graph(induced_subgraph(graphs[gid], next(iter(occurrences))))

        codes = sorted(map(min_code, distinct_patterns_bruteforce(db, e_max).values()),
                       key=code_key)
        covers = {c: frozenset(edge_key(g.gid, e) for g in db for e in cover_set(c, g))
                  for c in codes}
        maintainer = PatternMaintainer(k=3)
        for c in codes:
            maintainer.offer(c, covers[c])
        pairs = 0
        for index in (PESIndex(), maintainer.index):
            for p in (c for c in codes if len(c) < e_max):
                bound = reach_bound(covers[p], e_max - len(p), graphs, index.rcov)
                def7 = sum(1 for gid in {split_edge_key(e)[0] for e in covers[p]}
                           for eid in range(graphs[gid].n_edges)
                           if edge_key(gid, eid) not in index.rcov)
                assert bound <= def7
                for q in codes:
                    if len(q) > len(p) and q[: len(p)] == p:
                        pairs += 1
                        assert index.benefit(covers[q]) <= bound, (p, q)
        assert pairs > 0


def _reference_ips(db, *, k, e_max, e_min=1):
    """Serial IPS: one chain per root, each step taken to the child of most
    coverage (least ``code_key`` on a tie) while coverage strictly improves
    and the head has fewer than ``e_max`` edges, every pattern matched with
    ``match_stats`` over ``db.driver_graphs``. Returns the initial patterns
    and the stats of every pattern matched, by code."""

    def stats(code):
        want = len(code) < e_max
        per_graph = [(g.gid, match_stats(code, g, want_extensions=want))
                     for g in db.driver_graphs]
        per_graph = [(gid, ms) for gid, ms in per_graph if ms.n_embeddings]
        return PatternLevelStats(
            code=code,
            support_gids=frozenset(gid for gid, _ in per_graph),
            cover=frozenset(edge_key(gid, e) for gid, ms in per_graph for e in ms.covered_eids),
            extensions=frozenset(e for _, ms in per_graph for e in ms.extensions),
            truncated=any(ms.truncated for _, ms in per_graph),
        )

    matched, heads = {}, []
    for root in level1_codes(db):
        head = matched[root] = stats(root)
        while len(head.code) < e_max:
            children = [head.code + (e,) for e in head.extensions if is_min(head.code + (e,))]
            for child in children:
                matched[child] = stats(child)
            best = min(children, key=lambda c: (-matched[c].coverage, code_key(c)), default=None)
            if best is None or matched[best].coverage <= head.coverage:
                break
            head = matched[best]
        heads.append(head)
    heads.sort(key=lambda ps: (-ps.coverage, code_key(ps.code)))
    return [(ps.code, ps.cover) for ps in heads if len(ps.code) >= e_min][:k], matched


class TestIpsReference:
    """IPS equals the serial reference walk: the same initial patterns, and
    the same support, cover and ``truncated`` for every pattern matched."""

    @pytest.mark.parametrize("db_name", ["tiny_db", "aids_db", "clique_db"])
    @pytest.mark.parametrize("e_max, e_min", [(1, 1), (2, 1), (3, 1), (4, 1), (4, 3)])
    def test_ips_equals_the_serial_walk(self, spark, request, db_name, e_max, e_min):
        db = request.getfixturevalue(db_name)
        matched = {}
        initial, _ = ips_initial_patterns(
            spark, db, k=5, e_max=e_max, e_min=e_min, matched=matched)
        want_initial, want = _reference_ips(db, k=5, e_max=e_max, e_min=e_min)
        assert initial == want_initial
        assert matched.keys() == want.keys()
        for code, ps in matched.items():
            ref = want[code]
            assert (ps.support_gids, ps.cover, ps.truncated) == (
                ref.support_gids, ref.cover, ref.truncated), code


class TestMatchOnce:
    """IPS's stats feed the enumeration, so one ``ted()`` call matches each
    pattern once, and the enumeration sees the same stream either way."""

    @pytest.mark.parametrize("variant", ["ips", "ted"])
    def test_no_pattern_sent_to_match_level_twice(self, spark, tiny_edges, monkeypatch, variant):
        sent = []
        for name in ("repro.core.ted", "repro.enumeration.gspan"):
            mod = importlib.import_module(name)

            def spy(spark, edges, codes, *, _real=mod.match_level, **kw):
                sent.extend(codes)
                return _real(spark, edges, codes, **kw)

            monkeypatch.setattr(mod, "match_level", spy)
        ted(spark, tiny_edges, k=K, e_max=E_MAX, variant=variant)
        assert sent and len(sent) == len(set(sent))

    @pytest.mark.parametrize("variant", ["base", "ted"])
    def test_level1_scanned_once(self, spark, tiny_edges, monkeypatch, variant):
        """One ``ted()`` call scans the edge table once, to build its
        database handle, and every level job of the call, IPS's included,
        runs on that handle."""
        built, used = [], set()
        real_build = GraphDB.build

        def spy_build(edges):
            built.append(real_build(edges))
            return built[-1]

        monkeypatch.setattr(GraphDB, "build", spy_build)
        for name in ("repro.core.ted", "repro.enumeration.gspan"):
            mod = importlib.import_module(name)

            def spy(spark, db, codes, *, _real=mod.match_level, **kw):
                used.add(id(db))
                return _real(spark, db, codes, **kw)

            monkeypatch.setattr(mod, "match_level", spy)
        ted(spark, tiny_edges, k=K, e_max=E_MAX, variant=variant)
        assert len(built) == 1 and used == {id(built[0])}

    @pytest.mark.parametrize("extend_filter", [None, lambda ps: ps.support > 2])
    def test_ips_stats_leave_enumeration_unchanged(self, spark, tiny_db, extend_filter):
        def run(matched):
            seen = []
            stats = enumerate_gspan(
                spark,
                tiny_db,
                e_max=E_MAX,
                visitor=lambda ps: seen.append((ps.code, ps.support_gids, ps.cover, ps.extensions)),
                extend_filter=extend_filter,
                matched=matched,
            )
            return seen, stats

        matched = {}
        ips_initial_patterns(spark, tiny_db, k=K, e_max=E_MAX, matched=matched)
        n_ips = len(matched)
        assert run(matched) == run(None)
        assert len(matched) < n_ips  # entries are popped as they are used


class TestVsGreedyAll:
    def test_ted_close_to_all_g(self, spark, tiny_edges):
        """Paper Result 1: TED comparable to ALL_g in coverage."""
        allg = all_g(spark, tiny_edges, k=K, e_max=E_MAX)
        r = ted(spark, tiny_edges, k=K, e_max=E_MAX)
        assert r.coverage >= 0.85 * allg.coverage


class TestTruncation:
    """The embedding cap is reported as ``AlgoResult.truncated``."""

    @pytest.mark.parametrize("variant", ["base", "ted"])
    @pytest.mark.parametrize("e_max, expected", [(3, False), (4, True)])
    def test_reports_cap_on_clique(
        self, spark, clique_edges, monkeypatch, variant, e_max, expected
    ):
        """Also checks the flag against what the level jobs returned, which
        covers IPS's jobs in the ``ted`` variant."""
        seen = []
        for name in ("repro.core.ted", "repro.enumeration.gspan"):
            mod = importlib.import_module(name)

            def spy(spark, edges, codes, *, _real=mod.match_level, **kw):
                out = _real(spark, edges, codes, **kw)
                seen.extend(ps.truncated for ps in out)
                return out

            monkeypatch.setattr(mod, "match_level", spy)
        r = ted(spark, clique_edges, k=K, e_max=e_max, variant=variant)
        assert r.truncated is expected and any(seen) is expected

    @pytest.mark.parametrize("variant, expected", [("base", False), ("ted", True)])
    def test_ips_matches_count(self, spark, monkeypatch, variant, expected):
        """A C with 46 N leaves: N-C-N has 46 * 45 = 2070 embeddings. IPS
        matches it on its first step; the enumeration, given no time past
        level 1, never does. IPS starts no step past the call's deadline,
        so the limit is put on the enumeration alone."""
        ted_module = importlib.import_module("repro.core.ted")

        def level1_only(*args, _real=ted_module.enumerate_gspan, **kw):
            return _real(*args, **{**kw, "deadline": 0.0})

        monkeypatch.setattr(ted_module, "enumerate_gspan", level1_only)
        star = make_graph(0, ["C"] + ["N"] * 46, [(0, v) for v in range(1, 47)])
        edges = to_edges_df(spark, [star])
        r = ted(spark, edges, k=K, e_max=E_MAX, variant=variant)
        assert r.timed_out and r.truncated is expected


def _spy_match_level(monkeypatch, out: list) -> None:
    """Record the codes of every ``match_level`` call of ``ted()`` and the
    enumeration in ``out``, one list per call."""
    for name in ("repro.core.ted", "repro.enumeration.gspan"):
        mod = importlib.import_module(name)

        def spy(spark, db, codes, *, _real=mod.match_level, **kw):
            out.append(codes)
            return _real(spark, db, codes, **kw)

        monkeypatch.setattr(mod, "match_level", spy)


class TestNarrowFrontiersOnDriver:
    """The frontiers narrow by their role (every enumeration's roots, and
    IPS's depths after the first) are matched on the driver by a
    :class:`ProjectedMatcher` over the handle's graphs, with stats equal to
    the level job's; only the wide levels are Spark jobs."""

    def test_ips_driver_stats_equal_the_level_job(self, spark, aids_edges, monkeypatch):
        """aids_lite-100: the roots and IPS's depth-2 and depth-3 frontiers,
        as the walk matches them (depth 3 from depth 2's kept embeddings),
        equal ``match_level`` field by field."""
        db = GraphDB.build(aids_edges)
        calls = []

        def spy(self, codes, want_extensions, _real=ProjectedMatcher.__call__):
            out = _real(self, codes, want_extensions)
            calls.append((codes, want_extensions, out))
            return out

        monkeypatch.setattr(ProjectedMatcher, "__call__", spy)
        ips_initial_patterns(spark, db, k=5, e_max=4)
        monkeypatch.undo()
        assert [len(codes[0]) for codes, _, _ in calls] == [1, 3, 4]
        for codes, want, out in calls:
            assert out == match_level(spark, db, codes, want_extensions=want)
            assert any(ps.extensions for ps in out) is want

    def test_capped_frontiers_on_clique(self, spark, clique_edges, clique_db):
        """Levels 1-4 of the 7-clique through one driver matcher, which
        keeps each level's embeddings for the next, equal the level jobs';
        level 4 hits the embedding cap on both paths."""
        driver = ProjectedMatcher(clique_db.driver_graphs)
        codes = level1_codes(clique_db)
        for size in range(1, 5):
            got = driver(codes, size < 4)
            assert got == match_level(spark, clique_db, codes, want_extensions=size < 4)
            codes = sorted({ps.code + (e,) for ps in got for e in ps.extensions
                            if is_min(ps.code + (e,))}, key=code_key)
        assert any(ps.truncated for ps in got)
        assert ted(spark, clique_edges, k=K, e_max=4, variant="ips").truncated

    def test_ted_runs_the_handle_and_three_level_jobs(self, spark, aids_edges, monkeypatch):
        """aids_lite-100, k=5, E_max=4. IPS runs the handle's collect, its
        depth 1 (which is also the enumeration's level 2), and levels 3
        and 4. TED's PRM cuts every level-3 pattern's subtree, so it runs
        no level-4 job."""
        sc = spark.sparkContext
        keys = ("spark.jobGroup.id", "spark.job.description", "spark.job.interruptOnCancel")
        caller = {k: sc.getLocalProperty(k) for k in keys}
        sent = []
        _spy_match_level(monkeypatch, sent)
        for variant, n_jobs, sizes in (("ips", 4, [2, 3, 4]), ("ted", 3, [2, 3])):
            group = f"test-{variant}-level-jobs"
            sent.clear()
            sc.setJobGroup(group, group)
            try:
                ted(spark, aids_edges, k=5, e_max=4, variant=variant)
            finally:
                for k, v in caller.items():
                    sc.setLocalProperty(k, v)
            assert len(sc.statusTracker().getJobIdsForGroup(group)) == n_jobs, variant
            assert sorted(len(codes[0]) for codes in sent) == sizes, variant

    @pytest.mark.parametrize("method", ["base", "prm", "ips", "ted", "fsg_g"])
    def test_no_level_job_matches_a_root(self, spark, tiny_edges, monkeypatch, method):
        sent = []
        _spy_match_level(monkeypatch, sent)
        if method == "fsg_g":
            fsg_g(spark, tiny_edges, k=K, e_max=E_MAX)
        else:
            ted(spark, tiny_edges, k=K, e_max=E_MAX, variant=method)
        assert sent and all(len(code) > 1 for codes in sent for code in codes)

    @pytest.mark.parametrize("variant", ["ips", "ted"])
    def test_ips_starts_no_depth_past_the_deadline(
        self, spark, tiny_edges, monkeypatch, variant
    ):
        """A build that outlasts the limit leaves IPS its roots only, which
        are matched on the driver: no level job runs, and P is k roots."""

        def slow_build(edges, _real=GraphDB.build):
            time.sleep(0.5)
            return _real(edges)

        monkeypatch.setattr(GraphDB, "build", slow_build)
        sent = []
        _spy_match_level(monkeypatch, sent)
        r = ted(spark, tiny_edges, k=K, e_max=E_MAX, variant=variant, time_limit_s=0.4)
        assert not sent and r.timed_out
        assert r.extra["ips"]["timed_out"] and r.extra["ips"]["levels"] == 1
        assert len(r.patterns) == K and all(len(code) == 1 for code in r.patterns)

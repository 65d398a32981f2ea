"""Integration tests: every table/experiment job runs end-to-end at reduced
scale against the shared session, and the table shapes the paper asserts
hold on the outputs."""
import importlib.util
import pathlib
import sys

import pytest

JOBS = pathlib.Path(__file__).resolve().parents[1] / "jobs"


def load_job(name: str):
    spec = importlib.util.spec_from_file_location(name, JOBS / f"{name}.py")
    mod = importlib.util.module_from_spec(spec)
    sys.modules[name] = mod
    spec.loader.exec_module(mod)
    return mod


def test_run_all_lists_every_job_once():
    """``run_all.sh`` is the one entrypoint per paper study: it names exactly
    the job scripts under ``jobs/``, apart from the shared helper module and
    the tool that files benchmark rounds (``bench_entry``), which reproduces
    no study."""
    loop = (JOBS / "run_all.sh").read_text().split("for job in", 1)[1].split(";", 1)[0]
    scripts = {p.stem for p in JOBS.glob("*.py")} - {"_common", "bench_entry"}
    assert sorted(loop.replace("\\", " ").split()) == sorted(scripts)


class TestTable2:
    def test_runs_and_reports_all_datasets(self, spark):
        rows = load_job("table2_datasets").run(spark, scale=0.05)
        assert len(rows) == 3
        assert all("paper" in r["|D|"] for r in rows)


class TestTables3And4:
    @pytest.fixture(scope="class")
    def pes_rows(self, spark):
        mod = load_job("table34_pes")
        return mod.run_pes_experiments(spark, scale=0.08, e_max=3)

    def test_all_variants_reported(self, pes_rows):
        assert len(pes_rows) == 6

    def test_index_small_relative_to_dataset(self, pes_rows):
        """Paper Table 3 claim: index is a small fraction of the dataset."""
        assert all(r["index_pct_of_dataset"] < 50 for r in pes_rows)

    def test_index_time_small_fraction_of_total(self, pes_rows):
        """Paper Table 4 claim: maintenance <7% of total time (ours: <20%
        at reduced scale where Spark overhead dominates the denominator)."""
        assert all(r["index_time_pct_of_total"] < 20 for r in pes_rows)

    def test_index_grows_with_dataset(self, pes_rows):
        by_ds = {}
        for r in pes_rows:
            by_ds.setdefault(r["dataset"].split()[0], []).append(r)
        for name, rows in by_ds.items():
            small, big = sorted(rows, key=lambda r: r["n_graphs"])
            assert big["index_kb"] >= small["index_kb"], name


class TestVqfTables:
    @pytest.fixture(scope="class")
    def setup_small(self, spark):
        return load_job("vqf_studies").build_setup(spark, "aids_lite", n_graphs=40, seed=1)

    def test_table5_queries_in_range(self, setup_small):
        for q in setup_small.queries:
            assert 12 <= q.n_edges <= 24 and q.is_connected()

    def test_table6_ted_usable_counts_competitive(self, setup_small):
        """At toy scale (40 graphs) the strict TED > FS ordering of the
        paper's Table 6 is noisy; assert TED stays competitive here and
        leave the full-scale ordering to jobs/vqf_studies.py + EXPERIMENTS."""
        from repro.vqf.steps import usable_patterns

        tot = {
            name: sum(len(usable_patterns(codes, q)) for q in setup_small.queries)
            for name, codes in setup_small.pattern_sets.items()
        }
        assert tot["TED"] > 0
        assert tot["TED"] >= 0.5 * tot["FS"]

    def test_table6_steps_never_worse_than_edge_at_a_time(self, setup_small):
        from repro.vqf.steps import formulation_steps

        for codes in setup_small.pattern_sets.values():
            for q in setup_small.queries:
                steps, _ = formulation_steps(codes, q)
                assert steps <= q.n_edges

    def test_table7_counts_bounded(self, setup_small):
        from repro.vqf.repository import bio_importance_count

        for name, codes in setup_small.pattern_sets.items():
            n, _ = bio_importance_count(codes)
            assert 0 <= n <= len(codes)

    def test_tables_have_one_row_per_query_or_set(self, spark, setup_small):
        vq = load_job("vqf_studies")
        assert len(vq.table5_queries([setup_small])) == vq.N_QUERIES
        assert len(vq.table6_vqf(spark, [setup_small])) == vq.N_QUERIES
        assert [r["pattern_set"] for r in vq.table7_bio(setup_small)] == ["FS", "CATAPULT", "TED"]

    def test_teardown(self, setup_small):
        setup_small.edges.unpersist()


class TestExperimentShapes:
    def test_exp2_opt_ratios(self, spark):
        rows = load_job("exp2_opt").run(spark, n_graphs=12)
        by_algo = {}
        for r in rows:
            by_algo.setdefault(r["algo"], []).append(r)
        # everything bounded by OPT; TED well above the 1/4 guarantee
        for algo, rs in by_algo.items():
            assert all(r["ratio_to_opt"] <= 1.0 + 1e-9 for r in rs)
        assert all(r["ratio_to_opt"] >= 0.25 for r in by_algo["TED"])

    def test_exp7_rr_increases_with_rho(self, spark):
        vq = load_job("vqf_studies")
        setup = vq.build_setup(spark, "aids_lite", n_graphs=40, seed=0)
        setup.edges.unpersist()
        rows = vq.exp7_rr(setup, rhos=(0.0, 0.5, 1.0))
        rr = {r["rho"]: r["avg_RR"] for r in rows}
        # shape: RR at high rho should not be below RR at rho=0
        assert rr[1.0] >= rr[0.0]

    def test_exp5_swap_criteria_all_run(self, spark):
        sys.path.insert(0, str(JOBS))
        rows = load_job("exp5_swap").run(spark, n_graphs=15)
        crits = {r["criterion"] for r in rows}
        assert crits == {"Swap_1", "Swap_2", "Swap_a(0.5)"}
        assert all(0 < r["coverage_rate"] <= 1 for r in rows)


class TestSweepJobs:
    """The sweep jobs run end to end at toy scale: one row per (point,
    method), none truncated and none timed out."""

    @staticmethod
    def check(rows, n_rows):
        assert len(rows) == n_rows
        assert [r["truncated"] for r in rows] == [False] * n_rows
        assert "INF" not in [r["time_s"] for r in rows]

    def test_exp1_sweeps(self, spark):
        exp1 = load_job("exp1")
        n = len(exp1.METHODS)
        self.check(exp1.run_vary_k(spark, n_graphs=6, ks=(2,)), n)
        self.check(exp1.run_vary_emax(spark, n_graphs=6, emaxes=(2,)), n)

    def test_exp2_run_scale(self, spark):
        self.check(load_job("exp2_baselines").run_scale(spark, sizes=(6,)), 5)

    def test_exp2_node_buckets(self, spark):
        exp2 = load_job("exp2_baselines")
        self.check(exp2.run_node_buckets(spark, per_bucket=10), 3 * len(exp2.NODE_BUCKETS))

    def test_exp3_opts(self, spark):
        rows = load_job("exp3_opts").run(spark, n_graphs=6)
        self.check(rows, 3)
        assert [r["algo"] for r in rows] == ["BASE", "PRM", "TED"]

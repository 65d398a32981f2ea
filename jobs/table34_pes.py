"""Tables 3 and 4 — one TED run per dataset variant feeds both: PES-Index
size (KB, % of dataset) and maintenance time (s, % of total processing time).

Scale substitution: the paper's variants (AIDS 10K/40K, eMol 5K/10K,
PubChem 10K/23K, Java) are reduced ~20x for the Python-on-Spark substrate;
the claims under test — index small relative to the dataset (~5-8%), index
maintenance a small fraction of total time (<7%) — are scale-relative.
"""
from __future__ import annotations

import sys

sys.path.insert(0, str(__import__("pathlib").Path(__file__).resolve().parent))
from _common import emit, get_spark, render_table  # noqa: E402

from repro.core.ted import ted  # noqa: E402
from repro.graphdb.generator import molecule_db  # noqa: E402
from repro.graphdb.spark_io import to_edges_df, to_edges_pandas  # noqa: E402

#: (profile, label, n_graphs) — two sizes per dataset, mirroring the paper.
VARIANTS = [
    ("aids_lite", "AIDS-lite 500", 500),
    ("aids_lite", "AIDS-lite 2K", 2000),
    ("emol_lite", "eMol-lite 250", 250),
    ("emol_lite", "eMol-lite 500", 500),
    ("pubchem_lite", "PubChem-lite 500", 500),
    ("pubchem_lite", "PubChem-lite 1K", 1000),
]

PAPER3 = (
    "Paper (real datasets, Java): AIDS10K 234 KB (5.39%), AIDS40K 1008 KB (5.31%), "
    "eMol5K 89 KB (5.40%), eMol10K 157 KB (5.39%), PubChem10K 428 KB (5.80%), "
    "PubChem23K 1157 KB (7.58%)."
)
PAPER4 = (
    "Paper (real datasets, Java): AIDS10K 0.5 s (6.86%), AIDS40K 1.88 s (1.00%), "
    "eMol5K 0.25 s (4.12%), eMol10K 0.37 s (3.63%), PubChem10K 1.1 s (0.78%), "
    "PubChem23K 2.85 s (1.39%)."
)


def run_pes_experiments(
    spark, *, k: int = 5, e_max: int = 4, scale: float = 1.0, time_limit_s: float = 1800
) -> list[dict]:
    """Run full TED per variant; return per-variant index metrics."""
    rows = []
    for profile, label, n in VARIANTS:
        n_eff = max(10, int(n * scale))
        db = molecule_db(profile, n_eff, seed=0)
        dataset_bytes = int(
            to_edges_pandas(db).memory_usage(index=False, deep=True).sum()
        )
        edges = to_edges_df(spark, db).cache()
        edges.count()
        r = ted(spark, edges, k=k, e_max=e_max, time_limit_s=time_limit_s)
        edges.unpersist()
        rows.append(
            {
                "dataset": label,
                "n_graphs": n_eff,
                "index_kb": round(r.index_size_bytes / 1024, 1),
                "index_pct_of_dataset": round(100 * r.index_size_bytes / dataset_bytes, 2),
                "index_time_s": round(r.index_time_s, 3),
                "index_time_pct_of_total": round(100 * r.index_time_s / r.elapsed_s, 2),
                "total_time_s": round(r.elapsed_s, 1),
                "coverage_rate": round(r.coverage_rate, 3),
            }
        )
    return rows


def main() -> None:
    spark = get_spark("table34")
    rows = run_pes_experiments(spark)
    t3 = [
        {k: r[k] for k in ("dataset", "n_graphs", "index_kb", "index_pct_of_dataset")}
        for r in rows
    ]
    t4 = [
        {
            k: r[k]
            for k in ("dataset", "n_graphs", "index_time_s", "index_time_pct_of_total", "total_time_s")
        }
        for r in rows
    ]
    emit("table3_pes_size", render_table(t3, "Table 3 — Size of PES-Index") + "\n" + PAPER3 + "\n")
    emit("table4_pes_time", render_table(t4, "Table 4 — Maintenance Time of PES-Index") + "\n" + PAPER4 + "\n")
    spark.stop()


if __name__ == "__main__":
    main()

"""Exp 2 / Figures 11–12 — baseline comparison as the database grows and as
per-graph size grows.

Figure 11 shape: ALL_g's time explodes with |D| (INF on AIDS10K/40K in the
paper) while TED grows steadily; TED's coverage stays comparable to ALL_g.
Figure 12 shape: greedy methods blow up with the max number of nodes per
graph; TED holds comparable coverage; coverage rate rises slightly with
graph size."""
from __future__ import annotations

import sys

sys.path.insert(0, str(__import__("pathlib").Path(__file__).resolve().parent))
from _common import emit, get_spark, render_table  # noqa: E402
from exp1 import METHODS  # noqa: E402

from repro.core.baselines import all_g, fsg_g  # noqa: E402
from repro.core.ted import ted  # noqa: E402
from repro.graphdb.generator import molecule_db  # noqa: E402
from repro.graphdb.spark_io import to_edges_df  # noqa: E402

K, E_MAX = 5, 4
SIZES = (100, 200, 400)
TIME_LIMIT = 900.0
NODE_BUCKETS = ((0, 20), (20, 50), (50, 1000))


def run_scale(spark, sizes=SIZES) -> list[dict]:
    """Figure 11: every method on aids_lite databases of ``sizes`` graphs.
    One untimed call on the first database comes first, so no timed row
    pays for starting the session's Python workers."""
    rows = []
    for n in sizes:
        db = molecule_db("aids_lite", n, seed=0)
        edges = to_edges_df(spark, db).cache()
        edges.count()
        if n == sizes[0]:
            METHODS[0](spark, edges, k=K, e_max=E_MAX, time_limit_s=TIME_LIMIT)
        for m in METHODS:
            rows.append({"|D|": n, **m(spark, edges, k=K, e_max=E_MAX, time_limit_s=TIME_LIMIT).row()})
        edges.unpersist()
    return rows


def run_node_buckets(spark, *, per_bucket: int = 100) -> list[dict]:
    """Figure 12: partition PubChem-lite graphs by node count."""
    pool = molecule_db("pubchem_lite", 2000, seed=1)
    rows = []
    for lo, hi in NODE_BUCKETS:
        sub = [g for g in pool if lo < g.n_vertices <= hi][:per_bucket]
        if len(sub) < 10:
            continue
        sub = [g.relabel(i) for i, g in enumerate(sub)]
        edges = to_edges_df(spark, sub).cache()
        edges.count()
        for r in [
            ted(spark, edges, k=K, e_max=E_MAX, time_limit_s=TIME_LIMIT),
            all_g(spark, edges, k=K, e_max=E_MAX, time_limit_s=TIME_LIMIT),
            fsg_g(spark, edges, k=K, e_max=E_MAX, sup_min=0.1, time_limit_s=TIME_LIMIT),
        ]:
            rows.append({"nodes_in": f"({lo},{hi}]", "n_graphs": len(sub), **r.row()})
        edges.unpersist()
    return rows


def main() -> None:
    spark = get_spark("exp2_baselines")
    out = render_table(run_scale(spark), "Exp 2 (Fig 11) — Baselines vs database size")
    out += "\n" + render_table(run_node_buckets(spark), "Exp 2 (Fig 12) — Effect of max nodes per graph")
    emit("exp2_baselines", out)
    spark.stop()


if __name__ == "__main__":
    main()

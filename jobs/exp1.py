"""Exp 1 / Figures 9–10 — TED and the four baselines on AIDS-lite as the
number of patterns k and the maximum pattern size E_max vary (paper:
AIDS5K; repro scale 150–200 graphs).

Figure 9 (vary k) shape claims: coverage and time grow with k; TED tracks
ALL_g's coverage at lower time; greedy variants cost more time than swap
variants.
Figure 10 (vary E_max) shape claims: processing time grows with E_max for
every method, fastest growth for ALL_g (which the paper reports as INF at
E_max=15); coverage rate fluctuates in a narrow band; TED stays close to
ALL_g's coverage."""
from __future__ import annotations

import sys

sys.path.insert(0, str(__import__("pathlib").Path(__file__).resolve().parent))
from _common import emit, get_spark, render_table  # noqa: E402

from repro.core.baselines import all_g, all_t, fsg_g, fsg_t  # noqa: E402
from repro.core.ted import ted  # noqa: E402
from repro.graphdb.generator import molecule_db  # noqa: E402
from repro.graphdb.spark_io import to_edges_df  # noqa: E402

#: The compared methods, in table order; FSG_* mine at their default sup_min 0.1.
METHODS = (ted, all_g, all_t, fsg_g, fsg_t)

K, E_MAX = 5, 4
KS = (1, 3, 5, 7, 9)
EMAXES = (2, 3, 4, 5)


def _sweep(spark, n_graphs: int, time_limit_s: float, param: str, points) -> list[dict]:
    """Run every method at each ``(value, k, e_max)`` of ``points`` on one
    aids_lite database; rows are keyed by ``param`` = value. One untimed
    call at the first point comes first, so no timed row pays for starting
    the session's Python workers."""
    db = molecule_db("aids_lite", n_graphs, seed=0)
    edges = to_edges_df(spark, db).cache()
    edges.count()
    _, k0, e_max0 = points[0]
    METHODS[0](spark, edges, k=k0, e_max=e_max0, time_limit_s=time_limit_s)
    rows = [
        {param: value, **m(spark, edges, k=k, e_max=e_max, time_limit_s=time_limit_s).row()}
        for value, k, e_max in points
        for m in METHODS
    ]
    edges.unpersist()
    return rows


def run_vary_k(spark, *, n_graphs: int = 200, ks=KS) -> list[dict]:
    """Figure 9: k sweeps ``ks`` at E_max = 4."""
    return _sweep(spark, n_graphs, 1200.0, "k", [(k, k, E_MAX) for k in ks])


def run_vary_emax(spark, *, n_graphs: int = 150, emaxes=EMAXES) -> list[dict]:
    """Figure 10: E_max sweeps ``emaxes`` at k = 5."""
    return _sweep(spark, n_graphs, 900.0, "e_max", [(e, K, e) for e in emaxes])


def main() -> None:
    spark = get_spark("exp1")
    emit("exp1_vary_k", render_table(run_vary_k(spark), "Exp 1 (Fig 9) — Effect of Number of Patterns k"))
    emit("exp1_vary_emax", render_table(run_vary_emax(spark), "Exp 1 (Fig 10) — Effect of Maximum Pattern Size E_max"))
    spark.stop()


if __name__ == "__main__":
    main()

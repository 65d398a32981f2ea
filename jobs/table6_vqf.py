"""Table 6 — number of patterns used in VQF (|P_U|) per query, for
FS / CATAPULT-lite / TED, with "Yes" when at least one infrequent
(sup < 0.2) pattern is usable. Also reports the step counts behind the
paper's Figure 16 (QFT itself needs humans; Steps drives it)."""
from __future__ import annotations

import sys

sys.path.insert(0, str(__import__("pathlib").Path(__file__).resolve().parent))
from _common import emit, get_spark, render_table  # noqa: E402
from vqf_common import SUP_INFREQUENT, build_setup  # noqa: E402

from repro.enumeration.distributed import match_level  # noqa: E402
from repro.vqf.steps import formulation_steps, usable_patterns  # noqa: E402

PAPER = (
    "Paper |P_U| (PubChem / AIDS): Q1 FS 2/1, CATAPULT 2/2, TED 5/3; "
    "Q2 3/1, 3/1, 5*(Yes)/2; Q3 3/2, 4/1, 6(Yes)/4; Q4 4/1, 5/2, 7(Yes)/3; "
    "Q5 2/2, 2/3, 5(Yes)/6(Yes). Shape claim: TED usable-pattern counts "
    "exceed FS and CATAPULT, and TED uses infrequent patterns."
)


def run(spark, *, n_graphs: int = 300) -> list[dict]:
    rows = []
    for ds in ("pubchem_lite", "aids_lite"):
        setup = build_setup(spark, ds, n_graphs=n_graphs)
        n_db = len(setup.db)
        sup_cache = {
            name: {
                ps.code: ps.support
                for ps in match_level(spark, setup.edges, codes, want_extensions=False)
            }
            for name, codes in setup.pattern_sets.items()
        }
        for qi, q in enumerate(setup.queries, 1):
            row = {"dataset": ds, "query": f"Q{qi}", "|E(Q)|": q.n_edges}
            for name, codes in setup.pattern_sets.items():
                usable = usable_patterns(codes, q)
                infreq = any(
                    sup_cache[name][c] < SUP_INFREQUENT * n_db for c in usable
                )
                steps, _ = formulation_steps(codes, q)
                row[name] = f"{len(usable)}{' (Yes)' if infreq else ''} [steps {steps}]"
            rows.append(row)
        setup.edges.unpersist()
    return rows


def main() -> None:
    spark = get_spark("table6")
    emit("table6_vqf", render_table(run(spark), "Table 6 — Patterns Used in VQF (|P_U|, Yes = infrequent usable)") + "\n" + PAPER + "\n")
    spark.stop()


if __name__ == "__main__":
    main()

"""The VQF studies (Section 7): Table 5 (query workload), Table 6 (patterns
used per query), Table 7 (biological importance) and Exp 7 / Figure 17
(reduction ratio vs the fraction of infrequent queries).

All four compare the same pattern collections — P_FS, P_CATAPULT and
P_TED — on the same queries, so each dataset is set up once
(:func:`build_setup`: database, the three pattern sets, the queries) and
every table reads that setup.

Scale substitution: the paper uses AIDS/PubChem with queries of 30–62 edges
drawn from real PubChem compounds (CIDs). Our synthetic graphs are smaller,
so queries are sampled connected subgraphs with |E| in [12, 24]; the claims
under test (TED's patterns cover more of a query than FS/CATAPULT, and
infrequent patterns help) are size-relative. For Table 7, "exists in the
PubChem repository" becomes "isomorphic to a motif in the generator's motif
library" (DESIGN.md §3.7).
"""
from __future__ import annotations

import sys
from dataclasses import dataclass

sys.path.insert(0, str(__import__("pathlib").Path(__file__).resolve().parent))
from _common import emit, get_spark, render_table  # noqa: E402

from repro.core.ted import ted  # noqa: E402
from repro.enumeration.distributed import match_level  # noqa: E402
from repro.graphdb.generator import molecule_db  # noqa: E402
from repro.graphdb.model import Graph  # noqa: E402
from repro.graphdb.spark_io import GraphDB, to_edges_df  # noqa: E402
from repro.isomorphism.dfscode import DFSCode, encode  # noqa: E402
from repro.vqf.catapult import catapult_lite  # noqa: E402
from repro.vqf.fs import top_k_frequent  # noqa: E402
from repro.vqf.queries import query_set, sample_query  # noqa: E402
from repro.vqf.repository import bio_importance_count  # noqa: E402
from repro.vqf.steps import formulation_steps, reduction_ratio, usable_patterns  # noqa: E402

DATASETS = ("pubchem_lite", "aids_lite")
K_PATTERNS = 12
E_MAX = 4
E_MIN = 2              # VINCENT pattern budget MinE (Section 6.2): canned
                       # patterns must beat edge-at-a-time, so >= 2 edges
Q_EDGE_RANGE = (12, 24)
N_QUERIES = 5
SUP_MIN_FS = 0.2       # FS mining threshold
SUP_INFREQUENT = 0.2   # a pattern with sup < 20% counts as infrequent
RHOS = (0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6)
N_RR_QUERIES = 20      # per rho; the paper uses 100, reduced with the dataset scale

PAPER5 = (
    "Paper (CID, |E|): PubChem Q1 169132(34) Q2 20497364(30) Q3 493570(47) "
    "Q4 135398658(52) Q5 3324(42); AIDS Q1 135398740(32) Q2 565070(34) "
    "Q3 102034018(35) Q4 14852846(30) Q5 154402349(62)."
)
PAPER6 = (
    "Paper |P_U| (PubChem / AIDS): Q1 FS 2/1, CATAPULT 2/2, TED 5/3; "
    "Q2 3/1, 3/1, 5*(Yes)/2; Q3 3/2, 4/1, 6(Yes)/4; Q4 4/1, 5/2, 7(Yes)/3; "
    "Q5 2/2, 2/3, 5(Yes)/6(Yes). Shape claim: TED usable-pattern counts "
    "exceed FS and CATAPULT, and TED uses infrequent patterns."
)
PAPER7 = "Paper counts (PubChem): FS 5, CATAPULT 8, TED 8."


@dataclass
class VqfSetup:
    dataset: str
    db: list[Graph]
    edges: object  # cached Spark DataFrame
    pattern_sets: dict[str, list[DFSCode]]  # FS / CATAPULT / TED
    queries: list[Graph]


def build_setup(spark, dataset: str, *, n_graphs: int = 300, seed: int = 0) -> VqfSetup:
    db = molecule_db(dataset, n_graphs, seed=seed)
    edges = to_edges_df(spark, db).cache()
    edges.count()
    fs = [
        c
        for c, _ in top_k_frequent(
            spark, edges, k=K_PATTERNS, e_max=E_MAX, e_min=E_MIN, sup_min=SUP_MIN_FS
        )
    ]
    cat = [
        c
        for c, _ in catapult_lite(
            spark, edges, k=K_PATTERNS, e_max=E_MAX, e_min=E_MIN, sup_min=0.1
        )
    ]
    ted_r = ted(spark, edges, k=K_PATTERNS, e_max=E_MAX, e_min=E_MIN)
    queries = [
        sample_query(db, e_min=Q_EDGE_RANGE[0], e_max=Q_EDGE_RANGE[1], seed=seed * 100 + i)
        for i in range(N_QUERIES)
    ]
    return VqfSetup(
        dataset=dataset,
        db=db,
        edges=edges,
        pattern_sets={"FS": fs, "CATAPULT": cat, "TED": ted_r.patterns},
        queries=queries,
    )


def table5_queries(setups: list[VqfSetup]) -> list[dict]:
    """Table 5: the query identifiers (seed-derived) and sizes."""
    return [
        {
            "dataset": s.dataset,
            "query": f"Q{i}",
            "id": f"sampled(seed={i - 1})",
            "|E|": q.n_edges,
            "|V|": q.n_vertices,
        }
        for s in setups
        for i, q in enumerate(s.queries, 1)
    ]


def table6_vqf(spark, setups: list[VqfSetup]) -> list[dict]:
    """Table 6: |P_U| per query for each pattern set, with "Yes" when at
    least one infrequent (sup < 0.2) pattern is usable, plus the step counts
    behind the paper's Figure 16 (QFT itself needs humans; Steps drives it)."""
    rows = []
    for s in setups:
        n_db = len(s.db)
        union = list(dict.fromkeys(c for codes in s.pattern_sets.values() for c in codes))
        support = {
            ps.code: ps.support
            for ps in match_level(spark, GraphDB.build(s.edges), union, want_extensions=False)
        }
        for qi, q in enumerate(s.queries, 1):
            row = {"dataset": s.dataset, "query": f"Q{qi}", "|E(Q)|": q.n_edges}
            for name, codes in s.pattern_sets.items():
                usable = usable_patterns(codes, q)
                infreq = any(support[c] < SUP_INFREQUENT * n_db for c in usable)
                steps, _ = formulation_steps(codes, q)
                row[name] = f"{len(usable)}{' (Yes)' if infreq else ''} [steps {steps}]"
            rows.append(row)
    return rows


def table7_bio(setup: VqfSetup) -> list[dict]:
    """Table 7: patterns with biological importance per pattern set. The
    paper's claim: TED and CATAPULT surface more repository structures than
    FS (8 vs 8 vs 5)."""
    rows = []
    for name, codes in setup.pattern_sets.items():
        n, hits = bio_importance_count(codes)
        rows.append(
            {
                "pattern_set": name,
                "n_patterns": len(codes),
                "with_bio_importance": n,
                "hits": "; ".join(encode(h) for h in hits) or "-",
            }
        )
    return rows


def exp7_rr(setup: VqfSetup, rhos=RHOS) -> list[dict]:
    """Exp 7 / Figure 17: RR = (Steps_FS - Steps_TED) / Steps_FS averaged
    over a query set with fraction rho of infrequent queries. Shape claims:
    RR < 0 at rho = 0 (all queries frequent — FS wins), RR increases with
    rho and crosses 0 around rho ~= 0.2."""
    fs, ted_codes = setup.pattern_sets["FS"], setup.pattern_sets["TED"]
    rows = []
    for rho in rhos:
        qs = query_set(setup.db, fs, n_queries=N_RR_QUERIES, rho=rho, seed=int(rho * 10))
        rrs = []
        for q in qs:
            s_fs, _ = formulation_steps(fs, q)
            s_ted, _ = formulation_steps(ted_codes, q)
            rrs.append(reduction_ratio(s_fs, s_ted))
        rows.append({"rho": rho, "avg_RR": round(sum(rrs) / len(rrs), 3), "n_queries": len(qs)})
    return rows


def main() -> None:
    spark = get_spark("vqf_studies")
    setups = [build_setup(spark, ds) for ds in DATASETS]
    pubchem, aids = setups
    emit("table5_queries", render_table(table5_queries(setups), "Table 5 — Queries (sampled substitutes)") + "\n" + PAPER5 + "\n")
    emit("table6_vqf", render_table(table6_vqf(spark, setups), "Table 6 — Patterns Used in VQF (|P_U|, Yes = infrequent usable)") + "\n" + PAPER6 + "\n")
    emit("table7_bio", render_table(table7_bio(pubchem), "Table 7 — Patterns with Biological Importance (motif-library stand-in)") + "\n" + PAPER7 + "\n")
    emit("exp7_rr", render_table(exp7_rr(aids), "Exp 7 (Fig 17) — Reduction Ratio vs rho"))
    for s in setups:
        s.edges.unpersist()
    spark.stop()


if __name__ == "__main__":
    main()

"""Rebuild ``references.json``: each workload's verified answer per seed.

Run from the repository root::

    python3 perfbench/make_references.py [--workload ted-aids ...]

For every workload and every seed in ``0..REFERENCE_SEEDS-1`` it generates the
database, makes one discovery call and keeps the answer (sorted encoded
pattern codes and ``|Cov(P, D)|``) only if :func:`run.verify` finds no
problem with it, i.e. the coverage recounted without Spark agrees. The
benchmark then requires every later call on that seed to return exactly
this answer. Rebuild it only when a change is meant to alter answers.
"""
from __future__ import annotations

import argparse
import json
import sys

import run


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append", choices=sorted(run.WORKLOADS))
    args = ap.parse_args()
    run.pin_environment()
    from jobs._common import get_spark
    from repro.graphdb import molecule_db, to_edges_df

    path = run.HERE / "references.json"
    table = json.loads(path.read_text())
    watch = run.TruncationWatch()
    spark = get_spark("perfbench-references")
    try:
        for name in args.workload or sorted(run.WORKLOADS):
            wl = run.WORKLOADS[name]
            seeds = {}
            for seed in range(run.REFERENCE_SEEDS):
                graphs = molecule_db(wl.profile, wl.n_graphs, seed=seed)
                edges = to_edges_df(spark, graphs).cache()
                watch.truncated = 0
                result = run.discover(wl, spark, edges)
                edges.unpersist()
                problems = run.verify(result, graphs, None, watch.truncated)
                if problems:
                    print(f"{name} seed {seed}: {problems}", file=sys.stderr)
                    return 1
                seeds[str(seed)] = run.answer(result)
                print(f"{name} seed {seed}: coverage {result.coverage}", file=sys.stderr)
            table[name] = {
                "params": {"profile": wl.profile, "n_graphs": wl.n_graphs,
                           "variant": wl.variant, "k": run.K, "e_max": run.E_MAX},
                "seeds": seeds,
            }
            path.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    finally:
        run.stop_spark(spark)
    return 0


if __name__ == "__main__":
    sys.exit(main())

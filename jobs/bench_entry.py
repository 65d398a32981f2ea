"""Append one A/B round of the benchmark to ``BENCH_<workload>.json``.

A round is ``perfbench/run.py --workload W --seed N --seconds S --trace 0``
run at both revisions, in alternating order, over the same seeds; each
checkout keeps its records under ``<checkout>/.perfbench/``. This script
pairs the two sides' ``W-seed<N>-trace0.json`` records by seed and appends
one entry to the JSON list in ``BENCH_<workload>.json`` at the repository
root::

    python jobs/bench_entry.py --workload ted-aids \\
        --parent ../parent --change . --parent-rev 831c52e --rev 1a2b3c4

For each end-to-end metric that ``BENCHMARK.json`` declares, the entry holds
each side's median and quartiles over the seeds and the number of pairs the
change won; a tie counts for neither side.
"""
from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_records(checkout: Path, workload: str) -> dict[int, dict]:
    """The checkout's untraced records of ``workload``, keyed by seed."""
    records = {}
    for path in (checkout / ".perfbench").glob(f"{workload}-seed*-trace0.json"):
        rec = json.loads(path.read_text())
        records[rec["seed"]] = rec
    return records


def spread(xs: list[float]) -> dict:
    """Median and quartiles, as ``perfbench/run.py`` reports a run's calls."""
    if len(xs) < 2:
        return {"p25": xs[0], "p50": xs[0], "p75": xs[0]}
    q = statistics.quantiles(xs, n=4)
    return {"p25": q[0], "p50": statistics.median(xs), "p75": q[2]}


def entry(parent: dict[int, dict], change: dict[int, dict], end_to_end: list[dict], *,
          revision: str, parent_revision: str) -> dict:
    """One round: the seeds both sides ran, compared metric by metric."""
    seeds = sorted(parent.keys() & change.keys())
    if not seeds:
        raise ValueError("no seed has a record on both sides")
    nprocs = {rec["environment"]["nproc"] for side in (parent, change) for rec in side.values()}
    if len(nprocs) != 1:
        raise ValueError(f"records come from machines with different core counts: {nprocs}")
    metrics = {}
    for m in end_to_end:
        name = m["name"]
        before = [parent[s]["metrics"][name]["value"] for s in seeds]
        after = [change[s]["metrics"][name]["value"] for s in seeds]
        sign = 1 if m["better"] == "lower" else -1
        metrics[name] = {
            "unit": m["unit"], "better": m["better"],
            "parent": spread(before), "change": spread(after),
            "pairs_won": sum(1 for b, a in zip(before, after) if sign * (b - a) > 0),
            "pairs_lost": sum(1 for b, a in zip(before, after) if sign * (a - b) > 0),
        }
    return {
        "revision": revision,
        "parent_revision": parent_revision,
        "nproc": nprocs.pop(),
        "seconds": change[seeds[0]]["seconds"],
        "seeds": seeds,
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--parent", type=Path, required=True, help="the parent's checkout")
    ap.add_argument("--change", type=Path, required=True, help="the change's checkout")
    ap.add_argument("--parent-rev", required=True)
    ap.add_argument("--rev", required=True)
    ap.add_argument("--out-dir", type=Path, default=ROOT)
    args = ap.parse_args(argv)
    end_to_end = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    new = entry(load_records(args.parent, args.workload),
                load_records(args.change, args.workload), end_to_end,
                revision=args.rev, parent_revision=args.parent_rev)
    path = args.out_dir / f"BENCH_{args.workload}.json"
    entries = json.loads(path.read_text()) if path.exists() else []
    entries.append(new)
    path.write_text(json.dumps(entries, indent=1) + "\n")
    for name, m in new["metrics"].items():
        print(f"{name}: {m['parent']['p50']:.4g} -> {m['change']['p50']:.4g} {m['unit']}, "
              f"won {m['pairs_won']}/{len(new['seeds'])}", file=sys.stderr)
    print(f"[appended] {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

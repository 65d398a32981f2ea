"""``jobs/bench_entry.py``: one A/B round of benchmark records becomes one
entry of ``BENCH_<workload>.json``."""
import json

import pytest

from jobs import bench_entry

METRICS = ("discovery_s", "cold_discovery_s", "setup_s", "coverage_rate",
           "verified_frac", "driver_peak_rss_mb")


def write_record(checkout, seed, discovery_s, *, coverage_rate=0.5, nproc=4,
                 workload="ted-aids", trace=0):
    values = dict.fromkeys(METRICS, 1.0)
    values.update(discovery_s=discovery_s, coverage_rate=coverage_rate)
    rec = {"workload": workload, "seed": seed, "seconds": 20, "trace": trace,
           "environment": {"nproc": nproc},
           "metrics": {k: {"value": v, "unit": "x"} for k, v in values.items()}}
    out = checkout / ".perfbench"
    out.mkdir(parents=True, exist_ok=True)
    (out / f"{workload}-seed{seed}-trace{trace}.json").write_text(json.dumps(rec))


@pytest.fixture
def sides(tmp_path):
    """Parent records for seeds 1-5, change records for seeds 2-6: the
    change is faster on seeds 2-4, slower on 5, and covers more on seed 3."""
    parent, change = tmp_path / "parent", tmp_path / "change"
    for seed in range(1, 6):
        write_record(parent, seed, 1.0 + seed / 10)
    for seed, t in ((2, 0.9), (3, 0.8), (4, 1.0), (5, 1.6), (6, 0.1)):
        write_record(change, seed, t, coverage_rate=0.6 if seed == 3 else 0.5)
    write_record(parent, 2, 99.0, trace=1)  # traced runs are not paired
    write_record(parent, 2, 99.0, workload="allg-aids")
    return parent, change


def test_appends_one_entry_per_round(sides, tmp_path):
    parent, change = sides
    for parent_rev, rev in (("p0", "c0"), ("c0", "c1")):
        assert bench_entry.main([
            "--workload", "ted-aids", "--parent", str(parent), "--change", str(change),
            "--parent-rev", parent_rev, "--rev", rev, "--out-dir", str(tmp_path)]) == 0
    entries = json.loads((tmp_path / "BENCH_ted-aids.json").read_text())
    assert [(e["parent_revision"], e["revision"]) for e in entries] == [("p0", "c0"), ("c0", "c1")]
    e = entries[0]
    assert e["seeds"] == [2, 3, 4, 5]
    assert (e["nproc"], e["seconds"]) == (4, 20)
    assert set(e["metrics"]) == set(METRICS)
    d = e["metrics"]["discovery_s"]
    assert d["parent"]["p50"] == pytest.approx(1.35)
    assert d["change"]["p50"] == pytest.approx(0.95)
    assert (d["pairs_won"], d["pairs_lost"]) == (3, 1)
    cov = e["metrics"]["coverage_rate"]
    assert (cov["better"], cov["pairs_won"], cov["pairs_lost"]) == ("higher", 1, 0)
    setup = e["metrics"]["setup_s"]
    assert (setup["pairs_won"], setup["pairs_lost"]) == (0, 0)


def test_refuses_rounds_it_cannot_pair(sides, tmp_path):
    parent, change = sides
    end_to_end = [{"name": "discovery_s", "unit": "s", "better": "lower"}]
    with pytest.raises(ValueError, match="no seed"):
        bench_entry.entry(bench_entry.load_records(parent, "ted-aids"), {}, end_to_end,
                          revision="c", parent_revision="p")
    write_record(change, 7, 1.0, nproc=8)
    write_record(parent, 7, 1.0, nproc=8)
    with pytest.raises(ValueError, match="core counts"):
        bench_entry.entry(bench_entry.load_records(parent, "ted-aids"),
                          bench_entry.load_records(change, "ted-aids"), end_to_end,
                          revision="c", parent_revision="p")

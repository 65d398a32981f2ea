"""Per-layer metrics of one traced discovery call (``--trace 1``).

Metric names are ``<package>.<module>.<function>`` of the layer they time
or count; ``_s`` marks seconds. The traced call's frontiers are replayed
serially in-process afterwards, which prices the matching itself and
cross-checks the level jobs' output.
"""
from __future__ import annotations

import statistics
import time

from tracing import DISCOVERY, IPS, LEVEL_JOB, MATCH_LEVEL, LevelCall, Tracer


def replay_serial(level_calls: list[LevelCall], graphs) -> tuple[float, int]:
    """Match every recorded (pattern, graph) pair in this process; returns
    the seconds taken and the number of pairs with an embedding."""
    from repro.isomorphism.dfscode import code_to_graph
    from repro.isomorphism.matcher import match_stats

    t0 = time.perf_counter()
    nonempty = 0
    for lc in level_calls:
        for code in lc.codes:
            pat = code_to_graph(code)
            for g in graphs:
                ms = match_stats(code, g, want_extensions=lc.want_extensions,
                                 max_emb=lc.max_emb, pattern=pat)
                nonempty += ms.n_embeddings > 0
    return time.perf_counter() - t0, nonempty


def span_problems(spans, root: int, outside_s: float) -> list[str]:
    """Checks that make ``driver.self_s`` mean what it says: the direct
    children of the discovery span lie inside it without overlapping, so
    they and the self time partition it, and the span agrees with the
    call's time taken by the run's own clock around the whole call."""
    problems = []
    r = spans[root]
    kids = sorted((s for s in spans if s.parent == root), key=lambda s: s.start)
    if any(s.start < r.start or s.end > r.end for s in kids):
        problems.append("a child span lies outside the discovery span")
    if any(a.end > b.start for a, b in zip(kids, kids[1:])):
        problems.append("child spans of the discovery span overlap")
    gap = outside_s - (r.end - r.start)
    if not 0 <= gap <= max(0.05, 0.01 * outside_s):
        problems.append(f"discovery span differs from the call's own time by {gap:.3f} s")
    return problems


def spark_jobs(sc, groups: list[str]) -> list[dict]:
    """Jobs and stages the status tracker holds for each job group."""
    st = sc.statusTracker()
    jobs = []
    for group in groups:
        for jid in sorted(st.getJobIdsForGroup(group)):
            info = st.getJobInfo(jid)
            stages = [st.getStageInfo(s) for s in (info.stageIds if info else [])]
            jobs.append({
                "group": group,
                "job": jid,
                "stages": [{"stage": s.stageId, "name": s.name, "tasks": s.numTasks,
                            "completed": s.numCompletedTasks}
                           for s in stages if s is not None],
            })
    return jobs


def traced_metrics(runner, untraced_s: float, record: dict) -> dict:
    """Make the traced call and derive the per-layer metrics from it."""
    tracer = Tracer()
    rec = runner.call("traced", tracer=tracer)
    result = rec.get("result")
    total, self_t, calls = tracer.totals(rec["group"])

    root = next(i for i, s in enumerate(tracer.spans) if s.name == DISCOVERY)
    discovery = tracer.spans[root].end - tracer.spans[root].start
    children = sum(s.end - s.start for s in tracer.spans if s.parent == root)
    driver_self = self_t.get(DISCOVERY, 0.0)  # discovery minus children, by definition
    rec["problems"].extend(span_problems(tracer.spans, root, rec["seconds"]))

    serial_s, serial_nonempty = replay_serial(tracer.level_calls, runner.graphs)
    nonempty = sum(lc.nonempty_rows for lc in tracer.level_calls)
    if serial_nonempty != nonempty:
        rec["problems"].append(
            f"serial replay found {serial_nonempty} non-empty pairs, level jobs {nonempty}")

    jobs = spark_jobs(runner.spark.sparkContext, [rec["group"], *tracer.level_groups])
    # The matching runs in the last stage of each level's last job (after
    # the shuffle by graph_id); its task count is the level's parallelism.
    last_stage: dict[str, dict] = {}
    for j in jobs:
        if j["group"] != rec["group"] and j["stages"]:
            last_stage[j["group"]] = max(j["stages"], key=lambda st: st["stage"])
    level_tasks = [st["completed"] for st in last_stage.values()]
    patterns = sum(len(lc.codes) for lc in tracer.level_calls)
    pairs = patterns * len(runner.graphs)
    level_job_s = total.get(LEVEL_JOB, 0.0)
    match_level_s = total.get(MATCH_LEVEL, 0.0)
    ips_match_level = sum(1 for i, s in enumerate(tracer.spans)
                          if s.name == MATCH_LEVEL and tracer.has_ancestor(i, IPS))
    enum = tracer.enum_stats[-1] if tracer.enum_stats else None
    setup = runner.setup_reps

    def med(key: str) -> float:
        return statistics.median(r[key] for r in setup)

    values = {
        "setup.first_rep_s": (setup[0]["total_s"], "s"),
        "setup.session_start_s": (med("session_start_s"), "s"),
        "graphdb.generator.molecule_db_s": (med("molecule_db_s"), "s"),
        "graphdb.spark_io.to_edges_df_s": (med("to_edges_df_s"), "s"),
        "setup.cache_count_s": (med("cache_count_s"), "s"),
        "graphdb.spark_io.per_graph_edge_counts_s":
            (total.get("graphdb.spark_io.per_graph_edge_counts", 0.0), "s"),
        "enumeration.gspan.level1_codes.calls":
            (calls.get("enumeration.gspan.level1_codes", 0), "count"),
        "enumeration.gspan.level1_codes_s": (total.get("enumeration.gspan.level1_codes", 0.0), "s"),
        "enumeration.distributed.match_level.calls": (calls.get(MATCH_LEVEL, 0), "count"),
        "enumeration.distributed.match_level_s": (match_level_s, "s"),
        "enumeration.distributed.match_level.patterns": (patterns, "count"),
        "enumeration.distributed.level_job_s": (level_job_s, "s"),
        "enumeration.distributed.fold_s": (match_level_s - level_job_s, "s"),
        "enumeration.distributed.pairs": (pairs, "count"),
        "enumeration.distributed.nonempty_pairs": (nonempty, "count"),
        "enumeration.distributed.hit_ratio": (nonempty / pairs if pairs else 0.0, "ratio"),
        "spark.jobs": (len(jobs), "count"),
        "spark.tasks": (sum(st["completed"] for j in jobs for st in j["stages"]), "count"),
        "enumeration.distributed.level_job_max_stage_tasks": (max(level_tasks, default=0), "count"),
        "enumeration.gspan.enumerate_gspan_self_s":
            (self_t.get("enumeration.gspan.enumerate_gspan", 0.0), "s"),
        "enumeration.gspan.levels": (enum.levels if enum else 0, "count"),
        "enumeration.gspan.peak_frontier": (enum.peak_frontier if enum else 0, "count"),
        "enumeration.gspan.n_visited": (enum.n_visited if enum else 0, "count"),
        "isomorphism.matcher.match_stats_serial_s": (serial_s, "s"),
        "isomorphism.spark_overhead_ratio": (level_job_s / serial_s if serial_s else 0.0, "ratio"),
        "isomorphism.dfscode.is_min.calls": (calls.get("isomorphism.dfscode.is_min", 0), "count"),
        "isomorphism.dfscode.is_min_s": (total.get("isomorphism.dfscode.is_min", 0.0), "s"),
        "core.ted.ips_initial_patterns_s": (total.get(IPS, 0.0), "s"),
        "core.ted.match_level_calls": (ips_match_level, "count"),
        "core.ted.prm_pruned": (result.n_pruned if result else 0, "count"),
        "core.maintain.offers": (calls.get("core.maintain.offer", 0), "count"),
        "core.maintain.swaps": (result.n_swaps if result else 0, "count"),
        "core.pes_index.maintenance_s": (result.index_time_s if result else 0.0, "s"),
        "core.baselines.stored_candidate_bytes":
            (result.stored_candidate_bytes if result else 0, "bytes"),
        "maxcover.greedy.greedy_max_cover_s":
            (total.get("maxcover.greedy.greedy_max_cover", 0.0), "s"),
        "driver.self_s": (driver_self, "s"),
        "trace.discovery_s": (discovery, "s"),
        "trace.overhead_s": (discovery - untraced_s, "s"),
    }
    record["spans"] = tracer.dump()
    record["spark_jobs"] = jobs
    record["span_check"] = {"discovery_s": discovery, "children_s": children,
                            "driver_self_s": driver_self}
    return {name: {"value": v, "unit": u} for name, (v, u) in values.items()}

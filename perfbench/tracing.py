"""Outside-in tracing of one discovery call.

Spans are recorded around calls into the public functions of
``repro.graphdb``, ``repro.enumeration``, ``repro.isomorphism``,
``repro.core`` and ``repro.maxcover``. Nothing under ``src/`` is edited: the
tracer swaps module attributes for timing wrappers while it is installed and
puts the originals back afterwards.

Two import shapes of the program decide where a wrapper must go:

- ``repro.core`` re-exports the function ``ted``, which shadows the module
  attribute ``repro.core.ted``; the module is reached through
  ``sys.modules["repro.core.ted"]``.
- ``match_level``, ``is_min``, ``level1_codes``, ``enumerate_gspan``,
  ``per_graph_edge_counts`` and ``greedy_max_cover`` are imported *by name*
  into the modules that call them, so each importing namespace gets its own
  wrapper.

The Spark job of a level is timed through a proxy around
``distributed.match_level_df`` whose ``toPandas`` is timed and runs under a
job group of its own, so the status tracker can tell level jobs apart.

Spans live in memory (:attr:`Tracer.spans`) and are written out by the
caller when the run ends. Self time of a span is its duration minus the
durations of its direct children; calls are single-threaded on the driver,
so children never overlap.
"""
from __future__ import annotations

import sys
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from typing import Any, Callable, Iterator

DISCOVERY = "driver.discovery"
LEVEL_JOB = "enumeration.distributed.level_job"
MATCH_LEVEL = "enumeration.distributed.match_level"
IPS = "core.ted.ips_initial_patterns"

# (module, attribute, span name): one wrapper per importing namespace.
FUNCTION_SITES = [
    ("repro.core.ted", "per_graph_edge_counts", "graphdb.spark_io.per_graph_edge_counts"),
    ("repro.core.baselines", "per_graph_edge_counts", "graphdb.spark_io.per_graph_edge_counts"),
    ("repro.core.ted", "ips_initial_patterns", IPS),
    ("repro.core.ted", "level1_codes", "enumeration.gspan.level1_codes"),
    ("repro.enumeration.gspan", "level1_codes", "enumeration.gspan.level1_codes"),
    ("repro.core.ted", "match_level", MATCH_LEVEL),
    ("repro.enumeration.gspan", "match_level", MATCH_LEVEL),
    ("repro.core.ted", "enumerate_gspan", "enumeration.gspan.enumerate_gspan"),
    ("repro.core.baselines", "enumerate_gspan", "enumeration.gspan.enumerate_gspan"),
    ("repro.core.ted", "is_min", "isomorphism.dfscode.is_min"),
    ("repro.enumeration.gspan", "is_min", "isomorphism.dfscode.is_min"),
    ("repro.core.baselines", "greedy_max_cover", "maxcover.greedy.greedy_max_cover"),
]


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index into Tracer.spans
    call_id: str


@dataclass
class LevelCall:
    """Arguments of one traced ``match_level`` call, kept for the serial
    replay, plus what its Spark job returned."""

    codes: list
    want_extensions: bool
    max_emb: int
    nonempty_rows: int = 0


class _TimedFrame:
    """Stands in for the level job's DataFrame: ``toPandas`` runs as a span
    under its own job group; everything else is delegated."""

    def __init__(self, df, tracer: "Tracer") -> None:
        self._df = df
        self._tracer = tracer

    def toPandas(self):
        tr = self._tracer
        sc = self._df.sparkSession.sparkContext
        group = f"{tr.call_id}/level{len(tr.level_groups)}"
        tr.level_groups.append(group)
        sc.setJobGroup(group, group)
        try:
            with tr.span(LEVEL_JOB):
                pdf = self._df.toPandas()
        finally:
            sc.setJobGroup(tr.call_id, tr.call_id)
        if tr.level_calls:
            tr.level_calls[-1].nonempty_rows += len(pdf)
        return pdf

    def __getattr__(self, name: str) -> Any:
        return getattr(self._df, name)


class Tracer:
    """Span recorder plus the attribute patches that feed it."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.call_id = ""
        self.level_calls: list[LevelCall] = []
        self.level_groups: list[str] = []
        self.enum_stats: list[Any] = []  # EnumStats returned by enumerate_gspan
        self._stack: list[int] = []
        self._undo: list[tuple[Any, str, Any]] = []

    # -- spans -------------------------------------------------------------
    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        parent = self._stack[-1] if self._stack else None
        s = Span(name, time.perf_counter(), 0.0, parent, self.call_id)
        self.spans.append(s)
        self._stack.append(len(self.spans) - 1)
        try:
            yield
        finally:
            s.end = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn: Callable, on_call: Callable | None = None,
             on_result: Callable | None = None) -> Callable:
        def traced(*args, **kwargs):
            if on_call is not None:
                on_call(*args, **kwargs)
            with self.span(name):
                out = fn(*args, **kwargs)
            if on_result is not None:
                on_result(out)
            return out

        return traced

    # -- patches -----------------------------------------------------------
    def _patch(self, owner: Any, attr: str, new: Any) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        """Swap every traced call site for its wrapper."""
        import repro.core  # noqa: F401  (loads every traced module)
        from repro.core.maintain import PatternMaintainer
        from repro.isomorphism.matcher import DEFAULT_MAX_EMB

        def record_level(spark, edges, codes, *, want_extensions=True,
                         max_emb=DEFAULT_MAX_EMB):
            self.level_calls.append(LevelCall(list(codes), want_extensions, max_emb))

        for module, attr, name in FUNCTION_SITES:
            mod = sys.modules[module]
            hooks = {}
            if name == MATCH_LEVEL:
                hooks["on_call"] = record_level
            elif attr == "enumerate_gspan":
                hooks["on_result"] = self.enum_stats.append
            self._patch(mod, attr, self.wrap(name, getattr(mod, attr), **hooks))

        distributed = sys.modules["repro.enumeration.distributed"]
        match_level_df = distributed.match_level_df
        self._patch(distributed, "match_level_df",
                    lambda *a, **kw: _TimedFrame(match_level_df(*a, **kw), self))

        self._patch(PatternMaintainer, "offer",
                    self.wrap("core.maintain.offer", PatternMaintainer.offer))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)

    # -- analysis ----------------------------------------------------------
    def totals(self, call_id: str) -> tuple[dict[str, float], dict[str, float], dict[str, int]]:
        """Per span name: total duration, total self time, and call count,
        over the spans of one call."""
        child_time = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                child_time[s.parent] += s.end - s.start
        total: Counter[str] = Counter()
        self_t: Counter[str] = Counter()
        calls: Counter[str] = Counter()
        for i, s in enumerate(self.spans):
            if s.call_id != call_id:
                continue
            total[s.name] += s.end - s.start
            self_t[s.name] += s.end - s.start - child_time[i]
            calls[s.name] += 1
        return dict(total), dict(self_t), dict(calls)

    def has_ancestor(self, idx: int, name: str) -> bool:
        p = self.spans[idx].parent
        while p is not None:
            if self.spans[p].name == name:
                return True
            p = self.spans[p].parent
        return False

    def dump(self) -> list[dict]:
        return [asdict(s) for s in self.spans]


"""Spans and counts recorded from outside the program, around its layers.

:class:`Tracer` replaces public functions of ``repro`` with thin wrappers
for the duration of one instance run: a *timed* wrapper records a span
(name, start, end, parent span) and a *counted* wrapper only bumps a
counter.  Nothing under ``src/`` knows about it.  Spans stay in memory and
are written out after the run as Chrome trace-event JSON, which Perfetto
(https://ui.perfetto.dev) and ``chrome://tracing`` open directly.

A layer's self time is the sum, over its spans, of the span's duration
minus the durations of its direct child spans.  Calls that happen once per
message (the network model, the event queue) are counted, never timed: a
timer per call would cost more than the work it measures.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: (module, attribute path, span name) of every timed public function
TIMED: Tuple[Tuple[str, str, str], ...] = (
    # set-up: graph, partitioning, workload generation, engine construction
    ("repro.bench.harness", "road_network_for", "setup.graph"),
    ("repro.graph.delta", "MutableDiGraph.from_digraph", "setup.graph"),
    ("repro.workload.generator", "WorkloadGenerator.__init__", "setup.workload"),
    ("repro.workload.generator", "WorkloadGenerator.generate", "setup.workload"),
    ("repro.engine.engine", "QGraphEngine.__init__", "setup.engine"),
    # the run: submission and the event loop
    ("repro.workload.generator", "QueryTrace.submit_all", "engine.submit"),
    ("repro.engine.engine", "QGraphEngine.run", "engine.loop"),
    # workers, the cost model and the per-query runtime
    ("repro.engine.worker", "SimWorker.execute_iteration", "engine.worker"),
    ("repro.engine.worker", "SimWorker.compute_duration", "engine.worker.cost"),
    ("repro.engine.query", "QueryRuntime.rebucket", "engine.query.rebucket"),
    ("repro.engine.query", "QueryRuntime.grow", "engine.query.churn"),
    ("repro.engine.query", "QueryRuntime.purge_dead_targets", "engine.query.churn"),
    # the controller: Monitor/Analyze, snapshot, ILS, churn placement
    ("repro.core.controller", "Controller.on_query_started", "core.monitor"),
    ("repro.core.controller", "Controller.on_iteration", "core.monitor"),
    ("repro.core.controller", "Controller.on_query_finished", "core.monitor"),
    ("repro.core.controller", "Controller.on_graph_mutation", "core.monitor"),
    ("repro.core.controller", "Controller.should_trigger_qcut", "core.monitor"),
    ("repro.core.controller", "Controller.begin_qcut", "core.snapshot"),
    ("repro.core.controller", "Controller.complete_qcut", "core.ils"),
    ("repro.core.controller", "Controller.place_new_vertices", "core.placement"),
    # graph churn
    ("repro.graph.delta", "MutableDiGraph.apply_delta", "graph.churn.apply"),
)

#: (module, attribute path, counter name) of every counted public function
COUNTED: Tuple[Tuple[str, str, str], ...] = (
    ("repro.simulation.events", "EventQueue.schedule", "simulation.events.scheduled"),
    ("repro.core.state", "QcutState.loads", "core.ils.loads_calls"),
    ("repro.core.state", "QcutState.apply_move", "core.ils.moves_applied"),
    ("repro.graph.delta", "MutableDiGraph.flush", "graph.churn.flushes"),
)


def _tally_iteration(counts: Dict[str, float], result: Any) -> None:
    counts["engine.worker.tasks"] += 1
    counts["engine.worker.vertices"] += result.executed_vertices


def _tally_plan(counts: Dict[str, float], plan: Any) -> None:
    if plan.moves:
        counts["core.plan.useful"] += 1


#: per-call tallies of a timed function's result
ON_RESULT: Dict[str, Callable[[Dict[str, float], Any], None]] = {
    "SimWorker.execute_iteration": _tally_iteration,
    "Controller.complete_qcut": _tally_plan,
}


def _subclass_targets(module: str, base: str, method: str, name: str):
    """One target per subclass of ``base`` that defines ``method`` itself."""
    root = getattr(importlib.import_module(module), base)
    todo, seen = [root], []
    while todo:
        cls = todo.pop()
        seen.append(cls)
        todo.extend(cls.__subclasses__())
    return [
        (cls, method, name)
        for cls in sorted(set(seen), key=lambda c: c.__qualname__)
        if method in vars(cls)
    ]


def _resolve(module: str, path: str) -> Tuple[Any, str]:
    owner: Any = importlib.import_module(module)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr


class Tracer:
    """In-memory span and counter sink for one instance run."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        #: (name, start, end, parent index or -1), in span-open order; a
        #: span's slot is taken when it opens, so parents precede children
        self.spans: List[Tuple[str, float, float, int]] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self._stack: List[int] = []
        self._open: set = set()

    # ------------------------------------------------------------------
    # wrappers
    # ------------------------------------------------------------------
    def timed(
        self,
        name: str,
        fn: Callable,
        on_result: Optional[Callable[[Dict[str, float], Any], None]] = None,
    ) -> Callable:
        spans, stack, open_names, counts = self.spans, self._stack, self._open, self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if name in open_names:  # re-entry (e.g. super().step): one span
                return fn(*args, **kwargs)
            index = len(spans)
            spans.append(None)  # type: ignore[arg-type]  # filled on close
            parent = stack[-1] if stack else -1
            stack.append(index)
            open_names.add(name)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                open_names.discard(name)
                spans[index] = (name, start, end, parent)
            if on_result is not None:
                on_result(counts, result)
            return result

        return wrapper

    def counted(self, name: str, fn: Callable) -> Callable:
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # ------------------------------------------------------------------
    # installation
    # ------------------------------------------------------------------
    def _targets(self) -> List[Tuple[Any, str, Callable[[Callable], Callable]]]:
        targets = []
        for module, path, name in TIMED:
            owner, attr = _resolve(module, path)
            hook = ON_RESULT.get(path)
            targets.append(
                (owner, attr, lambda fn, n=name, h=hook: self.timed(n, fn, h))
            )
        spans = _subclass_targets(
            "repro.engine.kernels", "QueryKernel", "step", "engine.kernels.step"
        ) + _subclass_targets(
            "repro.partitioning.base", "Partitioner", "partition", "setup.partition"
        )
        for owner, attr, name in spans:
            targets.append((owner, attr, lambda fn, n=name: self.timed(n, fn)))
        for module, path, name in COUNTED:
            owner, attr = _resolve(module, path)
            targets.append((owner, attr, lambda fn, n=name: self.counted(n, fn)))
        return targets

    @contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Wrap every target for the duration of the ``with`` block."""
        with patched(self._targets()):
            yield self

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------
    def self_seconds(self) -> Dict[str, float]:
        """Per span name: total duration minus what direct children cover."""
        spans = self.spans
        covered = [0.0] * len(spans)
        for _name, start, end, parent in spans:
            if parent >= 0:
                covered[parent] += end - start
        out: Dict[str, float] = defaultdict(float)
        for index, (name, start, end, _parent) in enumerate(spans):
            out[name] += (end - start) - covered[index]
        return dict(out)

    def write_chrome_trace(self, path: str) -> None:
        """Dump the spans as Chrome trace-event JSON (complete events)."""
        spans = self.spans
        origin = spans[0][1] if spans else 0.0
        events = [
            {
                "name": name,
                "cat": name.split(".", 1)[0],
                "ph": "X",
                "ts": round((start - origin) * 1e6, 3),
                "dur": round((end - start) * 1e6, 3),
                "pid": 1,
                "tid": 1,
                "args": {"span": index, "parent": parent, "run": self.run_id},
            }
            for index, (name, start, end, parent) in enumerate(spans)
        ]
        with open(path, "w") as fh:
            json.dump(
                {"traceEvents": events, "displayTimeUnit": "ms",
                 "otherData": {"run": self.run_id, "counts": dict(self.counts)}},
                fh,
                separators=(",", ":"),
            )


@contextmanager
def patched(targets) -> Iterator[None]:
    """Replace ``owner.attr`` by ``make(original)`` for each target; restore
    the originals on exit.  Class- and static methods keep their kind."""
    saved = []
    try:
        for owner, attr, make in targets:
            raw = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
            saved.append((owner, attr, raw))
            if isinstance(raw, (classmethod, staticmethod)):
                setattr(owner, attr, type(raw)(make(raw.__func__)))
            else:
                setattr(owner, attr, make(raw))
        yield
    finally:
        for owner, attr, raw in reversed(saved):
            setattr(owner, attr, raw)

"""Run one workload instance in this (fresh) process and print its facts.

``run.py`` starts one process per instance so that set-up is
measured cold and peak RSS belongs to one run.  Usage::

    PYTHONPATH=src python3 perfbench/instance.py --workload mixed_static \
        --seed 5 [--trace [--spans spans.json]]

Prints one JSON object on stdout.  Without ``--trace`` the run is probed
for the host's speed (see ``speed.py``): ``setup_s`` and ``run_s`` are
reference seconds, ``setup_wall_s`` and ``run_wall_s`` wall seconds.  With
``--trace`` the layers are wrapped (see ``tracer.py``) and the per-layer
metrics are added; ``--spans`` also writes the spans to that file as Chrome
trace-event JSON.
"""

from __future__ import annotations

# repro-lint: disable-file=wall-clock -- benchmark code: host time is what it measures (the rule exempts bench code, which it recognises only under benchmarks/ and examples/)

import argparse
import hashlib
import json
import resource
import time
from contextlib import nullcontext
from typing import Any, Dict, List, Optional

import numpy as np

from repro.bench.harness import Scenario, run_scenario
from repro.simulation.events import EventQueue
from repro.workload.generator import QueryTrace

from answers import check_answers, check_churned_graph
from speed import WINDOW, SpeedProbe
from tracer import Tracer, patched
from workloads import WORKLOADS

#: probes before the set-up: one to warm the loop up, ``WINDOW`` to judge
#: the host's speed during the set-up
SETUP_PROBES = 1 + WINDOW


def _fingerprint(result, answers: List[str]) -> str:
    """Digest of every virtual-time fact and answer of the run."""
    trace, engine = result.trace, result.engine
    facts = (
        sorted(
            (q.query_id, q.start_time, q.end_time, q.iterations, q.local_iterations)
            for q in trace.queries.values()
        ),
        [
            (r.time, r.moved_vertices, r.num_moves, r.involved_workers, r.stall_duration)
            for r in trace.repartitions
        ],
        trace.churn_events,
        (trace.local_messages, trace.remote_messages, trace.remote_batches,
         trace.barrier_acks, trace.barrier_releases),
        engine._events_processed,
        answers,
    )
    return hashlib.sha256(repr(facts).encode()).hexdigest()


def _layer_metrics(tracer: Tracer, result, waits: List[float]) -> Dict[str, float]:
    """Per-layer metrics of a traced run (times in host seconds)."""
    self_s = tracer.self_seconds()
    counts = tracer.counts
    trace, engine = result.trace, result.engine
    churn = trace.churn_events
    applied = sum(
        c.inserted_edges + c.deleted_edges + c.updated_weights
        + c.added_vertices + c.removed_vertices
        for c in churn
    )
    skipped = sum(c.skipped_mutations for c in churn)
    qcuts = engine.controller.qcut_count
    return {
        "setup.graph_s": self_s.get("setup.graph", 0.0),
        "setup.partition_s": self_s.get("setup.partition", 0.0),
        "setup.workload_s": self_s.get("setup.workload", 0.0),
        "setup.engine_s": self_s.get("setup.engine", 0.0),
        "engine.loop.self_s": self_s.get("engine.loop", 0.0),
        "engine.loop.events": engine._events_processed,
        "engine.worker.self_s": self_s.get("engine.worker", 0.0),
        "engine.kernels.step_s": self_s.get("engine.kernels.step", 0.0),
        "engine.worker.cost_s": self_s.get("engine.worker.cost", 0.0),
        "engine.worker.tasks": counts["engine.worker.tasks"],
        "engine.worker.vertices": counts["engine.worker.vertices"],
        "engine.query.rebucket_s": self_s.get("engine.query.rebucket", 0.0),
        "engine.query.rebucket_calls": sum(
            1 for span in tracer.spans if span[0] == "engine.query.rebucket"
        ),
        "engine.query.churn_s": self_s.get("engine.query.churn", 0.0),
        "engine.scheduler.wait_p90_ms": float(np.percentile(waits, 90)) * 1e3,
        "engine.repartition.count": len(trace.repartitions),
        "engine.repartition.stall_ms": trace.total_repartition_stall() * 1e3,
        "engine.repartition.moved_vertices": sum(
            r.moved_vertices for r in trace.repartitions
        ),
        "engine.imbalance_mean": result.mean_imbalance,
        "core.ils_s": self_s.get("core.ils", 0.0),
        "core.snapshot_s": self_s.get("core.snapshot", 0.0),
        "core.qcuts": qcuts,
        "core.ils.loads_calls": counts["core.ils.loads_calls"],
        "core.ils.moves_applied": counts["core.ils.moves_applied"],
        "core.plan.useful_ratio": counts["core.plan.useful"] / qcuts if qcuts else 0.0,
        "core.monitor_s": self_s.get("core.monitor", 0.0),
        "core.placement_s": self_s.get("core.placement", 0.0),
        "graph.churn.apply_s": self_s.get("graph.churn.apply", 0.0),
        "graph.churn.flushes": counts["graph.churn.flushes"],
        "graph.churn.mutations": applied,
        "graph.churn.skipped_ratio": skipped / (applied + skipped) if applied + skipped else 0.0,
        "graph.churn.dropped_messages": sum(c.dropped_messages for c in churn),
        "simulation.events.scheduled": counts["simulation.events.scheduled"],
        "simulation.network.local_messages": trace.local_messages,
        "simulation.network.remote_messages": trace.remote_messages,
        "simulation.network.remote_batches": trace.remote_batches,
    }


def run_instance(
    workload_name: str, seed: int, traced: bool = False, spans: Optional[str] = None
) -> Dict[str, Any]:
    workload = WORKLOADS[workload_name]
    scenario = Scenario(name=workload.name, seed=seed, **workload.scenario)
    submitted: Dict[str, Any] = {}
    submit_all = QueryTrace.submit_all
    # the untraced run is probed for the host's speed; the traced run is not,
    # so that the probes do not show up in the layers' self times
    speed = None if traced else SpeedProbe()

    def marking_submit_all(self, engine):
        submitted["at"] = time.perf_counter()
        if speed is not None:
            speed.probe()  # ends the set-up's stretch and opens the run's
        submitted["entries"] = list(self.entries)
        return submit_all(self, engine)

    targets = [(QueryTrace, "submit_all", lambda _fn: marking_submit_all)]
    if speed is not None:
        targets.append((EventQueue, "pop", speed.wrap_pop))
        for _ in range(SETUP_PROBES):
            speed.probe()
    tracer = Tracer(f"{workload.name}/seed={seed}") if traced else None
    with patched(targets), (tracer.installed() if tracer is not None else nullcontext()):
        start = time.perf_counter()
        result = run_scenario(scenario)
        end = time.perf_counter()
    setup_wall_s = submitted["at"] - start
    if speed is not None:
        speed.probe()  # closes the run's last stretch
        _, setup_s = speed.seconds(SETUP_PROBES - 1, SETUP_PROBES)
        run_wall_s, run_s = speed.seconds(SETUP_PROBES, len(speed.probes) - 1)
    else:
        run_wall_s, setup_s, run_s = end - submitted["at"], None, None
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    trace, engine = result.trace, result.engine
    entries = submitted["entries"]
    arrival = {q.query_id: t for q, t in entries}
    finished = trace.finished_queries()
    done = {q.query_id for q in finished}
    failures = [f"query {q.query_id}: did not finish" for q, _t in entries if q.query_id not in done]
    answered = [q for q, _t in entries if q.query_id in done]
    if workload.churn:
        graph_problems = check_churned_graph(engine.graph)
        failures += graph_problems
        failed = len(entries) if graph_problems else len(entries) - len(answered)
    else:
        failures += check_answers(engine, answered)
        failed = len(failures)
    answers = [repr(engine.query_result(q.query_id)) for q in answered]
    waits = [q.start_time - arrival[q.query_id] for q in finished]

    out: Dict[str, Any] = {
        "workload": workload.name,
        "seed": seed,
        "setup_s": setup_s,
        "run_s": run_s,
        "setup_wall_s": setup_wall_s,
        "run_wall_s": run_wall_s,
        "events": engine._events_processed,
        "peak_rss_mb": peak_rss_mb,
        "makespan_ms": result.makespan * 1e3,
        "latencies_ms": [q.latency * 1e3 for q in finished],
        "responses_ms": [(q.end_time - arrival[q.query_id]) * 1e3 for q in finished],
        "localities": [q.locality for q in finished],
        "submitted": len(entries),
        "failed": failed,
        "failures": failures[:10],
        "repartitions": len(trace.repartitions),
        "churn_epochs": len(trace.churn_events),
        "fingerprint": _fingerprint(result, answers),
    }
    if tracer is not None:
        out["layers"] = _layer_metrics(tracer, result, waits)
        if spans is not None:
            tracer.write_chrome_trace(spans)
    return out


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans", default=None, help="Chrome trace-event file")
    args = parser.parse_args()
    print(json.dumps(run_instance(args.workload, args.seed, args.trace, args.spans)))


if __name__ == "__main__":
    main()

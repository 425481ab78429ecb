"""The benchmark's workloads, as harness scenario parameters.

Every workload runs on the BW road network at the active ``REPRO_SCALE``
(default ``small``) with k=8 workers, cluster M2 and HYBRID barriers (the
:class:`repro.bench.harness.Scenario` defaults).  One benchmark run of a
workload executes a fixed number of *instances*: the same scenario under the
workload seeds :func:`instance_seeds` derives from the run's ``--seed``.  The
first instance uses the run seed itself, so ``--seed 5`` reproduces the
subsystem benchmarks' pinned instances.

This module imports nothing from ``repro``: ``run.py`` only needs the
names and builds no scenario itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

#: distance between the instance seeds of one run; larger than any run seed
#: the benchmark is driven with, so two runs never share an instance
INSTANCE_SEED_STRIDE = 100_003

#: the churn process of ``benchmarks/bench_graph_churn.py`` (both arms)
_CHURN = dict(
    workload="sssp",
    main_queries=96,
    disturbance_queries=32,
    partitioner="hash",
    max_parallel=16,
    churn=120.0,
    churn_span=0.25,
    churn_batch=4,
)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: instances per run (fixed, so the virtual metrics of a run are a
    #: deterministic function of its seed)
    instances: int
    #: keyword arguments of ``repro.bench.harness.Scenario`` besides
    #: ``name`` and ``seed``
    scenario: Dict[str, Any] = field(default_factory=dict)
    #: arm of ``BENCH_churn.json`` whose virtual numbers the seed-5
    #: instance must reproduce exactly
    churn_reference: Optional[str] = None

    @property
    def churn(self) -> bool:
        return self.scenario.get("churn", 0.0) > 0


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="mixed_static",
            why=(
                "all seven programs, Poisson arrivals at 800 q/s, no "
                "adaptivity: vertex work and the event loop dominate"
            ),
            instances=9,
            scenario=dict(
                workload="mixed",
                main_queries=256,
                arrival="poisson",
                arrival_rate=800.0,
                partitioner="hash",
                adaptive=False,
                max_parallel=16,
            ),
        ),
        Workload(
            name="hotspot_adaptive",
            why=(
                "Fig. 5 hotspot SSSP plus a disturbance, adaptive Q-cut on a "
                "static graph: ILS, snapshot and kernels share the time"
            ),
            instances=6,
            scenario=dict(
                workload="sssp",
                main_queries=192,
                disturbance_queries=64,
                partitioner="hash",
                adaptive=True,
                repartition_mode="global",
                max_parallel=16,
            ),
        ),
        Workload(
            name="churn_static",
            why=(
                "120 churn events/s with adaptivity off: graph writes, vertex "
                "add/remove and placement beside query reads"
            ),
            instances=6,
            scenario=dict(_CHURN, adaptive=False),
            churn_reference="static",
        ),
        Workload(
            name="churn_adaptive",
            why=(
                "adaptive Q-cut under 120 churn events/s: ILS does most of the "
                "work, and the Q-cut count swings with the seed"
            ),
            instances=2,
            scenario=dict(_CHURN, adaptive=True),
            churn_reference="adaptive",
        ),
    )
}


def instance_seeds(workload: Workload, seed: int) -> List[int]:
    """Workload seeds of the instances one run executes."""
    return [seed + INSTANCE_SEED_STRIDE * i for i in range(workload.instances)]

"""Answer checks against references computed outside the engine.

Shortest paths come from ``scipy.sparse.csgraph``: Dijkstra for ``sssp``
and ``poi``, unweighted (hop-count) search for ``bfs``, ``khop``,
``reachability`` and the hop budget of ``wcc_local``.  ``pagerank_local``
is checked by mass conservation.  Under churn the answers depend on when
flushes land, so the churn check compares the mutated CSR with a fresh
rebuild of its edge list instead.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Optional, Tuple

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

from repro.graph.delta import fresh_rebuild
from repro.queries.bfs import BfsProgram
from repro.queries.khop import KHopProgram
from repro.queries.pagerank_local import LocalPageRankProgram
from repro.queries.poi import PoiProgram
from repro.queries.reachability import ReachabilityProgram
from repro.queries.sssp import SsspProgram
from repro.queries.wcc_local import LocalWccProgram

#: relative tolerance of a distance compared with the reference
DISTANCE_RTOL = 1e-9
#: |scores + residual - 1| allowed for local PageRank
MASS_TOL = 1e-6


class _References:
    """Single-source distances from scipy, cached per (source, hop mode)."""

    def __init__(self, graph) -> None:
        n = graph.num_vertices
        self.matrix = csr_matrix(
            (graph.weights, graph.indices, graph.indptr), shape=(n, n)
        )
        self.tags = graph.tags
        self._cache: Dict[Tuple[int, bool], np.ndarray] = {}

    def distances(self, source: int, hops: bool = False) -> np.ndarray:
        key = (source, hops)
        if key not in self._cache:
            self._cache[key] = dijkstra(
                self.matrix, directed=True, indices=source, unweighted=hops
            )
        return self._cache[key]


def _same_distance(got: Optional[float], want: float) -> bool:
    if got is None:
        return math.isinf(want)
    return abs(got - want) <= DISTANCE_RTOL * max(1.0, abs(want))


def _within(hops: np.ndarray, limit: Optional[int]) -> np.ndarray:
    finite = np.isfinite(hops)
    return finite if limit is None else finite & (hops <= limit)


def _check_one(program: Any, answer: Dict[str, Any], refs: _References) -> Optional[str]:
    """None when ``answer`` is right, else what is wrong with it."""
    if isinstance(program, SsspProgram):
        want = refs.distances(program.start)[program.target]
        if not _same_distance(answer["distance"], want):
            return f"sssp distance {answer['distance']} != {want}"
    elif isinstance(program, PoiProgram):
        dist = refs.distances(program.start)
        want = float(dist[refs.tags].min()) if refs.tags.any() else math.inf
        if not _same_distance(answer["distance"], want):
            return f"poi distance {answer['distance']} != {want}"
    elif isinstance(program, BfsProgram):
        hops = refs.distances(program.start, hops=True)
        reached = _within(hops, program.max_depth)
        want = int(hops[program.target]) if reached[program.target] else None
        if answer["depth"] != want:
            return f"bfs depth {answer['depth']} != {want}"
    elif isinstance(program, KHopProgram):
        hops = refs.distances(program.center, hops=True)
        want = np.flatnonzero(_within(hops, program.k)).tolist()
        if answer["members"] != want:
            return f"khop members differ ({answer['size']} vs {len(want)})"
    elif isinstance(program, ReachabilityProgram):
        hops = refs.distances(program.start, hops=True)
        want = bool(np.isfinite(hops[program.target]))
        if answer["reachable"] != want:
            return f"reachability {answer['reachable']} != {want}"
    elif isinstance(program, LocalPageRankProgram):
        mass = sum(answer["scores"].values()) + answer["residual_mass"]
        if abs(mass - 1.0) > MASS_TOL or min(answer["scores"].values(), default=0) < 0:
            return f"ppr mass {mass!r} not conserved"
    elif isinstance(program, LocalWccProgram):
        return None  # needs the seed vertex: checked by the caller
    else:
        return f"no reference for {type(program).__name__}"
    return None


def _check_wcc(program: LocalWccProgram, seed: int, answer, refs: _References):
    hops = refs.distances(seed, hops=True)
    ball = set(np.flatnonzero(_within(hops, program.max_hops)).tolist())
    labels = answer["labels"]
    if set(labels) != ball:
        return f"wcc labelled {len(labels)} vertices, hop ball has {len(ball)}"
    if any(label != seed for label in labels.values()):
        return "wcc label outside the single seed's component"
    return None


def check_answers(engine, queries) -> List[str]:
    """One message per query whose answer is wrong (empty when all right)."""
    refs = _References(engine.graph)
    failures = []
    for query in queries:
        answer = engine.query_result(query.query_id)
        program = query.program
        if isinstance(program, LocalWccProgram):
            problem = _check_wcc(program, query.initial_vertices[0], answer, refs)
        else:
            problem = _check_one(program, answer, refs)
        if problem is not None:
            failures.append(f"query {query.query_id}: {problem}")
    return failures


def check_churned_graph(graph) -> List[str]:
    """The mutated CSR must equal a fresh build from the same edge list."""
    fresh = fresh_rebuild(graph)
    return [
        f"churned CSR {name} differs from fresh_rebuild"
        for name in ("indptr", "indices", "weights")
        if not np.array_equal(getattr(graph, name), getattr(fresh, name))
    ]

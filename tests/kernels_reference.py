"""Reference kernel routines, the oracle for the engine's hot path.

``repro.engine.kernels`` builds the run-start mask in place, routes
targets to owners with a counting sort, expands edges from the cached
out-degree with one ``np.repeat``, and writes back only the improved
entries of a min-wavefront state.  This module keeps the direct
formulations next to the tests: a stable argsort, then run starts found
with ``np.r_`` concatenations; degrees recomputed from ``indptr`` and
three ``np.repeat`` calls per expansion; a ``np.minimum`` pass written
back over the whole frontier.  The production code must agree with it on
every output: values, order and dtypes, and the state left behind.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, Tuple

import numpy as np


def reference_combine_by_vertex(
    vertices: np.ndarray, messages: np.ndarray, combine: np.ufunc
) -> Tuple[np.ndarray, np.ndarray]:
    """Collapse duplicate targets: unique sorted vertices, combined messages."""
    if vertices.size == 0:
        return vertices, messages
    order = np.argsort(vertices, kind="stable")
    sv = vertices[order]
    sm = messages[order]
    starts = np.flatnonzero(np.r_[True, sv[1:] != sv[:-1]])
    return sv[starts], combine.reduceat(sm, starts)


def reference_group_by_owner(
    assignment: np.ndarray, vertices: np.ndarray, messages: np.ndarray
) -> Iterator[Tuple[int, np.ndarray, np.ndarray]]:
    """Yield ``(owner, vertex_chunk, message_chunk)`` grouped by owning worker."""
    if vertices.size == 0:
        return
    owners = assignment[vertices]
    order = np.argsort(owners, kind="stable")
    ov = owners[order]
    sv = vertices[order]
    sm = messages[order]
    starts = np.flatnonzero(np.r_[True, ov[1:] != ov[:-1]])
    bounds = np.r_[starts, ov.size]
    for i in range(starts.size):
        lo, hi = int(bounds[i]), int(bounds[i + 1])
        yield int(ov[lo]), sv[lo:hi], sm[lo:hi]


def reference_expand_edges(
    indptr: np.ndarray, vertices: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Edge indices of all out-edges of ``vertices`` plus their source positions."""
    degrees = indptr[vertices + 1] - indptr[vertices]
    total = int(degrees.sum())
    if total == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    src_pos = np.repeat(np.arange(vertices.size, dtype=np.int64), degrees)
    offsets = np.arange(total, dtype=np.int64) - np.repeat(
        np.cumsum(degrees) - degrees, degrees
    )
    edge_idx = np.repeat(indptr[vertices], degrees) + offsets
    return edge_idx, src_pos


def _improve(
    state: np.ndarray, vertices: np.ndarray, messages: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Min-combine messages into ``state``; the improved vertices and values."""
    best = np.minimum(messages, state[vertices])
    improved = best < state[vertices]
    state[vertices] = best
    return vertices[improved], best[improved]


StepResult = Tuple[np.ndarray, np.ndarray, Dict[str, Any]]


def reference_bounded_step(
    kernel: Any,
    graph: Any,
    dist: np.ndarray,
    vertices: np.ndarray,
    messages: np.ndarray,
    agg_committed: Dict[str, Any],
) -> StepResult:
    """One SSSP / POI step (``_BoundedWavefrontKernel.step``)."""
    iv, ib = _improve(dist, vertices, messages)
    contribs: Dict[str, Any] = {}
    terminal = kernel.terminal_mask(graph, iv)
    if terminal is not None:
        if terminal.any():
            contribs["bound"] = float(ib[terminal].min())
        iv = iv[~terminal]
        ib = ib[~terminal]
    bound = agg_committed.get("bound")
    if bound is not None:
        keep = ib < bound
        iv = iv[keep]
        ib = ib[keep]
    edge_idx, src_pos = reference_expand_edges(graph.indptr, iv)
    targets = graph.indices[edge_idx]
    candidates = ib[src_pos] + graph.weights[edge_idx]
    if bound is not None:
        keep = candidates < bound
        targets = targets[keep]
        candidates = candidates[keep]
    return targets, candidates, contribs


def reference_bfs_step(
    kernel: Any,
    graph: Any,
    depth: np.ndarray,
    vertices: np.ndarray,
    messages: np.ndarray,
    agg_committed: Dict[str, Any],
) -> StepResult:
    """One BFS step (``BfsKernel.step``)."""
    iv, ib = _improve(depth, vertices, messages)
    contribs: Dict[str, Any] = {}
    if kernel.target is not None:
        at_target = iv == kernel.target
        if at_target.any():
            contribs["bound"] = int(ib[at_target].min())
        iv = iv[~at_target]
        ib = ib[~at_target]
    bound = agg_committed.get("bound")
    if bound is not None:
        keep = ib + 1 < bound
        iv = iv[keep]
        ib = ib[keep]
    if kernel.max_depth is not None:
        keep = ib < kernel.max_depth
        iv = iv[keep]
        ib = ib[keep]
    edge_idx, src_pos = reference_expand_edges(graph.indptr, iv)
    return graph.indices[edge_idx], ib[src_pos] + 1, contribs


def reference_khop_step(
    kernel: Any,
    graph: Any,
    depth: np.ndarray,
    vertices: np.ndarray,
    messages: np.ndarray,
    agg_committed: Dict[str, Any],
) -> StepResult:
    """One k-hop step (``KHopKernel.step``)."""
    iv, ib = _improve(depth, vertices, messages)
    keep = ib < kernel.k
    iv = iv[keep]
    ib = ib[keep]
    edge_idx, src_pos = reference_expand_edges(graph.indptr, iv)
    return graph.indices[edge_idx], ib[src_pos] + 1, {}


def reference_wcc_step(
    kernel: Any,
    graph: Any,
    keys: np.ndarray,
    vertices: np.ndarray,
    messages: np.ndarray,
    agg_committed: Dict[str, Any],
) -> StepResult:
    """One local-WCC step (``LocalWccKernel.step``)."""
    iv, ib = _improve(keys, vertices, messages)
    hops = kernel.max_hops - ib % kernel._base
    keep = hops > 0
    iv = iv[keep]
    ib = ib[keep]
    edge_idx, src_pos = reference_expand_edges(graph.indptr, iv)
    return graph.indices[edge_idx], ib[src_pos] + 1, {}

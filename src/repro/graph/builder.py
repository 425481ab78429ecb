"""Mutable builder producing immutable :class:`~repro.graph.digraph.DiGraph`.

The builder accumulates edges in simple Python lists (cheap appends) and
performs a single vectorised CSR conversion in :meth:`GraphBuilder.build`.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.errors import GraphError
from repro.graph.digraph import DiGraph

__all__ = ["GraphBuilder", "csr_arrays_from_edges"]


def csr_arrays_from_edges(
    src: np.ndarray, dst: np.ndarray, weights: np.ndarray, num_vertices: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Canonical CSR arrays from an edge list: ``(indptr, indices, weights)``.

    Edges are ordered by ``(src, dst)`` lexicographically, parallel edges
    in input order (a stable sort).  This is *the* canonical construction:
    :meth:`GraphBuilder.build` and :func:`~repro.graph.delta.fresh_rebuild`
    call it.  :meth:`~repro.graph.delta.MutableDiGraph.flush` does not; it
    splices the existing sorted arrays, and the churn tests and the
    sanitizer's ``csr-canonical`` check hold it to this construction.
    """
    n = int(num_vertices)
    order = np.lexsort((dst, src)) if src.size else np.empty(0, dtype=np.int64)
    src, dst, weights = src[order], dst[order], weights[order]
    indptr = np.zeros(n + 1, dtype=np.int64)
    if src.size:
        indptr[1:] = np.cumsum(np.bincount(src, minlength=n))
    return indptr, dst, weights


class GraphBuilder:
    """Incrementally assemble a directed weighted graph.

    Parameters
    ----------
    num_vertices:
        Number of vertices; may be grown later with :meth:`add_vertices`.

    Examples
    --------
    >>> b = GraphBuilder(3)
    >>> b.add_edge(0, 1, 2.0)
    >>> b.add_edge(1, 2, 1.5)
    >>> g = b.build(name="tiny")
    >>> g.num_edges
    2
    """

    def __init__(self, num_vertices: int = 0) -> None:
        if num_vertices < 0:
            raise GraphError("num_vertices must be non-negative")
        self._n = int(num_vertices)
        self._src: List[int] = []
        self._dst: List[int] = []
        self._w: List[float] = []
        self._coords: Dict[int, Tuple[float, float]] = {}
        self._tags: Dict[int, bool] = {}

    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        """Current number of vertices."""
        return self._n

    @property
    def num_edges(self) -> int:
        """Number of edges added so far."""
        return len(self._src)

    def add_vertices(self, count: int) -> int:
        """Append ``count`` fresh vertices; returns the id of the first one."""
        if count < 0:
            raise GraphError("count must be non-negative")
        first = self._n
        self._n += count
        return first

    def add_edge(self, u: int, v: int, weight: float = 1.0) -> None:
        """Add the directed edge ``u -> v``."""
        if not (0 <= u < self._n and 0 <= v < self._n):
            raise GraphError(f"edge ({u}, {v}) references unknown vertex")
        if weight < 0:
            raise GraphError("negative edge weights are not supported")
        self._src.append(int(u))
        self._dst.append(int(v))
        self._w.append(float(weight))

    def add_bidirectional_edge(self, u: int, v: int, weight: float = 1.0) -> None:
        """Add both ``u -> v`` and ``v -> u`` (road segments are two-way)."""
        self.add_edge(u, v, weight)
        self.add_edge(v, u, weight)

    def add_edges(self, edges: Iterable[Tuple[int, int, float]]) -> None:
        """Add many ``(u, v, weight)`` triples."""
        for u, v, w in edges:
            self.add_edge(u, v, w)

    def set_coord(self, v: int, x: float, y: float) -> None:
        """Attach a planar coordinate to vertex ``v``."""
        if not 0 <= v < self._n:
            raise GraphError(f"vertex {v} out of range")
        self._coords[v] = (float(x), float(y))

    def set_tag(self, v: int, tagged: bool = True) -> None:
        """Mark vertex ``v`` as a point of interest."""
        if not 0 <= v < self._n:
            raise GraphError(f"vertex {v} out of range")
        self._tags[v] = bool(tagged)

    # ------------------------------------------------------------------
    def build(self, name: str = "graph", deduplicate: bool = False) -> DiGraph:
        """Produce the immutable CSR graph.

        Parameters
        ----------
        name:
            Human-readable graph name carried on the result.
        deduplicate:
            When True, parallel edges ``(u, v)`` are merged keeping the
            minimum weight (shortest-path semantics).
        """
        n = self._n
        src = np.asarray(self._src, dtype=np.int64)
        dst = np.asarray(self._dst, dtype=np.int64)
        w = np.asarray(self._w, dtype=np.float64)

        if deduplicate and src.size:
            # Sort by (src, dst, weight) so the first of each (src, dst) group
            # carries the minimum weight, then drop the rest of the group.
            order = np.lexsort((w, dst, src))
            src, dst, w = src[order], dst[order], w[order]
            keep = np.ones(src.size, dtype=bool)
            keep[1:] = (src[1:] != src[:-1]) | (dst[1:] != dst[:-1])
            src, dst, w = src[keep], dst[keep], w[keep]

        indptr, dst, w = csr_arrays_from_edges(src, dst, w, n)

        coords: Optional[np.ndarray] = None
        if self._coords:
            coords = np.zeros((n, 2), dtype=np.float64)
            for v, (x, y) in self._coords.items():
                coords[v, 0] = x
                coords[v, 1] = y

        tags: Optional[np.ndarray] = None
        if self._tags:
            tags = np.zeros(n, dtype=bool)
            for v, t in self._tags.items():
                tags[v] = t

        return DiGraph(indptr, dst, w, coords=coords, tags=tags, name=name)

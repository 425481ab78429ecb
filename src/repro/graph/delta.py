"""Streaming topology mutation: delta buffers over the CSR graph.

The reproduction's :class:`~repro.graph.digraph.DiGraph` is immutable — the
right call for the steady-state hot path, where the kernels want stable CSR
buffers, but it closes off the *graph-churn* scenario axis of continuous
multi-query processing over graph streams (road closures, new road segments,
traffic-induced weight changes, junction churn).

This module adds mutation as a layer on top of the CSR substrate instead of
rewriting it:

:class:`GraphDelta`
    A batched buffer of topology mutations — edge inserts, edge deletes,
    weight updates, vertex additions (:class:`NewVertexSpec`) and vertex
    removals.  Deltas are plain data: workload generators build them against
    the initial topology and the engine applies them later, so application
    is *tolerant* — deleting an edge a previous delta already removed, or
    wiring a new edge to a since-removed vertex, is counted and skipped, not
    an error (exactly like a road authority's change feed).

:class:`MutableDiGraph`
    A :class:`DiGraph` subclass with a pending-delta buffer.  Mutations
    accumulate in the buffer; :meth:`~MutableDiGraph.flush` splices the
    forward and reverse CSR: it removes and inserts only the touched
    entries of the sorted arrays, so a flush costs what it changes plus
    one copy of each array, not a re-sort of every edge.  The result is
    in the same ``(src, dst)`` lexicographic order
    :class:`~repro.graph.builder.GraphBuilder` produces, array-for-array
    identical to fresh construction from the same edge list
    (:func:`fresh_rebuild`).  The flush then invalidates the cached
    :meth:`~repro.graph.digraph.DiGraph.csr` / ``csr_in`` views the kernels
    and batched partitioners hold.  Reads always reflect the last flush.

Vertex removal is by *tombstone*: the id space ``0 .. n-1`` stays dense
(everything downstream — assignment arrays, kernel state buffers, scope
stores — indexes by vertex id), the vertex keeps its slot but loses all
incident edges and is marked dead in :attr:`MutableDiGraph.dead_mask`.
Vertex addition appends fresh ids at the end; callers that hold per-vertex
dense state (the engine's assignment, the kernels' distance buffers) grow
their arrays when :meth:`MutableDiGraph.flush` reports growth.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from repro.errors import GraphError
from repro.graph.builder import csr_arrays_from_edges
from repro.graph.digraph import DiGraph

__all__ = ["NewVertexSpec", "GraphDelta", "DeltaResult", "MutableDiGraph", "fresh_rebuild"]


@dataclass(frozen=True)
class NewVertexSpec:
    """One vertex to be added, with its initial incident edges.

    The new id is assigned at application time (``n`` at that moment), so
    specs compose across deltas generated up front.  ``edges`` reference
    *existing* vertex ids; edges to since-removed endpoints are skipped.
    """

    x: Optional[float] = None
    y: Optional[float] = None
    tag: bool = False
    #: ``(neighbor, weight)`` pairs; added bidirectionally when
    #: ``bidirectional`` (road segments are two-way)
    edges: Tuple[Tuple[int, float], ...] = ()
    bidirectional: bool = True


@dataclass
class GraphDelta:
    """A batch of topology mutations, applied atomically by one flush."""

    #: ``(u, v, weight)`` directed edges to insert
    insert_edges: List[Tuple[int, int, float]] = field(default_factory=list)
    #: ``(u, v)`` pairs to delete (all parallel ``u -> v`` edges)
    delete_edges: List[Tuple[int, int]] = field(default_factory=list)
    #: ``(u, v, weight)`` — set the weight of all ``u -> v`` edges
    update_weights: List[Tuple[int, int, float]] = field(default_factory=list)
    #: vertices to append (ids assigned at application time)
    new_vertices: List[NewVertexSpec] = field(default_factory=list)
    #: vertex ids to tombstone (incident edges dropped, slot kept)
    remove_vertices: List[int] = field(default_factory=list)

    def __bool__(self) -> bool:
        return bool(
            self.insert_edges
            or self.delete_edges
            or self.update_weights
            or self.new_vertices
            or self.remove_vertices
        )

    @property
    def num_mutations(self) -> int:
        return (
            len(self.insert_edges)
            + len(self.delete_edges)
            + len(self.update_weights)
            + len(self.new_vertices)
            + len(self.remove_vertices)
        )

    def merge(self, other: "GraphDelta") -> None:
        """Append another delta's mutations (application order preserved)."""
        self.insert_edges.extend(other.insert_edges)
        self.delete_edges.extend(other.delete_edges)
        self.update_weights.extend(other.update_weights)
        self.new_vertices.extend(other.new_vertices)
        self.remove_vertices.extend(other.remove_vertices)


@dataclass(frozen=True)
class DeltaResult:
    """What one flush actually changed (after tolerance filtering)."""

    #: id of the first appended vertex (``None`` when none were added)
    first_new_vertex: Optional[int] = None
    added_vertices: int = 0
    #: ids newly tombstoned by this flush
    removed_vertices: Tuple[int, ...] = ()
    inserted_edges: int = 0
    deleted_edges: int = 0
    updated_weights: int = 0
    #: mutations skipped by tolerance (absent edges, dead endpoints, ...)
    skipped: int = 0

    def __bool__(self) -> bool:
        return bool(
            self.added_vertices
            or self.removed_vertices
            or self.inserted_edges
            or self.deleted_edges
            or self.updated_weights
        )


class MutableDiGraph(DiGraph):
    """A CSR graph with buffered mutations, applied by splicing at a flush.

    Mutation methods append to a pending :class:`GraphDelta`;
    :meth:`flush` applies the buffer by splicing the sorted forward and
    reverse CSR into new arrays.  The cached ``csr()`` / ``csr_in()`` views
    are invalidated on every flush (this is the mutating subclass
    :meth:`DiGraph._invalidate_csr` anticipated), so
    kernel iterations dispatched after a flush see the new topology while
    borrowed views from before the flush keep referencing the old arrays —
    never a torn state.

    ``auto_flush_threshold`` bounds the buffer: exceeding it triggers a
    flush on the next mutation, so interactive use cannot accumulate an
    unbounded delta.  The engine flushes explicitly at every
    ``graph_update`` event (one event = one churn epoch).
    """

    __slots__ = (
        "_pending",
        "_dead",
        "_keys",
        "_rkeys",
        "auto_flush_threshold",
        "churn_epochs",
    )

    def __init__(self, *args, auto_flush_threshold: int = 100_000, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        # the sort keys of the forward and reverse CSR entries, spliced
        # with them at every flush
        self._keys = _row_keys(self._indptr, self._indices)
        self._rkeys = _row_keys(self._rindptr, self._rindices)
        self._pending = GraphDelta()
        self._dead = np.zeros(self.num_vertices, dtype=bool)
        self.auto_flush_threshold = int(auto_flush_threshold)
        #: completed flushes that changed anything
        self.churn_epochs = 0

    # ------------------------------------------------------------------
    @classmethod
    def from_digraph(
        cls, graph: DiGraph, auto_flush_threshold: int = 100_000
    ) -> "MutableDiGraph":
        """A mutable deep copy of an (immutable) graph.

        Copies the CSR arrays so mutating never corrupts the source — the
        harness's road networks are cached and shared across scenarios.
        """
        coords = graph.coords.copy() if graph.coords is not None else None
        tags = graph.tags.copy() if graph.tags is not None else None
        out = cls(
            graph.indptr.copy(),
            graph.indices.copy(),
            graph.weights.copy(),
            coords=coords,
            tags=tags,
            name=graph.name,
            auto_flush_threshold=auto_flush_threshold,
        )
        if isinstance(graph, MutableDiGraph):
            out._dead = graph.dead_mask.copy()
            # buffered-but-unflushed mutations are part of the source's
            # logical state; the entries are immutable tuples/specs, so
            # extending a fresh delta with them is a safe deep-enough copy
            out._pending.merge(graph._pending)
        return out

    # ------------------------------------------------------------------
    # mutation buffer
    # ------------------------------------------------------------------
    @property
    def dead_mask(self) -> np.ndarray:
        """Boolean tombstone mask (read-only view; reflects the last flush)."""
        return self._dead

    @property
    def num_live_vertices(self) -> int:
        return int(self.num_vertices - np.count_nonzero(self._dead))

    @property
    def pending_mutations(self) -> int:
        return self._pending.num_mutations

    def _maybe_auto_flush(self) -> None:
        if self._pending.num_mutations >= self.auto_flush_threshold:
            self.flush()

    def insert_edge(self, u: int, v: int, weight: float = 1.0) -> None:
        """Buffer a directed edge insertion."""
        if weight < 0:
            raise GraphError("negative edge weights are not supported")
        self._pending.insert_edges.append((int(u), int(v), float(weight)))
        self._maybe_auto_flush()

    def delete_edge(self, u: int, v: int) -> None:
        """Buffer the deletion of all parallel ``u -> v`` edges."""
        self._pending.delete_edges.append((int(u), int(v)))
        self._maybe_auto_flush()

    def update_weight(self, u: int, v: int, weight: float) -> None:
        """Buffer a weight change for all parallel ``u -> v`` edges."""
        if weight < 0:
            raise GraphError("negative edge weights are not supported")
        self._pending.update_weights.append((int(u), int(v), float(weight)))
        self._maybe_auto_flush()

    def add_vertex(self, spec: NewVertexSpec) -> None:
        """Buffer a vertex addition (id assigned at the next flush)."""
        self._pending.new_vertices.append(spec)
        self._maybe_auto_flush()

    def remove_vertex(self, v: int) -> None:
        """Buffer a vertex tombstone (drops all incident edges at flush)."""
        self._pending.remove_vertices.append(int(v))
        self._maybe_auto_flush()

    def buffer_delta(self, delta: GraphDelta) -> None:
        """Merge a whole delta into the pending buffer (no flush)."""
        self._pending.merge(delta)
        self._maybe_auto_flush()

    def apply_delta(self, delta: GraphDelta) -> DeltaResult:
        """Buffer ``delta`` and flush immediately (one churn epoch)."""
        self._pending.merge(delta)
        return self.flush()

    # ------------------------------------------------------------------
    # the splice
    # ------------------------------------------------------------------
    def flush(self) -> DeltaResult:
        """Apply the pending buffer by splicing both sorted CSRs.

        The forward CSR is sorted by key ``(src, dst)`` and the reverse CSR
        by ``(dst, src)``, ties in forward order; both key arrays are kept
        beside the CSRs.  One ``searchsorted`` per mutation kind finds every
        touched entry, and only those are removed, rewritten or inserted.
        Inserts go after the kept entries with an equal key, in delta
        order: the tie order a stable sort of the whole edge list gives, so
        the result is array-for-array identical to fresh construction.
        Every array is new; views borrowed before the flush keep the old
        topology.

        Ordering matters only between conflicting mutations on the same
        edge; the application order within one flush is: weight updates,
        deletions, vertex removals, then insertions / vertex additions (a
        delta that deletes and re-inserts the same edge ends up with the
        edge present).
        """
        delta = self._pending
        self._pending = GraphDelta()
        if not delta:
            return DeltaResult()
        _reject_negative_weights(delta)

        old_n = self.num_vertices
        keys, rkeys = self._keys, self._rkeys
        weights, rweights = self._weights, self._rweights
        skipped = 0

        # --- weight updates: the last update to the same (u, v) wins
        updated = 0
        if delta.update_weights:
            uu, uv, uw = _edge_triples(delta.update_weights)
            valid = _endpoints_alive(uu, uv, old_n, self._dead)
            skipped += int(np.count_nonzero(~valid))
            want = _encode(uu[valid], uv[valid])
            uw = uw[valid]
            lo, hi = _key_ranges(keys, want)
            skipped += int(np.count_nonzero(lo == hi))
            updated += int((hi - lo).sum())
            _, first_from_end = np.unique(want[::-1], return_index=True)
            last = want.size - 1 - first_from_end
            weights = _set_ranges(weights, lo[last], hi[last], uw[last])
            rlo, rhi = _key_ranges(rkeys, _swap(want[last]))
            rweights = _set_ranges(rweights, rlo, rhi, uw[last])

        # --- deletions (edges, then whole vertices) take every parallel
        # copy of a (u, v) pair, so they drop whole key ranges in both CSRs
        dropped: List[np.ndarray] = []
        if delta.delete_edges:
            du = np.asarray([u for u, _v in delta.delete_edges], dtype=np.int64)
            dv = np.asarray([v for _u, v in delta.delete_edges], dtype=np.int64)
            valid = (du >= 0) & (du < old_n) & (dv >= 0) & (dv < old_n)
            skipped += int(np.count_nonzero(~valid))
            want = np.unique(_encode(du[valid], dv[valid]))
            lo, hi = _key_ranges(keys, want)
            present = lo < hi
            # deletions of already-absent edges are tolerated silently
            # (counted per requested pair, not per matched edge)
            skipped += int(np.count_nonzero(~present))
            dropped.append(want[present])

        newly_dead: Tuple[int, ...] = ()
        if delta.remove_vertices:
            rv = np.unique(np.asarray(delta.remove_vertices, dtype=np.int64))
            valid = (rv >= 0) & (rv < old_n)
            valid[valid] = ~self._dead[rv[valid]]
            skipped += int(np.count_nonzero(~valid))
            rv = rv[valid]
            if rv.size:
                dead = self._dead.copy()
                dead[rv] = True
                self._dead = dead
                newly_dead = tuple(rv.tolist())
                # out-edges by indptr range, in-edges through reverse rows
                indptr, rindptr = self._indptr, self._rindptr
                dropped.append(keys[_range_positions(indptr[rv], indptr[rv + 1])])
                dropped.append(
                    _swap(rkeys[_range_positions(rindptr[rv], rindptr[rv + 1])])
                )

        drop = np.unique(np.concatenate(dropped)) if dropped else _NO_KEYS
        lo, hi = _key_ranges(keys, drop)
        rlo, rhi = _key_ranges(rkeys, np.sort(_swap(drop)))
        deleted = int((hi - lo).sum())

        first_new, pending_edges = self._append_vertices(delta, old_n)
        n = old_n + len(delta.new_vertices)

        # --- insertions (tolerant of dead / out-of-range endpoints)
        iu, iv, iw = _edge_triples(pending_edges)
        valid = _endpoints_alive(iu, iv, n, self._dead)
        skipped += int(np.count_nonzero(~valid))
        iu, iv, iw = iu[valid], iv[valid], iw[valid]
        inserted = int(iu.size)

        self._indptr, self._keys, self._indices, self._weights = _splice(
            self._indptr, keys, self._indices, weights, lo, hi, iu, iv, iw, n
        )
        self._rindptr, self._rkeys, self._rindices, self._rweights = _splice(
            self._rindptr, rkeys, self._rindices, rweights, rlo, rhi, iv, iu, iw, n
        )
        self._invalidate_csr()

        result = DeltaResult(
            first_new_vertex=first_new,
            added_vertices=n - old_n,
            removed_vertices=newly_dead,
            inserted_edges=inserted,
            deleted_edges=deleted,
            updated_weights=updated,
            skipped=skipped,
        )
        if result:
            self.churn_epochs += 1
        return result

    def _append_vertices(
        self, delta: GraphDelta, old_n: int
    ) -> Tuple[Optional[int], List[Tuple[int, int, float]]]:
        """Assign ids to ``delta.new_vertices`` and extend coords, tags and
        the dead mask.  Returns the first new id (``None`` when none) and
        every edge to insert: ``delta.insert_edges``, then each new
        vertex's edges in spec order."""
        pending_edges: List[Tuple[int, int, float]] = list(delta.insert_edges)
        if not delta.new_vertices:
            return None, pending_edges
        added = len(delta.new_vertices)
        has_coords = self._coords is not None
        new_coords = np.zeros((added, 2), dtype=np.float64)
        new_tags = np.zeros(added, dtype=bool)
        for i, spec in enumerate(delta.new_vertices):
            vid = old_n + i
            if has_coords:
                new_coords[i, 0] = spec.x if spec.x is not None else 0.0
                new_coords[i, 1] = spec.y if spec.y is not None else 0.0
            new_tags[i] = spec.tag
            for neighbor, weight in spec.edges:
                pending_edges.append((vid, int(neighbor), float(weight)))
                if spec.bidirectional:
                    pending_edges.append((int(neighbor), vid, float(weight)))
        if has_coords:
            self._coords = np.vstack([self._coords, new_coords])
        if self._tags is not None:
            self._tags = np.concatenate([self._tags, new_tags])
        elif new_tags.any():
            tags = np.zeros(old_n + added, dtype=bool)
            tags[old_n:] = new_tags
            self._tags = tags
        self._dead = np.concatenate([self._dead, np.zeros(added, dtype=bool)])
        return old_n, pending_edges

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"MutableDiGraph(name={self.name!r}, n={self.num_vertices}, "
            f"m={self.num_edges}, dead={int(np.count_nonzero(self._dead))}, "
            f"pending={self.pending_mutations})"
        )


def _edge_triples(
    triples: List[Tuple[int, int, float]]
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    u = np.asarray([t[0] for t in triples], dtype=np.int64)
    v = np.asarray([t[1] for t in triples], dtype=np.int64)
    w = np.asarray([t[2] for t in triples], dtype=np.float64)
    return u, v, w


def _endpoints_alive(
    u: np.ndarray, v: np.ndarray, n: int, dead: np.ndarray
) -> np.ndarray:
    """Mask of edges whose endpoints are in range and not tombstoned."""
    valid = (u >= 0) & (u < n) & (v >= 0) & (v < n)
    alive = valid.copy()
    if dead.size:
        inb = valid
        alive[inb] &= ~(dead[u[inb]] | dead[v[inb]])
    return alive


#: a CSR entry's sort key packs ``(row, col)`` into one int64: vertex ids
#: stay below ``2**31``, so keys order exactly as the pairs do
_KEY_SHIFT = 32
_COL_MASK = (1 << _KEY_SHIFT) - 1
_NO_KEYS = np.empty(0, dtype=np.int64)


def _reject_negative_weights(delta: GraphDelta) -> None:
    """Negative weights violate the graph invariant everywhere else
    (constructor, builder, the buffering mutation methods): a delta
    carrying one is a programming error, not a change-feed conflict, so
    it is rejected before any state is touched."""
    negative = (
        any(wt < 0 for _u, _v, wt in delta.update_weights)
        or any(wt < 0 for _u, _v, wt in delta.insert_edges)
        or any(wt < 0 for spec in delta.new_vertices for _n, wt in spec.edges)
    )
    if negative:
        raise GraphError("negative edge weights are not supported")


def _encode(rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    return (rows << _KEY_SHIFT) | cols


def _swap(keys: np.ndarray) -> np.ndarray:
    """``(row, col)`` keys as ``(col, row)`` keys (forward <-> reverse)."""
    return _encode(keys & _COL_MASK, keys >> _KEY_SHIFT)


def _row_keys(indptr: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """The key of every CSR entry, ascending for a canonical CSR."""
    rows = np.repeat(np.arange(indptr.size - 1, dtype=np.int64), np.diff(indptr))
    return _encode(rows, cols)


def _key_ranges(keys: np.ndarray, want: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``[lo, hi)`` position range of each wanted key in sorted ``keys``."""
    return (
        np.searchsorted(keys, want, side="left"),
        np.searchsorted(keys, want, side="right"),
    )


def _range_positions(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """The positions of the ranges ``[lo[i], hi[i])``, concatenated."""
    lengths = hi - lo
    starts = np.cumsum(lengths) - lengths
    return np.repeat(lo - starts, lengths) + np.arange(
        int(lengths.sum()), dtype=np.int64
    )


def _set_ranges(
    values: np.ndarray, lo: np.ndarray, hi: np.ndarray, new: np.ndarray
) -> np.ndarray:
    """A copy of ``values`` with each disjoint range ``[lo[i], hi[i])``
    set to ``new[i]``."""
    out = values.copy()
    out[_range_positions(lo, hi)] = np.repeat(new, hi - lo)
    return out


def _splice(
    indptr: np.ndarray,
    keys: np.ndarray,
    cols: np.ndarray,
    values: np.ndarray,
    lo: np.ndarray,
    hi: np.ndarray,
    ins_rows: np.ndarray,
    ins_cols: np.ndarray,
    ins_values: np.ndarray,
    n: int,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """New ``(indptr, keys, cols, values)`` of a key-sorted CSR over ``n`` rows.

    The disjoint ascending ranges ``[lo[i], hi[i])`` are removed.  Each
    insert goes after every old entry with a key up to its own, so inserts
    with equal keys follow the kept entries and one another in the order
    given: the tie order of a stable sort of the whole edge list.  Only the
    kept runs between cut points are copied, each with one slice.
    """
    ins_keys = _encode(ins_rows, ins_cols)
    order = np.argsort(ins_keys, kind="stable")
    ins_keys, ins_cols = ins_keys[order], ins_cols[order]
    ins_values = ins_values[order]
    at = np.searchsorted(keys, ins_keys, side="right")
    # cut points in old positions: an insert stops the current run at
    # ``at`` and resumes it there; a removed range stops it at ``lo`` and
    # resumes at ``hi``.  At one position an insert comes before a removed
    # range starting there (an insert never falls strictly inside one).
    stops = np.concatenate([at, lo])
    resumes = np.concatenate([at, hi]).tolist()
    plan: List[Tuple[bool, int, Optional[int]]] = []
    start = 0
    for i in np.lexsort((np.repeat([0, 1], [at.size, lo.size]), stops)).tolist():
        plan.append((False, start, int(stops[i])))
        if i < at.size:
            plan.append((True, i, i + 1))
        start = resumes[i]
    plan.append((False, start, None))

    def cut(old: np.ndarray, new: np.ndarray) -> np.ndarray:
        return np.concatenate([(new if ins else old)[a:b] for ins, a, b in plan])

    counts = np.bincount(ins_keys >> _KEY_SHIFT, minlength=n)
    counts -= np.bincount(keys[_range_positions(lo, hi)] >> _KEY_SHIFT, minlength=n)
    new_indptr = np.empty(n + 1, dtype=np.int64)
    new_indptr[: indptr.size] = indptr
    new_indptr[indptr.size :] = indptr[-1]
    new_indptr[1:] += np.cumsum(counts)
    return new_indptr, cut(keys, ins_keys), cut(cols, ins_cols), cut(values, ins_values)


def fresh_rebuild(graph: DiGraph) -> DiGraph:
    """An immutable :class:`DiGraph` built fresh from ``graph``'s edge list.

    Uses the same array pipeline as :class:`~repro.graph.builder.GraphBuilder`
    (lexsort by ``(src, dst)``); the churn-equivalence tests and the
    sanitizer's ``csr-canonical`` check hold a flushed
    :class:`MutableDiGraph` to this pipeline array-for-array.
    """
    src, dst, w = graph.edge_array()
    n = graph.num_vertices
    indptr, dst, w = csr_arrays_from_edges(src, dst, w, n)
    coords = graph.coords.copy() if graph.coords is not None else None
    tags = graph.tags.copy() if graph.tags is not None else None
    return DiGraph(indptr, dst, w, coords=coords, tags=tags, name=graph.name)

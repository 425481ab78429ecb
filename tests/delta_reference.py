"""Reference delta flush, the oracle for ``MutableDiGraph.flush``.

``repro.graph.delta`` applies a flush as an in-order splice of the sorted
forward and reverse CSR: it finds every touched entry with ``searchsorted``
and removes or inserts only those.  This module keeps the direct
formulation next to the tests: take the whole edge list, match deletions
with ``np.isin`` over every edge key, argsort the keys for weight updates,
then rebuild the forward CSR with ``csr_arrays_from_edges`` (``np.lexsort``)
and the reverse CSR with a stable argsort.  The production flush must agree
with it on every output: the forward and reverse arrays, the tombstone
mask, coords and tags, and every ``DeltaResult`` field.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.graph.builder import csr_arrays_from_edges
from repro.graph.delta import (
    DeltaResult,
    GraphDelta,
    MutableDiGraph,
    _edge_triples,
    _endpoints_alive,
    _reject_negative_weights,
)
from repro.graph.digraph import reverse_csr_arrays


class ReferenceMutableDiGraph(MutableDiGraph):
    """A :class:`MutableDiGraph` whose flush rebuilds both CSRs from scratch."""

    __slots__ = ()

    def flush(self) -> DeltaResult:
        delta = self._pending
        self._pending = GraphDelta()
        if not delta:
            return DeltaResult()

        _reject_negative_weights(delta)

        old_n = self.num_vertices
        src, dst, w = self.edge_array()
        skipped = 0

        # --- weight updates: match encoded (u, v) keys against the edges
        updated = 0
        if delta.update_weights:
            uu, uv, uw = _edge_triples(delta.update_weights)
            valid = _endpoints_alive(uu, uv, old_n, self._dead)
            skipped += int(np.count_nonzero(~valid))
            uu, uv, uw = uu[valid], uv[valid], uw[valid]
            if uu.size:
                keys = src * old_n + dst
                want = uu * old_n + uv
                order = np.argsort(keys, kind="stable")
                sorted_keys = keys[order]
                # applied in delta order: the last update to the same (u, v)
                # within one flush wins
                for i in range(uu.size):
                    lo = np.searchsorted(sorted_keys, want[i], side="left")
                    hi = np.searchsorted(sorted_keys, want[i], side="right")
                    if lo == hi:
                        skipped += 1
                        continue
                    w[order[lo:hi]] = uw[i]
                    updated += int(hi - lo)

        # --- deletions (edges, then whole vertices)
        keep = np.ones(src.size, dtype=bool)
        deleted = 0
        if delta.delete_edges:
            du = np.asarray([u for u, _v in delta.delete_edges], dtype=np.int64)
            dv = np.asarray([v for _u, v in delta.delete_edges], dtype=np.int64)
            valid = (du >= 0) & (du < old_n) & (dv >= 0) & (dv < old_n)
            skipped += int(np.count_nonzero(~valid))
            du, dv = du[valid], dv[valid]
            if du.size:
                keys = src * old_n + dst
                want = np.unique(du * old_n + dv)
                hit = np.isin(keys, want)
                deleted += int(np.count_nonzero(hit & keep))
                present = np.isin(want, keys)
                skipped += int(np.count_nonzero(~present))
                keep &= ~hit

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
                incident = dead[src] | dead[dst]
                deleted += int(np.count_nonzero(incident & keep))
                keep &= ~incident
                self._dead = dead
                newly_dead = tuple(int(v) for v in rv)

        if not keep.all():
            src, dst, w = src[keep], dst[keep], w[keep]

        # --- vertex additions: assign ids, extend coords/tags/dead mask
        first_new, pending_edges = self._append_vertices(delta, old_n)
        added = len(delta.new_vertices)
        n = old_n + added

        # --- insertions (tolerant of dead / out-of-range endpoints)
        inserted = 0
        if pending_edges:
            iu, iv, iw = _edge_triples(pending_edges)
            valid = _endpoints_alive(iu, iv, n, self._dead)
            skipped += int(np.count_nonzero(~valid))
            iu, iv, iw = iu[valid], iv[valid], iw[valid]
            inserted = int(iu.size)
            if inserted:
                src = np.concatenate([src, iu])
                dst = np.concatenate([dst, iv])
                w = np.concatenate([w, iw])

        # --- full rebuild: lexsort the forward CSR, argsort the reverse
        self._indptr, self._indices, self._weights = csr_arrays_from_edges(
            src, dst, w, n
        )
        self._invalidate_csr()
        self._rindptr, self._rindices, self._rweights = reverse_csr_arrays(
            self._indptr, self._indices, self._weights
        )

        result = DeltaResult(
            first_new_vertex=first_new,
            added_vertices=added,
            removed_vertices=newly_dead,
            inserted_edges=inserted,
            deleted_edges=deleted,
            updated_weights=updated,
            skipped=skipped,
        )
        if result:
            self.churn_epochs += 1
        return result

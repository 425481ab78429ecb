"""Equivalence tests: array-backed ScopeStore vs set-based QueryScopes.

Seeded-random property tests proving the vectorized paths (incidence-CSR
aggregates, encoded-pair intersection counting) reproduce the reference
implementations exactly, across the edge cases named in the PR issue:
empty scopes, single query, all-overlapping queries, and k=1.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    QueryScopes,
    ScopeStore,
    pairwise_intersections,
    pairwise_intersections_arrays,
    scope_worker_counts,
)
from repro.core.scopes import _count_pair_overlaps


def random_workload(seed):
    """A random activation trace: (query, vertices-chunk) events."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 200))
    num_queries = int(rng.integers(1, 14))
    events = []
    for qid in range(num_queries):
        for _ in range(int(rng.integers(1, 4))):
            size = int(rng.integers(0, max(2, n // 2)))
            events.append((qid, rng.integers(0, n, size=size).tolist()))
    return n, events


def build_both(events):
    ref, store = QueryScopes(), ScopeStore()
    for qid, chunk in events:
        ref.add_activations(qid, chunk)
        store.add_activations(qid, chunk)
    return ref, store


class TestStoreEquivalence:
    @pytest.mark.parametrize("seed", range(15))
    def test_random_traces(self, seed):
        n, events = random_workload(seed)
        ref, store = build_both(events)
        rng = np.random.default_rng(seed + 100)
        k = int(rng.integers(1, 6))
        assignment = rng.integers(0, k, size=n).astype(np.int64)

        assert store.queries() == ref.queries()
        for qid in ref.queries():
            assert store.global_scope(qid) == ref.global_scope(qid)
            assert store.global_scope_size(qid) == ref.global_scope_size(qid)
            assert np.array_equal(
                store.local_scope_sizes(qid, assignment, k),
                ref.local_scope_sizes(qid, assignment, k),
            )
            assert store.spanning_workers(qid, assignment) == ref.spanning_workers(
                qid, assignment
            )
            for w in range(k):
                assert store.local_scope(qid, w, assignment) == ref.local_scope(
                    qid, w, assignment
                )
        assert store.query_cut(assignment) == ref.query_cut(assignment)
        assert store.query_cut_excess(assignment) == ref.query_cut_excess(assignment)

        # the one-pass matrix equals the per-query reference rows
        sizes, qids = store.local_size_matrix(assignment, k)
        assert qids.tolist() == ref.queries()
        for row, qid in zip(sizes, qids):
            assert np.array_equal(row, ref.local_scope_sizes(int(qid), assignment, k))
        expected_mass = sizes.sum(axis=0)
        assert np.array_equal(store.scope_mass(assignment, k), expected_mass)

    @pytest.mark.parametrize("seed", range(15))
    def test_drop_consistency(self, seed):
        n, events = random_workload(seed)
        ref, store = build_both(events)
        rng = np.random.default_rng(seed + 200)
        for qid in list(ref.queries()):
            if rng.random() < 0.5:
                ref.drop(qid)
                store.drop(qid)
        assignment = rng.integers(0, 3, size=n).astype(np.int64)
        assert store.queries() == ref.queries()
        assert store.query_cut(assignment) == ref.query_cut(assignment)
        scope_map = {q: ref.global_scope(q) for q in ref.queries()}
        assert store.pairwise_intersections() == pairwise_intersections(scope_map)

    def test_empty_store(self):
        store = ScopeStore()
        assignment = np.zeros(4, dtype=np.int64)
        assert store.queries() == []
        assert store.global_scope(3) == set()
        assert store.query_cut(assignment) == 0
        assert store.query_cut_excess(assignment) == 0
        assert store.pairwise_intersections() == {}
        assert np.array_equal(store.scope_mass(assignment, 2), np.zeros(2, np.int64))

    def test_empty_scope_query(self):
        """A query registered with no activations behaves like the reference."""
        ref, store = build_both([(7, [])])
        assignment = np.zeros(4, dtype=np.int64)
        assert store.queries() == ref.queries() == [7]
        assert store.global_scope_size(7) == 0
        assert store.query_cut(assignment) == ref.query_cut(assignment) == 0

    def test_single_query(self):
        ref, store = build_both([(1, [0, 2, 2, 3])])
        assignment = np.array([0, 0, 1, 1])
        assert store.global_scope(1) == {0, 2, 3}
        assert store.query_cut(assignment) == ref.query_cut(assignment) == 2
        assert store.pairwise_intersections() == {}

    def test_all_overlapping(self):
        events = [(q, [0, 1, 2]) for q in range(5)]
        ref, store = build_both(events)
        assignment = np.array([0, 1, 0])
        assert store.query_cut(assignment) == ref.query_cut(assignment)
        expected = {(a, b): 3 for a in range(5) for b in range(a + 1, 5)}
        assert store.pairwise_intersections() == expected

    def test_k_equals_one(self):
        ref, store = build_both([(0, [0, 1]), (1, [1, 2])])
        assignment = np.zeros(3, dtype=np.int64)
        assert store.query_cut(assignment) == ref.query_cut(assignment) == 2
        assert store.query_cut_excess(assignment) == 0
        assert np.array_equal(
            store.local_size_matrix(assignment, 1)[0], np.array([[2], [2]])
        )

    def test_query_id_subset_selection(self):
        ref, store = build_both([(0, [0, 1]), (1, [1, 2]), (2, [3])])
        assignment = np.array([0, 0, 1, 1])
        sizes, qids = store.local_size_matrix(assignment, 2, query_ids=[2, 0, 99])
        assert qids.tolist() == [2, 0]  # order preserved, unknown dropped
        assert np.array_equal(sizes[0], ref.local_scope_sizes(2, assignment, 2))
        assert np.array_equal(sizes[1], ref.local_scope_sizes(0, assignment, 2))
        mass = store.scope_mass(assignment, 2, query_ids=[0, 2])
        assert np.array_equal(
            mass,
            ref.local_scope_sizes(0, assignment, 2)
            + ref.local_scope_sizes(2, assignment, 2),
        )

    def test_incremental_ingestion_matches_bulk(self):
        bulk = ScopeStore()
        bulk.add_activations(0, range(50))
        inc = ScopeStore()
        for lo in range(0, 50, 7):
            inc.add_activations(0, range(lo, min(lo + 7, 50)))
            # interleave reads to force consolidation mid-stream
            inc.global_scope_size(0)
        assert np.array_equal(inc.scope_array(0), bulk.scope_array(0))

    def test_accepts_numpy_arrays(self):
        store = ScopeStore()
        store.add_activations(0, np.array([3, 1, 1, 2]))
        assert store.scope_array(0).tolist() == [1, 2, 3]

    def test_caller_buffer_mutation_does_not_leak(self):
        """Ingested arrays are copied, not aliased."""
        store = ScopeStore()
        buffer = np.array([1, 2, 3], dtype=np.int64)
        store.add_activations(0, buffer)
        buffer[:] = 99  # caller reuses its buffer before the next read
        assert store.global_scope(0) == {1, 2, 3}

    def test_incidence_alignment(self):
        _, store = build_both([(3, [5, 6]), (1, [7])])
        verts, counts, qids = store.incidence()
        assert qids.tolist() == [1, 3]
        assert counts.tolist() == [1, 2]
        assert verts.tolist() == [7, 5, 6]


def reference_remove_vertices(store, vertices):
    """``ScopeStore.remove_vertices`` as one ``np.isin`` per pending chunk.

    The direct formulation the one-pass membership test must match: the
    same arrays, the same pending chunks in the same order, and the same
    flat-view invalidation.
    """
    dead = np.unique(np.asarray(list(vertices), dtype=np.int64))
    if dead.size == 0:
        return
    changed = False
    for qid, arr in store._arrays.items():
        if arr.size == 0:
            continue
        pos = np.searchsorted(dead, arr)
        hit = (pos < dead.size) & (dead[np.minimum(pos, dead.size - 1)] == arr)
        if hit.any():
            store._arrays[qid] = arr[~hit]
            changed = True
    for qid, chunks in store._pending.items():
        fresh_chunks = []
        for chunk in chunks:
            keep = ~np.isin(chunk, dead)
            if not keep.all():
                chunk = chunk[keep]
                changed = True
            if chunk.size:
                fresh_chunks.append(chunk)
        store._pending[qid] = fresh_chunks
    if changed:
        store._flat = None


def _store_layout(store):
    arrays = {qid: arr.tolist() for qid, arr in store._arrays.items()}
    pending = {
        qid: [chunk.tolist() for chunk in chunks]
        for qid, chunks in store._pending.items()
    }
    return list(store._arrays), arrays, list(store._pending), pending


@st.composite
def _removal_cases(draw):
    """Activation events, reads that consolidate some queries, dead ids."""
    n = draw(st.integers(1, 40))
    vertex = st.integers(0, n - 1)
    events = draw(
        st.lists(
            st.tuples(st.integers(0, 6), st.lists(vertex, max_size=12)),
            max_size=25,
        )
    )
    consolidate = draw(st.lists(st.integers(0, 6), max_size=4))
    late = draw(
        st.lists(st.tuples(st.integers(0, 6), st.lists(vertex, max_size=8)), max_size=8)
    )
    dead = draw(st.lists(vertex, max_size=10))
    return events, consolidate, late, dead


class TestRemoveVertices:
    """One membership pass gives the scopes the per-chunk loop gives."""

    @staticmethod
    def _build(events, consolidate, late):
        store = ScopeStore()
        for qid, chunk in events:
            store.add_activations(qid, chunk)
        for qid in consolidate:
            store.scope_array(qid)
        for qid, chunk in late:
            store.add_activations(qid, chunk)
        store.incidence()  # build the flat view so invalidation shows
        return store

    @settings(max_examples=300, deadline=None)
    @given(_removal_cases())
    def test_matches_per_chunk_loop(self, case):
        events, consolidate, late, dead = case
        got = self._build(events, consolidate, late)
        want = self._build(events, consolidate, late)
        got.remove_vertices(dead)
        reference_remove_vertices(want, dead)
        assert _store_layout(got) == _store_layout(want)
        assert (got._flat is None) == (want._flat is None)
        for qid in want.queries():
            assert np.array_equal(got.scope_array(qid), want.scope_array(qid))
        assert got.incidence()[0].tolist() == want.incidence()[0].tolist()

    def test_numpy_input_and_no_hit(self):
        store = self._build([(0, [1, 2]), (1, [3])], [0], [(0, [4])])
        flat = store._flat
        store.remove_vertices(np.array([9, 9], dtype=np.int32))
        assert store._flat is flat  # nothing removed: view kept
        store.remove_vertices(np.array([2, 4]))
        assert store.global_scope(0) == {1}
        assert store.global_scope(1) == {3}


class TestPairwiseEquivalence:
    @pytest.mark.parametrize("seed", range(25))
    def test_random_scopes(self, seed):
        rng = np.random.default_rng(seed)
        scopes = {
            q: set(rng.integers(0, 60, size=rng.integers(0, 50)).tolist())
            for q in range(rng.integers(0, 15))
        }
        for min_overlap in (1, 2, 5):
            assert pairwise_intersections_arrays(
                scopes, min_overlap
            ) == pairwise_intersections(scopes, min_overlap)

    def test_store_restricted_to_query_subset(self):
        _, store = build_both([(0, [0, 1]), (1, [0, 2]), (2, [0])])
        full = store.pairwise_intersections()
        assert full == {(0, 1): 1, (0, 2): 1, (1, 2): 1}
        assert store.pairwise_intersections(query_ids=[0, 1]) == {(0, 1): 1}

    def test_unsorted_query_subset_keeps_reference_orientation(self):
        """Pair keys stay (qi < qj) even for an unsorted id selection."""
        events = [(11, [0, 1]), (3, [0, 2]), (7, [0, 1, 2])]
        ref, store = build_both(events)
        scope_map = {q: ref.global_scope(q) for q in (11, 3, 7)}
        expected = pairwise_intersections(scope_map)
        assert store.pairwise_intersections(query_ids=[11, 3, 7]) == expected
        assert all(a < b for a, b in expected)

    def test_chunked_expansion_matches_single_chunk(self):
        """Tiny chunk budget exercises the multi-chunk merge path."""
        rng = np.random.default_rng(3)
        scopes = {q: set(rng.integers(0, 30, size=25).tolist()) for q in range(10)}
        qids = sorted(scopes)
        arrays = [np.unique(np.array(sorted(scopes[q]))) for q in qids]
        verts = np.concatenate(arrays)
        rows = np.repeat(
            np.arange(len(qids)), np.array([a.size for a in arrays])
        ).astype(np.int64)
        chunked = _count_pair_overlaps(
            verts, rows, np.asarray(qids), 1, max_pairs_per_chunk=7
        )
        assert chunked == pairwise_intersections(scopes)

    def test_sparse_accumulator_fallback(self):
        """Above the dense-key threshold the sort-merge path must agree."""
        num_q = 3_000  # num_q^2 > the 4M dense accumulator cap
        scopes = {q: {q, q + 1} for q in range(num_q)}
        out = pairwise_intersections_arrays(scopes)
        assert len(out) == num_q - 1
        assert out[(0, 1)] == 1
        assert out[(num_q - 2, num_q - 1)] == 1

    def test_disjoint_scopes_empty(self):
        scopes = {0: {1}, 1: {2}}
        assert pairwise_intersections_arrays(scopes, min_overlap=1) == {}


class TestScopeWorkerCounts:
    def test_set_and_array_inputs_agree(self):
        assignment = np.array([0, 1, 1, 2, 0])
        scope_set = {0, 2, 3}
        scope_arr = np.array([0, 2, 3], dtype=np.int64)
        a = scope_worker_counts(scope_set, assignment, 3)
        b = scope_worker_counts(scope_arr, assignment, 3)
        assert np.array_equal(a, b)
        assert a.tolist() == [1, 1, 1]

    def test_minlength_consistent_when_high_workers_unused(self):
        """k larger than any observed owner: result still has length k."""
        assignment = np.zeros(4, dtype=np.int64)
        counts = scope_worker_counts({0, 1}, assignment, 5)
        assert counts.shape == (5,)
        assert counts.tolist() == [2, 0, 0, 0, 0]

    def test_out_of_range_owner_truncated_not_raising(self):
        """Owners >= k are ignored instead of corrupting the result shape."""
        assignment = np.array([0, 7, 7, 1])
        counts = scope_worker_counts({0, 1, 2, 3}, assignment, 2)
        assert counts.shape == (2,)
        assert counts.tolist() == [1, 1]

    def test_empty_scope(self):
        counts = scope_worker_counts(set(), np.zeros(3, np.int64), 4)
        assert counts.tolist() == [0, 0, 0, 0]

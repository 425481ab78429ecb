"""Vectorized kernel layer: equivalence with the generic path + unit tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from kernels_reference import reference_combine_by_vertex, reference_group_by_owner

from repro.core import Controller
from repro.engine import (
    ArrayMailbox,
    EngineConfig,
    QGraphEngine,
    Query,
    SyncMode,
    VertexProgram,
)
from repro.engine.kernels import (
    LocalWccKernel,
    combine_by_vertex,
    expand_edges,
    group_by_owner,
)
from repro.graph import DiGraph, grid_graph, rmat_graph, watts_strogatz
from repro.partitioning import HashPartitioner
from repro.queries import (
    BfsProgram,
    KHopProgram,
    LocalPageRankProgram,
    LocalWccProgram,
    PoiProgram,
    ReachabilityProgram,
    SsspProgram,
)
from repro.simulation.cluster import make_cluster


def build_engine(graph, k=3, use_kernels=True, sync_mode=SyncMode.HYBRID, **cfg):
    assignment = HashPartitioner(seed=0).partition(graph, k)
    return QGraphEngine(
        graph,
        make_cluster("M2", k),
        assignment,
        controller=Controller(k),
        config=EngineConfig(
            sync_mode=sync_mode, adaptive=False, use_kernels=use_kernels, **cfg
        ),
    )


def run_both(graph, queries, sync_mode=SyncMode.HYBRID, k=3):
    engines = []
    for use_kernels in (True, False):
        eng = build_engine(graph, k=k, use_kernels=use_kernels, sync_mode=sync_mode)
        for q in queries:
            eng.submit(q)
        eng.run()
        engines.append(eng)
    return engines


@pytest.fixture(scope="module")
def social():
    return watts_strogatz(300, 6, 0.1, seed=3)


PROGRAM_CASES = {
    "sssp-full": (lambda: SsspProgram(5), (5,)),
    "sssp-target": (lambda: SsspProgram(0, 250), (0,)),
    "bfs-target": (lambda: BfsProgram(1, target=200), (1,)),
    "bfs-depth": (lambda: BfsProgram(2, max_depth=4), (2,)),
    "khop": (lambda: KHopProgram(7, 3), (7,)),
    "reach": (lambda: ReachabilityProgram(9, 280), (9,)),
    "wcc": (lambda: LocalWccProgram(4), (3, 8, 12)),
}


class TestEquivalence:
    @pytest.mark.parametrize("case", sorted(PROGRAM_CASES))
    def test_identical_results(self, social, case):
        factory, seeds = PROGRAM_CASES[case]
        q = Query(0, factory(), seeds)
        vec, gen = run_both(social, [q])
        assert vec.runtimes[0].kernel is not None
        assert gen.runtimes[0].kernel is None
        assert vec.query_result(0) == gen.query_result(0)

    def test_identical_virtual_time(self, social):
        """Both paths produce the same counters, hence the same virtual time."""
        queries = [Query(i, SsspProgram(i), (i,)) for i in range(4)]
        vec, gen = run_both(social, queries)
        assert vec.trace.total_latency() == gen.trace.total_latency()
        assert vec.trace.remote_messages == gen.trace.remote_messages
        assert vec.trace.local_messages == gen.trace.local_messages

    @pytest.mark.parametrize(
        "mode", [SyncMode.HYBRID, SyncMode.GLOBAL_PER_QUERY, SyncMode.SHARED_BSP]
    )
    def test_modes(self, social, mode):
        queries = [
            Query(0, SsspProgram(0, 250), (0,)),
            Query(1, BfsProgram(5), (5,)),
        ]
        vec, gen = run_both(social, queries, sync_mode=mode)
        for qid in (0, 1):
            assert vec.query_result(qid) == gen.query_result(qid)

    def test_pagerank_close(self, social):
        """Sum-combining reorders float additions: equal scope, close values."""
        q = Query(0, LocalPageRankProgram(11, epsilon=1e-5), (11,))
        vec, gen = run_both(social, [q])
        rv, rg = vec.query_result(0), gen.query_result(0)
        assert rv["scores"].keys() == rg["scores"].keys()
        for v, score in rv["scores"].items():
            assert score == pytest.approx(rg["scores"][v])
        assert rv["residual_mass"] == pytest.approx(rg["residual_mass"])

    def test_poi_identical(self):
        g = grid_graph(8, 8)
        tags = np.zeros(g.num_vertices, dtype=bool)
        tags[[27, 52]] = True
        tagged = DiGraph(g.indptr, g.indices, g.weights, tags=tags)
        q = Query(0, PoiProgram(0), (0,))
        vec, gen = run_both(tagged, [q])
        assert vec.runtimes[0].kernel is not None
        assert vec.query_result(0) == gen.query_result(0)

    def test_rmat_multi_query_batch(self):
        graph = rmat_graph(2000, 6, seed=2)
        hubs = graph.out_degrees().argsort()[-8:]
        queries = [
            Query(i, SsspProgram(int(v)) if i % 2 else BfsProgram(int(v)), (int(v),))
            for i, v in enumerate(hubs)
        ]
        vec, gen = run_both(graph, queries, k=4)
        for q in queries:
            assert vec.query_result(q.query_id) == gen.query_result(q.query_id)


class _TupleEcho(VertexProgram):
    """A custom program with no kernel — must use the generic path."""

    kind = "echo"

    def init_messages(self, graph, initial_vertices):
        return [(v, 1) for v in initial_vertices]

    def compute(self, ctx, vertex, state, message):
        if state is None:
            for nbr in ctx.graph.out_neighbors(vertex):
                ctx.send(int(nbr), 1)
        return (state or 0) + 1


class TestFallback:
    def test_custom_program_uses_generic_path(self, social):
        eng = build_engine(social, use_kernels=True)
        eng.submit(Query(0, _TupleEcho(), (0,)))
        eng.run()
        assert eng.runtimes[0].kernel is None
        assert eng.runtimes[0].finished
        assert eng.query_result(0)[0] >= 1

    def test_use_kernels_false_forces_generic(self, social):
        eng = build_engine(social, use_kernels=False)
        eng.submit(Query(0, SsspProgram(0), (0,)))
        eng.run()
        assert eng.runtimes[0].kernel is None

    def test_state_materialized_after_finish(self, social):
        eng = build_engine(social, use_kernels=True)
        eng.submit(Query(0, SsspProgram(0), (0,)))
        eng.run()
        qr = eng.runtimes[0]
        assert qr.state[0] == 0.0
        assert len(qr.state) == eng.query_result(0)["settled"]


#: the message dtypes the kernels send, each with its kernels' combiners
_MESSAGE_KINDS = (
    (np.int64, (np.minimum,)),
    (np.float64, (np.minimum, np.add)),
    (np.bool_, (np.logical_or,)),
)


def _messages(values, dtype):
    if dtype is np.bool_:
        return np.array([v % 2 == 1 for v in values], dtype=bool)
    if dtype is np.float64:
        return np.array(values, dtype=np.float64) / 4.0
    return np.array(values, dtype=np.int64)


def _assert_same_arrays(got, want):
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)


def _assert_routes_like_reference(assignment, vertices, messages):
    got = list(group_by_owner(assignment, vertices, messages))
    want = list(reference_group_by_owner(assignment, vertices, messages))
    assert [owner for owner, _, _ in got] == [owner for owner, _, _ in want]
    for (owner, gv, gm), (_, wv, wm) in zip(got, want):
        assert type(owner) is int
        _assert_same_arrays(gv, wv)
        _assert_same_arrays(gm, wm)


def _assert_combines_like_reference(vertices, messages, combine):
    gv, gm = combine_by_vertex(vertices, messages, combine)
    wv, wm = reference_combine_by_vertex(vertices, messages, combine)
    _assert_same_arrays(gv, wv)
    _assert_same_arrays(gm, wm)


@st.composite
def _routing_cases(draw):
    """An assignment over gapped worker ids, a frontier into it, messages."""
    workers = draw(
        st.lists(st.integers(0, 11), min_size=1, max_size=6, unique=True)
    )
    assignment = np.array(
        draw(st.lists(st.sampled_from(workers), min_size=1, max_size=30)),
        dtype=np.int64,
    )
    vertices = np.array(
        draw(st.lists(st.integers(0, assignment.size - 1), max_size=40)),
        dtype=np.int64,
    )
    dtype, combiners = draw(st.sampled_from(_MESSAGE_KINDS))
    values = draw(
        st.lists(st.integers(-50, 50), min_size=vertices.size, max_size=vertices.size)
    )
    combine = draw(st.sampled_from(combiners))
    return assignment, vertices, _messages(values, dtype), combine


class TestRoutingMatchesReference:
    """``group_by_owner`` / ``combine_by_vertex`` against the np.r_ oracle."""

    @settings(max_examples=300, deadline=None)
    @given(_routing_cases())
    def test_group_by_owner(self, case):
        assignment, vertices, messages, _combine = case
        _assert_routes_like_reference(assignment, vertices, messages)

    @settings(max_examples=300, deadline=None)
    @given(_routing_cases())
    def test_combine_by_vertex(self, case):
        _assignment, vertices, messages, combine = case
        _assert_combines_like_reference(vertices, messages, combine)

    @pytest.mark.parametrize(
        "vertices",
        [
            [],  # empty frontier
            [5],  # single element
            [2, 4, 2],  # single owner (worker 3)
            [1, 7, 3, 6, 5, 1, 2],  # owners 0, 3, 9, 10: ids with gaps
            [6, 6, 6, 6],  # all-duplicate targets
        ],
        ids=["empty", "single", "single-owner", "gapped-owners", "all-duplicates"],
    )
    @pytest.mark.parametrize(
        "dtype,combine",
        [(d, c) for d, combiners in _MESSAGE_KINDS for c in combiners],
        ids=lambda p: getattr(p, "__name__", None),
    )
    def test_edge_cases(self, vertices, dtype, combine):
        assignment = np.array([0, 9, 3, 10, 3, 0, 10, 9], dtype=np.int64)
        v = np.array(vertices, dtype=np.int64)
        m = _messages(list(range(3, 3 + v.size)), dtype)
        _assert_routes_like_reference(assignment, v, m)
        _assert_combines_like_reference(v, m, combine)


class TestKernelPrimitives:
    def test_combine_by_vertex_min(self):
        v = np.array([4, 2, 4, 2, 9], dtype=np.int64)
        m = np.array([3.0, 5.0, 1.0, 2.0, 7.0])
        cv, cm = combine_by_vertex(v, m, np.minimum)
        assert cv.tolist() == [2, 4, 9]
        assert cm.tolist() == [2.0, 1.0, 7.0]

    def test_combine_by_vertex_sum(self):
        v = np.array([1, 1, 1], dtype=np.int64)
        m = np.array([1.0, 2.0, 3.0])
        cv, cm = combine_by_vertex(v, m, np.add)
        assert cv.tolist() == [1]
        assert cm.tolist() == [6.0]

    def test_expand_edges_matches_out_edges(self):
        g = watts_strogatz(50, 4, 0.2, seed=1)
        vertices = np.array([0, 7, 13], dtype=np.int64)
        edge_idx, src_pos = expand_edges(g.indptr, vertices)
        expected = []
        for pos, v in enumerate(vertices):
            for nbr in g.out_neighbors(int(v)):
                expected.append((pos, int(nbr)))
        got = list(zip(src_pos.tolist(), g.indices[edge_idx].tolist()))
        assert got == expected

    def test_expand_edges_empty(self):
        g = grid_graph(2, 2)
        edge_idx, src_pos = expand_edges(g.indptr, np.empty(0, dtype=np.int64))
        assert edge_idx.size == 0 and src_pos.size == 0

    def test_array_mailbox(self):
        box = ArrayMailbox()
        assert not box
        box.append(np.array([1, 2], dtype=np.int64), np.array([1.0, 2.0]))
        box.append(np.array([2], dtype=np.int64), np.array([0.5]))
        box.append(np.empty(0, dtype=np.int64), np.empty(0))  # ignored
        assert box and len(box) == 3
        v, m = box.concat()
        assert v.tolist() == [1, 2, 2]
        assert m.tolist() == [1.0, 2.0, 0.5]

    def test_group_by_owner(self):
        assignment = np.array([0, 1, 0, 2], dtype=np.int64)
        v = np.array([0, 1, 2, 3, 1], dtype=np.int64)
        m = np.arange(5, dtype=np.float64)
        groups = {
            owner: (vc.tolist(), mc.tolist())
            for owner, vc, mc in group_by_owner(assignment, v, m)
        }
        assert groups == {
            0: ([0, 2], [0.0, 2.0]),
            1: ([1, 1], [1.0, 4.0]),
            2: ([3], [3.0]),
        }

    def test_wcc_key_roundtrip(self):
        kernel = LocalWccKernel(max_hops=5)
        for label in (0, 3, 17):
            for hops in range(6):
                key = kernel.encode_key(label, hops)
                assert kernel.decode_key(key) == (label, hops)
        # the program's preference order maps to plain key order
        assert kernel.encode_key(1, 0) < kernel.encode_key(2, 5)
        assert kernel.encode_key(2, 4) < kernel.encode_key(2, 3)

    def test_csr_view_cached(self):
        g = grid_graph(3, 3)
        view = g.csr()
        assert view is g.csr()
        assert view.indptr is g.indptr
        g._invalidate_csr()
        assert view is not g.csr()

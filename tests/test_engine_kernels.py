"""Vectorized kernel layer: equivalence with the generic path + unit tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from kernels_reference import (
    reference_bfs_step,
    reference_bounded_step,
    reference_combine_by_vertex,
    reference_expand_edges,
    reference_group_by_owner,
    reference_khop_step,
    reference_wcc_step,
)

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
    BfsKernel,
    KHopKernel,
    LocalPageRankKernel,
    LocalWccKernel,
    PoiKernel,
    ReachabilityKernel,
    SsspKernel,
    combine_by_vertex,
    expand_edges,
    group_by_owner,
)
from repro.engine.query import QueryRuntime
from repro.engine.worker import SimWorker
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
        edge_idx, src_pos = expand_edges(g.csr(), vertices)
        expected = []
        for pos, v in enumerate(vertices):
            for nbr in g.out_neighbors(int(v)):
                expected.append((pos, int(nbr)))
        got = list(zip(src_pos.tolist(), g.indices[edge_idx].tolist()))
        assert got == expected

    def test_expand_edges_empty(self):
        g = grid_graph(2, 2)
        edge_idx, src_pos = expand_edges(g.csr(), np.empty(0, dtype=np.int64))
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
        assert np.array_equal(view.degree, g.out_degrees())
        g._invalidate_csr()
        assert view is not g.csr()


# ----------------------------------------------------------------------
# the min-wavefront kernels and edge expansion against the oracles
# ----------------------------------------------------------------------
@st.composite
def _small_graphs(draw, max_vertices=12):
    """A CSR graph with zero-degree vertices, parallel edges and self-loops."""
    n = draw(st.integers(1, max_vertices))
    rows = draw(
        st.lists(
            st.lists(st.integers(0, n - 1), max_size=5), min_size=n, max_size=n
        )
    )
    indptr = np.cumsum([0] + [len(r) for r in rows])
    indices = np.array([t for r in rows for t in r], dtype=np.int64)
    weights = np.array(
        draw(
            st.lists(
                st.sampled_from([0.0, 0.5, 1.0, 2.5]),
                min_size=indices.size,
                max_size=indices.size,
            )
        ),
        dtype=np.float64,
    )
    tags = np.array(
        draw(st.lists(st.booleans(), min_size=n, max_size=n)), dtype=bool
    )
    return DiGraph(indptr, indices, weights, tags=tags)


class TestExpandEdgesMatchesReference:
    @settings(max_examples=300, deadline=None)
    @given(_small_graphs(), st.data())
    def test_hypothesis(self, graph, data):
        vertices = np.array(
            data.draw(st.lists(st.integers(0, graph.num_vertices - 1), max_size=15)),
            dtype=np.int64,
        )
        got = expand_edges(graph.csr(), vertices)
        want = reference_expand_edges(graph.indptr, vertices)
        for g_arr, w_arr in zip(got, want):
            _assert_same_arrays(g_arr, w_arr)


#: kernel factory, its oracle step, and the state/message dtype
_WAVEFRONTS = {
    "sssp": (lambda: SsspKernel(), reference_bounded_step, np.float64),
    "sssp-target": (lambda: SsspKernel(target=3), reference_bounded_step, np.float64),
    "poi": (lambda: PoiKernel(), reference_bounded_step, np.float64),
    "bfs": (lambda: BfsKernel(), reference_bfs_step, np.int64),
    "bfs-target-depth": (
        lambda: BfsKernel(target=2, max_depth=3),
        reference_bfs_step,
        np.int64,
    ),
    "khop": (lambda: KHopKernel(2), reference_khop_step, np.int64),
    "wcc": (lambda: LocalWccKernel(3), reference_wcc_step, np.int64),
}


def _unreached(dtype):
    return np.inf if dtype is np.float64 else np.iinfo(np.int64).max


def _assert_step_like_reference(kernel, oracle, graph, state, vertices, messages, agg):
    got_state, want_state = state.copy(), state.copy()
    got = kernel.step(graph, got_state, vertices, messages, dict(agg))
    want = oracle(kernel, graph, want_state, vertices, messages, dict(agg))
    _assert_same_arrays(got[0], want[0])
    _assert_same_arrays(got[1], want[1])
    assert got[2] == want[2]
    assert [type(v) for v in got[2].values()] == [type(v) for v in want[2].values()]
    _assert_same_arrays(got_state, want_state)


class TestWavefrontStepsMatchReference:
    """Each min-wavefront ``step`` against its ``np.minimum`` formulation."""

    @pytest.mark.parametrize("case", sorted(_WAVEFRONTS))
    @settings(max_examples=150, deadline=None)
    @given(graph=_small_graphs(), data=st.data())
    def test_hypothesis(self, case, graph, data):
        factory, oracle, dtype = _WAVEFRONTS[case]
        kernel = factory()
        n = graph.num_vertices
        # unreached slots, finite ones, and values equal to a message
        slots = data.draw(
            st.lists(st.one_of(st.none(), st.integers(0, 6)), min_size=n, max_size=n)
        )
        state = np.array(
            [_unreached(dtype) if v is None else v for v in slots], dtype=dtype
        )
        vertices = np.array(
            sorted(data.draw(st.sets(st.integers(0, n - 1), max_size=n))),
            dtype=np.int64,
        )
        messages = np.array(
            data.draw(
                st.lists(st.integers(0, 6), min_size=vertices.size, max_size=vertices.size)
            ),
            dtype=dtype,
        )
        bound = data.draw(st.one_of(st.none(), st.integers(1, 8)))
        agg = {} if bound is None else {"bound": dtype(bound)}
        _assert_step_like_reference(kernel, oracle, graph, state, vertices, messages, agg)

    @pytest.mark.parametrize("case", sorted(_WAVEFRONTS))
    def test_equal_unreached_and_empty(self, case):
        factory, oracle, dtype = _WAVEFRONTS[case]
        kernel = factory()
        graph = _tagged_ring(6)
        unset = _unreached(dtype)
        state = np.array([unset, 2, 1, unset, 0, 4], dtype=dtype)
        cases = [
            ([1, 2, 4], [2, 1, 0]),  # every message equals the state: silent
            ([0, 3, 5], [3, 1, 1]),  # unreached slots and an improvement
            ([0, 1, 2, 3, 4, 5], [0, 5, 0, 2, 1, 4]),  # mixed
            ([], []),  # empty frontier
        ]
        for vertices, messages in cases:
            v = np.array(vertices, dtype=np.int64)
            m = np.array(messages, dtype=dtype)
            for agg in ({}, {"bound": dtype(3)}):
                _assert_step_like_reference(kernel, oracle, graph, state, v, m, agg)

    def test_inf_message_into_unreached_state_stays_unreached(self):
        kernel = SsspKernel()
        graph = _tagged_ring(4)
        state = np.full(4, np.inf)
        v = np.array([0, 1], dtype=np.int64)
        m = np.array([np.inf, 1.0])
        _assert_step_like_reference(
            kernel, reference_bounded_step, graph, state, v, m, {}
        )
        targets, _out, _ = kernel.step(graph, state, v, m, {})
        assert np.isinf(state[0]) and state[1] == 1.0
        assert targets.tolist() == [2]


def _tagged_ring(n):
    indptr = np.arange(n + 1, dtype=np.int64)
    indices = (np.arange(n, dtype=np.int64) + 1) % n
    tags = np.zeros(n, dtype=bool)
    tags[n // 2] = True
    return DiGraph(indptr, indices, np.ones(n), tags=tags)


class TestWorkerRouting:
    """A task's output lands per owner exactly as the reference routes it."""

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize(
        "program,oracle",
        [
            (lambda: SsspProgram(0), reference_bounded_step),
            (lambda: BfsProgram(0), reference_bfs_step),
        ],
        ids=["sssp", "bfs"],
    )
    def test_remote_messages_and_chunk_order(self, seed, program, oracle):
        rng = np.random.default_rng(seed)
        graph = watts_strogatz(60, 6, 0.3, seed=seed)
        k, wid = 4, int(rng.integers(0, 4))
        assignment = rng.integers(0, k, size=graph.num_vertices).astype(np.int64)
        qr = QueryRuntime(Query(0, program(), (0,)), graph)
        kernel = qr.kernel
        frontier = rng.choice(graph.num_vertices, size=8, replace=False)
        box = ArrayMailbox()
        box.append(
            frontier.astype(np.int64),
            rng.integers(0, 5, size=8).astype(kernel.message_dtype),
        )
        qr.mailboxes[wid] = box
        # an earlier task's chunk already waits on one owner: new ones go after it
        earlier = (np.array([1], dtype=np.int64), np.zeros(1, kernel.message_dtype))
        qr.next_mailboxes[1] = ArrayMailbox()
        qr.next_mailboxes[1].append(*earlier)

        vertices, messages = kernel.combine_arrays(*box.concat())
        targets, out, _ = oracle(
            kernel, graph, qr.kstate.copy(), vertices, messages, {}
        )
        want = list(reference_group_by_owner(assignment, targets, out))

        worker = SimWorker(wid, make_cluster("M2", k).machine)
        result = worker.execute_iteration(qr, graph, assignment)

        assert list(result.remote_messages.items()) == [
            (owner, v.size) for owner, v, _ in want if owner != wid
        ]
        for owner, count in result.remote_messages.items():
            assert type(owner) is int and type(count) is int
        assert result.local_messages == sum(
            v.size for owner, v, _ in want if owner == wid
        )
        assert qr.pending_remote_inbound == {}  # booked by the engine
        for owner, wv, wm in want:
            got = qr.next_mailboxes[owner]
            _assert_same_arrays(got.vertex_chunks[-1], wv)
            _assert_same_arrays(got.message_chunks[-1], wm)
        assert qr.next_mailboxes[1].vertex_chunks[0] is earlier[0]
        assert sorted(qr.next_mailboxes) == sorted({1} | {o for o, _, _ in want})


#: kernel, the value type its state_dict holds, and the per-vertex
#: formulation of the same dict
_STATE_DICTS = {
    "sssp": (
        SsspKernel(),
        float,
        lambda k, s, idx: {int(v): float(s[v]) for v in idx},
    ),
    "bfs": (BfsKernel(), int, lambda k, s, idx: {int(v): int(s[v]) for v in idx}),
    "khop": (KHopKernel(3), int, lambda k, s, idx: {int(v): int(s[v]) for v in idx}),
    "reach": (ReachabilityKernel(1), bool, lambda k, s, idx: {int(v): True for v in idx}),
    "pagerank": (
        LocalPageRankKernel(0.15, 1e-4),
        tuple,
        lambda k, s, idx: {int(v): (float(s[0][v]), float(s[1][v])) for v in idx},
    ),
    "wcc": (
        LocalWccKernel(4),
        tuple,
        lambda k, s, idx: {int(v): k.decode_key(int(s[v])) for v in idx},
    ),
}


class TestStateDict:
    @pytest.mark.parametrize("case", sorted(_STATE_DICTS))
    def test_builtin_types_and_values(self, case):
        kernel, value_type, per_vertex = _STATE_DICTS[case]
        graph = grid_graph(4, 4)
        state = kernel.make_state(graph)
        rng = np.random.default_rng(3)
        for part in state if isinstance(state, tuple) else (state,):
            if part.dtype == bool:
                part[:] = rng.random(part.size) < 0.5
            else:
                part[:] = rng.integers(0, 40, size=part.size)
        scope_mask = rng.random(graph.num_vertices) < 0.6
        got = kernel.state_dict(state, scope_mask)
        want = per_vertex(kernel, state, np.flatnonzero(scope_mask))
        assert got == want
        assert list(got) == list(want)
        for v, value in got.items():
            assert type(v) is int
            assert type(value) is value_type
            if value_type is tuple:
                assert [type(x) for x in value] == [type(x) for x in want[v]]

    def test_empty_scope(self):
        kernel = SsspKernel()
        graph = grid_graph(2, 2)
        assert kernel.state_dict(kernel.make_state(graph), np.zeros(4, bool)) == {}

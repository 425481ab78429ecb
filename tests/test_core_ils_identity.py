"""Plan identity: incremental-load ILS against the re-summing reference.

``QcutState`` keeps its per-worker loads incrementally and ``perturb``
reuses each post-move imbalance as the next δ check.  Both are pure
speed-ups: Algorithm 1 must return exactly the plan that the re-summing
formulation in ``qcut_reference`` returns.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Fragment, QcutState, iterated_local_search

from qcut_reference import reference_clone, reference_iterated_local_search
from test_property_based import qcut_states


def assert_same_plan(state, max_rounds, seed):
    got = iterated_local_search(state, max_rounds=max_rounds, seed=seed)
    walks = []
    want = reference_iterated_local_search(
        reference_clone(state), max_rounds=max_rounds, seed=seed, walk_lengths=walks
    )
    assert got.cost_trace == want.cost_trace
    assert got.perturbation_rounds == want.perturbation_rounds
    assert got.rounds == want.rounds
    assert got.best_cost == want.best_cost
    assert got.initial_cost == want.initial_cost
    assert got.best_state.relocated_fragments() == want.best_state.relocated_fragments()
    assert np.array_equal(got.best_state.loads(), want.best_state.loads())
    return walks


def clustering_cap_state(seed=7, units=32, k=8, delta=0.25):
    """A 32-unit x 8-worker snapshot (the controller's 4k clustering cap).

    Every cluster is scattered over a random subset of workers with
    heavy-tailed masses, and one worker carries a large non-integer base,
    so δ-balance cannot be restored and the rebalance walk runs its full
    move budget.
    """
    rng = np.random.default_rng(seed)
    frags = []
    for u in range(units):
        workers = rng.choice(k, size=int(rng.integers(2, k + 1)), replace=False)
        for w in sorted(int(x) for x in workers):
            union = int(rng.pareto(1.5) * 40) + 1
            frags.append(Fragment(u, w, union, union + int(rng.integers(0, 3 * union + 1))))
    base = rng.uniform(300.0, 900.0, size=k)
    base[0] += 6000.5
    return QcutState(units, k, frags, base, delta=delta)


class TestPlanIdentity:
    @given(qcut_states(), st.integers(0, 2**31 - 1))
    @settings(max_examples=60, deadline=None)
    def test_hypothesis_states(self, state, seed):
        assert_same_plan(state, max_rounds=8, seed=seed)

    def test_clustering_cap_state_exercises_full_walk(self):
        walks = assert_same_plan(clustering_cap_state(), max_rounds=40, seed=3)
        assert len(walks) == 40
        assert max(walks) == 200

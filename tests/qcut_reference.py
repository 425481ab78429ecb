"""Reference (re-summing) Q-cut planning, the oracle for the incremental path.

``QcutState`` keeps its per-worker column masses and loads incrementally.
This module keeps the straightforward formulation next to the tests: every
balance query re-sums the units x k mass matrices, and the Figure 8
perturbation re-checks δ with ``is_balanced()`` on every step-III
iteration.  The production code must agree with it bit for bit.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.core import IlsResult, QcutState, local_search
from repro.core.perturbation import _pick_split_unit


def reference_loads(state: QcutState) -> np.ndarray:
    """``L_w = (base[w] + U[w] + W[w]) / 2``, re-summed from the matrices."""
    return (state.base + state.union.sum(axis=0) + state.weighted.sum(axis=0)) / 2.0


def reference_max_imbalance(state: QcutState) -> float:
    """Worst pairwise imbalance computed from :func:`reference_loads`."""
    loads = reference_loads(state)
    top = loads.max() - loads.min()
    bottom = loads.max()
    return float(top / bottom) if bottom > 0 else 0.0


class ReferenceQcutState(QcutState):
    """A ``QcutState`` whose balance queries all re-sum the matrices."""

    def loads(self) -> np.ndarray:
        return reference_loads(self)

    def max_imbalance(self) -> float:
        return reference_max_imbalance(self)

    def pair_balance_ok(self, w_from: int, w_to: int, x: float) -> bool:
        loads = reference_loads(self)
        lf = loads[w_from] - x
        lt = loads[w_to] + x
        bottom = max(lf, lt)
        if bottom <= 0:
            return True
        return abs(lf - lt) / bottom < self.delta

    def is_balanced(self) -> bool:
        return reference_max_imbalance(self) < self.delta

    def copy(self) -> "ReferenceQcutState":
        clone = super().copy()
        clone.__class__ = ReferenceQcutState
        return clone  # type: ignore[return-value]


def reference_clone(state: QcutState) -> ReferenceQcutState:
    """``state`` (fragments, placement, masses) as a :class:`ReferenceQcutState`."""
    clone = state.copy()
    clone.__class__ = ReferenceQcutState
    return clone  # type: ignore[return-value]


def reference_perturb(
    state: QcutState,
    rng: np.random.Generator,
    max_rebalance_moves: int = 200,
    walk_lengths: Optional[List[int]] = None,
) -> QcutState:
    """Figure 8 as first written: ``is_balanced()`` before every step-III move.

    ``walk_lengths``, if given, receives the number of step-III moves made.
    """
    out = state.copy()
    k = out.num_workers
    if k < 2 or out.num_units == 0:
        return out

    unit = _pick_split_unit(out, rng)
    if unit is None:
        unit = int(rng.integers(0, out.num_units))
        sources = np.flatnonzero(out.weighted[unit] > 0)
        if sources.size == 0:
            return out
        src = int(sources[0])
        dst_choices = [w for w in range(k) if w != src]
        dst = int(dst_choices[int(rng.integers(0, len(dst_choices)))])
        out.apply_move(unit, src, dst)
    else:
        target = int(np.argmax(out.weighted[unit]))
        for src in np.flatnonzero(out.weighted[unit] > 0):
            if int(src) != target:
                out.apply_move(unit, int(src), target)

    best = out.copy()
    best_imbalance = best.max_imbalance()
    moves = 0
    try:
        for _ in range(max_rebalance_moves):
            if out.is_balanced():
                return out
            loads = out.loads()
            w_max = int(np.argmax(loads))
            w_min = int(np.argmin(loads))
            movable = np.flatnonzero(out.weighted[:, w_max] > 0)
            if movable.size == 0:
                break
            choice = int(movable[int(rng.integers(0, movable.size))])
            out.apply_move(choice, w_max, w_min)
            moves += 1
            imbalance = out.max_imbalance()
            if imbalance < best_imbalance:
                best = out.copy()
                best_imbalance = imbalance
        return best
    finally:
        if walk_lengths is not None:
            walk_lengths.append(moves)


def reference_iterated_local_search(
    initial: QcutState,
    max_rounds: int = 50,
    seed: int = 0,
    walk_lengths: Optional[List[int]] = None,
) -> IlsResult:
    """Algorithm 1 over :func:`reference_perturb` and re-summed balance."""
    rng = np.random.default_rng(seed)

    def better(a: QcutState, b: QcutState) -> bool:
        a_ok, b_ok = a.is_balanced(), b.is_balanced()
        if a_ok != b_ok:
            return a_ok
        if a_ok:
            return a.cost() < b.cost()
        return (a.max_imbalance(), a.cost()) < (b.max_imbalance(), b.cost())

    incumbent = local_search(initial.copy())
    initial_cost = initial.cost()
    best_cost = incumbent.cost()
    trace: List[Tuple[int, float]] = [(0, best_cost)]
    perturbation_rounds: List[int] = []
    rounds = 0
    for round_idx in range(1, max_rounds + 1):
        rounds = round_idx
        candidate = reference_perturb(incumbent, rng, walk_lengths=walk_lengths)
        perturbation_rounds.append(round_idx)
        candidate = local_search(candidate)
        if better(candidate, incumbent):
            incumbent = candidate
            best_cost = candidate.cost()
        trace.append((round_idx, best_cost))
        if best_cost == 0.0 and incumbent.is_balanced():
            break
    return IlsResult(
        best_state=incumbent,
        initial_cost=initial_cost,
        best_cost=best_cost,
        rounds=rounds,
        cost_trace=trace,
        perturbation_rounds=perturbation_rounds,
    )

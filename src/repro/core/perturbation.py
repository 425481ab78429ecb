"""Perturbation subroutine — Appendix A.2 (Figure 8).

*"A good perturbation is neither too small (i.e., the algorithm gets stuck
in local minima), nor too large (i.e., the algorithm becomes uninformed)."*

The paper's strategy, reproduced verbatim:

I.   Randomly select a query (cluster) spread across at least two workers.
II.  Move all its local scopes to the worker with its largest local scope.
III. Re-establish workload balance by moving random local scopes from the
     maximally to the least loaded worker.

This injects "informed disorder": it merges one query, possibly overloading
a worker, and the rebalancing shuffles other scopes — a new basin for the
next local search without degenerating into a random restart.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.state import QcutState

__all__ = ["perturb"]


def _pick_split_unit(state: QcutState, rng: np.random.Generator) -> Optional[int]:
    """A random cluster whose scope spans >= 2 workers (step I)."""
    spread = (state.weighted > 0).sum(axis=1)
    candidates = np.flatnonzero(spread >= 2)
    if candidates.size == 0:
        return None
    return int(candidates[int(rng.integers(0, candidates.size))])


def perturb(
    state: QcutState,
    rng: np.random.Generator,
    max_rebalance_moves: int = 200,
) -> QcutState:
    """Apply the Figure 8 perturbation to (a copy of) ``state``.

    Returns a new state; the input is left untouched so ILS can keep its
    incumbent.  If no cluster is split (already perfect locality), a random
    cluster is bounced to a random other worker instead so the search still
    explores.
    """
    out = state.copy()
    k = out.num_workers
    if k < 2 or out.num_units == 0:
        return out

    unit = _pick_split_unit(out, rng)
    if unit is None:
        # perfect locality: nudge a random unit to a random worker
        unit = int(rng.integers(0, out.num_units))
        sources = np.flatnonzero(out.weighted[unit] > 0)
        if sources.size == 0:
            return out
        src = int(sources[0])
        dst_choices = [w for w in range(k) if w != src]
        dst = int(dst_choices[int(rng.integers(0, len(dst_choices)))])
        out.apply_move(unit, src, dst)
    else:
        # step II: fuse the unit on its largest-scope worker
        target = int(np.argmax(out.weighted[unit]))
        for src in np.flatnonzero(out.weighted[unit] > 0):
            if int(src) != target:
                out.apply_move(unit, int(src), target)

    # step III: rebalance max-loaded -> least-loaded until δ holds.  The
    # moves are random (per the paper), so we keep the best state seen in
    # case the walk never satisfies δ exactly.
    best = out.copy()
    best_imbalance = imbalance = best.max_imbalance()
    for _ in range(max_rebalance_moves):
        if imbalance < out.delta:
            return out
        loads = out.loads()
        w_max = int(np.argmax(loads))
        w_min = int(np.argmin(loads))
        movable = np.flatnonzero(out.weighted[:, w_max] > 0)
        if movable.size == 0:
            break
        choice = int(movable[int(rng.integers(0, movable.size))])
        out.apply_move(choice, w_max, w_min)
        imbalance = out.max_imbalance()
        if imbalance < best_imbalance:
            best = out.copy()
            best_imbalance = imbalance
    return best

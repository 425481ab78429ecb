"""Reference frontier combining and owner routing, the oracle for the engine.

``repro.engine.kernels`` builds the run-start mask in place and routes
targets to owners with a counting sort.  This module keeps the direct
formulation next to the tests: a stable argsort, then run starts found
with ``np.r_`` concatenations.  The production functions must agree with
it on every output: values, order and dtypes.
"""

from __future__ import annotations

from typing import Iterator, Tuple

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

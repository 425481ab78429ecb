"""The host's speed, timed beside an instance run.

On a shared host the same instance's wall time moves by half and more from
run to run: a neighbour's load slows the cores for seconds at a time, and
a run of half a minute cannot average that away.  ``SpeedProbe`` times a
fixed reference loop before the set-up, after it, and every
``PROBE_EVERY`` events of the untraced run, and scales each stretch of
wall time between two probes by the loop's duration around it.  The result
is the stretch's length on a host where the loop takes
``REFERENCE_PROBE_S``: it stays put while the host's speed swings, and
grows when the program does more work or does it slower.

The probes touch no program state, so the virtual results stay identical;
their own time is left out of every figure.
"""

from __future__ import annotations

# repro-lint: disable-file=wall-clock -- benchmark code: host time is what it measures (the rule exempts bench code, which it recognises only under benchmarks/ and examples/)

import statistics
import time
from typing import Callable, List, Tuple

#: events between two probes (a few tens of milliseconds of run)
PROBE_EVERY = 500
#: probes on each side of a stretch that judge the host's speed during it
WINDOW = 2
#: the reference loop's duration that defines the reference speed: about
#: its duration on an unloaded 2.1 GHz Xeon core
REFERENCE_PROBE_S = 0.4e-3


def reference_loop() -> int:
    """Fixed interpreter work, about half a millisecond on a 2 GHz core."""
    table: dict = {}
    acc = 0
    for i in range(3000):
        key = i & 63
        table[key] = table.get(key, 0) + i
        acc += i * i % 7
    return acc


class SpeedProbe:
    """Times :func:`reference_loop` between stretches of a run."""

    def __init__(self) -> None:
        #: (start, end) of every probe, in ``time.perf_counter`` seconds
        self.probes: List[Tuple[float, float]] = []
        self._events = 0

    def probe(self) -> None:
        """Run the reference loop once and record when."""
        start = time.perf_counter()
        reference_loop()
        self.probes.append((start, time.perf_counter()))

    def wrap_pop(self, pop: Callable) -> Callable:
        """``EventQueue.pop`` that probes every ``PROBE_EVERY`` events."""

        def probing_pop(queue):
            self._events += 1
            if self._events % PROBE_EVERY == 0:
                self.probe()
            return pop(queue)

        return probing_pop

    def seconds(self, first: int, last: int) -> Tuple[float, float]:
        """Wall and reference seconds from the end of probe ``first`` to the
        start of probe ``last``, leaving out the probes between.

        Each stretch between two probes is scaled by ``REFERENCE_PROBE_S``
        over the median duration of the ``WINDOW`` probes on either side.
        """
        durations = [end - start for start, end in self.probes]
        wall = reference = 0.0
        for i in range(first, last):
            stretch = self.probes[i + 1][0] - self.probes[i][1]
            around = durations[max(0, i + 1 - WINDOW): i + 1 + WINDOW]
            wall += stretch
            reference += stretch * REFERENCE_PROBE_S / statistics.median(around)
        return wall, reference

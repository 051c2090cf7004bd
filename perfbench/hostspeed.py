"""Scale measured times to a fixed host speed.

The benchmark runs on shared virtual machines whose CPU speed is not
constant: on the 2-vCPU host the baseline was measured on, the same
pure-Python work switches between a fast and a slow state for seconds
to minutes at a time, and takes up to 1.9x longer in the slow one.  Two
otherwise identical runs a minute apart can therefore differ by more
than any useful regression bound.

``SpeedProbe`` times a fixed reference loop in the benchmark's own
process: a sample of ``REPS`` units right before and right after each
command, and one unit every ``INTERVAL_S`` while the command runs.  The
loop does the same kind of work as the program's hottest code at this
commit (``CollectorFleet.sessions_with_route``: a scan of a dict keyed by
``(session, Prefix)`` that compares frozen-dataclass prefixes).  It is
timed in CPU seconds of the probing thread, so time the thread waits
for a CPU the command's own processes hold does not count.

A command's times are multiplied by ``REFERENCE_S / mean(samples)``:
the seconds the command would have taken on a host that runs one
reference unit in ``REFERENCE_S``.  The loop is part of the benchmark,
not of the program, so a change to the program moves a scaled time by
the same factor as the raw time.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass
from typing import List

#: CPU seconds one reference unit takes on the baseline host in its fast
#: state (2-vCPU Intel Xeon VM, Python 3.11.7).  Only the unit of the
#: scaled times depends on it.
REFERENCE_S = 0.0025
#: Units timed right before and right after a command; a sample is their
#: median.
REPS = 7
#: Seconds between two units timed while a command runs.
INTERVAL_S = 0.1


@dataclass(frozen=True, order=True)
class _Prefix:
    value: int
    length: int


class SpeedProbe:
    """Times the reference loop."""

    def __init__(self) -> None:
        self._routes = {
            (session % 40, _Prefix(session * 256, 24)): session % 5 != 0
            for session in range(13000)
        }
        self._target = _Prefix(77 * 256, 24)
        self.sample()  # warm the loop's code and data once

    def unit(self) -> float:
        """CPU seconds of one reference unit, timed now."""
        started = time.thread_time()
        target = self._target
        [
            session for (session, prefix), present in self._routes.items()
            if prefix == target and present
        ]
        return time.thread_time() - started

    def sample(self) -> float:
        """The median of ``REPS`` units timed now."""
        return statistics.median(self.unit() for _ in range(REPS))


def scale_for(samples: List[float]) -> float:
    """The factor from raw seconds to seconds at the reference speed,
    for a command during and around which ``samples`` were timed."""
    return REFERENCE_S / statistics.mean(samples)

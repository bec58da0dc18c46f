"""Host-speed probes: every timing the benchmark reports is in
*reference seconds*, wall seconds scaled by the host's speed measured
right next to them.

The shared machines the benchmark runs on change speed by up to 1.6x
for seconds to minutes at a time; CPU time follows wall time, so the
change is the machine's, not the scheduler's. Scaling by a fixed probe
kernel takes that out. Replaying one input ten times, the raw
throughput's quartile spread was 0.19 and the probe-scaled one 0.04.

* Replays are scaled by an interpreter probe (:func:`python_probe`, a
  fixed dict/float loop like the kinetic tree's Python work), run every
  :data:`PROBE_EVERY_S` between two simulation events. The probe's own
  time is taken out of every span that covers it.
* Set-ups are scaled by a native probe (:func:`native_probe`, scipy's
  Dijkstra on a fixed grid, like the all-pairs build that dominates a
  set-up), run before and after each set-up.

One reference second is one wall second on a host where the probe takes
its ``*_REFERENCE_S``: about its median time on the 2-core shared
virtual machine the benchmark was tuned on. The probes are the
benchmark's own code, so a change to the program does not change them.
"""

from __future__ import annotations

import statistics
from array import array
from time import perf_counter as clock

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

#: Wall seconds between two interpreter probes during a replay.
PROBE_EVERY_S = 0.05
#: Interpreter probe time that counts as reference speed.
PYTHON_REFERENCE_S = 250e-6
#: Native probe time that counts as reference speed.
NATIVE_REFERENCE_S = 8e-3
#: Interpreter probes on each side of a probe that its speed is the
#: median of: a single probe of a quarter millisecond is noisy.
SMOOTH = 5
#: Native probes before and after each set-up.
NATIVE_PROBES = 5


def python_probe() -> float:
    """The interpreter probe kernel; returns its wall seconds."""
    t0 = clock()
    table: dict[int, float] = {}
    acc = 0.0
    for i in range(1000):
        k = i % 97
        table[k] = table.get(k, 0.0) + i * 0.5
        acc += (i % 13) * 1.0001
    return clock() - t0


def _probe_graph(n: int = 16) -> csr_matrix:
    """A fixed ``n`` x ``n`` grid with integer weights from 100 to 196."""
    idx = np.arange(n * n).reshape(n, n)
    tail = np.concatenate([idx[:, :-1].ravel(), idx[:-1, :].ravel()])
    head = np.concatenate([idx[:, 1:].ravel(), idx[1:, :].ravel()])
    weight = 100.0 + (np.arange(len(tail)) * 7919 % 97)
    return csr_matrix((weight, (tail, head)), shape=(n * n, n * n))


_GRAPH = _probe_graph()


def native_probe() -> float:
    """Median wall seconds of :data:`NATIVE_PROBES` native probe kernels."""
    times = []
    for _ in range(NATIVE_PROBES):
        t0 = clock()
        dijkstra(_GRAPH, directed=False)
        times.append(clock() - t0)
    return statistics.median(times)


class ReplaySpeed:
    """Interpreter probes taken during one replay, and the reference
    clock they define."""

    def __init__(self):
        self.starts = array("d")
        self.ends = array("d")

    def watch(self, rec, event_queue) -> None:
        """Probe at the first event and then every :data:`PROBE_EVERY_S`,
        between two ``event_queue.pop`` calls (never inside a flush).
        Each probe is also a ``host.probe`` span of ``rec``, so span self
        times leave it out."""
        starts, ends = self.starts, self.ends
        timed = rec.timed
        due = [float("-inf")]

        def make(pop):
            def wrapper(queue):
                if clock() >= due[0]:
                    start, end = timed("host.probe", python_probe)
                    starts.append(start)
                    ends.append(end)
                    due[0] = end + PROBE_EVERY_S
                return pop(queue)

            return wrapper

        rec.wrap(event_queue, "pop", make)

    def probe_seconds(self) -> float:
        """Wall seconds spent in the probes."""
        return float(np.sum(np.frombuffer(self.ends) - np.frombuffer(self.starts)))

    def reference(self, wall) -> np.ndarray:
        """Reference seconds elapsed from the first probe to each wall
        time in ``wall``. Between probes the clock runs at the speed of
        the probes around it (the median of :data:`SMOOTH` on each side);
        during a probe it stops. Durations are differences of this."""
        starts = np.frombuffer(self.starts)
        ends = np.frombuffer(self.ends)
        took = ends - starts
        m = len(took)
        smooth = np.array(
            [np.median(took[max(0, j - SMOOTH) : j + SMOOTH + 1]) for j in range(m)]
        )
        rate = PYTHON_REFERENCE_S / smooth
        # Knots: each probe's start and end; the clock is flat inside a
        # probe and runs at the previous probe's rate after it.
        knots = np.empty(2 * m)
        knots[0::2], knots[1::2] = starts, ends
        gaps = np.zeros(2 * m)
        gaps[2::2] = (starts[1:] - ends[:-1]) * rate[:-1]
        values = np.cumsum(gaps)
        wall = np.asarray(wall, dtype=float)
        out = np.interp(wall, knots, values)
        # After the last probe the clock keeps the last probe's rate.
        after = wall > knots[-1]
        out[after] = values[-1] + (wall[after] - knots[-1]) * rate[-1]
        return out

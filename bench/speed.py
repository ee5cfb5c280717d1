"""Speed probe: scales measured times to a nominal machine speed.

The benchmark runs on shared machines whose speed drifts by tens of per
cent within seconds and by up to a factor of two within minutes.  Raw job
times then spread more from run to run than any change worth measuring.
So while a pass runs, a timer interrupts it every INTERVAL_S seconds and
times one run of a short, fixed pure-Python kernel of the kind of work
goursat does (small-int tuples, sets, dicts and union-find).  EDGE_SAMPLES
probes are also taken at the start and at the end of every timed interval,
so that short intervals have samples too.  An interval is then reported as

    scaled = (elapsed - time spent in probes) * mean(NOMINAL_S / probe_i)

over the probes taken in it: the work done, in seconds on a machine where
one kernel run takes NOMINAL_S.  The probes are spaced evenly in wall time,
so the mean of NOMINAL_S / probe_i is the machine's mean relative speed
over the interval.  The kernel is benchmark code, not goursat code, so a
change to goursat cannot change it; it runs with the garbage collector
off, so the program's heap cannot change it either.
"""

import gc
import signal
import time

NOMINAL_S = 0.001  # one kernel run on the 2-core virtual machine of NOTES.md
INTERVAL_S = 0.05
EDGE_SAMPLES = 3  # probes taken at each end of an interval


def _kernel(steps=1000, size=48):
    parent = list(range(size))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    seen = set()
    sums = {}
    for i in range(steps):
        a = (i * 7) % size
        b = (i * 13 + 5) % size
        pair = (a, b)
        if pair not in seen:
            seen.add(pair)
        sums[a] = sums.get(a, 0) + b
        ra, rb = find(a), find(b)
        if ra != rb and i % 5:
            parent[max(ra, rb)] = min(ra, rb)
        if i % 300 == 0:
            parent[:] = range(size)
            seen.clear()
    return len(sums)


class Probe:
    """Times the kernel on a wall-clock timer and scales intervals by it."""

    def __init__(self):
        self._samples = []
        self._cost = 0.0
        self._busy = False

    def _sample(self, *_signal_args):
        if self._busy:  # a tick that lands inside a probe is dropped
            return
        self._busy = True
        entered = time.perf_counter()
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            _kernel()
            self._samples.append(time.perf_counter() - start)
        finally:
            if enabled:
                gc.enable()
            self._cost += time.perf_counter() - entered
            self._busy = False

    def start(self):
        """Start taking a probe every INTERVAL_S seconds of wall time."""
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def open(self):
        """Take the opening probes, then open an interval; return its perf_counter start."""
        for _ in range(EDGE_SAMPLES):
            self._sample()
        self._samples = self._samples[-EDGE_SAMPLES:]
        self._cost = 0.0
        return time.perf_counter()

    def close(self):
        """Close the interval, then take the closing probes.

        Returns the perf_counter end, the seconds spent in probes within the
        interval, and the machine's mean speed relative to nominal over it.
        """
        closed = time.perf_counter()
        cost = self._cost
        for _ in range(EDGE_SAMPLES):
            self._sample()
        speed = sum(NOMINAL_S / s for s in self._samples) / len(self._samples)
        return closed, cost, speed

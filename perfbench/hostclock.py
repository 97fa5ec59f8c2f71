"""Host-normalised time: seconds scaled by how fast the host runs right now.

The benchmark runs on virtual machines that share their cores with other
tenants. The speed such a machine gives one process switches between two
levels about 1.7 apart, many times a second, and the guest cannot see it:
process CPU time grows exactly as fast as wall time, steal time reads 0.
Wall time alone then measures the host as much as the code.

`HostClock` samples the host's speed while the workload runs. At the
start, at the end and every `INTERVAL_S` seconds in between (from a
SIGALRM handler, so the workload needs no hooks) it times a fixed
reference kernel: exact `Fraction` arithmetic over tuple-keyed dicts,
the kind of work the package does, built from the standard library only,
so no change to the package can change it. Each stretch of work between
two samples is scaled by NOMINAL_S over the mean kernel time of the two
samples, and the time the samples themselves take is left out.
`seconds(start, end)` gives the scaled duration of any span inside the
clock's lifetime: the seconds that span would take on a host where the
kernel takes NOMINAL_S.

One process, no threads: the handler runs between bytecodes of the
process it samples.
"""

import bisect
import signal
import statistics
from fractions import Fraction
from time import perf_counter

# Between samples. The host switches between its speeds many times a
# second, and a sample that catches a short switch mis-scales the whole
# stretch next to it, so samples are much closer than one bracket query
# (about 15 ms). One sample (one kernel run, about 0.4 ms) takes about 3 %
# of the interval.
INTERVAL_S = 0.015
# Kernel time that defines one host-normalised second: about what the
# kernel takes inside a workload on a 2-vCPU Intel Xeon virtual machine at
# the slower of its two speeds (at the faster one it takes about 0.55 of
# that). A fixed constant, so that normalised figures stay comparable
# across commits.
NOMINAL_S = 0.0004

_SIZE = 8
_ROWS = [{(i, (i * 7 + k * 5) % _SIZE): Fraction((i + 1) * (k + 2), (i + k) % 7 + 2)
          for k in range(6)} for i in range(_SIZE)]
_VECTOR = {j: Fraction(j % 5 + 1, j % 3 + 2) for j in range(_SIZE)}
_LOOP = 300


def kernel():
    """Fixed exact work: a sparse matrix-vector product with Fractions, rescaled,
    then a plain integer loop taking about a tenth of the time.

    The mix is there because the host's two speeds favour some code more
    than other: at the faster one the Fraction product ran 1.91 times as
    fast, the integer loop 1.48 times, and the package's `coboundary`,
    `cup` and `cochain_space_basis` 1.78 to 2.03 times. The mix gains
    about 1.86 times, in the middle of what the package gains.
    """
    out = {}
    for row in _ROWS:
        for (i, j), entry in row.items():
            out[i] = out.get(i, 0) + entry * _VECTOR[j]
    scale = out[0]
    out = {i: value / scale for i, value in out.items()}
    s = 0
    for i in range(_LOOP):
        s = (s + i * 7) % 251
    return out, s


class HostClock:
    """Samples the host's speed while its `with` block runs."""

    def __init__(self):
        self.samples = []  # (start, end, kernel seconds) per sample, in time order
        self._busy = False
        self._previous_handler = None
        self._table = (0, [], [])  # sample count, sample starts, normalised time at each

    def sample(self):
        if self._busy:  # an alarm that arrives during a sample is dropped
            return
        self._busy = True
        try:
            start = perf_counter()
            kernel()
            end = perf_counter()
            self.samples.append((start, end, end - start))
        finally:
            self._busy = False

    def __enter__(self):
        self.sample()
        self._previous_handler = signal.signal(signal.SIGALRM, lambda *_: self.sample())
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous_handler)
        self.sample()

    def seconds(self, start, end):
        """Host-normalised duration of the span [start, end] of perf_counter time."""
        return self._normalised(end) - self._normalised(start)

    def raw_seconds(self, start, end):
        """Wall-clock duration of the span, less the samples taken inside it."""
        return (end - start) - sum(min(e, end) - max(s, start)
                                   for s, e, _ in self.samples if s < end and e > start)

    def speed(self):
        """Median over samples of NOMINAL_S / kernel time: 1 on the reference host."""
        return statistics.median(NOMINAL_S / r for _, _, r in self.samples)

    def _normalised(self, t):
        """Normalised seconds from the end of the first sample to time t."""
        samples = self.samples
        if not samples or t < samples[0][1] or t > samples[-1][0]:
            raise ValueError("span is not inside the clock's lifetime")
        if self._table[0] != len(samples):
            at = [0.0]
            for k in range(len(samples) - 1):  # whole stretches between samples
                at.append(at[-1] + self._stretch(k, samples[k + 1][0]))
            self._table = (len(samples), [s for s, _, _ in samples], at)
        _, starts, at = self._table
        i = bisect.bisect_right(starts, t) - 1
        # the part of stretch i up to t (nothing while sample i itself runs)
        return at[i] + self._stretch(i, t) if t > samples[i][1] else at[i]

    def _stretch(self, k, until):
        """Normalised length of the work from the end of sample k to `until`."""
        end_k, r_k = self.samples[k][1], self.samples[k][2]
        r_next = self.samples[k + 1][2] if k + 1 < len(self.samples) else r_k
        return (until - end_k) * NOMINAL_S / ((r_k + r_next) / 2)

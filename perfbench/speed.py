"""The machine's speed, sampled while a pass runs, to put its times on a
fixed scale.

On a shared host the same pure-Python loop runs up to about 40% slower
for stretches of seconds to minutes: the core is shared with other
tenants, and that slowdown shows in CPU time as much as in wall time.
Every 10 ms of the pass's CPU time a signal handler times a short fixed
loop that does not touch quandlekit.  A time measured over an interval is
then rescaled by the loop's mean speed over that interval, giving
*reference seconds*: how long the interval would have taken on a machine
where the loop takes ``REFERENCE_LOOP_S``.  The handler's own time is
subtracted first, so the sampling itself costs the measured code nothing.

    sampler = Sampler()
    sampler.start()
    a = sampler.mark()
    ...                                   # the work to time
    raw_s, ref_s = sampler.interval(a, sampler.mark())
"""

import signal
import time

PERIOD_S = 0.01  # CPU time between two samples
LOOP_ITERATIONS = 400
# One loop's time on a 2-vCPU Intel Xeon at its faster speed, Python 3.11.
REFERENCE_LOOP_S = 6.0e-5
_SLOTS = list(range(64))


def loop_seconds():
    """The fixed loop's time: the faster of two back-to-back runs, so a
    single interrupt does not read as a slow machine.  It allocates no
    container, so it does not advance the garbage collector."""
    best = None
    for _ in range(2):
        start = time.perf_counter()
        acc = 0
        slots = _SLOTS
        for i in range(LOOP_ITERATIONS):
            k = (i * 7) & 63
            acc = (acc + (slots[k] ^ i)) & 1023
            slots[k] = acc
        took = time.perf_counter() - start
        best = took if best is None else min(best, took)
    return best


class Sampler:
    def __init__(self):
        self.samples = []  # loop seconds, in the order taken
        self.handler_s = 0.0  # time spent sampling, to subtract

    def _sample(self):
        start = time.perf_counter()
        self.samples.append(loop_seconds())
        self.handler_s += time.perf_counter() - start

    def _on_signal(self, signum, frame):
        self._sample()

    def start(self):
        signal.signal(signal.SIGVTALRM, self._on_signal)
        signal.setitimer(signal.ITIMER_VIRTUAL, PERIOD_S, PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_VIRTUAL, 0)

    def now(self):
        """perf_counter net of the time spent sampling so far."""
        return time.perf_counter() - self.handler_s

    def mark(self):
        """A point in time; it takes one sample itself, so that every
        interval between two marks holds at least one."""
        self._sample()
        return (self.now(), len(self.samples))

    def interval(self, a, b):
        """(seconds, reference seconds) from mark a to mark b, both net of
        the time spent sampling."""
        raw = b[0] - a[0]
        window = self.samples[a[1] - 1 : b[1]]
        speed = sum(REFERENCE_LOOP_S / s for s in window) / len(window)
        return raw, raw * speed

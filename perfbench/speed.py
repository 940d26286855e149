"""Machine-speed correction for the benchmark's timings.

The benchmark runs on a few cores of a shared host whose speed drifts by
up to 1.7x over seconds to minutes; the same pass of a workload can take
5.8 s or 7.9 s.  So a pass is also timed in reference seconds: each slice
of it is scaled by the speed of the machine measured right next to it, as
the time it would have taken on a machine where calibrate() takes
CAL_REF_S.  A program change that does more work still shows in full,
because the calibration does not depend on the program.

During a pass a SIGALRM handler in the main thread times calibrate()
after every SAMPLE_EVERY_S seconds of work; the handler re-arms the timer
itself, so it never interrupts its own calibration.  The calibration's own
time is left out of the pass.  Each slice is scaled by the median of its
own reading and its neighbours', so one reading hit by an interrupt does
not skew its slice.
"""

import signal
import statistics
import time

CAL_REF_S = 0.001          # calibrate() time that defines a reference second
CAL_LOOPS = 4000
SAMPLE_EVERY_S = 0.05


def calibrate() -> float:
    """Seconds this machine takes, right now, for a fixed slice of pure
    Python: tuple keys, dict reads and writes and integer arithmetic, the
    kind of work sbw's class kernels do."""
    table = {}
    t0 = time.perf_counter()
    for i in range(CAL_LOOPS):
        key = (i & 63, i & 7)
        table[key] = table.get(key, 0) + i * 3 % 7
    return time.perf_counter() - t0


class SpeedSampler:
    """Times one pass, from start() to stop(), in wall and reference
    seconds."""

    def __init__(self):
        self.samples = []        # (perf_counter at start, calibrate seconds)

    def _sample(self, signum, frame):
        if self.running:
            self.samples.append((time.perf_counter(), calibrate()))
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S)

    def start(self):
        self.running = True
        self.previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S)
        self.t0 = time.perf_counter()
        return self

    def stop(self):
        # A SIGALRM already raised may still be handled after the timer is
        # disarmed; it must neither re-arm it nor add a reading after t1.
        self.running = False
        signal.setitimer(signal.ITIMER_REAL, 0)
        self.t1 = time.perf_counter()
        signal.signal(signal.SIGALRM, self.previous)

    def slices(self) -> list:
        """(seconds of work, calibrate seconds) of every slice of the pass;
        the last slice borrows the last reading."""
        if not self.samples:
            return [(self.t1 - self.t0, calibrate())]
        out, start = [], self.t0
        for at, cal in self.samples:
            out.append((at - start, cal))
            start = at + cal
        out.append((self.t1 - start, self.samples[-1][1]))
        return out

    def totals(self) -> tuple:
        """(wall seconds, reference seconds) of the pass, calibration left
        out of both."""
        parts = self.slices()
        cals = [cal for _, cal in parts]
        wall = ref = 0.0
        for i, (seconds, _) in enumerate(parts):
            wall += seconds
            ref += seconds * CAL_REF_S / statistics.median(
                cals[max(0, i - 1):i + 2])
        return wall, ref

"""Reference-speed probe: rescales measured times to one fixed speed of the host core.

On a shared host the speed of a core drifts by up to a half within seconds
and by more over minutes (other tenants' load, clock frequency), with no
steal time to show for it, and every wall time drifts with it.  The probe
tracks that drift from inside the measured process.  A SIGALRM timer fires
every ``PERIOD_S`` and its handler times ``reference()``, a fixed kernel of
interpreter work, once.  Each stretch of workload between two samples is
rescaled by ``NOMINAL_S`` over the duration of the samples beside it (a
rolling median, to drop interrupted samples), so the reported time is the
time the workload would have taken while ``reference()`` took ``NOMINAL_S``.
The handler's own time is left out.

``NOMINAL_S`` is a unit, not a measurement: 250 us is about what
``reference()`` takes on a 2-vCPU VM (Intel Xeon host, Python 3.11) in its
fast phases, so the rescaled figures read close to measured seconds there.
A change to the program moves rescaled times as it moves measured ones; a
change of host speed moves measured times only.  Do not change
``reference()``, ``NOMINAL_S`` or ``WINDOW`` between two runs you compare.
"""

from __future__ import annotations

import signal
import time
from statistics import median

NOMINAL_S = 250e-6
PERIOD_S = 0.05
WINDOW = 11  # samples in the rolling median, about half a second


def _call(x: int, table: dict) -> int:
    return table.get(x & 63, 0) + x


def reference() -> int:
    """The fixed kernel: integer arithmetic, calls, dict look-ups and list growth."""
    s = 0
    for i in range(3000):
        s += i * i % 7
    table = {i: i for i in range(64)}
    out = []
    for i in range(300):
        out.append(_call(i, table))
    return s + len(out)


def reference_s(samples: int = 7) -> float:
    """Median duration of ``reference()`` over ``samples`` back-to-back calls."""
    durations = []
    for _ in range(samples):
        t0 = time.perf_counter()
        reference()
        durations.append(time.perf_counter() - t0)
    return median(durations)


def rescale(seconds: float, ref_s: float) -> float:
    """``seconds`` measured while ``reference()`` took ``ref_s``, at the nominal speed."""
    return seconds * NOMINAL_S / ref_s


class Probe:
    """Interleaves ``reference()`` with the running process on a wall-clock timer."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []  # perf_counter (start, end)

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        reference()
        self.samples.append((t0, time.perf_counter()))

    def start(self) -> None:
        reference_s(5)  # warm the kernel's bytecode before the first timed sample
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def measure(self, begin: float, end: float) -> tuple[float, float]:
        """(measured, rescaled) seconds of workload in [begin, end], probe time left out.

        ``begin`` and ``end`` are ``time.perf_counter()`` readings.
        """
        inside = [s for s in self.samples if begin <= s[0] and s[1] <= end]
        if not inside:
            raw = end - begin
            ref = median(b - a for a, b in self.samples) if self.samples else reference_s()
            return raw, rescale(raw, ref)
        durations = [b - a for a, b in inside]
        half = WINDOW // 2
        smooth = [median(durations[max(0, i - half):i + half + 1]) for i in range(len(durations))]
        raw = scaled = 0.0
        last_end, last_ref = begin, smooth[0]
        for (t0, t1), ref in zip(inside, smooth):
            raw += t0 - last_end
            scaled += rescale(t0 - last_end, (last_ref + ref) / 2.0)
            last_end, last_ref = t1, ref
        raw += end - last_end
        scaled += rescale(end - last_end, last_ref)
        return raw, scaled

"""Machine-speed reference for wall times measured on a shared host.

The host's speed drifts by tens of percent over seconds to minutes
(other tenants), which moves every wall time of a run together.  While
a CLI call is timed, a SIGALRM handler times a fixed pure-Python kernel
every INTERVAL_S; the call's wall time, minus the handler's own time, is
rescaled by REFERENCE_MS over the median kernel time seen during the
call and around it.  The kernel allocates nothing the garbage collector
tracks and touches a few hundred bytes, so the code under test cannot
change its time, only the host can.
"""

import signal
import statistics
import time

REFERENCE_MS = 0.25   # kernel time that defines the reference speed
INTERVAL_S = 0.02
_BUF = [0.0] * 64     # allocated once, so the kernel itself allocates nothing tracked


def kernel_ms() -> float:
    """One run of the reference kernel, in milliseconds."""
    t0 = time.perf_counter()
    buf = _BUF
    acc = 0.0
    for i in range(1800):
        j = i & 63
        buf[j] = buf[j - 1] * 0.5 + (i % 7) * 0.25
        acc += buf[j]
    return (time.perf_counter() - t0) * 1e3


def _settled_ms() -> float:
    return statistics.median(kernel_ms() for _ in range(3))


class SpeedProbe:
    """Samples the kernel while an interval is timed; one per process."""

    def __init__(self):
        self._samples: list[float] = []
        self._spent = 0.0
        self._last_ms = _settled_ms()
        signal.signal(signal.SIGALRM, self._tick)

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        self._samples.append(kernel_ms())
        self._spent += time.perf_counter() - t0

    def start(self) -> None:
        self._samples = [self._last_ms]
        self._spent = 0.0
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self, seconds: float) -> tuple[float, float]:
        """End an interval of `seconds` wall time: (wall, reference-speed) seconds.

        The wall value excludes the time the sampler itself took.
        """
        signal.setitimer(signal.ITIMER_REAL, 0)
        self._last_ms = _settled_ms()
        wall = seconds - self._spent
        return wall, wall * REFERENCE_MS / statistics.median(self._samples + [self._last_ms])

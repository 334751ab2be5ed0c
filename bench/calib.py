"""Reference work that times the machine rather than the program.

The benchmark runs on shared hosts whose speed drifts by a quarter or more
within a minute, as other tenants load the cores; a run's wall time drifts
with it, whatever the program does. A burst is a fixed piece of work in
three parts that stand for the three kinds of work graspforge does, written
with Python and numpy only, so that no change to graspforge changes its
cost:

- py: interpreted arithmetic over tuples, like the GJK loop in settling;
- np: elementwise ufuncs over a patch-sized array, like depthproc;
- blas: an im2col-sized matrix product, like the CNN's convolutions.

A burst allocates nothing: its arrays are made once at import and written
in place, so its cost does not depend on the state the workload left the
allocator in. While a `Clock` runs, a wall-clock timer interrupts the
workload every TICK_S seconds to time one part, so the bursts see the same
machine the workload sees at the same moments. The reference part times
over the median part times of a stretch of work is its speed factor; a time
multiplied by it is the time the work would have taken at reference speed.
"""

from __future__ import annotations

import itertools
import signal
import statistics
import time

import numpy as np

# nominal part times in seconds, near their medians on a 2-vCPU Intel Xeon
# VM with one BLAS thread; they fix the unit of calibrated times and nothing
# else, so a calibrated time is comparable only with one made with the same
# values
REF_S = {"py": 0.0030, "np": 0.0035, "blas": 0.0035}

_rng = np.random.default_rng(12345)
_POINTS = [tuple(p) for p in _rng.normal(size=(64, 3)).tolist()]
_A = _rng.normal(size=(64, 64))
_B = _rng.normal(size=(64, 64))
_T = np.empty((64, 64))
_COLS = _rng.normal(size=(512, 288))
_KERNELS = _rng.normal(size=(288, 32))
_OUT = np.empty((512, 32))


def _py() -> float:
    best = -1e300
    for _ in range(500):
        for x, y, z in _POINTS:
            d = 0.3 * x - 0.5 * y + 0.8 * z
            if d > best:
                best = d
    return best


def _np() -> float:
    for _ in range(300):
        np.subtract(_A, _B, out=_T)
        np.abs(_T, out=_T)
        np.negative(_T, out=_T)
        np.exp(_T, out=_T)
    return float(_T[0, 0])


def _blas() -> float:
    for _ in range(12):
        np.matmul(_COLS, _KERNELS, out=_OUT)
    return float(_OUT[0, 0])


PARTS = {"py": _py, "np": _np, "blas": _blas}


class Clock:
    """Part times of the bursts taken while the clock runs, in order, and
    `busy`, the total time they took."""

    TICK_S = 0.25

    def __init__(self):
        self.samples: list[tuple[str, float]] = []
        self.busy = 0.0
        self._parts = itertools.cycle(PARTS.items())

    def _tick(self, signum, frame) -> None:
        name, part = next(self._parts)
        t0 = time.perf_counter()
        part()
        dt = time.perf_counter() - t0
        self.samples.append((name, dt))
        self.busy += dt

    def __enter__(self) -> "Clock":
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.TICK_S, self.TICK_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._old)

    def medians(self, start: int = 0, stop: int | None = None) -> dict[str, float]:
        """Median time of each part over samples[start:stop]; when those
        lack a part, over every burst so far; {} when there are none."""
        for window in (self.samples[start:stop], self.samples):
            times = {name: [dt for n, dt in window if n == name] for name in PARTS}
            if all(times.values()):
                return {name: statistics.median(v) for name, v in times.items()}
        return {}


def speed_factor(medians: dict[str, float]) -> float:
    """Reference speed over the speed that the parts' median times
    measured; 1.0 with no bursts."""
    return sum(REF_S.values()) / sum(medians.values()) if medians else 1.0

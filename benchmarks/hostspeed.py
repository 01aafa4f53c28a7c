"""Phase timing scaled by a reference task that runs interleaved with the phase.

On a shared host the same work runs slower while other tenants load the
shared hardware. The load changes within a second and drifts over minutes:
with the program unchanged, the fastest 5-second suite of a 30-second run
moved by 15-30% from one run to the next. Processor time moves with it,
because the slowdown is contention for the cores' shared hardware, not time
spent descheduled.

While a phase is timed, an interval timer interrupts the process every
``PERIOD_S`` and the signal handler runs one unit of a fixed reference task
between two bytecodes of the program. The unit is shaped like the program's
hot paths: a sparse mixing product and small-array reductions on a 100x2
stack, as in one step of ``algorithms.run``, and the float formatting and
parsing that ``records`` does. The phase's own time is its time minus the
units' time. Multiplied by ``REFERENCE_UNIT_S`` over the mean time of a unit
during the phase, it is the time the phase would take on a host where the
unit runs at its reference speed. Load slows the units and the phase alike
and cancels in that product; a change to the program does not touch the
units, so it shows in full.
"""

from __future__ import annotations

import signal
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter, process_time

import numpy as np
import scipy.sparse as sp

# Time of one unit at the reference speed: about the fastest unit seen on a
# 2-vCPU x86_64 VM (Python 3.11, numpy 2.4, scipy 1.17, one BLAS thread) at
# an idle moment. Only the scale of the reported seconds depends on it.
REFERENCE_UNIT_S = 6.0e-4
# Interval between units while a phase runs: about 4% of a phase's time goes
# to units, which the phase's own time excludes.
PERIOD_S = 0.02


class ReferenceTask:
    """A fixed piece of work with no inputs, built once."""

    def __init__(self):
        n = 100
        third = np.full(n, 1 / 3)
        ring = sp.diags([third[:-1], third, third[:-1]], [-1, 0, 1], format="lil")
        ring[0, n - 1] = ring[n - 1, 0] = 1 / 3
        self.csr = ring.tocsr()
        self.x = np.random.default_rng(0).standard_normal((n, 2))
        self.row = [float(v) for v in self.x[:8, 0]]

    def unit(self) -> float:
        x, csr = self.x, self.csr
        total = 0.0
        for _ in range(24):
            y = csr @ x
            d = y - x
            total += float(np.sqrt(np.mean(np.sum(d * d, axis=1))))
            total += float(np.linalg.norm(y.mean(axis=0)))
        for _ in range(4):
            line = ",".join(repr(v) for v in self.row)
            total += sum(float(s) for s in line.split(","))
        return total


@dataclass
class Sample:
    """One timed phase: its own time and the reference units run during it."""

    wall: float = 0.0
    cpu: float = 0.0
    units: int = 0
    unit_wall: float = 0.0
    unit_cpu: float = 0.0

    @property
    def ref_wall(self) -> float:
        """Own wall time scaled to the reference speed."""
        return self.wall * REFERENCE_UNIT_S * self.units / self.unit_wall

    @property
    def ref_cpu(self) -> float:
        """Own process CPU time scaled to the reference speed."""
        return self.cpu * REFERENCE_UNIT_S * self.units / self.unit_cpu

    @property
    def unit_s(self) -> float:
        """Mean wall time of one reference unit during the phase."""
        return self.unit_wall / self.units


class HostSpeed:
    """Times phases with the reference task interleaved; one per process.

    It owns ``SIGALRM`` from its creation to the end of the process; outside a
    timed phase the handler does nothing, so a signal still pending when a
    phase ends is harmless.
    """

    def __init__(self, period: float = PERIOD_S):
        self.period = period
        self.task = ReferenceTask()
        self._sample: Sample | None = None
        self.last = 0.0
        signal.signal(signal.SIGALRM, self._run_unit)

    def _run_unit(self, *_) -> None:
        sample = self._sample
        if sample is None:
            return
        wall0, cpu0 = perf_counter(), process_time()
        self.last = self.task.unit()
        sample.unit_wall += perf_counter() - wall0
        sample.unit_cpu += process_time() - cpu0
        sample.units += 1

    @contextmanager
    def timed(self):
        """Time the body; the yielded sample is filled in when the body ends.

        One unit runs at each end as well, so a phase shorter than the
        period still has a reference.
        """
        sample = Sample()
        self._sample = sample
        wall0, cpu0 = perf_counter(), process_time()
        try:
            self._run_unit()
            signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
            yield sample
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            self._run_unit()
            self._sample = None
            sample.wall = perf_counter() - wall0 - sample.unit_wall
            sample.cpu = process_time() - cpu0 - sample.unit_cpu

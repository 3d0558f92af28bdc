"""Wall time corrected for contention from other tenants of a shared host.

On a shared virtual machine the core's speed drifts with other tenants'
load: the same smoke search measured 5.4 s and 10 s half an hour apart, and
CPU time moved with wall time, so a median over passes cannot remove a drift
that outlasts the run. The benchmark therefore measures the core's speed
throughout a run and scales the run's wall times by its mean.

``Calibrator.measure()`` runs a fixed interpreter loop back to back for
``CALIBRATION_S`` seconds and counts the loops. It is called only between
the benchmark's calls into the program, when no program code runs and none
of the program's threads or child processes are busy, so the program's own
load (BLAS threads, worker processes) never lowers it. The factor is the
loops counted over the whole run times ``REFERENCE_LOOP_S``, over the time
they took: the mean speed of the core as a share of an uncontended one.
Pooling every measurement of the run, rather than scaling each call by the
measurements beside it, follows the drift over minutes without passing on
the second-to-second noise of single short measurements. Corrected times are
seconds at the speed of an uncontended core of the machine
``REFERENCE_LOOP_S`` was taken on.
"""

from __future__ import annotations

from time import perf_counter

CALIBRATION_S = 0.25
PROBE_LOOPS = 300
# Uncontended time of one probe loop (5th percentile) on the 2-vCPU Intel
# Xeon (family 6, model 143) KVM guest this benchmark was defined on.
REFERENCE_LOOP_S = 16e-6


def probe_loop() -> int:
    total = 0
    for i in range(PROBE_LOOPS):
        total += i * i
    return total


class Calibrator:
    """The core's speed, measured between the benchmark's calls into the
    program throughout a run."""

    def __init__(self):
        self.loops = 0
        self.seconds = 0.0

    def measure(self, seconds: float = CALIBRATION_S) -> None:
        start = perf_counter()
        loops = 0
        while perf_counter() - start < seconds:
            probe_loop()
            loops += 1
        self.loops += loops
        self.seconds += perf_counter() - start

    @property
    def factor(self) -> float:
        """Wall seconds to seconds at the reference core's speed: the mean
        speed over every measurement of the run."""
        return self.loops * REFERENCE_LOOP_S / self.seconds

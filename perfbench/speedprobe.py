"""Machine-speed probe for normalizing timings on a shared machine.

On a small shared virtual machine the same single-threaded Python work
runs at very different speeds from one moment to the next (up to 1.6x,
in states that last from under a second to about half a minute), and
each vCPU switches independently, because other tenants load the
physical cores.  The probe times a fixed piece of pure-Python arithmetic
that never touches the toolkit, so its time tracks only the current speed
of the vCPU it runs on.  The benchmark pins itself and its children to
one vCPU and ticks the probe every few tens of milliseconds while the
measured code runs; a timing is then scaled by ``(REFERENCE_S / probe
time) ** EXPONENT`` to the vCPU running at the reference speed.  Raw
timings are kept in the report.
"""

import math
import statistics
import time

# Unit time of ``_unit`` on an undisturbed vCPU of the development machine
# (Intel Xeon at 2.1 GHz, Python 3.11).  Only ratios between runs on one
# machine matter; this constant sets the scale of the normalized timings.
REFERENCE_S = 7.0e-05
TICK_UNITS = 8  # units in one tick, about a millisecond
# The toolkit's workloads slow down less than the probe does: regressing
# log workload time on log probe time over a minute of changing machine
# states gave slopes of 0.74 for the point-query stream and 0.90 for the
# lambda sweep.  Scaling by the probe ratio to this power removes most of
# the dependence on which states a run happened to see.
EXPONENT = 0.8


def _unit():
    acc = 0.0
    for i in range(1, 400):
        acc += math.log(i) * 0.5 + (i % 7) / (i + 1.0)
    return acc


def _timed_unit(clock=time.perf_counter):
    t0 = clock()
    _unit()
    return clock() - t0


def tick():
    """Median unit time of a short burst (about a millisecond)."""
    return statistics.median(_timed_unit() for _ in range(TICK_UNITS))


def scale(unit_times):
    """Factor that maps a timing taken while these unit times were
    measured to the reference speed."""
    return (REFERENCE_S / statistics.mean(unit_times)) ** EXPONENT

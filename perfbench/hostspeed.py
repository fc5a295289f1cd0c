"""Host-speed correction of the benchmark's timings.

The benchmark runs on shared hosts whose speed drifts, by up to 2x over
minutes, with the process's CPU time still equal to its wall time (other
tenants on the same cores, frequency changes).  Raw op times then
measure the host as much as the program.  So a fixed reference kernel
(:func:`kernel`, part of the benchmark, never of the program under test)
is timed between the ops of a run, and every time the run reports is
scaled by ``REFERENCE_S / t_ref``, where ``t_ref`` is the trimmed mean
of the run's kernel timings: the benchmark reports seconds at the host
speed at which the kernel takes :data:`REFERENCE_S`.  A slower host
stretches the ops and the kernel alike and cancels; a slower program
stretches the ops only and shows in full.

The factor is one per run, not one per op: the host also fluctuates
within seconds, which a long op averages out but a single short kernel
timing does not, so per-op factors would add that noise to every op.
It is a mean, not a median, because those fluctuations switch between
two speeds (kernel timings cluster near 50 and 95 ms), and a median
jumps from one cluster to the other with the share of time the run
spent in each while the ops' own times move with that share smoothly;
the trimmed tails drop single stalls.

The kernel runs after each op for :data:`SHARE` of the op's time, so the
run's samples cover it evenly whatever its op length.  It mixes
interpreter-bound Python with bulk numpy passes over 1e5-element arrays,
because the workloads mix the two (per-node Python at n = 30,
full-width draws at n = 1e5).

On a 2-vCPU shared Xeon VM (Python 3.11, numpy 2.4), ten 38 s runs per
workload (seeds 101-110) spread (IQR / median) raw -> corrected:
slots_per_s 0.22 -> 0.04 on sync-default, 0.14 -> 0.09 on
replicas-lossy, 0.12 -> 0.12 on cold-start-100k, whose long ops
already average most of the host's fluctuation.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

__all__ = ["REFERENCE_S", "HostClock", "kernel"]

#: Time of one :func:`kernel` call on the host described above, at its
#: usual speed; the unit the corrected seconds are expressed in.
REFERENCE_S = 0.080
#: Kernel time after each op, as a share of the op's time (at least one
#: call), and calls made before the first op.
SHARE = 0.08
FIRST_CALLS = 3
#: Share of the kernel timings dropped at each end before averaging.
TRIM = 0.1


def kernel() -> int:
    """Fixed mixed work, in two halves of about equal time: dict updates,
    integer arithmetic and small numpy reductions and sorts, like the
    simulator's per-node Python and per-slot calls; then uniform draws
    into a 1e5-element buffer, a comparison and a nonzero scan, like its
    full-width slots.  Never change it: every corrected time is expressed
    in its units."""
    rng = np.random.default_rng(1)
    d: dict[int, int] = {}
    acc = 0
    a = rng.random(64)
    for i in range(100_000):
        d[i & 255] = d.get(i & 255, 0) + i
        acc += (i * 7) % 13
        if i % 50 == 0:
            acc += int(a.sum() * 10)
            a = np.sort(a)
    buf = np.empty(100_000)
    p = rng.random(100_000) * 0.01
    for _ in range(60):
        rng.random(out=buf)
        acc += int(np.flatnonzero(buf < p).size)
    return acc


def _time_calls(calls: int) -> list[float]:
    times = []
    for _ in range(calls):
        t0 = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - t0)
    return times


class HostClock:
    """Kernel timings between the ops of one run.

    Call :meth:`after_op` right after each op with the op's duration;
    :meth:`factor` is the run's correction factor."""

    def __init__(self) -> None:
        self.samples = _time_calls(FIRST_CALLS)

    def after_op(self, op_seconds: float) -> None:
        self.samples += _time_calls(max(1, math.ceil(SHARE * op_seconds / REFERENCE_S)))

    def factor(self) -> float:
        return REFERENCE_S / trimmed_mean(self.samples)


def trimmed_mean(values: list[float]) -> float:
    """Mean of ``values`` without the lowest and highest :data:`TRIM`."""
    cut = int(len(values) * TRIM)
    return statistics.fmean(sorted(values)[cut : len(values) - cut])

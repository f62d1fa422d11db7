"""Fixed host-speed reference kernel.

A list comprehension building small records, numpy arithmetic and
random draws over a (1024 x 3 x 30) complex array, a cumulative sum and
a small matrix product -- the kinds of work the workloads spend their
time on -- on the same inputs, timed before every benchmark op.  On a
shared host the whole machine's speed drifts by tens of percent within
minutes; this kernel drifts with it, so :mod:`metrics` scales a run's
times by the kernel's median time over the run.  Never edit the kernel,
its inputs or :data:`NOMINAL_MS`; that breaks comparisons with earlier
runs.
"""

from __future__ import annotations

import time
from typing import List, Tuple

import numpy as np

_SEED = 20140817

#: The kernel's time on the host the benchmark was defined on; scaled
#: times read as if every op ran on that host.
NOMINAL_MS = 2.5


def make_inputs() -> Tuple[np.ndarray, np.ndarray, List[int]]:
    rng = np.random.default_rng(_SEED)
    shape = (1024, 3, 30)
    return (
        rng.standard_normal((96, 96)),
        rng.standard_normal(shape) + 1j * rng.standard_normal(shape),
        rng.integers(0, 1000, size=4_000).tolist(),
    )


def host_ref_ms(inputs: Tuple[np.ndarray, np.ndarray, List[int]]) -> float:
    """Milliseconds one pass of the reference kernel takes."""
    matrix, channels, ints = inputs
    rng = np.random.default_rng(_SEED)
    t0 = time.perf_counter()
    records = [(float(i), value * value % 7) for i, value in enumerate(ints)]
    amplitude = np.abs(channels) * 1.5
    amplitude += rng.normal(scale=0.1, size=amplitude.shape)
    np.cumsum(amplitude.reshape(len(amplitude), -1), axis=0)
    float((matrix @ matrix).trace()) + len(records)
    return (time.perf_counter() - t0) * 1e3

"""Host-speed probe: one fixed computation, timed between pipeline repeats.

On a VM whose cores are shared with other tenants, the host's speed
drifts by up to 40% over minutes, so a pipeline's wall time says as much
about when it ran as about the program. The probe below is fixed code on
fixed data that mixes what the pipeline spends its time on: interpreter
loops over dicts (the orbit census), a LAPACK eigendecomposition
(GraphWave) and large array passes (the silhouette sweep). It slows down
with the host, so the ratio of pipeline time to probe time, taken over a
whole run, cancels most of the drift.

In an eleven-minute run of ba-hub repeats on a shared 2-vCPU VM, the mean
wall time over 55-s windows spread 0.28 of its median (IQR / median); the
same means divided by the mean time of a probe of this mix spread 0.06.
"""

from __future__ import annotations

import time

import numpy as np

# Normalised times are reported as seconds on a host where one probe pass
# takes NOMINAL_S, about what it takes on an idle 2-vCPU x86-64 VM with one
# BLAS thread. The constant only scales the metric; it is the same on every
# commit.
NOMINAL_S = 0.7

_MATRIX = np.random.default_rng(20220607).standard_normal((400, 400))
_MATRIX = _MATRIX + _MATRIX.T
_VECTOR = np.random.default_rng(20220608).standard_normal(3_000_000)


def probe() -> float:
    """Wall seconds of one pass of the fixed probe computation."""
    start = time.perf_counter()
    table = {}
    for i in range(2_000_000):
        key = i % 997
        table[key] = table.get(key, 0) + i
    for _ in range(12):
        np.linalg.eigh(_MATRIX)
    x = _VECTOR
    for _ in range(6):
        x = np.sort(x) * 1.0001
    return time.perf_counter() - start


def scale(probe_times: list) -> float:
    """Factor that turns wall time measured next to these probes into
    seconds at the nominal probe speed."""
    return NOMINAL_S * len(probe_times) / sum(probe_times)

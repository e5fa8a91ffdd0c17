"""Host-speed probe: a fixed reference kernel timed between ops.

The benchmark runs on a few virtual CPUs of a shared host whose speed drifts
by up to half within seconds (process CPU time follows wall time, so the
virtual CPU runs slower rather than being descheduled).  Raw op latencies
then move with the host's minute, not with the program.  The probe runs a
fixed piece of work of the kinds rahecke does right before the first op and
after every op.  An op's *corrected* latency is its wall latency times
``REF_S[kind] / m``, ``m`` being the median of the probes around it (see
``run.Stream.corrected``): the time the op would have taken on a host that
runs the probe in ``REF_S[kind]`` seconds.  A change to the program moves
the corrected latency; a change in host speed, which moves the probe with
the op, does not.

There are two kinds of probe.  ``python`` is ``Fraction`` arithmetic,
tuple-keyed dicts and an integer loop, as in the pure-Python workloads.
``python+array`` adds random reads from a float32 array too large for the
core's own caches, as the sparse products of haagerup make: when the host
slows, those slow less than pure-Python work, and a pure-Python probe
over-corrects them.  The choice was made by how well each probe followed
the median latency of a fixed op of each workload over 3 s windows of a
60-120 s run.
"""

from __future__ import annotations

import time
from fractions import Fraction

import numpy as np

#: Probe time, in seconds, of the reference host per kind of probe: about
#: its median over many runs on 2 vCPUs of a shared Intel Xeon host.
#: Corrected times are in seconds of that host.
REF_S = {"python": 0.0065, "python+array": 0.0120}
KINDS = tuple(REF_S)

_ARRAY = 1_000_000       # float32 values: 4 MB, beyond the core's own caches
_READS = 400_000
_STATE: list = []


def _python() -> None:
    acc = Fraction(0)
    x = Fraction(3, 7)
    for i in range(1, 300):
        acc += x * Fraction(i, i + 2)
    counts: dict = {}
    for i in range(6000):
        key = (i % 97, i % 89, i & 7)
        counts[key] = counts.get(key, 0) + 1
    s = 0
    for i in range(15_000):
        s += i * i % 7


def _array() -> None:
    if not _STATE:
        rng = np.random.default_rng(12345)
        _STATE.extend([rng.random(_ARRAY, dtype=np.float32),
                       rng.integers(0, _ARRAY, _READS, dtype=np.int32)])
    values, where = _STATE
    values[where].sum()


def probe(kind: str) -> float:
    """Wall time of one run of the probe of the given kind, in seconds."""
    t0 = time.perf_counter()
    _python()
    if kind == "python+array":
        _array()
    return time.perf_counter() - t0


def warm_up(kind: str) -> None:
    """Run the probe once untimed: the first run builds its array."""
    probe(kind)

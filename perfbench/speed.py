"""How fast this machine runs right now, by a fixed pure-Python probe.

The probe does a fixed mix of interpreter work (integer arithmetic, dict
stores and loads, small strings) that no program change can affect.  On
a shared virtual machine its time moves with the host's load by far more
than the benchmark's bounds: a 2-vCPU sandbox runs one probe in about
1.05 ms or 0.48 ms for minutes at a time, or flips between the two
every few tens of milliseconds.

``dse_sweep`` and ``serve_mixed`` time short operations (a network's
sweep, one request) one at a time, and probe between them, while
nothing else runs: the program is idle, so the probe does not slow with
the program's own CPU use.  Each operation is reported at the speed
where the probe takes ``probe_ref_s`` (``pins.json``): its measured time
times ``probe_ref_s`` over the mean of the probes nearest to it in time
(:func:`nominal_series`).

``paper_regen`` times few, long operations (fresh interpreters of 0.3 s
to 2 s), so it scales them all by the mean of the probes taken between
interpreters over the whole run.  Set-up times are wall-clock
everywhere.
"""

from __future__ import annotations

import functools
import statistics
import time
from typing import List, Sequence

import common

PROBE_REPEATS = 3


def probe_s() -> float:
    """Median seconds of a few repeats of the fixed probe."""
    samples = []
    for _ in range(PROBE_REPEATS):
        started = time.perf_counter()
        table = {}
        total = 0
        for index in range(3000):
            table[index & 255] = (index, str(index))
            total += len(table[index & 127][1])
        samples.append(time.perf_counter() - started)
    return statistics.median(samples)


@functools.lru_cache(maxsize=None)
def reference_s() -> float:
    return common.load_pins()["probe_ref_s"]


def nominal(seconds: float, probe: float) -> float:
    """``seconds`` measured after ``probe``, at the reference machine speed."""
    return seconds * reference_s() / probe


#: :func:`nominal_series` averages this many probes on each side of an
#: operation.  Two probes taken a few tens of milliseconds apart differ
#: by up to about 10% even while the host's speed holds still; the mean
#: over the neighbouring operations averages that noise out.
REACH = 4


def nominal_series(seconds: Sequence[float], probes: Sequence[float]) -> List[float]:
    """Operations timed one after another, at the reference speed.

    ``probes[i]`` was taken right before ``seconds[i]`` and
    ``probes[i + 1]`` right after it, so there is one more probe than
    operations.  Each time is scaled by the mean of the ``REACH`` probes
    on either side of it.
    """
    if len(probes) != len(seconds) + 1:
        raise common.BenchError("need one probe before each operation and one after the last")
    out = []
    for index, value in enumerate(seconds):
        window = probes[max(0, index + 1 - REACH): index + 1 + REACH]
        out.append(nominal(value, statistics.fmean(window)))
    return out

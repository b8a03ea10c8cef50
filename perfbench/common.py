"""Shared plumbing for the benchmark: paths, environment, statistics.

The benchmark runs from the root of a source checkout.  It imports the
program from ``src/`` (no install step) and keeps every file it writes
under ``.perfbench-tmp/`` (scratch, removed at exit) and
``perfbench-out/`` (Chrome traces), both inside the checkout.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Dict, Iterator, List, Sequence, Set

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
#: The program's source tree; :func:`require_program` may point it at
#: another checkout, so two commits run under one benchmark.
SRC = ROOT / "src"
TMP_ROOT = ROOT / ".perfbench-tmp"
OUT_DIR = ROOT / "perfbench-out"
PINS_PATH = BENCH_DIR / "pins.json"


class BenchError(RuntimeError):
    """The benchmark itself cannot run (missing program, pinned env)."""


def require_program(checkout: Path = ROOT) -> None:
    """Import the program from ``checkout``'s ``src/``; fail before any
    measurement when it is not there."""
    global SRC
    SRC = Path(checkout).resolve() / "src"
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"no program under {SRC}; run from a source checkout")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def load_pins() -> Dict[str, Any]:
    with open(PINS_PATH, encoding="utf-8") as handle:
        return json.load(handle)


@contextmanager
def scratch_dir(prefix: str) -> Iterator[Path]:
    """A fresh directory under the checkout's scratch root, removed after."""
    TMP_ROOT.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix=prefix, dir=TMP_ROOT))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


def program_env(cache_dir: Path) -> Dict[str, str]:
    """Environment for a program process: fresh cache root, chaos off.

    ``TMPDIR`` points into the scratch tree so the C compiler that builds
    the kernel extension writes nowhere outside the checkout.  Bytecode
    goes to one prefix tree shared by every program process of every
    run, so import times do not depend on which workload ran first.
    """
    env = dict(os.environ)
    for name in list(env):
        if name.startswith("REPRO_") or name == "PYTHONDONTWRITEBYTECODE":
            del env[name]
    env.update(
        PYTHONPATH=str(SRC),
        PYTHONPYCACHEPREFIX=str(TMP_ROOT / "pycache"),
        PYTHONUNBUFFERED="1",
        REPRO_CACHE="on",
        REPRO_CACHE_DIR=str(cache_dir),
        REPRO_CHAOS="off",
        TMPDIR=str(cache_dir),
    )
    return env


def python_cmd(script: str, *args: str) -> List[str]:
    return [sys.executable, str(BENCH_DIR / script), *map(str, args)]


def run_child(cmd: Sequence[str], env: Dict[str, str], timeout: float) -> Dict[str, Any]:
    """Run one child to completion; return its last stdout line as JSON.

    ``wall_s`` is the parent-observed time from spawn to reaped exit and
    ``spawned_at`` the ``perf_counter`` reading at spawn (the clock is
    CLOCK_MONOTONIC on Linux, so child timestamps compare directly).
    """
    spawned_at = time.perf_counter()
    proc = subprocess.run(
        list(cmd), env=env, capture_output=True, text=True, timeout=timeout
    )
    ended_at = time.perf_counter()
    if proc.returncode != 0:
        tail = (proc.stderr or proc.stdout)[-2000:]
        raise BenchError(f"child {cmd[1:3]} exited {proc.returncode}:\n{tail}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"child {cmd[1:3]} printed no result")
    record = json.loads(lines[-1])
    record["wall_s"] = ended_at - spawned_at
    record["spawned_at"] = spawned_at
    record["ended_at"] = ended_at
    return record


def child_rss_mb() -> float:
    """Peak resident set of this process, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def proc_peak_rss_mb(pid: int) -> float:
    """Peak resident set (VmHWM) of a live process, in MiB; 0 if unknown."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except (OSError, ValueError):
        pass
    return 0.0


def proc_children(pid: int) -> List[int]:
    """Child processes of ``pid``, started from any of its threads."""
    children: List[int] = []
    try:
        for tid in os.listdir(f"/proc/{pid}/task"):
            with open(f"/proc/{pid}/task/{tid}/children", encoding="ascii") as handle:
                children += [int(token) for token in handle.read().split()]
    except (OSError, ValueError):
        pass
    return children


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] != "Z"
    except (OSError, IndexError):
        return False


def wait_gone(pids: Sequence[int], timeout: float) -> None:
    """Wait until processes that are not this one's children have ended;
    kill those still running after ``timeout`` seconds."""
    for grace, kill in ((timeout, True), (5.0, False)):
        deadline = time.monotonic() + grace
        while time.monotonic() < deadline:
            if not any(_alive(pid) for pid in pids):
                return
            time.sleep(0.02)
        for pid in pids:
            if kill and _alive(pid):
                os.kill(pid, signal.SIGKILL)
    raise BenchError(f"processes {list(pids)} did not end")


def pin(pids: Sequence[int], cpus: Set[int]) -> None:
    """Restrict every thread of each process to ``cpus``; threads they
    start later inherit the mask."""
    for pid in pids:
        for tid in os.listdir(f"/proc/{pid}/task"):
            try:
                os.sched_setaffinity(int(tid), cpus)
            except ProcessLookupError:
                pass  # the thread ended meanwhile


def percentile(samples: Sequence[float], fraction: float) -> float:
    """Linear-interpolated percentile (numpy's default method)."""
    ordered = sorted(samples)
    if not ordered:
        raise BenchError("percentile of no samples")
    position = fraction * (len(ordered) - 1)
    lower = int(position)
    upper = min(lower + 1, len(ordered) - 1)
    weight = position - lower
    return ordered[lower] * (1.0 - weight) + ordered[upper] * weight


#: A reported percentile needs at least this many samples beyond it.
TAIL_BEYOND = 10


def tail(samples: Sequence[float], target: float) -> Dict[str, float]:
    """The ``target`` percentile, or the highest one with ``TAIL_BEYOND``
    samples beyond it when there are too few samples for ``target``.

    Returns the value with the percentile used, the sample count and the
    number of samples beyond the value, which the run prints.
    """
    count = len(samples)
    if count <= TAIL_BEYOND:
        raise BenchError(f"{count} samples: too few for any tail percentile")
    fraction = min(target, 1.0 - TAIL_BEYOND / count)
    value = percentile(samples, fraction)
    return {
        "value": value, "percentile": round(fraction * 100, 2),
        "samples": count, "beyond": sum(sample > value for sample in samples),
    }


def machine_record(probes: Sequence[float]) -> Dict[str, float]:
    """Median, mean and p90 of machine-speed probes (``speed.py``), for
    the record: the slow state's share shows in the mean and the p90."""
    return {
        "probe_s": median(probes), "probe_mean_s": statistics.fmean(probes),
        "probe_p90_s": percentile(probes, 0.90),
    }


def median(samples: Sequence[float]) -> float:
    if not samples:
        raise BenchError("median of no samples")
    return statistics.median(samples)


def environment_record(backend: str, cache_root: str) -> Dict[str, Any]:
    import numpy

    return {
        "kernel_backend": backend,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cache_root": cache_root,
    }


def check_backend(backend: str) -> None:
    """Refuse to report numbers measured on another kernel backend.

    ``REPRO_KERNELS=auto`` silently degrades to NumPy when the C backend
    cannot load; a run on the wrong backend would read as a regression
    (or a gain) of the program, so it fails instead.
    """
    pinned = load_pins()["kernel_backend"]
    if backend != pinned:
        raise BenchError(
            f"kernel backend resolved to {backend!r}, but the benchmark is"
            f" pinned to {pinned!r} (perfbench/pins.json); refusing to report"
        )


def metric(value: float, unit: str) -> Dict[str, Any]:
    return {"value": value, "unit": unit}


def emit_child(record: Dict[str, Any]) -> None:
    """A child's single result line (the parent reads the last line)."""
    sys.stdout.write(json.dumps(record) + "\n")
    sys.stdout.flush()


def write_trace(name: str, events: List[Dict[str, Any]]) -> Path:
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"{name}.trace.json"
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)
    return path


def registry_counters() -> Dict[str, float]:
    """The program's counters and gauges, by series name."""
    from repro.obs.metrics import REGISTRY

    return {
        series: value for series, value in REGISTRY.snapshot().items()
        if isinstance(value, (int, float))
    }


def counter_delta(before: Dict[str, float], after: Dict[str, float]) -> Dict[str, float]:
    """Per-series changes, plus each name's total over its label sets."""
    out: Dict[str, float] = {}
    for series, value in after.items():
        change = value - before.get(series, 0.0)
        if change:
            out[series] = change
            name = series.split("{", 1)[0]
            if name != series:
                out[name] = out.get(name, 0.0) + change
    return out

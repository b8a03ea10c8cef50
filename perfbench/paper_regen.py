"""Workload ``paper_regen``: the researcher regenerating the paper.

One operation is a pair of fresh interpreters over one new cache root:
the *cold* one runs ``repro report``, ``repro dse all`` and ``repro dse
all --per-layer`` through ``repro.cli.main`` on an empty cache; the
*warm* one repeats the three commands over what the cold one left.  The
inputs are the paper's own workloads, so the seed does not apply.  Each
command's text must match the digest pinned in ``pins.json``.

Run as ``python3 perfbench/paper_regen.py <role> ...`` it is the child
side (see :func:`child_main`); the parent side is :func:`run`.
"""

from __future__ import annotations

import sys
import time

_STARTED = time.perf_counter()

import atexit  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Any, Dict, List, Tuple  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402
import ledger as ledger_mod  # noqa: E402
import speed  # noqa: E402

COMMANDS = (["report"], ["dse", "all"], ["dse", "all", "--per-layer"])
SETUP_REPEATS = 5
CHILD_TIMEOUT_S = 120.0


# -- child side ----------------------------------------------------------------


def child_main(argv: List[str]) -> int:
    """``setup``: import and resolve kernels; ``op``: the three commands."""
    role, trace, spans_path = argv[0], argv[1] == "1", argv[2]
    ledger = ledger_mod.Ledger() if trace else None
    if ledger is not None:
        # Registered before the program's own exit hooks, so it runs after
        # them (LIFO): the cache's exit-time drain is in the spans and its
        # write-behind publishes are in the counters.
        def dump() -> None:
            counters = common.counter_delta({}, common.registry_counters())
            with open(spans_path, "w", encoding="utf-8") as handle:
                json.dump({"spans": ledger.spans, "counters": counters,
                           "dumped_at": time.perf_counter()}, handle)

        atexit.register(dump)
        import_span = ledger.begin("import")
    import repro.cli  # noqa: F401
    from repro.kernels import kernel_backend

    if ledger is not None:
        import repro.experiments  # noqa: F401  (the ledger's targets)
        import repro.dse.perlayer  # noqa: F401
        import repro.sim  # noqa: F401

        ledger.end(import_span)
        ledger.install()
    record: Dict[str, Any] = {"started_at": _STARTED}
    if role == "setup":
        record["backend"] = kernel_backend()
        record["ready_at"] = time.perf_counter()
        common.emit_child(record)
        return 0
    digests = []
    for command in COMMANDS:
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            code = repro.cli.main(list(command))
        text = buffer.getvalue()
        digests.append(
            hashlib.sha256(text.encode("utf-8")).hexdigest() if code == 0 else f"exit {code}"
        )
    record.update(
        digests=digests,
        backend=kernel_backend(),
        rss_mb=common.child_rss_mb(),
    )
    common.emit_child(record)
    return 0


# -- parent side ---------------------------------------------------------------


def _spawn(role: str, cache_dir: Path, trace: bool, spans_path: Path) -> Dict[str, Any]:
    cmd = common.python_cmd(
        "paper_regen.py", role, "1" if trace else "0", str(spans_path)
    )
    return common.run_child(cmd, common.program_env(cache_dir), CHILD_TIMEOUT_S)


def _adopt(ledger: ledger_mod.Ledger, root: int, child: Dict[str, Any], spans_path: Path) -> Dict[str, float]:
    """Graft a traced child's spans under ``root``, plus process start/exit.

    Returns the child's program counters.
    """
    with open(spans_path, encoding="utf-8") as handle:
        dumped = json.load(handle)
    rows = dumped["spans"]
    rows.append(["process.start", child["spawned_at"], child["started_at"], -1, -1])
    rows.append(["process.exit", dumped["dumped_at"], child["ended_at"], -1, -1])
    ledger.adopt(rows, root)
    return dumped["counters"]


def run(seed: int, seconds: float, trace: bool) -> Dict[str, Any]:
    del seed  # the paper's inputs are fixed
    pins = common.load_pins()["paper_regen"]["digests"]
    times: Dict[str, List[float]] = {"setup_s": [], "cold_s": [], "warm_s": []}
    backend = "?"
    # Machine-speed probes, between interpreters only (speed.py).
    probes: List[float] = []
    with common.scratch_dir("regen-") as tmp:
        for index in range(SETUP_REPEATS):
            probes.append(speed.probe_s())
            child = _spawn("setup", tmp / f"setup{index}", False, tmp / "unused")
            times["setup_s"].append(child["ready_at"] - child["spawned_at"])
            backend = child["backend"]
        common.check_backend(backend)

        ledger = ledger_mod.Ledger()
        pairs: List[Tuple[float, bool]] = []
        counters: Dict[str, float] = {}
        rss = 0.0
        attempted = failed = 0
        traced_ops = set()
        started = time.perf_counter()
        op = 0
        while time.perf_counter() - started < seconds or op == 0:
            # In a traced run every other pair runs untraced, so the
            # tracing overhead is measured in the same run.
            traced = trace and op % 2 == 0
            cache_dir = tmp / f"op{op}"
            pair_s = 0.0
            for kind in ("cold", "warm"):
                probes.append(speed.probe_s())
                spans_path = tmp / f"op{op}-{kind}.spans.json"
                child = _spawn("op", cache_dir, traced, spans_path)
                times[f"{kind}_s"].append(child["wall_s"])
                pair_s += child["wall_s"]
                attempted += 1
                if child["digests"] != pins or child["backend"] != backend:
                    failed += 1
                rss = max(rss, child["rss_mb"])
                if traced:
                    ledger.op = op
                    root = ledger.begin(f"op:{kind}", child["spawned_at"])
                    ledger.end(root)
                    ledger.spans[root][ledger_mod.END] = child["ended_at"]
                    child_counters = _adopt(ledger, root, child, spans_path)
                    for name, value in child_counters.items():
                        counters[name] = counters.get(name, 0.0) + value
            pairs.append((pair_s, traced))
            if traced:
                traced_ops.add(op)
            shutil.rmtree(cache_dir, ignore_errors=True)
            op += 1

    # Each interpreter's wall time, spawn to reaped exit, at the speed of
    # the run's mean probe; set-up: spawn until ready, wall clock.  The
    # mean, not the median: when the host flips between two speeds, the
    # median follows the faster one, while an interpreter of a second
    # or two runs at the mix of both.
    probe = statistics.fmean(probes)
    setups = times["setup_s"]
    cold = [speed.nominal(t, probe) for t in times["cold_s"]]
    warm = [speed.nominal(t, probe) for t in times["warm_s"]]
    processes = cold + warm
    result: Dict[str, Any] = {
        "attempted": attempted,
        "failed": failed,
        "backend": backend,
        "cache_root": str(tmp),
        "machine": common.machine_record(probes),
        "raw": {
            "cold_s": common.median(times["cold_s"]),
            "warm_s": common.median(times["warm_s"]),
        },
        # About 14 cold interpreters fit a run: too few for any percentile
        # above the median to have ten samples beyond it, so the tail
        # metric is the median of the slowest operation, the cold one.
        "samples": {
            "setup_s": {"samples": len(setups)},
            "cold_s": {"samples": len(cold)},
            "warm_s": {"samples": len(warm)},
            "tail_ms": {"samples": len(cold), "percentile": 50.0, "of": "cold interpreters"},
        },
        "metrics": {
            "setup_s": common.metric(common.median(setups), "s"),
            "cold_s": common.metric(common.median(cold), "s"),
            "warm_s": common.metric(common.median(warm), "s"),
            "ops_per_s": common.metric(
                len(COMMANDS) * len(processes) / sum(processes), "1/s"
            ),
            "tail_ms": common.metric(common.median(cold) * 1e3, "ms"),
            "peak_rss_mb": common.metric(rss, "MB"),
        },
    }
    if trace:
        # Pair times in the same run: traced and untraced alternate.
        result["ledger"] = {
            "spans": ledger.spans,
            "ops": traced_ops,
            "counters": counters,
            "traced_op_s": [t for t, traced in pairs if traced],
            "plain_op_s": [t for t, traced in pairs if not traced],
        }
    return result


if __name__ == "__main__":
    sys.exit(child_main(sys.argv[1:]))

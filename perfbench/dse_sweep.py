"""Workload ``dse_sweep``: the architect sweeping a design space.

One long-lived process draws seeded synthetic networks sized to reach
AlexNet/VGG-scale layers.  One operation sweeps one network over a grid
of array dims on all five architectures (``evaluate_sweep``) plus one
``solve_per_layer``, on a cache root where every point misses, and waits
until every result is published (``ResultCache.drain``).  The same sweep
is then replayed once, all hits, as the warm operation.

The mapping memos are cleared before each network.  Left to grow, they
let later networks reuse the layer mappings of earlier ones: with them,
throughput rose from about 600 to 1,100 points/s over 380 networks, so
a faster machine, which gets further, also measured cheaper networks.

Outputs are checked three ways: the warm replay must equal the cold
sweep, a sampled share of points is recomputed with the cache off and
the memos cleared, and a digest over every simulated statistic is
printed for the seed.

Run as ``python3 perfbench/dse_sweep.py <role> ...`` it is the child
side (see :func:`child_main`); the parent side is :func:`run`.
"""

from __future__ import annotations

import sys
import time

_STARTED = time.perf_counter()

import dataclasses  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Any, Dict, List  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402
import ledger as ledger_mod  # noqa: E402
import speed  # noqa: E402

ARCHS = ("systolic", "mapping2d", "tiling", "flexflow", "pipeline")
DIMS = (8, 12, 16, 24, 32, 48)
PER_LAYER_DIM = 16
#: Every this many networks, all points are recomputed uncached.
CHECK_EVERY = 20
#: Peak memory is read after this many networks, so that it does not
#: depend on how many networks the machine managed in the run.
RSS_AFTER = 100
MAX_NETWORKS = 4000
SETUP_REPEATS = 5


def synth_spec():
    """Networks of 3-8 CONV layers up to 224x224 inputs, 512 maps and
    11x11 kernels: AlexNet/VGG-scale layers, drawn per seed."""
    from repro.nn.synth import SynthSpec

    return SynthSpec(
        min_conv_layers=3, max_conv_layers=8, min_input_size=32,
        max_input_size=224, max_maps=512, max_kernel=11,
    )


def network_seed(seed: int, index: int) -> int:
    return seed * 1_000_003 + index


def result_stats(result) -> List[Any]:
    """Every simulated statistic of one ``NetworkResult``."""
    return [
        result.kind, result.network_name, result.total_cycles,
        result.overall_utilization, result.gops, result.power_mw,
        result.energy_uj, result.dram_accesses,
        [
            [layer.layer.name, layer.cycles, layer.utilization,
             dataclasses.astuple(layer.counts)]
            for layer in result.layers
        ],
    ]


def child_main(argv: List[str]) -> int:
    role, seed, seconds, trace = argv[0], int(argv[1]), float(argv[2]), argv[3] == "1"
    ledger = ledger_mod.Ledger() if trace else None
    import_started = time.perf_counter()
    from repro.arch.config import ArchConfig
    from repro.cache import active_cache, cache_root
    from repro.dataflow.mapper import clear_mapping_cache
    import repro.dse
    import repro.experiments.common
    from repro.kernels import kernel_backend
    from repro.accelerators import make_accelerator
    from repro.nn.synth import random_network

    import_s = time.perf_counter() - import_started
    backend = kernel_backend()
    spec = synth_spec()
    networks = [random_network(network_seed(seed, i), spec) for i in range(MAX_NETWORKS)]
    base = ArchConfig()
    configs = {dim: base.scaled_to(dim) for dim in DIMS}
    record: Dict[str, Any] = {
        "started_at": _STARTED, "ready_at": time.perf_counter(),
        "backend": backend, "import_s": import_s,
        "cache_root": str(cache_root()),
    }
    if role == "setup":
        common.emit_child(record)
        return 0

    def sweep(network):
        points = [
            ((arch, dim), arch, network, configs[dim])
            for arch in ARCHS for dim in DIMS
        ]
        # Called through their modules so a traced run sees the wrappers.
        results = repro.experiments.common.evaluate_sweep(
            f"bench:{network.name}", points
        )
        plan = repro.dse.solve_per_layer(network, PER_LAYER_DIM)
        cache = active_cache()
        if cache is not None:
            cache.drain()
        return [results[key] for key, *_ in points], plan

    def stats_blob(results, plan) -> bytes:
        stats = [result_stats(result) for result in results]
        return json.dumps([stats, repro.dse.plan_payload(plan)]).encode("utf-8")

    digest = hashlib.sha256()
    cold: List[float] = []
    warm: List[float] = []
    traced_ops: List[int] = []
    kept: List[Any] = []
    # Machine-speed probes right before each cold sweep and between it
    # and its warm replay; one more follows the last network.
    probes: List[float] = []
    mid_probes: List[float] = []
    failed = 0
    before = common.registry_counters()
    started = time.perf_counter()
    index = 0
    rss_mb = 0.0
    while (time.perf_counter() - started < seconds or index == 0) and index < len(networks):
        clear_mapping_cache()
        network = networks[index]
        traced = ledger is not None and index % 2 == 0
        probes.append(speed.probe_s())
        if traced:
            ledger.install()
        t0 = time.perf_counter()
        if traced:
            with ledger.operation(index, "cold"):
                stats, plan = sweep(network)
        else:
            stats, plan = sweep(network)
        t_cold = time.perf_counter() - t0
        mid_probes.append(speed.probe_s())
        t1 = time.perf_counter()
        if traced:
            with ledger.operation(index, "warm"):
                warm_stats, warm_plan = sweep(network)
        else:
            warm_stats, warm_plan = sweep(network)
        t2 = time.perf_counter()
        if traced:
            ledger.uninstall()
            traced_ops.append(index)
        cold.append(t_cold)
        warm.append(t2 - t1)
        blob = stats_blob(stats, plan)
        digest.update(blob)
        if stats_blob(warm_stats, warm_plan) != blob:
            failed += 1
        if index % CHECK_EVERY == 0:
            kept.append((index, [result_stats(result) for result in stats]))
        index += 1
        if index == RSS_AFTER:
            rss_mb = common.child_rss_mb()
    probes.append(speed.probe_s())
    counters = common.counter_delta(before, common.registry_counters())

    # Sampled recomputation, outside the timed loop: cache off, memos clear.
    os.environ["REPRO_CACHE"] = "off"
    checked = 0
    for net_index, stats in kept:
        clear_mapping_cache()
        network = networks[net_index]
        fresh = [
            result_stats(
                make_accelerator(arch, configs[dim], workload_name=network.name)
                .simulate_network(network)
            )
            for arch in ARCHS for dim in DIMS
        ]
        checked += len(fresh)
        if json.dumps(fresh) != json.dumps(stats):
            failed += 1

    record.update(
        networks=index, points=index * len(ARCHS) * len(DIMS),
        checked_points=checked, failed=failed, cold=cold, warm=warm, probes=probes,
        mid_probes=mid_probes,
        checked_networks=len(kept),
        digest=digest.hexdigest(), rss_mb=rss_mb or common.child_rss_mb(),
        backend_after=kernel_backend(), counters=counters,
    )
    if ledger is not None:
        record["spans"] = ledger.spans
        record["traced_ops"] = traced_ops
    common.emit_child(record)
    return 0


def _spawn(role: str, seed: int, seconds: float, trace: bool, cache_dir: Path) -> Dict[str, Any]:
    cmd = common.python_cmd(
        "dse_sweep.py", role, str(seed), str(seconds), "1" if trace else "0"
    )
    return common.run_child(cmd, common.program_env(cache_dir), seconds + 120.0)


def run(seed: int, seconds: float, trace: bool) -> Dict[str, Any]:
    with common.scratch_dir("dse-") as tmp:
        setup_children = [
            _spawn("setup", seed, seconds, False, tmp / f"setup{index}")
            for index in range(SETUP_REPEATS)
        ]
        for child in setup_children:
            common.check_backend(child["backend"])
        child = _spawn("run", seed, seconds, trace, tmp / "run")
    setups = [c["ready_at"] - c["spawned_at"] for c in setup_children]
    common.check_backend(child["backend"])
    if child["backend_after"] != child["backend"]:
        raise common.BenchError("kernel backend changed during the run")
    # Probes and sweeps alternate: before, cold, mid, warm, before, ...
    probes, mids = child["probes"], child["mid_probes"]
    readings: List[float] = []
    sweeps: List[float] = []
    for before, cold_t, mid, warm_t in zip(probes, child["cold"], mids, child["warm"]):
        readings += [before, mid]
        sweeps += [cold_t, warm_t]
    scaled = speed.nominal_series(sweeps, readings + probes[-1:])
    cold, warm = scaled[0::2], scaled[1::2]
    tail = common.tail([t * 1e3 for t in cold], 0.90)
    print(f"dse_sweep seed={seed} networks={child['networks']}"
          f" points={child['points']} checked={child['checked_points']}"
          f" digest={child['digest']}")
    result: Dict[str, Any] = {
        "attempted": child["networks"] + child["checked_networks"],
        "failed": child["failed"],
        "backend": child["backend"],
        "cache_root": child["cache_root"],
        "raw": {
            "cold_s": common.median(child["cold"]),
            "warm_s": common.median(child["warm"]),
        },
        "machine": common.machine_record(probes + mids),
        "samples": {
            "setup_s": {"samples": len(setups)},
            "cold_s": {"samples": len(cold)},
            "warm_s": {"samples": len(warm)},
            "tail_ms": {k: tail[k] for k in ("percentile", "samples", "beyond")},
        },
        "metrics": {
            "setup_s": common.metric(common.median(setups), "s"),
            "cold_s": common.metric(common.median(cold), "s"),
            "warm_s": common.metric(common.median(warm), "s"),
            "ops_per_s": common.metric(child["points"] / sum(cold), "1/s"),
            "tail_ms": common.metric(tail["value"], "ms"),
            "peak_rss_mb": common.metric(child["rss_mb"], "MB"),
        },
    }
    if trace:
        traced = set(child["traced_ops"])
        result["ledger"] = {
            "spans": child["spans"],
            "ops": traced,
            "counters": child["counters"],
            "import_s": child["import_s"],
            "counter_ops": child["networks"],
            "traced_op_s": [t for i, t in enumerate(cold) if i in traced],
            "plain_op_s": [t for i, t in enumerate(cold) if i not in traced],
        }
    return result


if __name__ == "__main__":
    sys.exit(child_main(sys.argv[1:]))

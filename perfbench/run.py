"""The repository benchmark: one workload, one run, one JSON line.

    python3 perfbench/run.py --workload dse_sweep --seed 1 --seconds 20 --trace 0

Workloads (see ``perfbench/README.md`` for why each exists):

* ``paper_regen`` -- fresh-interpreter ``repro report`` / ``repro dse
  all`` / ``repro dse all --per-layer``, cold then warm;
* ``dse_sweep`` -- seeded synthetic networks swept over five
  architectures in one long-lived process;
* ``serve_mixed`` -- a request mix against ``repro serve``, one unit at
  a time (open loop and rate ladder in traced runs).

With ``--trace 0`` the last stdout line carries the end-to-end metrics;
with ``--trace 1`` the per-layer metrics of a separate traced run, after
a ledger table reconciling each layer's self time with the operation
time.  The line is ``{"correct", "attempted", "failed", "metrics"}``.
Lines before it record the pinned environment and each timing's sample
count (``samples``).  Operation times are reported at the reference
machine speed (``speed.py``); ``paper_regen`` and ``dse_sweep`` add their
raw (wall-clock) medians, and ``serve_mixed`` its per-class unit times
and their wall-clock medians (``mix``).  Any error exits
non-zero without a result line.

``--program DIR`` measures the program in another source checkout with
this benchmark's code (``steady.py pair`` uses it).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Dict, List

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402
import ledger as ledger_mod  # noqa: E402

WORKLOADS = ("paper_regen", "dse_sweep", "serve_mixed")

#: Per-layer metric -> ledger layer whose self seconds it reports.
LAYER_SECONDS = {
    "kernels.load_s": "kernels.load",
    "experiments.self_s": "experiments",
    "sim.functional_s": "sim.functional",
    "dataflow.map_s": "dataflow.map",
    "accelerators.self_s": "accelerators",
    "dse.solve_s": "dse.solve",
    "cache.get_s": "cache.get",
    "cache.put_s": "cache.put",
    "cache.drain_s": "cache.drain",
}

#: A traced run fails when more than this share of operation time sits
#: in no layer (``paper_regen`` and ``dse_sweep``).
UNATTRIBUTED_LIMIT = 0.10


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def ledger_layers(info: Dict[str, Any], workload: str) -> Dict[str, float]:
    """Per-layer numbers from a traced run's spans and program counters.

    Seconds and counts are per operation (``paper_regen``: one cold+warm
    pair; ``dse_sweep``: one network, cold sweep plus warm replay).
    """
    spans, ops = info["spans"], info["ops"]
    per_op = 1.0 / len(ops)
    selfs = ledger_mod.self_times(spans, ops)
    out = {metric: selfs.get(layer, 0.0) * per_op for metric, layer in LAYER_SECONDS.items()}
    out["experiments.verify_s"] = ledger_mod.inclusive_time(spans, "experiments:verify", ops) * per_op
    if "import_s" in info:
        out["import.s"] = info["import_s"]
    else:
        imports = [row for row in spans if row[ledger_mod.NAME] == "import"]
        out["import.s"] = sum(r[ledger_mod.END] - r[ledger_mod.START] for r in imports) / len(imports)
    counters = info["counters"]
    count_scale = 1.0 / info.get("counter_ops", len(ops))
    hits = sum(
        value for series, value in counters.items()
        if series.startswith("cache.lookups{") and "outcome=hit" in series
    )
    lookups = counters.get("cache.lookups", 0.0)
    out.update({
        "kernels.calls": counters.get("kernels.calls", 0.0) * count_scale,
        "dataflow.networks_mapped": counters.get("mapper.networks_mapped", 0.0) * count_scale,
        "dataflow.memo_hit_ratio": _ratio(
            counters.get("mapper.network_cache{outcome=hit}", 0.0),
            counters.get("mapper.network_cache", 0.0),
        ),
        "cache.writes": counters.get("cache.writes", 0.0) * count_scale,
        "cache.hit_ratio": _ratio(hits, lookups),
        "cache.mem_hit_ratio": _ratio(counters.get("cache.memo_hits", 0.0), lookups),
    })
    total = sum(selfs.values())
    out["unattributed_s"] = selfs.get("op", 0.0) * per_op
    out["unattributed_share"] = _ratio(selfs.get("op", 0.0), total)
    out["tracing_overhead_share"] = _ratio(
        common.median(info["traced_op_s"]), common.median(info["plain_op_s"])
    ) - 1.0
    _print_ledger(workload, selfs, total, len(ops))
    return out


def _print_ledger(workload: str, selfs: Dict[str, float], total: float, ops: int) -> None:
    print(f"ledger {workload}: self seconds per operation over {ops} traced operations")
    for layer, seconds in sorted(selfs.items(), key=lambda item: -item[1]):
        name = "unattributed" if layer == "op" else layer
        print(f"  {name:<16} {seconds / ops:10.6f} s  {seconds / total:7.1%}")
    print(f"  {'total':<16} {total / ops:10.6f} s  (sum of self times = operation time)")


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> Dict[str, Any]:
    if workload == "paper_regen":
        import paper_regen as module
    elif workload == "dse_sweep":
        import dse_sweep as module
    else:
        import serve_mixed as module
    return module.run(seed, seconds, trace)


def per_layer(
    workload: str, seed: int, result: Dict[str, Any], names: Dict[str, str]
) -> Dict[str, float]:
    """Every per-layer metric; 0 where the workload does not reach a layer."""
    values = {name: 0.0 for name in names}
    if "ledger" in result:
        info = result["ledger"]
        values.update(ledger_layers(info, workload))
        events = ledger_mod.chrome_events(info["spans"])
        path = common.write_trace(f"{workload}-seed{seed}", events)
        print(f"wrote {path.relative_to(common.ROOT)} ({len(events)} spans)")
        if values["unattributed_share"] > UNATTRIBUTED_LIMIT:
            raise common.BenchError(
                f"ledger does not close: {values['unattributed_share']:.1%} of"
                f" operation time is unattributed (limit {UNATTRIBUTED_LIMIT:.0%})"
            )
    else:
        values.update(result["layers"])
    return values


def per_layer_units() -> Dict[str, str]:
    with open(common.ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return {entry["name"]: entry["unit"] for entry in json.load(handle)["per_layer"]}


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--program", type=Path, default=common.ROOT,
        help="source checkout whose src/ is measured (default: this one)",
    )
    args = parser.parse_args(argv)
    try:
        common.require_program(args.program)
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
        print(json.dumps({"environment": common.environment_record(
            result["backend"], result["cache_root"])}))
        print(json.dumps({"machine": result["machine"]}))
        if "raw" in result:
            # Times are at the reference machine speed (speed.py); these
            # are the medians as the wall clock read them.
            print(json.dumps({"raw_medians": result["raw"]}))
        print(json.dumps({"samples": result["samples"]}))
        if "mix" in result:
            print(json.dumps({"mix": result["mix"]}))
        if args.trace:
            units = per_layer_units()
            values = per_layer(args.workload, args.seed, result, units)
            metrics = {name: common.metric(values[name], units[name]) for name in units}
        else:
            metrics = result["metrics"]
    except (common.BenchError, OSError, ValueError, KeyError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Repeat the benchmark and judge a change against its parent.

Run one workload K times on consecutive seeds, keep every result line,
and print each metric's median, quartiles and relative spread (the
distance between the quartiles over the median)::

    python3 perfbench/steady.py run --workload dse_sweep --runs 10 --out set.jsonl

Print the same summary for a file again::

    python3 perfbench/steady.py summary set.jsonl

Measure a parent and a change checkout in pairs, with this benchmark's
code for both: for each seed the two run back to back, and which side
runs first alternates from pair to pair (parent first, then change first)::

    python3 perfbench/steady.py pair --workload dse_sweep --parent ../parent \\
        --change . --runs 10 --out pairs.jsonl

Judge the pairs (``compare`` reads only files ``pair`` wrote)::

    python3 perfbench/steady.py compare pairs.jsonl

For every workload and end-to-end metric, ``compare`` reports

* ``regression`` when the change's median is worse than the parent's by
  more than the metric's bound in ``BENCHMARK.json``;
* ``unresolved`` when the parent's own spread is wider than the bound,
  unless every change run is better than every parent run;
* ``gain`` when, over at least ten pairs, the change wins at least nine
  tenths of them (ties count for neither) and the medians differ by more
  than the parent's quartile distance;
* ``unchanged`` otherwise.

A gain must also hold on the held-out seed in ``pins.json``, which no
tuning run uses; ``compare`` says whether the pairs include it.  Exits 1
when any regression is found, 2 when the file holds anything but
alternating pairs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Tuple

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402


def load_benchmark() -> Dict[str, Any]:
    with open(common.ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: List[float]) -> float:
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else 0.0


def read_set(path: str) -> List[Dict[str, Any]]:
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def by_workload(records: List[Dict[str, Any]]) -> Dict[str, List[Dict[str, Any]]]:
    grouped: Dict[str, List[Dict[str, Any]]] = {}
    for record in records:
        grouped.setdefault(record["workload"], []).append(record)
    return grouped


def summarize(records: List[Dict[str, Any]]) -> None:
    bounds = {m["name"]: m.get("bound") for m in load_benchmark()["end_to_end"]}
    for workload, runs in by_workload(records).items():
        failed = sum(run["result"]["failed"] for run in runs)
        attempted = sum(run["result"]["attempted"] for run in runs)
        print(f"{workload}: {len(runs)} runs, {failed} of {attempted} operations failed")
        names = runs[0]["result"]["metrics"].keys()
        for name in names:
            values = [run["result"]["metrics"][name]["value"] for run in runs]
            unit = runs[0]["result"]["metrics"][name]["unit"]
            q1, q2, q3 = quartiles(values)
            rel = spread(values)
            bound = bounds.get(name)
            flag = ""
            if bound is not None:
                flag = "  OVER BOUND" if rel > bound else ("  over bound/3" if rel > bound / 3 else "")
            counts = ""
            if name in runs[0].get("samples", {}):
                info = runs[0]["samples"][name]
                counts = f"  n={info['samples']}" + (
                    f" at p{info['percentile']:g}" if "percentile" in info else ""
                )
            print(f"  {name:<28} median {q2:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g}"
                  f" spread {rel:6.1%}  {unit}{flag}{counts}")


def run_once(
    workload: str, seed: int, seconds: int, trace: int, program: Path
) -> Dict[str, Any]:
    """One benchmark run; its result line plus the side lines before it."""
    cmd = [sys.executable, str(common.BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--program", str(program)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=common.ROOT)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise common.BenchError(f"{workload} seed={seed} exited {proc.returncode}")
    lines = [json.loads(line) for line in proc.stdout.strip().splitlines() if line.startswith("{")]
    record = {"workload": workload, "seed": seed, "trace": trace, "result": lines[-1]}
    for line in lines[:-1]:
        for key in ("machine", "raw_medians", "samples", "mix"):
            if key in line:
                record[key] = line[key]
    return record


def append(path: Path, record: Dict[str, Any]) -> None:
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(json.dumps(record) + "\n")


def run_set(args: argparse.Namespace) -> int:
    records = []
    for offset in range(args.runs):
        record = run_once(args.workload, args.seed + offset, args.seconds, args.trace, common.ROOT)
        append(Path(args.out), record)
        records.append(record)
        print(f"seed {record['seed']} done", file=sys.stderr)
    summarize(records)
    return 0


def run_pairs(args: argparse.Namespace) -> int:
    sides = {"parent": Path(args.parent).resolve(), "change": Path(args.change).resolve()}
    for index in range(args.runs):
        seed = args.seed + index
        order = ("parent", "change") if index % 2 == 0 else ("change", "parent")
        for side in order:
            record = run_once(args.workload, seed, args.seconds, 0, sides[side])
            record.update(side=side, pair=index, first=order[0])
            append(Path(args.out), record)
        print(f"pair {index} (seed {seed}, {order[0]} first) done", file=sys.stderr)
    return 0


def compare(path: str) -> int:
    benchmark = load_benchmark()
    held_out = common.load_pins()["held_out_seed"]
    records = read_set(path)
    if not records or any("pair" not in record for record in records):
        print("compare reads only result sets written by `steady.py pair`", file=sys.stderr)
        return 2
    regressions = 0
    for workload, runs in sorted(by_workload(records).items()):
        pairs: Dict[int, Dict[str, Dict[str, Any]]] = {}
        firsts: Dict[int, str] = {}
        for run in runs:
            pairs.setdefault(run["pair"], {})[run["side"]] = run["result"]
            firsts[run["pair"]] = run["first"]
        pairs = {key: sides for key, sides in pairs.items() if len(sides) == 2}
        parent_first = sum(firsts[key] == "parent" for key in pairs)
        if abs(2 * parent_first - len(pairs)) > 1:
            print(f"{workload}: {parent_first} of {len(pairs)} pairs ran the parent"
                  " first; the order must alternate", file=sys.stderr)
            return 2
        seeds = {run["seed"] for run in runs}
        print(f"{workload}: {len(pairs)} pairs, {parent_first} parent-first;"
              f" held-out seed {held_out} {'included' if held_out in seeds else 'NOT included'}")
        for entry in benchmark["end_to_end"]:
            name, bound = entry["name"], entry["bound"]
            lower = entry["better"] == "lower"
            pv = [sides["parent"]["metrics"][name]["value"] for sides in pairs.values()]
            cv = [sides["change"]["metrics"][name]["value"] for sides in pairs.values()]
            p1, pm, p3 = quartiles(pv)
            c1, cm, c3 = quartiles(cv)
            worse = (cm - pm) / pm if lower else (pm - cm) / pm
            better_all = max(cv) < min(pv) if lower else min(cv) > max(pv)
            wins = sum((c < p) if lower else (c > p) for p, c in zip(pv, cv))
            if worse > bound:
                verdict = "regression"
                regressions += 1
            elif spread(pv) > bound and not better_all:
                verdict = "unresolved"
            elif len(pairs) >= 10 and wins >= 0.9 * len(pairs) and abs(cm - pm) > (p3 - p1):
                verdict = f"gain ({cm / pm:.3f}x of parent {pm:.6g})"
            else:
                verdict = "unchanged"
            print(f"  {name:<14} parent {pm:<12.6g} [{p1:.6g}, {p3:.6g}]"
                  f"  change {cm:<12.6g} [{c1:.6g}, {c3:.6g}]"
                  f"  wins {wins}/{len(pairs)}  {verdict}")
    return 1 if regressions else 0


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    run_cmd = sub.add_parser("run", help="run one workload K times on consecutive seeds")
    pair_cmd = sub.add_parser("pair", help="run a parent and a change in alternating pairs")
    for cmd in (run_cmd, pair_cmd):
        cmd.add_argument("--workload", required=True)
        cmd.add_argument("--runs", type=int, default=10)
        cmd.add_argument("--seed", type=int, default=1, help="first seed")
        cmd.add_argument("--seconds", type=int, default=load_benchmark()["run_seconds"])
        cmd.add_argument("--out", required=True, help="result set (JSON lines, appended)")
    run_cmd.add_argument("--trace", type=int, choices=(0, 1), default=0)
    pair_cmd.add_argument("--parent", required=True, help="the parent's source checkout")
    pair_cmd.add_argument("--change", required=True, help="the change's source checkout")
    summary_cmd = sub.add_parser("summary", help="summarize a result set")
    summary_cmd.add_argument("path")
    compare_cmd = sub.add_parser("compare", help="judge a change against its parent")
    compare_cmd.add_argument("pairs", help="a result set written by `pair`")
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return run_set(args)
        if args.command == "pair":
            return run_pairs(args)
    except common.BenchError as exc:
        print(f"steady: {exc}", file=sys.stderr)
        return 1
    if args.command == "summary":
        summarize(read_set(args.path))
        return 0
    return compare(args.pairs)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

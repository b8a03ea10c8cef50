"""Workload ``serve_mixed``: the DSE service under a request mix.

Set-up boots ``repro serve --jobs 1`` on a fresh cache root through
``repro.serve.loadtest.start_server`` and prefills a hot key set, so the
hot path holds every hot key.  This process is the client, over
keep-alive connections (``ServeClient``).  The request classes:

* ``hot`` -- Zipf repeats over the hot set (memory tier and hot path);
* ``cold`` -- singletons on fresh inline synthetic networks, spread over
  ``simulate``, ``map`` and ``dse_per_layer``;
* ``sweep`` -- ``/v1/sweep`` requests whose compatible points the
  batcher fuses;
* ``dup`` -- exact duplicates sent on two connections at once, for the
  coalescer.

Untraced runs serve the mix one unit at a time (a request, or a
duplicate pair sent on two connections at once) with a machine-speed
probe before each unit and after the last, while nothing is in flight,
and report every unit's time at the reference speed (``speed.py``).
Open-loop figures moved too much with the host's speed to gate on
(README), so traced runs measure them: a seeded Poisson schedule at a
reference rate, then a rate ladder, each request timed from the moment
it was due.  A rung counts toward ``serve.max_ok_rps`` only when every
request succeeded, p99 is within the limit, the generator was not late
beyond the limit and its backlog of due-but-unsent requests did not
grow.

The class shares, the Zipf exponent and the hot-set size are assumptions:
nothing in the repository records real traffic.  Untraced runs print
per-class latencies and what the end-to-end numbers would read under
other hot shares (:func:`mix_what_if`), so the dependence is visible.
"""

from __future__ import annotations

import gc
import itertools
import json
import math
import os
import random
import statistics
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402
import speed  # noqa: E402

#: Assumed, not measured (see the module docstring and the README).
HOT_KEYS = 48
ZIPF_S = 1.1
SHARES = (("hot", 0.80), ("cold", 0.12), ("sweep", 0.05), ("dup", 0.03))
#: Hot shares :func:`mix_what_if` re-weighs the measured run to.
WHAT_IF_HOT = (0.6, 0.7, 0.9)
COLD_KINDS = ("simulate", "map", "dse_per_layer")
SWEEP_POINTS = 4
#: The architectures the service simulates (`serve.schemas` accepts these).
ARCHS = ("systolic", "mapping2d", "tiling", "flexflow")
DIMS = (8, 12, 16, 24, 32, 48)
#: Traced runs: requests per second, the reference rate first, then the
#: ladder, which stops at the first rung that fails.
RATES = (50, 400, 550, 700, 850, 1000, 1250, 1600)
#: Shares of ``--seconds`` spent at the reference rate and on each
#: ladder rung.
REFERENCE_SHARE = 0.7
RUNG_SHARE = 0.1
#: Untraced runs: units are dealt this many at a time, and the server's
#: peak memory is read after a fixed number of them.
UNIT_BLOCK = 200
RSS_AFTER_UNITS = 1000
#: The p99 limit a rung must meet.  At low load this mix's p99 is
#: 20-55 ms on a 2-vCPU sandbox (sweeps and the requests queued behind
#: them), so a 50 ms limit would sit on the flat part of the p99 curve
#: and the ladder would stop at random; 100 ms sits where queueing
#: makes p99 climb steeply.
P99_LIMIT_MS = 100.0
REQUEST_TIMEOUT_S = 10.0
SETUP_REPEATS = 5
#: Computed responses per class checked against an in-process run.
CHECK_SAMPLES = {"cold": 12, "sweep": 3, "dup": 3}


@dataclass
class Event:
    due: float
    cls: str
    kind: str
    body: bytes
    start: float = 0.0
    end: float = 0.0
    ok: bool = False
    raw: bytes = b""


@dataclass
class Rung:
    rate: float
    events: List[Event]
    reference: bool


# -- inputs ---------------------------------------------------------------------


class Inputs:
    """Every request body of a run, drawn from the seed."""

    def __init__(self, seed: int) -> None:
        from repro.nn.netdesc import to_description
        from repro.nn.synth import SynthSpec, random_network

        # Mid-size networks: a cold answer costs a few milliseconds, so
        # the reference-rate tail sits well under the p99 limit and the
        # ladder finds the knee where queueing, not one request, breaks it.
        self._spec = SynthSpec(max_conv_layers=6, max_input_size=96, max_maps=128)
        self._random_network = random_network
        self._to_description = to_description
        self.seed = seed
        self._next_network = 0
        self.rng = random.Random(seed)
        self._cold_kinds = itertools.cycle(COLD_KINDS)
        self.hot: List[Tuple[str, bytes]] = []
        for _ in range(HOT_KEYS):
            body = {
                "network": self.network_source(),
                "dim": self.rng.choice(DIMS),
                "arch": self.rng.choice(ARCHS),
            }
            self.hot.append(("simulate", encode(body)))
        # One cold request per kind and one sweep: set-up sends them so
        # each kind's first-use cost in the worker is paid before timing.
        self.warmup = [self.cold_request(kind) for kind in COLD_KINDS]
        self.warmup.append(self.sweep_request())
        weights = [1.0 / (rank + 1) ** ZIPF_S for rank in range(HOT_KEYS)]
        total = sum(weights)
        self.hot_weights = [w / total for w in weights]

    def network_source(self) -> str:
        index = self._next_network
        self._next_network += 1
        network = self._random_network(self.seed * 1_000_003 + 500_000 + index, self._spec)
        return self._to_description(network)

    def cold_request(self, kind: Optional[str] = None) -> Tuple[str, bytes]:
        # Kinds in turn, not drawn: their costs differ, and a drawn mix
        # would move the cold median from seed to seed.
        kind = kind or next(self._cold_kinds)
        body: Dict[str, Any] = {"network": self.network_source(), "dim": self.rng.choice(DIMS)}
        if kind == "simulate":
            body["arch"] = self.rng.choice(ARCHS)
        return kind, encode(body)

    def sweep_request(self) -> Tuple[str, bytes]:
        source = self.network_source()
        arch = self.rng.choice(ARCHS)
        first = self.rng.randint(4, 40)
        points = [
            {"kind": "simulate", "network": source, "dim": first + step, "arch": arch}
            for step in range(SWEEP_POINTS)
        ]
        return "sweep", encode({"points": points})

    def deal(self, count: int) -> List[Tuple[str, str, bytes]]:
        """``count`` units of the mix as ``(class, kind, body)``.

        Classes are dealt in their exact shares, in a seeded random
        order: the few heavy requests set the tail, so their count must
        not vary from seed to seed.  A ``dup`` unit is sent twice.
        """
        classes = [name for name, share in SHARES for _ in range(round(share * count))]
        classes += ["hot"] * (count - len(classes))
        self.rng.shuffle(classes)
        units = []
        for cls in classes:
            if cls == "hot":
                kind, body = self.rng.choices(self.hot, self.hot_weights)[0]
            elif cls == "sweep":
                kind, body = self.sweep_request()
            else:
                kind, body = self.cold_request()
            units.append((cls, kind, body))
        return units

    def schedule(self, rate: float, seconds: float) -> List[Event]:
        """``round(rate * seconds)`` Poisson arrivals at ``rate``."""
        arrivals: List[float] = []
        due = 0.0
        for _ in range(round(rate * seconds)):
            due += self.rng.expovariate(rate)
            arrivals.append(due)
        events: List[Event] = []
        for due, (cls, kind, body) in zip(arrivals, self.deal(len(arrivals))):
            events.append(Event(due, cls, kind, body))
            if cls == "dup":
                events.append(Event(due, cls, kind, body))
        return events


def encode(body: Dict[str, Any]) -> bytes:
    return json.dumps(body).encode("utf-8")


# -- the open-loop generator ------------------------------------------------------


def send(client, event: Event, origin: float) -> None:
    """One request; ``start`` and ``end`` are seconds after ``origin``."""
    event.start = time.perf_counter() - origin
    try:
        event.raw = client.compute_raw(event.kind, event.body)
        event.ok = True
    except Exception:  # any failure counts against the run
        client.close()
    event.end = time.perf_counter() - origin


def drive(host: str, port: int, events: List[Event], connections: int) -> None:
    """Send the events open-loop; times are from the schedule start.

    Each connection thread takes the next unsent event in due order and
    waits until it is due; when every connection is busy, due events
    queue here (the backlog) and their latency keeps counting.
    """
    from repro.serve.loadtest import ServeClient

    lock = threading.Lock()
    cursor = [0]
    origin = time.perf_counter() + 0.05

    def sender() -> None:
        client = ServeClient(host, port, timeout=REQUEST_TIMEOUT_S)
        try:
            while True:
                with lock:
                    index = cursor[0]
                    if index >= len(events):
                        return
                    cursor[0] += 1
                event = events[index]
                delay = origin + event.due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                send(client, event, origin)
        finally:
            client.close()

    threads = [threading.Thread(target=sender) for _ in range(connections)]
    # The generator's own collector pauses would read as server latency.
    gc.disable()
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    finally:
        gc.enable()


def backlog(events: List[Event]) -> Tuple[float, float, int]:
    """Time-weighted mean due-but-unsent count in each half, and the max."""
    marks = sorted(
        [(event.due, 1) for event in events] + [(event.start, -1) for event in events],
        key=lambda mark: (mark[0], -mark[1]),
    )
    half = marks[-1][0] / 2
    area = [0.0, 0.0]
    depth = peak = 0
    last = 0.0
    for when, step in marks:
        if last < half:
            area[0] += depth * (min(when, half) - last)
            area[1] += depth * max(when - half, 0.0)
        else:
            area[1] += depth * (when - last)
        depth += step
        peak = max(peak, depth)
        last = when
    return area[0] / half, area[1] / half, peak


def rung_summary(rung: Rung) -> Dict[str, Any]:
    events = rung.events
    failed = sum(not event.ok for event in events)
    latency = [(event.end - event.due) * 1e3 for event in events if event.ok]
    late = [(event.start - event.due) * 1e3 for event in events]
    first_half, second_half, peak = backlog(events)
    span = max(event.end for event in events) - events[0].due
    p99 = common.percentile(latency, 0.99) if latency else float("inf")
    late_p99 = common.percentile(late, 0.99)
    # A backlog that keeps growing adds a whole limit's worth of arrivals
    # to its mean from the first half of the rung to the second; bursts
    # of a steady rung come and go well below that.
    growth = second_half - first_half
    grew = growth > rung.rate * P99_LIMIT_MS / 1e3
    ok = failed == 0 and p99 <= P99_LIMIT_MS and late_p99 <= P99_LIMIT_MS and not grew
    return {
        "rate": rung.rate, "requests": len(events), "failed": failed,
        "achieved_rps": len(events) / span, "p99_ms": p99,
        "late_p99_ms": late_p99, "backlog_max": peak,
        "backlog_growth": growth, "backlog_grew": grew, "ok": ok,
    }


def max_ok_rps(summaries: List[Dict[str, Any]]) -> float:
    """The highest rate that met the limits, interpolated between rungs.

    When the first failing rung's p99 broke the limit (and every request
    succeeded), the rate where p99 crosses the limit is interpolated
    between it and the last passing rung (log p99 against log rate), so
    one rung's tail noise moves the result by a fraction of a step, not
    a whole step.
    """
    passing = [index for index, summary in enumerate(summaries) if summary["ok"]]
    if not passing:
        return 0.0
    last = summaries[passing[-1]]
    if passing[-1] + 1 < len(summaries):
        nxt = summaries[passing[-1] + 1]
        if nxt["failed"] == 0 and nxt["p99_ms"] > max(P99_LIMIT_MS, last["p99_ms"]):
            share = math.log(P99_LIMIT_MS / last["p99_ms"]) / math.log(nxt["p99_ms"] / last["p99_ms"])
            return last["achieved_rps"] * (nxt["achieved_rps"] / last["achieved_rps"]) ** min(share, 1.0)
    return last["achieved_rps"]


# -- one unit at a time -----------------------------------------------------------


def serve_units(
    inputs: Inputs, client, second, seconds: float, pid: int
) -> Tuple[List[List[Event]], List[float], List[float], float]:
    """Serve the mix one unit at a time for ``seconds``.

    A machine-speed probe runs before each unit and after the last, when
    no request is in flight.  A ``dup`` unit sends its two requests at
    once, on ``client`` and ``second``.  Returns the units, their wall
    times, the probes and the server's peak memory after
    ``RSS_AFTER_UNITS`` units (or at the end, if fewer ran).
    """
    units: List[List[Event]] = []
    times: List[float] = []
    probes: List[float] = []
    rss = 0.0
    origin = time.perf_counter()
    # The client's own collector pauses would read as server time.
    gc.disable()
    try:
        while time.perf_counter() - origin < seconds:
            for cls, kind, body in inputs.deal(UNIT_BLOCK):
                unit = [Event(0.0, cls, kind, body) for _ in range(2 if cls == "dup" else 1)]
                probes.append(speed.probe_s())
                started = time.perf_counter()
                if len(unit) == 2:
                    helper = threading.Thread(target=send, args=(second, unit[1], origin))
                    helper.start()
                    send(client, unit[0], origin)
                    helper.join()
                else:
                    send(client, unit[0], origin)
                times.append(time.perf_counter() - started)
                units.append(unit)
                if len(units) == RSS_AFTER_UNITS:
                    rss = server_rss_mb(pid)
                if time.perf_counter() - origin >= seconds:
                    break
        probes.append(speed.probe_s())
    finally:
        gc.enable()
    return units, times, probes, rss or server_rss_mb(pid)


# -- set-up ---------------------------------------------------------------------


def boot(inputs: Inputs, cache_dir: Path):
    """Boot a server, answer a first cold request of every class, and
    prefill the hot set.

    Returns ``(proc, client, first_answers, seconds)``; every hot body is
    sent twice so its second (cache-hit) answer lands on the hot path.
    """
    from repro.serve.loadtest import start_server

    started = time.perf_counter()
    proc, client = start_server(jobs=1, env=common.program_env(cache_dir))
    first: Dict[bytes, Any] = {}
    try:
        for kind, body in inputs.warmup:
            client.compute_raw(kind, body)
        for _, body in inputs.hot:
            first[body] = json.loads(client.compute_raw("simulate", body))["result"]
        for _, body in inputs.hot:
            client.compute_raw("simulate", body)
    except Exception:
        stop(proc, client)
        raise
    return proc, client, first, time.perf_counter() - started


def probe_import_s(tmp: Path) -> float:
    """Seconds a fresh interpreter takes to import what ``repro serve`` loads."""
    cmd = common.python_cmd("probe.py", "repro.cli", "repro.serve.app")
    return common.run_child(cmd, common.program_env(tmp), 60.0)["import_s"]


def stop(proc, client) -> None:
    """Stop the server, and wait until it and its workers have ended."""
    workers = common.proc_children(proc.pid)
    client.close()
    proc.terminate()
    try:
        proc.wait(timeout=30)
    except Exception:
        proc.kill()
        proc.wait(timeout=30)
    common.wait_gone(workers, 30.0)
    if proc.stdout is not None:
        proc.stdout.close()


def server_rss_mb(pid: int) -> float:
    return common.proc_peak_rss_mb(pid) + sum(
        common.proc_peak_rss_mb(child) for child in common.proc_children(pid)
    )


# -- checks ---------------------------------------------------------------------


def check_outputs(rungs: List[Rung], first: Dict[bytes, Any]) -> Tuple[int, int, List[float], List[float]]:
    """Hot answers against first answers; sampled computed answers
    against in-process ``execute_request`` with the cache off.

    Returns ``(checked, wrong, served_ms, inprocess_ms)``, the last two
    for the sampled reference-rate cold requests.
    """
    from repro.serve.compute import execute_request
    from repro.serve.schemas import parse_request

    checked = wrong = 0
    for rung in rungs:
        for event in rung.events:
            if event.ok and event.cls == "hot":
                checked += 1
                wrong += json.loads(event.raw)["result"] != first[event.body]

    def recompute(kind: str, body: Dict[str, Any]) -> Tuple[Any, float]:
        request = parse_request(kind, body)
        started = time.perf_counter()
        result = execute_request(request.kind, request.spec)
        elapsed = time.perf_counter() - started
        return json.loads(json.dumps(result)), elapsed

    # Warm the in-process kernels and imports before timing anything.
    recompute("simulate", json.loads(next(iter(first))))
    served_ms: List[float] = []
    inprocess_ms: List[float] = []
    taken = {cls: 0 for cls in CHECK_SAMPLES}
    dup_answers: Dict[bytes, List[bytes]] = {}
    for rung in rungs:
        for event in rung.events:
            if not event.ok or event.cls == "hot":
                continue
            if event.cls == "dup":
                dup_answers.setdefault(event.body, []).append(event.raw)
            if taken[event.cls] >= CHECK_SAMPLES[event.cls]:
                continue
            taken[event.cls] += 1
            checked += 1
            body = json.loads(event.body)
            served = json.loads(event.raw)
            if event.kind == "sweep":
                expected = [recompute(point["kind"], point)[0] for point in body["points"]]
                got = [point.get("result") for point in served["points"]]
            else:
                expected, elapsed = recompute(event.kind, body)
                got = served["result"]
                if event.cls == "cold" and rung.reference:
                    served_ms.append((event.end - event.start) * 1e3)
                    inprocess_ms.append(elapsed * 1e3)
            wrong += expected != got
    for answers in dup_answers.values():
        checked += 1
        wrong += any(
            json.loads(raw)["result"] != json.loads(answers[0])["result"]
            for raw in answers[1:]
        )
    return checked, wrong, served_ms, inprocess_ms


# -- the run ----------------------------------------------------------------------


def metric_total(snapshot: Dict[str, Any], name: str) -> float:
    from repro.serve.loadtest import metric_total as total

    return total(
        {k: v for k, v in snapshot.items() if isinstance(v, (int, float))}, name
    )


def weighted_percentile(samples: List[Tuple[float, float]], fraction: float) -> float:
    """Percentile of ``(value, weight)`` samples: the first value whose
    cumulative weight reaches ``fraction`` of the total."""
    ordered = sorted(samples)
    goal = fraction * sum(weight for _, weight in ordered)
    running = 0.0
    for value, weight in ordered:
        running += weight
        if running >= goal:
            return value
    return ordered[-1][0]


def mix_ops_per_s(medians_ms: Dict[str, float], shares: Dict[str, float]) -> float:
    """Requests per second one connection serves, one unit at a time,
    for a mix with these class shares and per-class median unit times.
    A ``dup`` unit is two requests."""
    requests = sum(share * (2 if cls == "dup" else 1) for cls, share in shares.items())
    unit_ms = sum(share * medians_ms[cls] for cls, share in shares.items())
    return requests / unit_ms * 1e3


def mix_what_if(
    unit_ms: Dict[str, List[float]], medians_ms: Dict[str, float], tail_fraction: float
) -> Dict[str, Dict[str, float]]:
    """``tail_ms`` and ``ops_per_s`` re-weighed to other hot shares.

    The other classes keep their relative shares.  ``ops_per_s`` follows
    exactly from the class medians; ``tail_ms`` re-weighs the measured
    unit times by class (at the measured tail's percentile).  The first
    entry is the mix as run.  Units are served one at a time, so the
    shares do not change how long a unit waits.
    """
    shares = dict(SHARES)
    out: Dict[str, Dict[str, float]] = {}
    for hot in (shares["hot"],) + WHAT_IF_HOT:
        scale = (1.0 - hot) / (1.0 - shares["hot"])
        mix = {cls: hot if cls == "hot" else share * scale for cls, share in shares.items()}
        weighted = [
            (ms, mix[cls] / shares[cls]) for cls, values in unit_ms.items() for ms in values
        ]
        out[f"hot={hot:g}"] = {
            "tail_ms": weighted_percentile(weighted, tail_fraction),
            "ops_per_s": mix_ops_per_s(medians_ms, mix),
        }
    return out


def class_stats(values: List[float]) -> Dict[str, float]:
    stats = {"samples": len(values), "p50_ms": common.median(values)}
    # A tail only where p90 or higher has ten samples beyond it.
    if len(values) >= 10 * common.TAIL_BEYOND:
        tail = common.tail(values, 0.99)
        stats.update(tail_ms=tail["value"], tail_percentile=tail["percentile"])
    return stats


def unit_metrics(
    units: List[List[Event]], times: List[float], probes: List[float], rss: float,
) -> Tuple[Dict[str, Any], Dict[str, Any], Dict[str, Any]]:
    """End-to-end metrics of the one-at-a-time pass, at the reference
    speed: ``(metrics, samples, mix)``."""
    scaled_ms = [t * 1e3 for t in speed.nominal_series(times, probes)]
    unit_ms: Dict[str, List[float]] = {cls: [] for cls, _ in SHARES}
    cold_ms: Dict[str, List[float]] = {kind: [] for kind in COLD_KINDS}
    for unit, ms in zip(units, scaled_ms):
        if all(event.ok for event in unit):
            unit_ms[unit[0].cls].append(ms)
            if unit[0].cls == "cold":
                cold_ms[unit[0].kind].append(ms)
    medians_ms = {cls: common.median(values) for cls, values in unit_ms.items()}
    # The three cold kinds cost about 5, 7 and 8 ms: the median of their
    # mixture falls between modes and jumps from run to run, the mean of
    # their medians does not.  Kinds take turns, so they weigh the same.
    cold_kind_ms = {kind: common.median(values) for kind, values in cold_ms.items()}
    medians_ms["cold"] = statistics.fmean(cold_kind_ms.values())
    tail = common.tail([ms for values in unit_ms.values() for ms in values], 0.99)
    metrics = {
        "cold_s": common.metric(medians_ms["cold"] / 1e3, "s"),
        "warm_s": common.metric(medians_ms["hot"] / 1e3, "s"),
        "ops_per_s": common.metric(mix_ops_per_s(medians_ms, dict(SHARES)), "1/s"),
        "tail_ms": common.metric(tail["value"], "ms"),
        "peak_rss_mb": common.metric(rss, "MB"),
    }
    samples = {
        "cold_s": {"samples": len(unit_ms["cold"])},
        "warm_s": {"samples": len(unit_ms["hot"])},
        "ops_per_s": {
            "samples": sum(len(values) for values in unit_ms.values()),
            "per_class": {cls: len(values) for cls, values in unit_ms.items()},
        },
        "tail_ms": {k: tail[k] for k in ("percentile", "samples", "beyond")},
    }
    mix = {
        "shares": dict(SHARES),
        "units": {cls: class_stats(values) for cls, values in unit_ms.items()},
        "cold_kind_p50_ms": cold_kind_ms,
        "raw_p50_ms": {
            cls: common.median([t * 1e3 for unit, t in zip(units, times) if unit[0].cls == cls])
            for cls, _ in SHARES
        },
        "what_if": mix_what_if(unit_ms, medians_ms, tail["percentile"] / 100),
    }
    return metrics, samples, mix


def open_loop(inputs: Inputs, client, seconds: float, pid: int) -> Tuple[List[Rung], float]:
    """The reference rate, then the ladder up to its first failing rung.

    Returns the rungs and the server's peak memory after the reference
    schedule (a fixed point, unlike the ladder's end).
    """
    connections = max(1, min(2, os.cpu_count() or 1))
    rungs: List[Rung] = []
    rss = 0.0
    for position, rate in enumerate(RATES):
        reference = position == 0
        rung_seconds = seconds * (REFERENCE_SHARE if reference else RUNG_SHARE)
        rung = Rung(rate, inputs.schedule(rate, rung_seconds), reference)
        drive(client.host, client.port, rung.events, connections)
        rungs.append(rung)
        if reference:
            rss = server_rss_mb(pid)
        summary = rung_summary(rung)
        print(json.dumps({"rung": summary}))
        if not summary["ok"]:
            break
    return rungs, rss


def open_loop_layers(
    rungs: List[Rung], before: Dict[str, Any], after: Dict[str, Any],
    served_ms: List[float], inprocess_ms: List[float], import_s: float,
) -> Dict[str, float]:
    """Per-layer numbers of a traced run: the open loop, from the client
    side and from the server's ``/metrics`` deltas."""
    reference = rungs[0].events
    latency_ms = {
        cls: [(e.end - e.due) * 1e3 for e in reference if e.ok and e.cls == cls]
        for cls, _ in SHARES
    }
    everything = [ms for values in latency_ms.values() for ms in values]
    summaries = [rung_summary(rung) for rung in rungs]

    def delta(name: str) -> float:
        return metric_total(after, name) - metric_total(before, name)

    batch = after.get("serve.batch_size", {})
    batch_before = before.get("serve.batch_size", {})
    batches = batch.get("count", 0) - batch_before.get("count", 0)
    requests = sum(len(rung.events) for rung in rungs)
    return {
        "serve.hot_p50_ms": common.median(latency_ms["hot"]),
        "serve.cold_p50_ms": common.median(latency_ms["cold"]),
        "serve.sweep_p50_ms": common.median(latency_ms["sweep"]) if latency_ms["sweep"] else 0.0,
        "serve.p99_ms": common.tail(everything, 0.99)["value"],
        "serve.overhead_ms": (
            common.median(served_ms) - common.median(inprocess_ms) if served_ms else 0.0
        ),
        "serve.max_ok_rps": max_ok_rps(summaries),
        "serve.backend_computations": delta("serve.backend_computations"),
        "serve.batch_size_mean": (
            (batch.get("sum", 0) - batch_before.get("sum", 0)) / batches if batches else 0.0
        ),
        "serve.coalesced": delta("serve.coalesced"),
        "serve.hot_path_share": delta("serve.hot_path") / requests,
        "serve.shed": delta("serve.shed"),
        "serve.retries": delta("serve.retries"),
        "serve.worker_crashes": delta("serve.worker_crashes"),
        "kernels.load_s": metric_total(after, "serve.worker_warm_ms") / 1e3,
        "loadgen.late_p99_ms": summaries[0]["late_p99_ms"],
        "loadgen.backlog_max": summaries[0]["backlog_max"],
        "import.s": import_s,
        # Client-side only: no span inside the server is recorded.
        "unattributed_s": common.median(everything) / 1e3,
        "unattributed_share": 1.0,
        "tracing_overhead_share": 0.0,
    }


def run(seed: int, seconds: float, trace: bool) -> Dict[str, Any]:
    from repro.serve.loadtest import ServeClient

    inputs = Inputs(seed)
    setups: List[float] = []
    # Machine-speed probes while the server is down, for the record.
    probes: List[float] = []
    with common.scratch_dir("serve-") as tmp:
        # The client's own in-process checks run uncached.
        os.environ.update(REPRO_CACHE="off", REPRO_CACHE_DIR=str(tmp / "checks"), REPRO_CHAOS="off", TMPDIR=str(tmp))
        for index in range(SETUP_REPEATS):
            probes.append(speed.probe_s())
            cache_root = tmp / f"boot{index}"
            proc, client, first, elapsed = boot(inputs, cache_root)
            setups.append(elapsed)
            if index < SETUP_REPEATS - 1:
                stop(proc, client)
        second = ServeClient(client.host, client.port, timeout=REQUEST_TIMEOUT_S)
        try:
            metrics_before = client.metrics()
            if trace:
                rungs, rss = open_loop(inputs, client, seconds, proc.pid)
                checked_rungs = rungs
            else:
                # One CPU for the client, the server and its worker: a
                # unit keeps mostly one of them busy at a time, and the probes
                # then time the CPU the program runs on.
                own = os.sched_getaffinity(0)
                common.pin([os.getpid(), proc.pid, *common.proc_children(proc.pid)], {max(own)})
                try:
                    units, times, unit_probes, rss = serve_units(
                        inputs, client, second, seconds, proc.pid
                    )
                finally:
                    common.pin([os.getpid()], own)
                probes += unit_probes
                checked_rungs = [Rung(0.0, [e for unit in units for e in unit], False)]
            metrics_after = client.metrics()
            from repro.kernels import kernel_backend

            backend = kernel_backend()
        finally:
            second.close()
            stop(proc, client)
        common.check_backend(backend)
        checked, wrong, served_ms, inprocess_ms = check_outputs(checked_rungs, first)
        import_s = probe_import_s(tmp) if trace else 0.0

    sent = [event for rung in checked_rungs for event in rung.events]
    result: Dict[str, Any] = {
        "attempted": len(sent) + checked,
        "failed": sum(not event.ok for event in sent) + wrong,
        "backend": backend,
        "cache_root": str(cache_root),
        "machine": common.machine_record(probes),
        "samples": {"setup_s": {"samples": len(setups)}},
    }
    if trace:
        result["layers"] = open_loop_layers(
            rungs, metrics_before, metrics_after, served_ms, inprocess_ms, import_s
        )
        return result
    metrics, samples, mix = unit_metrics(units, times, unit_probes, rss)
    result["metrics"] = {"setup_s": common.metric(common.median(setups), "s"), **metrics}
    result["samples"].update(samples)
    result["mix"] = mix
    return result

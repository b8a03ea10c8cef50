"""Outside-in span ledger: wrap the program's public layer entry points.

The traced run records one span per call into each layer the benchmark
names, without changing program code: :meth:`Ledger.install` swaps the
public functions and methods below for timing wrappers (in every
``repro`` module that holds a reference), and :meth:`Ledger.uninstall`
puts the originals back.  Spans stay in memory as ``[name, start, end,
parent, op]`` rows and are written out as a Chrome trace at the end.

A layer's self time is its spans' duration minus the part their child
spans cover.  Each operation is one root span (``op:<kind>``); its self
time is the time no layer claimed, reported as ``unattributed``.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: (module, attribute, span name) for module-level functions.
FUNCTION_TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.kernels", "active_kernels", "kernels.load"),
    ("repro.experiments", "run_experiment", "experiments"),
    ("repro.dataflow.mapper", "map_network", "dataflow.map"),
    ("repro.dse.perlayer", "solve_per_layer", "dse.solve"),
)

#: (module, class, method, span name) for methods.
METHOD_TARGETS: Tuple[Tuple[str, str, str, str], ...] = (
    ("repro.accelerators.base", "Accelerator", "simulate_network", "accelerators"),
    ("repro.sim.flexflow_sim", "FlexFlowFunctionalSim", "run_layer", "sim.functional"),
    ("repro.sim.systolic_sim", "SystolicFunctionalSim", "run_layer", "sim.functional"),
    ("repro.sim.mapping2d_sim", "Mapping2DFunctionalSim", "run_layer", "sim.functional"),
    ("repro.sim.tiling_sim", "TilingFunctionalSim", "run_layer", "sim.functional"),
    ("repro.cache.store", "ResultCache", "get", "cache.get"),
    ("repro.cache.store", "ResultCache", "put", "cache.put"),
    ("repro.cache.store", "ResultCache", "drain", "cache.drain"),
)

#: Spans labelled by their first argument (``experiments:verify``).
LABELLED = frozenset({"experiments"})

NAME, START, END, PARENT, OP = range(5)


def layer_of(name: str) -> str:
    return name.split(":", 1)[0]


class Ledger:
    """In-memory spans of one process, recorded on its main thread only."""

    def __init__(self) -> None:
        self.spans: List[List[Any]] = []
        self.op = -1
        self._stack: List[int] = []
        self._thread = threading.get_ident()
        self._patches: List[Tuple[Any, str, Any, Any]] = []

    # -- recording -----------------------------------------------------------

    def begin(self, name: str, start: Optional[float] = None) -> int:
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        now = time.perf_counter() if start is None else start
        self.spans.append([name, now, now, parent, self.op])
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][END] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str) -> Iterator[int]:
        index = self.begin(name)
        try:
            yield index
        finally:
            self.end(index)

    @contextmanager
    def operation(self, op: int, kind: str) -> Iterator[int]:
        """One root span per timed operation; nested spans carry its id."""
        self.op = op
        with self.span(f"op:{kind}") as index:
            yield index

    def _wrap(self, name: str, fn: Callable) -> Callable:
        ledger = self
        labelled = name in LABELLED

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if threading.get_ident() != ledger._thread:
                return fn(*args, **kwargs)
            label = f"{name}:{args[0]}" if labelled and args else name
            index = ledger.begin(label)
            try:
                return fn(*args, **kwargs)
            finally:
                ledger.end(index)

        return wrapper

    # -- installing the wrappers ---------------------------------------------

    def install(self) -> None:
        """Wrap every target; the program must already be importable."""
        import importlib

        if self._patches:
            return
        for module_name, attr, name in FUNCTION_TARGETS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            wrapper = self._wrap(name, original)
            self._patches.append((None, attr, original, wrapper))
            _swap_references(original, wrapper)
        for module_name, cls_name, attr, name in METHOD_TARGETS:
            owner = getattr(importlib.import_module(module_name), cls_name)
            original = owner.__dict__[attr]
            wrapper = self._wrap(name, original)
            self._patches.append((owner, attr, original, wrapper))
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, wrapper in reversed(self._patches):
            if owner is None:
                _swap_references(wrapper, original)
            else:
                setattr(owner, attr, original)
        self._patches = []

    # -- analysis --------------------------------------------------------------

    def adopt(self, rows: List[List[Any]], root: int) -> None:
        """Append another process's spans under one of this ledger's spans."""
        offset = len(self.spans)
        op = self.spans[root][OP]
        for row in rows:
            parent = row[PARENT]
            self.spans.append(
                [row[NAME], row[START], row[END],
                 root if parent < 0 else parent + offset, op]
            )


def _swap_references(old: Any, new: Any) -> None:
    """Point every ``repro`` module attribute that is ``old`` at ``new``."""
    for module_name, module in list(sys.modules.items()):
        if module is None or not (
            module_name == "repro" or module_name.startswith("repro.")
        ):
            continue
        namespace = vars(module)
        for attr, value in list(namespace.items()):
            if value is old:
                namespace[attr] = new


def self_times(spans: List[List[Any]], ops: Optional[set] = None) -> Dict[str, float]:
    """Per-layer self seconds over the spans of the chosen operations."""
    covered = [0.0] * len(spans)
    for row in spans:
        if row[PARENT] >= 0:
            covered[row[PARENT]] += row[END] - row[START]
    totals: Dict[str, float] = {}
    for index, row in enumerate(spans):
        if ops is not None and row[OP] not in ops:
            continue
        layer = layer_of(row[NAME])
        totals[layer] = totals.get(layer, 0.0) + (
            row[END] - row[START] - covered[index]
        )
    return totals


def inclusive_time(spans: List[List[Any]], name: str, ops: Optional[set] = None) -> float:
    """Summed duration of spans named exactly ``name`` (outermost only)."""
    total = 0.0
    for row in spans:
        if row[NAME] != name or (ops is not None and row[OP] not in ops):
            continue
        parent = row[PARENT]
        nested = False
        while parent >= 0:
            if spans[parent][NAME] == name:
                nested = True
                break
            parent = spans[parent][PARENT]
        if not nested:
            total += row[END] - row[START]
    return total


def chrome_events(spans: List[List[Any]], limit: int = 200_000) -> List[Dict[str, Any]]:
    """Complete (``X``) events, one track per operation, time from 0."""
    if not spans:
        return []
    origin = min(row[START] for row in spans)
    events = []
    for row in spans[:limit]:
        events.append(
            {
                "name": row[NAME],
                "cat": layer_of(row[NAME]),
                "ph": "X",
                "ts": round((row[START] - origin) * 1e6, 3),
                "dur": round((row[END] - row[START]) * 1e6, 3),
                "pid": 1,
                "tid": max(row[OP], 0),
                "args": {"op": row[OP]},
            }
        )
    return events

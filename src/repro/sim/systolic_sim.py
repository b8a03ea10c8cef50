"""Functional simulation of the Systolic (SFSNMS) pipeline dataflow.

Implements Section 3.1's machine literally: a ``K x K`` PE array where

* one input neuron is broadcast to all PEs per cycle (raster order over
  the input map),
* PE ``(i, j)`` holds constant synapse ``K(i, j)`` in a register and, at
  the cycle when neuron ``I(rr, cc)`` is broadcast, accumulates into the
  in-flight output neuron ``O(rr - i, cc - j)``,
* in-flight outputs shift one PE to the right each cycle, cross row
  boundaries through inter-row FIFOs, and drain complete at PE
  ``(K-1, K-1)``.

A flight waits ``W - K`` cycles in each inter-row FIFO (the paper's
12 - 3 = 9 example), but the FIFO is built one slot deeper: within a
cycle a row pushes its exiting flight before the next row pops, so at
that instant the FIFO holds ``W - K + 1`` flights.  Every FIFO fills to
exactly that depth on every layer; a shallower FIFO overflows.

Each in-flight output carries its coordinates, so the simulator *checks*
the shift/FIFO timing invariant (``r = rr - i, c = cc - j``) instead of
assuming it — a wrong FIFO depth or shift order fails loudly.

Multiple (input map, output map) pairs run on one array, accumulating
partial output maps across input maps, exactly as the single array of a
DC-CNN-style design would.  The register/FIFO schedule depends only on
the padded width ``W`` and ``K``, never on the data, so the raster runs
once per layer and each in-flight output carries an ``(M, N)``
accumulator — one lane per map pair.  Every counter is the one-pair
observation times ``M * N``, and a drained output folds its lanes into
the output maps over ``n`` in order, the order in which sequential
pairs would have added them.  Layers whose accumulators would exceed
:data:`ACC_BUDGET_BYTES` run the raster once per chunk of output maps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.arch.interconnect import FifoLink
from repro.errors import SimulationError, SpecificationError
from repro.nn.layers import ConvLayer
from repro.nn.reference import pad_input
from repro.obs.tracer import Tracer, current_tracer
from repro.sim.trace import SimTrace

#: Upper bound on the bytes held by in-flight accumulators in one raster.
ACC_BUDGET_BYTES = 32 << 20


@dataclass
class _Flight:
    """An in-flight output neuron moving through the pipeline.

    ``acc`` holds one partial sum per ``(m, n)`` pair; flights for
    invalid (edge) windows never accumulate and carry ``None``.
    """

    r: int
    c: int
    acc: Optional[np.ndarray]


class SystolicFunctionalSim:
    """Cycle-level functional model of one systolic array."""

    def __init__(self, tracer: Optional[Tracer] = None) -> None:
        self.tracer = tracer

    def run_layer(
        self, layer: ConvLayer, inputs: np.ndarray, kernels: np.ndarray
    ) -> Tuple[np.ndarray, SimTrace]:
        """Execute a CONV layer on a ``K x K`` systolic array.

        Only stride-1 layers are supported — the systolic shift dataflow
        produces one output per broadcast, which is exactly the stride-1
        schedule (the paper's baselines share this restriction).
        """
        if layer.stride != 1:
            raise SpecificationError("systolic dataflow models stride-1 layers")
        if tuple(inputs.shape) != layer.input_shape:
            raise SpecificationError(
                f"inputs shape {inputs.shape} != {layer.input_shape}"
            )
        if tuple(kernels.shape) != layer.kernel_shape:
            raise SpecificationError(
                f"kernels shape {kernels.shape} != {layer.kernel_shape}"
            )
        padded = pad_input(inputs, layer.padding)
        outputs = np.zeros((layer.out_maps, layer.out_size, layer.out_size))
        trace = SimTrace()
        # At most (K - 1) rows plus K PEs of flights are alive at once.
        width = padded.shape[2]
        live = (layer.kernel - 1) * width + layer.kernel
        chunk = max(1, ACC_BUDGET_BYTES // (live * layer.in_maps * 8))
        tracer = self.tracer if self.tracer is not None else current_tracer()
        with tracer.span(
            f"conv:{layer.name}", category="sim.systolic"
        ) as span:
            for m0 in range(0, layer.out_maps, chunk):
                m1 = min(m0 + chunk, layer.out_maps)
                self._run_raster(
                    padded, kernels[m0:m1], outputs[m0:m1], layer.out_size, trace
                )
            if tracer.enabled:
                span.set_cycles(trace.cycles)
                span.add_counters(trace.as_dict())
        return outputs, trace

    def _run_raster(
        self,
        image: np.ndarray,
        kernels: np.ndarray,
        out_maps: np.ndarray,
        out_size: int,
        trace: SimTrace,
    ) -> None:
        """One raster of the array, shared by every ``(m, n)`` pair of
        ``kernels`` (shape ``(m, N, K, K)``) over ``image`` (``(N, H, W)``)."""
        maps, height, width = image.shape
        k = kernels.shape[-1]
        acc_shape = (kernels.shape[0], maps)
        pairs = acc_shape[0] * maps
        # taps[i][j][m, n] is synapse K(i, j) of pair (m, n).
        taps = [
            [np.ascontiguousarray(kernels[:, :, i, j]) for j in range(k)]
            for i in range(k)
        ]
        # regs[i][j] is the output currently resident at PE (i, j).
        regs: List[List[Optional[_Flight]]] = [[None] * k for _ in range(k)]
        # W - K cycles of queueing plus the same-cycle push-before-pop slot.
        fifos = [FifoLink(width - k + 1, name=f"row-fifo-{i}") for i in range(k - 1)]

        # The raster runs K extra virtual rows past the image: the pipeline
        # drain, during which no neurons are broadcast but in-flight
        # outputs keep shifting toward the exit.
        for rr in range(height + k):
            for cc in range(width):
                trace.cycles += pairs
                real = rr < height
                if real:
                    values = image[:, rr, cc]
                    trace.neuron_buffer_reads += pairs
                    trace.bus_transfers += pairs  # broadcast to all PEs
                # Shift phase: rightmost column exits first.
                for i in range(k):
                    exiting = regs[i][k - 1]
                    if exiting is not None:
                        if i < k - 1:
                            fifos[i].push(exiting)
                            trace.fifo_accesses += pairs
                        elif 0 <= exiting.r < out_size and 0 <= exiting.c < out_size:
                            # Drained complete at PE (K-1, K-1); edge
                            # flights (invalid windows) are discarded.  The
                            # input-map lanes fold into the output in n
                            # order.
                            total = out_maps[:, exiting.r, exiting.c]
                            for n in range(maps):
                                total += exiting.acc[:, n]
                            trace.neuron_buffer_writes += pairs
                    for j in range(k - 1, 0, -1):
                        regs[i][j] = regs[i][j - 1]
                    if i == 0:
                        # A fresh output O(rr, cc) enters the first stage
                        # (none during the drain rows).
                        if real:
                            valid = rr < out_size and cc < out_size
                            acc = np.zeros(acc_shape) if valid else None
                            regs[0][0] = _Flight(r=rr, c=cc, acc=acc)
                        else:
                            regs[0][0] = None
                    else:
                        entering = None
                        fifo = fifos[i - 1]
                        if not fifo.empty and fifo.peek().r == rr - i and fifo.peek().c == cc:
                            entering = fifo.pop()
                            trace.fifo_accesses += pairs
                        regs[i][0] = entering
                # Accumulate phase: every PE multiplies the broadcast neuron
                # by its resident synapse into its in-flight output.
                for i in range(k):
                    for j in range(k):
                        flight = regs[i][j]
                        if flight is None:
                            continue
                        # One stage per cycle: the flight at PE (i, j) is
                        # the one injected i*W + j cycles ago, in raster
                        # (linear) terms.  Row wraps borrow across rows for
                        # edge flights, hence the linear-index invariant.
                        expected_linear = rr * width + cc - i * width - j
                        if flight.r * width + flight.c != expected_linear:
                            raise SimulationError(
                                f"pipeline timing broken at PE({i},{j}): output"
                                f" ({flight.r},{flight.c}) at broadcast"
                                f" ({rr},{cc})"
                            )
                        contributes = (
                            real
                            and 0 <= flight.r < out_size
                            and 0 <= flight.c < out_size
                            and flight.r + i == rr
                            and flight.c + j == cc
                        )
                        if contributes:
                            flight.acc += taps[i][j] * values
                            trace.mac_ops += pairs
                            trace.register_accesses += 2 * pairs
        for i in range(k - 1):
            if not fifos[i].empty:
                raise SimulationError(f"row FIFO {i} not drained at end of layer")

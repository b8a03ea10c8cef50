"""The literal baseline functional simulators, kept as oracles.

These are the Section 3 baseline machines exactly as first written: the
Systolic array runs its register/FIFO raster once per ``(m, n)`` map
pair with scalar accumulators, the 2D-Mapping array runs every
``(m, block, n)`` window schedule separately, and the Tiling engine
walks one output position per ``K^2`` cycles.  The production simulators
in :mod:`repro.sim` run each data-independent schedule once and batch
the arithmetic over it; ``tests/sim/test_baseline_conformance.py`` holds
them to these loops bit for bit, counters included.
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


# -- systolic -----------------------------------------------------------------


@dataclass
class _Flight:
    """An in-flight output neuron moving through the pipeline."""

    r: int
    c: int
    acc: float


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
        tracer = self.tracer if self.tracer is not None else current_tracer()
        with tracer.span(
            f"conv:{layer.name}", category="sim.systolic"
        ) as span:
            for m in range(layer.out_maps):
                for n in range(layer.in_maps):
                    self._run_pair(
                        padded[n], kernels[m, n], outputs[m], layer.out_size, trace
                    )
            if tracer.enabled:
                span.set_cycles(trace.cycles)
                span.add_counters(trace.as_dict())
        return outputs, trace

    def _run_pair(
        self,
        image: np.ndarray,
        kernel: np.ndarray,
        out_map: np.ndarray,
        out_size: int,
        trace: SimTrace,
    ) -> None:
        k = kernel.shape[0]
        width = image.shape[1]
        height = image.shape[0]
        fifo_depth = max(1, width - k)
        # regs[i][j] is the output currently resident at PE (i, j).
        regs: List[List[Optional[_Flight]]] = [[None] * k for _ in range(k)]
        fifos = [FifoLink(fifo_depth + 1, name=f"row-fifo-{i}") for i in range(k - 1)]

        # The raster runs K extra virtual rows past the image: the pipeline
        # drain, during which no neurons are broadcast but in-flight
        # outputs keep shifting toward the exit.
        for rr in range(height + k):
            for cc in range(width):
                trace.cycles += 1
                real = rr < height
                value = image[rr, cc] if real else 0.0
                if real:
                    trace.neuron_buffer_reads += 1
                    trace.bus_transfers += 1  # broadcast to all PEs
                # Shift phase: rightmost column exits first.
                for i in range(k):
                    exiting = regs[i][k - 1]
                    if exiting is not None:
                        if i < k - 1:
                            fifos[i].push(exiting)
                            trace.fifo_accesses += 1
                        elif 0 <= exiting.r < out_size and 0 <= exiting.c < out_size:
                            # Drained complete at PE (K-1, K-1); edge
                            # flights (invalid windows) are discarded.
                            out_map[exiting.r, exiting.c] += exiting.acc
                            trace.neuron_buffer_writes += 1
                    for j in range(k - 1, 0, -1):
                        regs[i][j] = regs[i][j - 1]
                    if i == 0:
                        # A fresh output O(rr, cc) enters the first stage
                        # (none during the drain rows).
                        regs[0][0] = _Flight(r=rr, c=cc, acc=0.0) if real else None
                    else:
                        entering = None
                        fifo = fifos[i - 1]
                        if not fifo.empty and fifo.peek().r == rr - i and fifo.peek().c == cc:
                            entering = fifo.pop()
                            trace.fifo_accesses += 1
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
                            flight.acc += value * kernel[i, j]
                            trace.mac_ops += 1
                            trace.register_accesses += 2
        for i in range(k - 1):
            if not fifos[i].empty:
                raise SimulationError(f"row FIFO {i} not drained at end of layer")


# -- mapping2d ----------------------------------------------------------------


class Mapping2DFunctionalSim:
    """Cycle-level functional model of the 2D-Mapping array."""

    def __init__(
        self, block_size: int = 16, tracer: Optional[Tracer] = None
    ) -> None:
        if block_size <= 0:
            raise SpecificationError(
                f"block_size must be positive, got {block_size}"
            )
        self.block_size = block_size
        self.tracer = tracer

    def run_layer(
        self, layer: ConvLayer, inputs: np.ndarray, kernels: np.ndarray
    ) -> Tuple[np.ndarray, SimTrace]:
        """Execute a stride-1 CONV layer block by block."""
        if layer.stride != 1:
            raise SpecificationError("2D-Mapping dataflow models stride-1 layers")
        if tuple(inputs.shape) != layer.input_shape:
            raise SpecificationError(
                f"inputs shape {inputs.shape} != {layer.input_shape}"
            )
        if tuple(kernels.shape) != layer.kernel_shape:
            raise SpecificationError(
                f"kernels shape {kernels.shape} != {layer.kernel_shape}"
            )
        padded = pad_input(inputs, layer.padding)
        block = self.block_size
        out = np.zeros((layer.out_maps, layer.out_size, layer.out_size))
        trace = SimTrace()
        tracer = self.tracer if self.tracer is not None else current_tracer()
        with tracer.span(
            f"conv:{layer.name}", category="sim.mapping2d"
        ) as span:
            for m in range(layer.out_maps):
                for r0 in range(0, layer.out_size, block):
                    for c0 in range(0, layer.out_size, block):
                        rows = min(block, layer.out_size - r0)
                        cols = min(block, layer.out_size - c0)
                        psum = np.zeros((rows, cols))
                        for n in range(layer.in_maps):
                            self._run_block(
                                padded[n],
                                kernels[m, n],
                                psum,
                                (r0, c0),
                                trace,
                            )
                        out[m, r0:r0 + rows, c0:c0 + cols] = psum
                        trace.neuron_buffer_writes += rows * cols
            if tracer.enabled:
                span.set_cycles(trace.cycles)
                span.add_counters(trace.as_dict())
        return out, trace

    def _run_block(
        self,
        image: np.ndarray,
        kernel: np.ndarray,
        psum: np.ndarray,
        origin: Tuple[int, int],
        trace: SimTrace,
    ) -> None:
        k = kernel.shape[0]
        rows, cols = psum.shape
        r0, c0 = origin
        # The neuron window currently held by the array: window[p, q] is
        # the neuron PE (p, q) will multiply this cycle.
        window: Optional[np.ndarray] = None
        for i in range(k):
            for j in range(k):
                trace.cycles += 1
                trace.kernel_buffer_reads += 1  # synapse broadcast
                trace.bus_transfers += 1
                if window is None:
                    # Initial load: the whole (rows x cols) window.
                    window = image[r0 + i:r0 + i + rows, c0 + j:c0 + j + cols].copy()
                    trace.neuron_buffer_reads += rows * cols
                elif j > 0:
                    # Shift left: PEs take their right neighbour's neuron;
                    # the rightmost column loads fresh neurons.
                    window[:, :-1] = window[:, 1:]
                    trace.fifo_accesses += 2 * rows * (cols - 1)
                    window[:, -1] = image[
                        r0 + i:r0 + i + rows, c0 + j + cols - 1
                    ]
                    trace.neuron_buffer_reads += rows
                else:
                    # Kernel-row boundary: the window moves one row down in
                    # the image and rewinds K-1 columns.  The overlap with
                    # the previous window — (rows-1) x (cols-(K-1)) neurons
                    # — shifts through the per-PE FIFOs; the fresh bottom
                    # row and the rewound leading columns reload from the
                    # buffer.
                    overlap_rows = rows - 1
                    overlap_cols = max(0, cols - (k - 1))
                    reused = overlap_rows * overlap_cols
                    trace.fifo_accesses += 2 * reused
                    trace.neuron_buffer_reads += rows * cols - reused
                    window = image[
                        r0 + i:r0 + i + rows, c0:c0 + cols
                    ].copy()
                sample = window[0, 0]
                expected = image[r0 + i, c0 + j]
                if sample != expected:
                    raise SimulationError(
                        f"window misaligned at kernel ({i},{j}):"
                        f" PE(0,0) holds {sample}, expected {expected}"
                    )
                psum += window * kernel[i, j]
                trace.mac_ops += rows * cols
                trace.register_accesses += 2 * rows * cols


# -- tiling -------------------------------------------------------------------


class TilingFunctionalSim:
    """Cycle-level functional model of the tiling engine."""

    def __init__(
        self, tm: int = 16, tn: int = 16, tracer: Optional[Tracer] = None
    ) -> None:
        if tm <= 0 or tn <= 0:
            raise SpecificationError("tile factors must be positive")
        self.tm = tm
        self.tn = tn
        self.tracer = tracer

    def run_layer(
        self, layer: ConvLayer, inputs: np.ndarray, kernels: np.ndarray
    ) -> Tuple[np.ndarray, SimTrace]:
        """Execute a CONV layer tile group by tile group."""
        if tuple(inputs.shape) != layer.input_shape:
            raise SpecificationError(
                f"inputs shape {inputs.shape} != {layer.input_shape}"
            )
        if tuple(kernels.shape) != layer.kernel_shape:
            raise SpecificationError(
                f"kernels shape {kernels.shape} != {layer.kernel_shape}"
            )
        padded = pad_input(inputs, layer.padding)
        out = np.zeros((layer.out_maps, layer.out_size, layer.out_size))
        trace = SimTrace()
        stride = layer.stride
        k = layer.kernel
        tracer = self.tracer if self.tracer is not None else current_tracer()
        with tracer.span(
            f"conv:{layer.name}", category="sim.tiling"
        ) as span:
            for m0 in range(0, layer.out_maps, self.tm):
                m_hi = min(m0 + self.tm, layer.out_maps)
                for n0 in range(0, layer.in_maps, self.tn):
                    n_hi = min(n0 + self.tn, layer.in_maps)
                    first_round = n0 == 0
                    for r in range(layer.out_size):
                        for c in range(layer.out_size):
                            # Partial-sum read-back when accumulating a later
                            # input-map tile onto stored partials.
                            if not first_round:
                                trace.neuron_buffer_partial_reads += m_hi - m0
                            acc = np.zeros(m_hi - m0)
                            for i in range(k):
                                for j in range(k):
                                    trace.cycles += 1
                                    neurons = padded[
                                        n0:n_hi, r * stride + i, c * stride + j
                                    ]
                                    trace.neuron_buffer_reads += n_hi - n0
                                    trace.bus_transfers += n_hi - n0
                                    synapses = kernels[m0:m_hi, n0:n_hi, i, j]
                                    trace.kernel_buffer_reads += synapses.size
                                    products = synapses * neurons[np.newaxis, :]
                                    acc += products.sum(axis=1)
                                    trace.mac_ops += synapses.size
                                    trace.register_accesses += 2 * (m_hi - m0)
                            out[m0:m_hi, r, c] += acc
                            trace.neuron_buffer_writes += m_hi - m0
            if tracer.enabled:
                span.set_cycles(trace.cycles)
                span.add_counters(trace.as_dict())
        return out, trace

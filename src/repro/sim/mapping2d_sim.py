"""Functional simulation of the 2D-Mapping (SFMNSS) shift dataflow.

Section 3.2's machine: a ``B x B`` PE array where each PE owns one output
neuron of a ``B x B`` block of one output feature map.  Per cycle one
synapse ``K(i, j)`` is broadcast to every PE while the neuron window held
by the array shifts: along a kernel row the window moves one column left
(each PE takes its right neighbour's neuron, the rightmost column loads a
fresh one), and at a kernel row boundary the window moves one row up.  The
per-PE FIFOs of Figure 7(b) are what makes the shifted neurons reusable;
the simulator realizes them as an explicit neuron grid whose refill events
are counted as buffer reads and whose shifts as FIFO traffic.

A block therefore takes exactly ``K^2`` cycles per input map, matching the
analytical model; numerics are validated against the golden convolution.
Each cycle the simulator checks that every PE holds the neuron its
output needs, so a wrong shift or reload fails loudly.

The window schedule depends only on the block and the input map ``n``,
never on the output map, so each ``(block, n)`` schedule runs once and
its synapse broadcast multiplies the window into an ``(M, rows, cols)``
partial-sum stack — one layer of PEs per output map.  Every counter is
the one-map observation times ``M``; the window-alignment check runs on
the single schedule.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.errors import SimulationError, SpecificationError
from repro.nn.layers import ConvLayer
from repro.nn.reference import pad_input
from repro.obs.tracer import Tracer, current_tracer
from repro.sim.trace import SimTrace


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
        maps = layer.out_maps
        out = np.zeros((maps, layer.out_size, layer.out_size))
        trace = SimTrace()
        tracer = self.tracer if self.tracer is not None else current_tracer()
        with tracer.span(
            f"conv:{layer.name}", category="sim.mapping2d"
        ) as span:
            for r0 in range(0, layer.out_size, block):
                for c0 in range(0, layer.out_size, block):
                    rows = min(block, layer.out_size - r0)
                    cols = min(block, layer.out_size - c0)
                    psum = np.zeros((maps, rows, cols))
                    for n in range(layer.in_maps):
                        self._run_block(
                            padded[n],
                            kernels[:, n],
                            psum,
                            (r0, c0),
                            trace,
                        )
                    out[:, r0:r0 + rows, c0:c0 + cols] = psum
                    trace.neuron_buffer_writes += maps * rows * cols
            if tracer.enabled:
                span.set_cycles(trace.cycles)
                span.add_counters(trace.as_dict())
        return out, trace

    def _run_block(
        self,
        image: np.ndarray,
        kernels: np.ndarray,
        psum: np.ndarray,
        origin: Tuple[int, int],
        trace: SimTrace,
    ) -> None:
        """One block's ``K^2``-cycle schedule over input map ``image``,
        shared by every output map of ``kernels`` (shape ``(M, K, K)``)."""
        maps, k = kernels.shape[0], kernels.shape[-1]
        _, rows, cols = psum.shape
        r0, c0 = origin
        # The neuron window currently held by the array: window[p, q] is
        # the neuron PE (p, q) will multiply this cycle.
        window: Optional[np.ndarray] = None
        for i in range(k):
            for j in range(k):
                trace.cycles += maps
                trace.kernel_buffer_reads += maps  # synapse broadcast
                trace.bus_transfers += maps
                if window is None:
                    # Initial load: the whole (rows x cols) window.
                    window = image[r0 + i:r0 + i + rows, c0 + j:c0 + j + cols].copy()
                    trace.neuron_buffer_reads += maps * rows * cols
                elif j > 0:
                    # Shift left: PEs take their right neighbour's neuron;
                    # the rightmost column loads fresh neurons.
                    window[:, :-1] = window[:, 1:]
                    trace.fifo_accesses += maps * 2 * rows * (cols - 1)
                    window[:, -1] = image[
                        r0 + i:r0 + i + rows, c0 + j + cols - 1
                    ]
                    trace.neuron_buffer_reads += maps * rows
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
                    trace.fifo_accesses += maps * 2 * reused
                    trace.neuron_buffer_reads += maps * (rows * cols - reused)
                    window = image[
                        r0 + i:r0 + i + rows, c0:c0 + cols
                    ].copy()
                # Every PE must hold its own neuron, not just PE (0, 0):
                # over zero padding one sample cannot tell windows apart.
                expected = image[r0 + i:r0 + i + rows, c0 + j:c0 + j + cols]
                if not np.array_equal(window, expected):
                    p, q = np.argwhere(window != expected)[0]
                    raise SimulationError(
                        f"window misaligned at kernel ({i},{j}):"
                        f" PE({p},{q}) holds {window[p, q]},"
                        f" expected {expected[p, q]}"
                    )
                psum += window * kernels[:, i, j, np.newaxis, np.newaxis]
                trace.mac_ops += maps * rows * cols
                trace.register_accesses += maps * 2 * rows * cols

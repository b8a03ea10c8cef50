"""Functional simulation of the Tiling (MFSNSS) adder-tree dataflow.

Section 3.3's machine: ``Tm`` PE clusters, each with ``Tn`` multipliers
feeding an adder tree.  Per cycle, one synapse position ``(i, j)`` of one
output position ``(r, c)`` is processed: ``Tn`` input neurons are loaded
and broadcast to all clusters, each cluster loads its own ``Tn`` private
synapses, multiplies, reduces through its tree, and accumulates into its
output register.  After ``K^2`` cycles each cluster has one finished
(partial, if ``N > Tn``) output neuron.

The simulator counts the signature zero-reuse synapse traffic (one kernel
word per multiplier per cycle) and the partial-sum round-trips when the
input maps exceed ``Tn``.

Which words a cycle touches depends only on its output position and
synapse position, never on the data, so each ``(m0, n0)`` tile group
loops over the ``K^2`` synapse positions and processes all ``S^2``
output positions of that synapse position at once.  The ``Tn`` lane
stays the contiguous last axis of the product block and is reduced with
the same NumPy row sum as one position at a time, so every adder-tree
result — and the float order of every accumulation — is unchanged.
Groups whose product block would exceed :data:`PRODUCT_BUDGET_BYTES`
process their output positions in bands.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.errors import SpecificationError
from repro.nn.layers import ConvLayer
from repro.nn.reference import pad_input
from repro.obs.tracer import Tracer, current_tracer
from repro.sim.trace import SimTrace

#: Upper bound on the bytes of one batched ``(Tm, positions, Tn)`` product.
PRODUCT_BUDGET_BYTES = 32 << 20


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
        positions = layer.out_size * layer.out_size
        reach = stride * (layer.out_size - 1) + 1
        tracer = self.tracer if self.tracer is not None else current_tracer()
        with tracer.span(
            f"conv:{layer.name}", category="sim.tiling"
        ) as span:
            for m0 in range(0, layer.out_maps, self.tm):
                m_hi = min(m0 + self.tm, layer.out_maps)
                clusters = m_hi - m0
                for n0 in range(0, layer.in_maps, self.tn):
                    n_hi = min(n0 + self.tn, layer.in_maps)
                    lanes = n_hi - n0
                    # Partial-sum read-back when accumulating a later
                    # input-map tile onto stored partials.
                    if n0 > 0:
                        trace.neuron_buffer_partial_reads += clusters * positions
                    acc = np.zeros((clusters, positions))
                    band = max(1, PRODUCT_BUDGET_BYTES // (clusters * lanes * 8))
                    for p0 in range(0, positions, band):
                        p1 = min(p0 + band, positions)
                        batch = p1 - p0
                        for i in range(k):
                            for j in range(k):
                                trace.cycles += batch
                                # neurons[p, n]: lane n's neuron at output
                                # position p0 + p for synapse (i, j).
                                window = padded[
                                    n0:n_hi, i:i + reach:stride, j:j + reach:stride
                                ]
                                neurons = window.reshape(lanes, positions).T[p0:p1]
                                trace.neuron_buffer_reads += lanes * batch
                                trace.bus_transfers += lanes * batch
                                synapses = kernels[m0:m_hi, n0:n_hi, i, j]
                                trace.kernel_buffer_reads += synapses.size * batch
                                # C order keeps each (cluster, position)
                                # lane row contiguous: the row sum then
                                # runs the same adder order as one
                                # position at a time.
                                products = np.multiply(
                                    synapses[:, np.newaxis, :],
                                    neurons[np.newaxis, :, :],
                                    order="C",
                                )
                                acc[:, p0:p1] += products.sum(axis=-1)
                                trace.mac_ops += synapses.size * batch
                                trace.register_accesses += 2 * clusters * batch
                    out[m0:m_hi] += acc.reshape(out[m0:m_hi].shape)
                    trace.neuron_buffer_writes += clusters * positions
            if tracer.enabled:
                span.set_cycles(trace.cycles)
                span.add_counters(trace.as_dict())
        return out, trace

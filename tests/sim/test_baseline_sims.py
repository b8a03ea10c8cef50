"""Tests for the baseline functional simulators (systolic / 2D / tiling)."""

import inspect
import sys
import types

import numpy as np
import pytest

from repro.arch.interconnect import FifoLink
from repro.errors import SimulationError, SpecificationError
from repro.nn import ConvLayer, conv2d, make_inputs, make_kernels, pad_input
from repro.obs.tracer import Tracer, tracing
from repro.sim import (
    Mapping2DFunctionalSim,
    SystolicFunctionalSim,
    TilingFunctionalSim,
    mapping2d_sim,
    systolic_sim,
    tiling_sim,
)


def golden(layer, inputs, kernels):
    return conv2d(pad_input(inputs, layer.padding), kernels, stride=layer.stride)


class TestSystolicSim:
    @pytest.mark.parametrize(
        "n,m,s,k",
        [(1, 1, 6, 3), (2, 3, 5, 3), (1, 2, 4, 4), (2, 2, 8, 2)],
    )
    def test_matches_golden(self, n, m, s, k):
        layer = ConvLayer("t", in_maps=n, out_maps=m, out_size=s, kernel=k)
        inputs, kernels = make_inputs(layer), make_kernels(layer)
        outputs, _ = SystolicFunctionalSim().run_layer(layer, inputs, kernels)
        np.testing.assert_allclose(outputs, golden(layer, inputs, kernels), atol=1e-9)

    def test_mac_count_exact(self):
        layer = ConvLayer("t", in_maps=2, out_maps=2, out_size=5, kernel=3)
        _, trace = SystolicFunctionalSim().run_layer(
            layer, make_inputs(layer), make_kernels(layer)
        )
        assert trace.mac_ops == layer.macs

    def test_cycles_include_fill_and_drain(self):
        # One (m, n) pair on a W=8 image with K=3: the raster runs
        # (W + K) * W cycles including the drain rows.
        layer = ConvLayer("t", in_maps=1, out_maps=1, out_size=6, kernel=3)
        _, trace = SystolicFunctionalSim().run_layer(
            layer, make_inputs(layer), make_kernels(layer)
        )
        assert trace.cycles == (8 + 3) * 8

    def test_each_input_broadcast_once_per_pair(self):
        # A single array re-reads each input map once per output map (the
        # analytical model's cross-array sharing needs multiple arrays).
        layer = ConvLayer("t", in_maps=2, out_maps=3, out_size=5, kernel=3)
        _, trace = SystolicFunctionalSim().run_layer(
            layer, make_inputs(layer), make_kernels(layer)
        )
        pairs = 6
        assert trace.neuron_buffer_reads == pairs * layer.in_size**2

    def test_fifo_traffic_present(self):
        layer = ConvLayer("t", in_maps=1, out_maps=1, out_size=6, kernel=3)
        _, trace = SystolicFunctionalSim().run_layer(
            layer, make_inputs(layer), make_kernels(layer)
        )
        assert trace.fifo_accesses > 0

    def test_stride_rejected(self):
        layer = ConvLayer("t", in_maps=1, out_maps=1, out_size=3, kernel=3, stride=2)
        with pytest.raises(SpecificationError):
            SystolicFunctionalSim().run_layer(
                layer, make_inputs(layer), make_kernels(layer)
            )

    def test_shape_mismatch_rejected(self):
        layer = ConvLayer("t", in_maps=1, out_maps=1, out_size=6, kernel=3)
        with pytest.raises(SpecificationError):
            SystolicFunctionalSim().run_layer(
                layer, np.zeros((1, 5, 5)), make_kernels(layer)
            )


class TestMapping2DSim:
    @pytest.mark.parametrize(
        "n,m,s,k,block",
        [(1, 1, 6, 3, 4), (2, 3, 5, 3, 16), (1, 2, 7, 4, 4), (3, 2, 8, 2, 5)],
    )
    def test_matches_golden(self, n, m, s, k, block):
        layer = ConvLayer("t", in_maps=n, out_maps=m, out_size=s, kernel=k)
        inputs, kernels = make_inputs(layer), make_kernels(layer)
        outputs, _ = Mapping2DFunctionalSim(block_size=block).run_layer(
            layer, inputs, kernels
        )
        np.testing.assert_allclose(outputs, golden(layer, inputs, kernels), atol=1e-9)

    def test_block_takes_k_squared_cycles_per_input_map(self):
        layer = ConvLayer("t", in_maps=3, out_maps=2, out_size=4, kernel=3)
        _, trace = Mapping2DFunctionalSim(block_size=4).run_layer(
            layer, make_inputs(layer), make_kernels(layer)
        )
        # M * blocks * N * K^2 = 2 * 1 * 3 * 9.
        assert trace.cycles == 2 * 3 * 9

    def test_synapse_broadcast_one_per_cycle(self):
        layer = ConvLayer("t", in_maps=2, out_maps=2, out_size=4, kernel=3)
        _, trace = Mapping2DFunctionalSim(block_size=4).run_layer(
            layer, make_inputs(layer), make_kernels(layer)
        )
        assert trace.kernel_buffer_reads == trace.cycles

    def test_shifting_reuses_neurons(self):
        # Buffer reads must be far fewer than MACs thanks to FIFO shifts.
        layer = ConvLayer("t", in_maps=1, out_maps=1, out_size=8, kernel=3)
        _, trace = Mapping2DFunctionalSim(block_size=8).run_layer(
            layer, make_inputs(layer), make_kernels(layer)
        )
        assert trace.neuron_buffer_reads < trace.mac_ops / 3
        assert trace.fifo_accesses > 0

    def test_invalid_block_rejected(self):
        with pytest.raises(SpecificationError):
            Mapping2DFunctionalSim(block_size=0)

    def test_stride_rejected(self):
        layer = ConvLayer("t", in_maps=1, out_maps=1, out_size=3, kernel=3, stride=2)
        with pytest.raises(SpecificationError):
            Mapping2DFunctionalSim(block_size=4).run_layer(
                layer, make_inputs(layer), make_kernels(layer)
            )


class TestTilingSim:
    @pytest.mark.parametrize(
        "n,m,s,k,tm,tn",
        [(2, 3, 4, 3, 2, 2), (4, 4, 3, 2, 16, 16), (5, 3, 4, 3, 2, 2)],
    )
    def test_matches_golden(self, n, m, s, k, tm, tn):
        layer = ConvLayer("t", in_maps=n, out_maps=m, out_size=s, kernel=k)
        inputs, kernels = make_inputs(layer), make_kernels(layer)
        outputs, _ = TilingFunctionalSim(tm=tm, tn=tn).run_layer(
            layer, inputs, kernels
        )
        np.testing.assert_allclose(outputs, golden(layer, inputs, kernels), atol=1e-9)

    def test_matches_golden_with_stride(self):
        layer = ConvLayer("t", in_maps=2, out_maps=2, out_size=3, kernel=3, stride=2)
        inputs, kernels = make_inputs(layer), make_kernels(layer)
        outputs, _ = TilingFunctionalSim(tm=2, tn=2).run_layer(layer, inputs, kernels)
        np.testing.assert_allclose(outputs, golden(layer, inputs, kernels), atol=1e-9)

    def test_cycles_formula(self):
        layer = ConvLayer("t", in_maps=4, out_maps=4, out_size=3, kernel=2)
        _, trace = TilingFunctionalSim(tm=2, tn=2).run_layer(
            layer, make_inputs(layer), make_kernels(layer)
        )
        # ceil(4/2) * ceil(4/2) * S^2 * K^2 = 2 * 2 * 9 * 4.
        assert trace.cycles == 144

    def test_synapse_traffic_equals_macs(self):
        layer = ConvLayer("t", in_maps=2, out_maps=3, out_size=4, kernel=3)
        _, trace = TilingFunctionalSim(tm=3, tn=2).run_layer(
            layer, make_inputs(layer), make_kernels(layer)
        )
        assert trace.kernel_buffer_reads == layer.macs

    def test_partial_reads_when_n_exceeds_tn(self):
        layer = ConvLayer("t", in_maps=5, out_maps=2, out_size=3, kernel=2)
        _, trace = TilingFunctionalSim(tm=2, tn=2).run_layer(
            layer, make_inputs(layer), make_kernels(layer)
        )
        assert trace.neuron_buffer_partial_reads > 0

    def test_invalid_tiles_rejected(self):
        with pytest.raises(SpecificationError):
            TilingFunctionalSim(tm=0, tn=2)


def _run(sim, layer):
    return sim.run_layer(layer, make_inputs(layer), make_kernels(layer))


class TestSystolicFifoDepth:
    """Each inter-row FIFO queues a flight W - K cycles, plus one slot
    for the same-cycle push (row i - 1) before pop (row i)."""

    LAYERS = [
        # The paper's example: W = 12, K = 3 -> 9 cycles in the FIFO.
        ConvLayer("paper", in_maps=1, out_maps=1, out_size=10, kernel=3),
        ConvLayer("maps", in_maps=3, out_maps=2, out_size=5, kernel=4),
        ConvLayer("padded", in_maps=2, out_maps=2, out_size=6, kernel=3,
                  explicit_in_size=6),
        # S = 1: K equals the padded width, so a flight never waits.
        ConvLayer("k-eq-w", in_maps=2, out_maps=1, out_size=1, kernel=3),
    ]

    @pytest.mark.parametrize("layer", LAYERS, ids=lambda l: l.name)
    def test_peak_occupancy_equals_built_depth(self, layer, monkeypatch):
        built = []

        class PeakFifo(FifoLink):
            def __init__(self, depth, name="fifo"):
                super().__init__(depth, name=name)
                self.peak = 0
                built.append(self)

            def push(self, value):
                super().push(value)
                self.peak = max(self.peak, len(self))

        monkeypatch.setattr(systolic_sim, "FifoLink", PeakFifo)
        _run(SystolicFunctionalSim(), layer)
        width = layer.in_size + layer.padding
        assert len(built) == layer.kernel - 1
        for fifo in built:
            assert fifo.depth == width - layer.kernel + 1
            # A deeper FIFO would leave its top slot unused.
            assert fifo.peak == fifo.depth, fifo.name


def _mutant(module, old, new, monkeypatch):
    """``module`` re-executed from its source with ``old`` -> ``new``."""
    source = inspect.getsource(module)
    assert source.count(old) == 1, f"mutation site not unique: {old!r}"
    clone = types.ModuleType(f"{module.__name__}_mutant")
    clone.__file__ = module.__file__
    monkeypatch.setitem(sys.modules, clone.__name__, clone)
    exec(compile(source.replace(old, new), module.__file__, "exec"), vars(clone))
    return clone


class TestChecksBite:
    """The production schedules still fail loudly when broken."""

    SYSTOLIC = ConvLayer("t", in_maps=2, out_maps=3, out_size=5, kernel=3)
    MAPPING = ConvLayer("t", in_maps=2, out_maps=2, out_size=6, kernel=3)
    # Two pixels of zero padding on each side: PE (0, 0) alone sees
    # zeros for the first kernel rows of the first block.
    MAPPING_PADDED = ConvLayer(
        "p", in_maps=1, out_maps=2, out_size=4, kernel=3, explicit_in_size=2
    )

    #: name -> (site, edit, the error it must raise).
    SYSTOLIC_MUTATIONS = {
        "fifo-one-slot-short": (
            "FifoLink(width - k + 1,",
            "FifoLink(width - k,",
            "push into full FIFO",
        ),
        "in-row-shift-order-swapped": (
            "for j in range(k - 1, 0, -1):",
            "for j in range(1, k):",
            "pipeline timing broken",
        ),
        # The FIFO is sized exactly, so a late pop overflows it.
        "fifo-pops-a-cycle-late": (
            "fifo.peek().c == cc:",
            "fifo.peek().c == cc - 1:",
            "push into full FIFO",
        ),
    }

    MAPPING_MUTATIONS = {
        "shift-direction-swapped": (
            "window[:, :-1] = window[:, 1:]",
            "window[:, 1:] = window[:, :-1]",
        ),
        "row-boundary-off-by-one": (
            "r0 + i:r0 + i + rows, c0:c0 + cols",
            "r0 + i - 1:r0 + i - 1 + rows, c0:c0 + cols",
        ),
        "initial-load-one-column-right": (
            "image[r0 + i:r0 + i + rows, c0 + j:c0 + j + cols].copy()",
            "image[r0 + i:r0 + i + rows, c0 + j + 1:c0 + j + 1 + cols].copy()",
        ),
    }

    def test_unmutated_clones_agree(self, monkeypatch):
        # The harness itself: a clone with an identity edit runs clean.
        for module, sim, layer, site in (
            (systolic_sim, "SystolicFunctionalSim", self.SYSTOLIC,
             self.SYSTOLIC_MUTATIONS["fifo-one-slot-short"][0]),
            (mapping2d_sim, "Mapping2DFunctionalSim", self.MAPPING,
             self.MAPPING_MUTATIONS["shift-direction-swapped"][0]),
        ):
            clone = _mutant(module, site, site, monkeypatch)
            got, got_trace = _run(getattr(clone, sim)(), layer)
            want, want_trace = _run(getattr(module, sim)(), layer)
            assert np.array_equal(got, want)
            assert got_trace == want_trace

    @pytest.mark.parametrize("name", sorted(SYSTOLIC_MUTATIONS))
    def test_systolic_mutation_raises(self, name, monkeypatch):
        old, new, error = self.SYSTOLIC_MUTATIONS[name]
        clone = _mutant(systolic_sim, old, new, monkeypatch)
        with pytest.raises(SimulationError, match=error):
            _run(clone.SystolicFunctionalSim(), self.SYSTOLIC)

    @pytest.mark.parametrize("padded", [False, True], ids=["valid", "padded"])
    @pytest.mark.parametrize("name", sorted(MAPPING_MUTATIONS))
    def test_mapping2d_mutation_raises(self, name, padded, monkeypatch):
        old, new = self.MAPPING_MUTATIONS[name]
        clone = _mutant(mapping2d_sim, old, new, monkeypatch)
        layer = self.MAPPING_PADDED if padded else self.MAPPING
        with pytest.raises(SimulationError, match="window misaligned"):
            _run(clone.Mapping2DFunctionalSim(block_size=4), layer)

    @pytest.mark.parametrize(
        "module", [systolic_sim, mapping2d_sim, tiling_sim],
        ids=lambda m: m.__name__,
    )
    def test_counters_not_read_from_closed_forms(self, module):
        # The closed forms are checked against these counters; reading
        # them here would make that check circular.
        source = inspect.getsource(module)
        assert "repro.sim.analytic" not in source
        assert "analytic_" not in source


SIMS = {
    "systolic": (SystolicFunctionalSim, {}, "sim.systolic"),
    "mapping2d": (Mapping2DFunctionalSim, {"block_size": 4}, "sim.mapping2d"),
    "tiling": (TilingFunctionalSim, {"tm": 2, "tn": 2}, "sim.tiling"),
}


@pytest.mark.parametrize("cls,kwargs,category", SIMS.values(), ids=SIMS.keys())
class TestObservability:
    """Each sim emits one ``conv:<layer>`` span carrying its own trace."""

    LAYER = ConvLayer("obs", in_maps=3, out_maps=2, out_size=5, kernel=3)

    def _check(self, tracer, trace, category):
        spans = list(tracer.iter_spans())
        assert len(spans) == 1
        (span,) = spans
        assert span.name == "conv:obs"
        assert span.category == category
        assert span.cycles == trace.cycles
        assert span.counters == trace.as_dict()

    def test_explicit_tracer(self, cls, kwargs, category):
        tracer = Tracer()
        _, trace = _run(cls(tracer=tracer, **kwargs), self.LAYER)
        self._check(tracer, trace, category)

    def test_ambient_tracer(self, cls, kwargs, category):
        with tracing() as tracer:
            _, trace = _run(cls(**kwargs), self.LAYER)
        self._check(tracer, trace, category)

    def test_disabled_tracer_records_nothing(self, cls, kwargs, category):
        tracer = Tracer(enabled=False)
        _run(cls(tracer=tracer, **kwargs), self.LAYER)
        assert list(tracer.iter_spans()) == []

"""Oracle conformance: the batched baseline simulators vs their literal loops.

The production Systolic, 2D-Mapping and Tiling simulators run each
data-independent schedule once and batch the arithmetic over it.  The
loops they replaced — one raster per ``(m, n)`` pair, one window
schedule per ``(m, block, n)``, one output position per ``K^2`` cycles —
live in :mod:`tests.oracles.baseline_sims`.  This suite requires, on
every case:

* bitwise-equal outputs (compared as ``uint64``), and
* equal ``SimTrace.as_dict()`` counters;

and it checks each closed-form ``analytic_*_trace`` against the oracle
too, so neither side of ``tests/sim/test_analytic.py`` can drift.

Cases are hand-written edge shapes (padding, stride, ``K = 1``,
``K = S``, single maps, ragged tiles, ``tm > M``, Tn lanes past the
8-wide unrolled row sum, blocks not dividing ``S``) plus seeded random
shapes.  The seeded part is budgeted to keep the module to a few
seconds.  A seed that ever diverges belongs in ``REGRESSION_SEEDS`` so
it is re-checked forever.
"""

from __future__ import annotations

import random
from typing import NamedTuple, Optional

import numpy as np
import pytest

from repro.nn import ConvLayer, make_inputs, make_kernels
from repro.sim import (
    Mapping2DFunctionalSim,
    SystolicFunctionalSim,
    TilingFunctionalSim,
    analytic_mapping2d_trace,
    analytic_systolic_trace,
    analytic_tiling_trace,
    systolic_sim,
    tiling_sim,
)

from tests.oracles import baseline_sims as oracle

#: Seeds of :func:`seeded_case` drawn every run.
SEEDS = tuple(range(60))

#: Seeds that once diverged from an oracle, kept as named regression
#: cases.  None has so far; a failing seed found by widening ``SEEDS``
#: goes here with a one-line note.
REGRESSION_SEEDS: dict = {}


class Case(NamedTuple):
    layer: ConvLayer
    block: int
    tm: int
    tn: int


def _layer(name, n, m, s, k, stride=1, in_size: Optional[int] = None):
    return ConvLayer(
        name,
        in_maps=n,
        out_maps=m,
        out_size=s,
        kernel=k,
        stride=stride,
        explicit_in_size=in_size,
    )


EDGE_CASES = [
    # Padded layers: the input is smaller than the valid-conv extent.
    Case(_layer("padded", 2, 3, 5, 3, in_size=5), block=4, tm=2, tn=2),
    Case(_layer("padded-odd", 3, 2, 6, 4, in_size=7), block=5, tm=3, tn=2),
    # Stride > 1 (Tiling only; the other two reject it).
    Case(_layer("stride2", 3, 4, 3, 3, stride=2), block=4, tm=3, tn=2),
    Case(_layer("stride3-padded", 2, 2, 3, 4, stride=3, in_size=8), 4, 2, 2),
    # K = 1 and K = S; S = 1 makes K equal the padded width.
    Case(_layer("pointwise", 3, 4, 5, 1), block=2, tm=3, tn=2),
    Case(_layer("k-eq-s", 2, 3, 4, 4), block=3, tm=2, tn=2),
    Case(_layer("single-output", 3, 2, 1, 3), block=1, tm=1, tn=1),
    # Single-map layers.
    Case(_layer("single-map", 1, 1, 6, 3), block=4, tm=1, tn=1),
    Case(_layer("single-map-k1", 1, 1, 3, 1), block=16, tm=16, tn=16),
    # M / N not multiples of tm / tn, and tm > M.
    Case(_layer("ragged", 5, 7, 3, 2), block=2, tm=3, tn=2),
    Case(_layer("tm-over-m", 3, 2, 4, 2), block=3, tm=8, tn=2),
    # Tn lanes of 8 and more: NumPy's unrolled pairwise row sum.
    Case(_layer("wide-lanes", 20, 3, 3, 2), block=2, tm=2, tn=16),
    Case(_layer("wide-lanes-9", 9, 2, 2, 3), block=2, tm=4, tn=9),
    # block_size not dividing S, and larger than S.
    Case(_layer("block-ragged", 2, 2, 7, 3), block=3, tm=2, tn=2),
    Case(_layer("block-over-s", 2, 2, 5, 2), block=16, tm=2, tn=2),
]


def seeded_case(seed: int) -> Case:
    """A small random layer and sim parameters, deterministic per seed."""
    rng = random.Random(seed)
    s = rng.randint(1, 8)
    k = rng.randint(1, min(4, s + 1))
    stride = rng.choice((1, 1, 1, 2, 3))
    valid = (s - 1) * stride + k
    in_size = rng.choice((None, None, rng.randint(max(1, valid - 3), valid)))
    # One layer in five is wide enough for 8+ Tiling lanes.
    n = rng.randint(1, 6) if rng.random() < 0.8 else rng.randint(8, 12)
    layer = _layer(
        f"seed{seed}",
        n=n,
        m=rng.randint(1, 6),
        s=s,
        k=k,
        stride=stride,
        in_size=in_size,
    )
    return Case(layer, rng.randint(1, 7), rng.randint(1, 5), rng.randint(1, 12))


def all_cases():
    seeds = list(SEEDS) + sorted(REGRESSION_SEEDS)
    return EDGE_CASES + [seeded_case(seed) for seed in seeds]


def _ids(case: Case) -> str:
    return case.layer.name


def _run(sim, layer):
    return sim.run_layer(layer, make_inputs(layer), make_kernels(layer))


def assert_conforms(production, reference, layer):
    out, trace = _run(production, layer)
    want_out, want_trace = _run(reference, layer)
    assert out.shape == want_out.shape
    assert np.array_equal(out.view(np.uint64), want_out.view(np.uint64)), layer
    assert trace.as_dict() == want_trace.as_dict(), layer
    return want_trace


CASES = all_cases()

#: The systolic and 2D-Mapping dataflows model stride-1 layers only.
STRIDE1_CASES = [case for case in CASES if case.layer.stride == 1]


class TestAgainstOracles:
    @pytest.mark.parametrize("case", STRIDE1_CASES, ids=_ids)
    def test_systolic(self, case):
        layer = case.layer
        want = assert_conforms(
            SystolicFunctionalSim(), oracle.SystolicFunctionalSim(), layer
        )
        assert analytic_systolic_trace(layer).as_dict() == want.as_dict()

    @pytest.mark.parametrize("case", STRIDE1_CASES, ids=_ids)
    def test_mapping2d(self, case):
        layer, block = case.layer, case.block
        want = assert_conforms(
            Mapping2DFunctionalSim(block_size=block),
            oracle.Mapping2DFunctionalSim(block_size=block),
            layer,
        )
        assert analytic_mapping2d_trace(layer, block).as_dict() == want.as_dict()

    @pytest.mark.parametrize("case", CASES, ids=_ids)
    def test_tiling(self, case):
        layer, tm, tn = case.layer, case.tm, case.tn
        want = assert_conforms(
            TilingFunctionalSim(tm=tm, tn=tn),
            oracle.TilingFunctionalSim(tm=tm, tn=tn),
            layer,
        )
        assert analytic_tiling_trace(layer, tm, tn).as_dict() == want.as_dict()


class TestChunkedBatches:
    """Layers past the byte budgets split their batch; nothing else moves."""

    CASES = [EDGE_CASES[1], EDGE_CASES[9], EDGE_CASES[11]]

    @pytest.mark.parametrize("case", CASES, ids=_ids)
    def test_systolic_one_map_per_raster(self, case, monkeypatch):
        monkeypatch.setattr(systolic_sim, "ACC_BUDGET_BYTES", 1)
        assert_conforms(
            SystolicFunctionalSim(), oracle.SystolicFunctionalSim(), case.layer
        )

    @pytest.mark.parametrize("case", CASES, ids=_ids)
    def test_tiling_one_position_per_band(self, case, monkeypatch):
        monkeypatch.setattr(tiling_sim, "PRODUCT_BUDGET_BYTES", 1)
        assert_conforms(
            TilingFunctionalSim(tm=case.tm, tn=case.tn),
            oracle.TilingFunctionalSim(tm=case.tm, tn=case.tn),
            case.layer,
        )

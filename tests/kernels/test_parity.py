"""Bit-identity of the compiled kernel backend against NumPy references.

Every kernel in :mod:`repro.kernels` is an integer-exact port of the
NumPy/scalar expression it replaces, so parity here is ``==`` — not
``allclose``.  The direct tests drive each kernel with
hypothesis-generated inputs against an independent plain-Python
reference (translated from the documented semantics, not from the
backend source); the end-to-end tests force ``REPRO_KERNELS`` and check
that mapper and fault-retention results are identical under both
backends.

The C backend is skipped, never failed, when the machine has no C
compiler — the CI matrix runs a cext leg and a bare NumPy leg so each
combination stays covered somewhere.
"""

import itertools
import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.dataflow import map_network
from repro.dataflow.mapper import clear_mapping_cache
from repro.kernels import ENV_KERNELS, reset_kernels
from repro.kernels import cext as cext_mod
from repro.nn.workloads import all_workloads

BACKENDS = ("cext",)


def _load_suite(name):
    try:
        suite, _ = cext_mod.load()
    except cext_mod.KernelBuildError as exc:
        pytest.skip(f"C backend unavailable: {exc}")
    return suite


@pytest.fixture(scope="module", params=BACKENDS)
def suite(request):
    """One loaded kernel suite per available compiled backend."""
    return _load_suite(request.param)


@pytest.fixture(params=BACKENDS)
def forced_backend(request, monkeypatch):
    """``REPRO_KERNELS`` pinned to one available compiled backend."""
    _load_suite(request.param)  # skip before touching the environment
    monkeypatch.setenv(ENV_KERNELS, request.param)
    reset_kernels()
    clear_mapping_cache()
    yield request.param
    reset_kernels()
    clear_mapping_cache()


def _force_numpy(monkeypatch):
    monkeypatch.setenv(ENV_KERNELS, "numpy")
    reset_kernels()
    clear_mapping_cache()


# -- direct kernel parity (hypothesis inputs vs. plain-Python refs) -----------

sorted_values = st.lists(
    st.integers(min_value=1, max_value=12), min_size=1, max_size=5,
    unique=True,
).map(sorted)


@settings(max_examples=40, deadline=None)
@given(sorted_values, sorted_values, sorted_values,
       st.integers(min_value=1, max_value=200))
def test_enumerate_triples_matches_reference(suite, a, b, c, limit):
    expected = [
        (x, y, z)
        for x, y, z in itertools.product(a, b, c)
        if x * y * z <= limit
    ]
    got = suite.enumerate_triples(
        np.asarray(a), np.asarray(b), np.asarray(c), limit
    )
    assert got.tolist() == [list(t) for t in expected]


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.booleans(), min_size=0, max_size=40),
    st.integers(min_value=0, max_value=12),
    st.integers(min_value=1, max_value=6),
)
def test_surviving_structures_matches_reference(suite, flags, n_struct, size):
    expected = sum(
        1
        for s in range(n_struct)
        if not any(
            flags[idx]
            for idx in range(s * size, (s + 1) * size)
            if idx < len(flags)
        )
    )
    got = suite.surviving_structures(
        np.asarray(flags, dtype=bool), n_struct, size
    )
    assert got == expected


# -- end-to-end parity: compiled backend vs. forced-NumPy paths ---------------


class TestEndToEnd:
    def test_network_mappings_identical(self, forced_backend, monkeypatch):
        compiled = {
            network.name: map_network(network, 16)
            for network in all_workloads()
        }
        _force_numpy(monkeypatch)
        for network in all_workloads():
            reference = map_network(network, 16)
            fast = compiled[network.name]
            assert fast.total_cycles == reference.total_cycles
            for lm_fast, lm_ref in zip(fast.layers, reference.layers):
                assert lm_fast.factors == lm_ref.factors
                assert lm_fast.coupled == lm_ref.coupled
                assert lm_fast.compute_cycles == lm_ref.compute_cycles

    def test_fault_retention_identical(self, forced_backend, monkeypatch):
        from repro.faults.impact import systolic_retention, tiling_retention
        from repro.faults.model import FaultModel

        masks = [
            FaultModel(seed=seed, dead_pe_rate=0.08).mask_for(16)
            for seed in range(6)
        ]

        def run():
            return [
                (
                    systolic_retention(mask, 16),
                    tiling_retention(mask, 4, 4),
                    tiling_retention(mask, 2, 8),
                )
                for mask in masks
            ]

        compiled = run()
        _force_numpy(monkeypatch)
        assert run() == compiled


def test_unavailable_backend_is_clear_error(monkeypatch):
    """A backend that no longer exists is rejected, naming the valid ones."""
    from repro.errors import ConfigurationError
    from repro.kernels import active_kernels

    monkeypatch.setenv(ENV_KERNELS, "numba")
    reset_kernels()
    try:
        with pytest.raises(ConfigurationError, match="auto, cext, numpy"):
            active_kernels()
    finally:
        reset_kernels()


def test_missing_compiler_is_clear_error(monkeypatch, tmp_path):
    """Explicitly requesting cext without a compiler must not fall back."""
    from repro.errors import ConfigurationError
    from repro.kernels import active_kernels

    monkeypatch.setenv("CC", str(tmp_path / "no-such-cc"))
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.setenv(ENV_KERNELS, "cext")
    reset_kernels()
    try:
        with pytest.raises(ConfigurationError, match="no C compiler"):
            active_kernels()
    finally:
        reset_kernels()

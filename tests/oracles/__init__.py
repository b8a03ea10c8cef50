"""Reference implementations the production engines are checked against.

``src/`` carries one production path per question; the slower,
obviously-correct versions live here instead of behind environment
switches:

* :mod:`tests.oracles.mapper` — the scalar single-layer picks and the
  whole-network coupling DP of the Section 5 mapper;
* :mod:`tests.oracles.perlayer` — the full-candidate per-layer dataflow
  DP and its extern cycle table.

:func:`scalar_engine` runs the production entry points (``map_layer``,
``map_network``, ``map_layer_rect``, ``solve_per_layer``) on these
oracles, so a caller can compare whole results — or time one path
against the other — without a knob in the program.
"""

from __future__ import annotations

import contextlib
import os
from typing import Iterator
from unittest import mock

from repro.dataflow.mapper import clear_mapping_cache
from repro.kernels import ENV_KERNELS, reset_kernels

from tests.oracles import mapper as mapper_oracle
from tests.oracles import perlayer as perlayer_oracle

#: ``(target, replacement)`` pairs :func:`scalar_engine` patches in.
SCALAR_PATCHES = (
    ("repro.dataflow.mapper._best_input", mapper_oracle.best_input),
    ("repro.dataflow.mapper._best_output", mapper_oracle.best_output),
    ("repro.dataflow.mapper._search_batched", mapper_oracle.search_scalar),
    ("repro.dataflow.rectangular._best_input", mapper_oracle.best_input),
    ("repro.dataflow.rectangular._best_output", mapper_oracle.best_output),
    ("repro.dse.perlayer._solve", perlayer_oracle.solve_scalar),
)


@contextlib.contextmanager
def _environ(**values: str) -> Iterator[None]:
    saved = {key: os.environ.get(key) for key in values}
    os.environ.update(values)
    try:
        yield
    finally:
        for key, value in saved.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value


@contextlib.contextmanager
def scalar_engine() -> Iterator[None]:
    """Route the production mapping entry points through the oracles.

    ``REPRO_KERNELS`` is forced to ``numpy`` so ``map_network`` takes the
    (patched) Python search, and the persistent result cache is off so
    every answer is computed rather than restored.  In-process mapping
    memos are cleared on entry and exit: nothing computed by an oracle
    outlives the block, and nothing computed before it answers inside.
    """
    with contextlib.ExitStack() as stack:
        stack.enter_context(_environ(**{ENV_KERNELS: "numpy", "REPRO_CACHE": "off"}))
        for target, replacement in SCALAR_PATCHES:
            stack.enter_context(mock.patch(target, replacement))
        reset_kernels()
        clear_mapping_cache()
        try:
            yield
        finally:
            clear_mapping_cache()
            reset_kernels()

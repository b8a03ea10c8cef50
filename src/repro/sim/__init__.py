"""Functional cycle-level simulators validating each dataflow's numerics."""

from repro.sim.analytic import (
    analytic_flexflow_trace,
    analytic_mapping2d_trace,
    analytic_systolic_trace,
    analytic_tiling_trace,
)
from repro.sim.export import (
    compare_runs,
    load_run,
    network_result_to_dict,
    network_result_to_json,
    sim_trace_to_dict,
)
from repro.sim.flexflow_sim import CoordStore, FlexFlowFunctionalSim
from repro.sim.mapping2d_sim import Mapping2DFunctionalSim
from repro.sim.network_sim import FlexFlowNetworkSim, NetworkSimResult
from repro.sim.pooling_sim import PoolingUnitSim
from repro.sim.systolic_sim import SystolicFunctionalSim
from repro.sim.tile_engine import TileEngine
from repro.sim.tiling_sim import TilingFunctionalSim
from repro.sim.trace import SimTrace

__all__ = [
    "analytic_flexflow_trace",
    "analytic_mapping2d_trace",
    "analytic_systolic_trace",
    "analytic_tiling_trace",
    "CoordStore",
    "FlexFlowFunctionalSim",
    "FlexFlowNetworkSim",
    "NetworkSimResult",
    "Mapping2DFunctionalSim",
    "PoolingUnitSim",
    "SystolicFunctionalSim",
    "TileEngine",
    "TilingFunctionalSim",
    "SimTrace",
    "network_result_to_dict",
    "network_result_to_json",
    "sim_trace_to_dict",
    "load_run",
    "compare_runs",
]

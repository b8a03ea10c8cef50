"""Scalar reference implementation of the per-layer dataflow DP.

The full-candidate pure-Python DP that :func:`repro.dse.perlayer._solve`
must match bit for bit: FlexFlow states are every output triple of every
layer (no Pareto pruning), extern cycles come from one closed-form call
per ``(state, layer)`` cell, and every update is a strict-``<``
first-wins scan.  :func:`solve_scalar` shares ``_solve``'s signature so
:func:`tests.oracles.scalar_engine` can swap it in.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.dataflow.mapper import coupled_input_triple, relayout_penalty_cycles
from repro.dataflow.unrolling import ceil_div
from repro.dse.perlayer import ExternState, extern_layer_cycles
from repro.dse.reconfig import ReconfigCostModel
from repro.nn.layers import ConvLayer

from tests.oracles.mapper import best_input, input_steps, output_steps, output_triples

Triple = Tuple[int, int, int]


def extern_cycle_rows(
    states: Sequence[ExternState],
    layers: Sequence[ConvLayer],
    num_pes: int,
) -> List[List[int]]:
    """One Python closed-form call per (state, layer) cell."""
    return [
        [extern_layer_cycles(state, layer, num_pes) for layer in layers]
        for state in states
    ]


def solve_scalar(
    contexts,
    array_dim: int,
    row_limit: int,
    col_limit: int,
    states: Sequence[ExternState],
    ext_cycles: List[List[int]],
    cost_model: ReconfigCostModel,
) -> Tuple[int, tuple, Dict[str, int]]:
    """``(total_cost, trace, counters)`` over the unified state space.

    Trace steps are ``(family, params, in_triple, out_triple,
    reconfig_cycles, reconfig_kind)``.  ``ext_cycles`` is ignored in
    favour of :func:`extern_cycle_rows`, so the production cycle matrix
    is checked too whenever this stands in for ``_solve``.
    """
    ext_cycles = extern_cycle_rows(
        states, [ctx.layer for ctx in contexts], array_dim * array_dim
    )
    first = contexts[0].layer
    free_in_first, fin_first, _ = best_input(first, col_limit)
    n_outs = 0

    ff_best: Dict[Triple, Tuple[int, tuple]] = {}
    first_outs = output_triples(first, row_limit, contexts[0].tr_tc_bound)
    n_outs += len(first_outs)
    for out in first_outs:
        cost = output_steps(first, out) * fin_first
        entry = (cost, (("flexflow", (), free_in_first, out, 0, ""),))
        current = ff_best.get(out)
        if current is None or cost < current[0]:
            ff_best[out] = entry
    ex_best: List[Tuple[int, tuple]] = [
        (ext_cycles[s][0], ((st.family, st.params, None, None, 0, ""),))
        for s, st in enumerate(states)
    ]

    for idx in range(1, len(contexts)):
        layer = contexts[idx].layer
        free_in, fin_free, _ = best_input(layer, col_limit)
        penalty = relayout_penalty_cycles(layer, array_dim)
        fam_sw = cost_model.family_switch_cycles(layer)
        par_sw = cost_model.param_switch_cycles(layer)

        coupled_buckets: Dict[Optional[Triple], Tuple[int, tuple]] = {}
        best_ff_prev: Optional[Tuple[int, tuple]] = None
        for prev_out, entry in ff_best.items():
            coupled = coupled_input_triple(prev_out, layer, col_limit)
            bucket = coupled_buckets.get(coupled)
            if bucket is None or entry[0] < bucket[0]:
                coupled_buckets[coupled] = entry
            if best_ff_prev is None or entry[0] < best_ff_prev[0]:
                best_ff_prev = entry
        assert best_ff_prev is not None
        best_ex_prev = ex_best[0]
        for entry in ex_best[1:]:
            if entry[0] < best_ex_prev[0]:
                best_ex_prev = entry

        new_ff: Dict[Triple, Tuple[int, tuple]] = {}
        outs = output_triples(layer, row_limit, contexts[idx].tr_tc_bound)
        n_outs += len(outs)
        for out in outs:
            fout = output_steps(layer, out)
            # Option A: stay coupled with the best-matching predecessor.
            candidate: Optional[Tuple[int, tuple]] = None
            for coupled, (pc, pt) in coupled_buckets.items():
                if coupled is None:
                    continue
                cost = pc + fout * input_steps(layer, coupled)
                if candidate is None or cost < candidate[0]:
                    candidate = (
                        cost,
                        pt + (("flexflow", (), coupled, out, 0, ""),),
                    )
            # Option B: break coupling, pay the re-layout penalty (the
            # mapper's own pricing — untouched by the reconfig scale).
            pc, pt = best_ff_prev
            cost = pc + fout * fin_free + penalty
            if candidate is None or cost < candidate[0]:
                candidate = (
                    cost,
                    pt + (("flexflow", (), free_in, out, penalty, "relayout"),),
                )
            # Option C: re-enter FlexFlow from the best extern state.
            pc, pt = best_ex_prev
            cost = pc + fout * fin_free + fam_sw
            if cost < candidate[0]:
                candidate = (
                    cost,
                    pt + (("flexflow", (), free_in, out, fam_sw, "family"),),
                )
            new_ff[out] = candidate

        new_ex: List[Tuple[int, tuple]] = []
        for s, state in enumerate(states):
            step = ext_cycles[s][idx]
            pc, pt = ex_best[s]
            candidate = (
                pc + step,
                pt + ((state.family, state.params, None, None, 0, ""),),
            )
            for o, other in enumerate(states):
                if o == s or other.family != state.family:
                    continue
                pc, pt = ex_best[o]
                cost = pc + par_sw + step
                if cost < candidate[0]:
                    candidate = (
                        cost,
                        pt + ((state.family, state.params, None, None,
                               par_sw, "param"),),
                    )
            for o, other in enumerate(states):
                if other.family == state.family:
                    continue
                pc, pt = ex_best[o]
                cost = pc + fam_sw + step
                if cost < candidate[0]:
                    candidate = (
                        cost,
                        pt + ((state.family, state.params, None, None,
                               fam_sw, "family"),),
                    )
            pc, pt = best_ff_prev
            cost = pc + fam_sw + step
            if cost < candidate[0]:
                candidate = (
                    cost,
                    pt + ((state.family, state.params, None, None,
                           fam_sw, "family"),),
                )
            new_ex.append(candidate)
        ff_best, ex_best = new_ff, new_ex

    last = contexts[-1].layer
    final_cost, final_trace = min(
        ff_best.items(),
        key=lambda item: (
            item[1][0],
            ceil_div(last.out_maps, item[0][0]),
            item[0],
        ),
    )[1]
    for entry in ex_best:
        if entry[0] < final_cost:
            final_cost, final_trace = entry
    counters = {"output_candidates": n_outs, "extern_states": len(states)}
    return final_cost, final_trace, counters

"""Scalar reference implementations of the Section 5 mapper.

These are the per-candidate Python loops the production mapper
(:mod:`repro.dataflow.mapper`) started from, kept as oracles: every
candidate set is enumerated in full with
:func:`~repro.dataflow.unrolling.iter_triples` (no memo, no Pareto
pruning, no compiled kernel), and every selection is a plain ``min``
over explicit tie-break keys.  The production selectors and DPs must
return exactly what these return.

The signatures mirror the production functions they stand in for, so
:func:`tests.oracles.scalar_engine` can swap them in with
``unittest.mock.patch``:

* :func:`best_input` for ``mapper._best_input``;
* :func:`best_output` for ``mapper._best_output``;
* :func:`search_scalar` for ``mapper._search_batched``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.dataflow.mapper import coupled_input_triple, relayout_penalty_cycles
from repro.dataflow.unrolling import ceil_div, iter_triples
from repro.nn.layers import ConvLayer

Triple = Tuple[int, int, int]


def input_triples(layer: ConvLayer, col_limit: int) -> List[Triple]:
    """Every feasible ``(Tn, Ti, Tj)`` in lexicographic order."""
    dims = (layer.in_maps, layer.kernel, layer.kernel)
    return sorted(set(iter_triples(dims, col_limit, dims)))


def output_triples(
    layer: ConvLayer, row_limit: int, tr_tc_bound: Optional[int]
) -> List[Triple]:
    """Every feasible ``(Tm, Tr, Tc)`` in lexicographic order."""
    bound = layer.out_size if tr_tc_bound is None else min(
        layer.out_size, tr_tc_bound
    )
    dims = (layer.out_maps, layer.out_size, layer.out_size)
    caps = (layer.out_maps, bound, bound)
    return sorted(set(iter_triples(dims, row_limit, caps)))


def input_steps(layer: ConvLayer, triple: Triple) -> int:
    tn, ti, tj = triple
    return (
        ceil_div(layer.in_maps, tn)
        * ceil_div(layer.kernel, ti)
        * ceil_div(layer.kernel, tj)
    )


def output_steps(layer: ConvLayer, triple: Triple) -> int:
    tm, tr, tc = triple
    return (
        ceil_div(layer.out_maps, tm)
        * ceil_div(layer.out_size, tr)
        * ceil_div(layer.out_size, tc)
    )


def best_input(layer: ConvLayer, col_limit: int) -> Tuple[Triple, int, int]:
    """``(triple, steps, n_candidates)``: fewest steps, then lexicographic."""
    ins = input_triples(layer, col_limit)
    best = min(ins, key=lambda t: (input_steps(layer, t), t))
    return best, input_steps(layer, best), len(ins)


def best_output(
    layer: ConvLayer, row_limit: int, tr_tc_bound: Optional[int]
) -> Tuple[Triple, int]:
    """``(triple, n_candidates)``: fewest steps, then larger ``Tm``.

    Equal-cycle choices tie-break toward fewer output-map tile groups
    (``ceil(M/Tm)``), then lexicographically.
    """
    outs = output_triples(layer, row_limit, tr_tc_bound)
    best = min(
        outs,
        key=lambda t: (
            output_steps(layer, t),
            ceil_div(layer.out_maps, t[0]),
            t,
        ),
    )
    return best, len(outs)


def search_scalar(
    contexts, array_dim: int, row_limit: int, col_limit: int
) -> Tuple[int, tuple, Dict[str, int]]:
    """The whole-network coupling DP, one candidate at a time.

    Returns ``(total_cost, trace, counters)`` where ``trace`` holds one
    ``(input_triple, output_triple, relayout_cycles)`` per CONV layer.
    Updates are strict-``<`` first-wins throughout; transition buckets
    are visited in first-appearance order; the final pick minimizes
    ``(cost, ceil(M/Tm), triple)``.
    """
    layer_outs = [
        output_triples(ctx.layer, row_limit, ctx.tr_tc_bound) for ctx in contexts
    ]

    # DP state: best (cost, trace) for each output triple of the current
    # layer.
    first = contexts[0].layer
    free_in_first, fin_first, _ = best_input(first, col_limit)

    best: Dict[Triple, Tuple[int, tuple]] = {}
    for out in layer_outs[0]:
        cost = output_steps(first, out) * fin_first
        current = best.get(out)
        if current is None or cost < current[0]:
            best[out] = (cost, ((free_in_first, out, 0),))

    for idx in range(1, len(contexts)):
        layer = contexts[idx].layer
        # Free-choice option: best input triple regardless of predecessor.
        free_in, fin_free, _ = best_input(layer, col_limit)
        penalty = relayout_penalty_cycles(layer, array_dim)

        # Bucket predecessors by their coupled input triple for this layer.
        coupled_buckets: Dict[Optional[Triple], Tuple[int, tuple]] = {}
        best_prev_any: Optional[Tuple[int, tuple]] = None
        for prev_out, (prev_cost, prev_trace) in best.items():
            coupled = coupled_input_triple(prev_out, layer, col_limit)
            bucket = coupled_buckets.get(coupled)
            if bucket is None or prev_cost < bucket[0]:
                coupled_buckets[coupled] = (prev_cost, prev_trace)
            if best_prev_any is None or prev_cost < best_prev_any[0]:
                best_prev_any = (prev_cost, prev_trace)
        assert best_prev_any is not None

        new_best: Dict[Triple, Tuple[int, tuple]] = {}
        for out in layer_outs[idx]:
            fout = output_steps(layer, out)
            # Option A: stay coupled with the best-matching predecessor.
            candidate: Optional[Tuple[int, tuple]] = None
            for coupled, (prev_cost, prev_trace) in coupled_buckets.items():
                if coupled is None:
                    continue
                cost = prev_cost + fout * input_steps(layer, coupled)
                if candidate is None or cost < candidate[0]:
                    candidate = (cost, prev_trace + ((coupled, out, 0),))
            # Option B: break coupling, pay the re-layout penalty.
            prev_cost, prev_trace = best_prev_any
            free_cost = prev_cost + fout * fin_free + penalty
            if candidate is None or free_cost < candidate[0]:
                candidate = (free_cost, prev_trace + ((free_in, out, penalty),))
            new_best[out] = candidate
        best = new_best

    last_layer = contexts[-1].layer
    final_cost, final_trace = min(
        best.items(),
        key=lambda item: (
            item[1][0],
            ceil_div(last_layer.out_maps, item[0][0]),
            item[0],
        ),
    )[1]
    counters = {"output_candidates": sum(len(outs) for outs in layer_outs)}
    return final_cost, final_trace, counters

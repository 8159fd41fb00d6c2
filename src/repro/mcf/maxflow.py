"""Max-flow helpers: cut-based bounds and single-pair flows.

Concurrent-flow optima are expensive; these helpers provide cheap upper
bounds (used as sanity rails in tests and as fast previews in the CLI)
and exact switch-set max-flows built on
:func:`scipy.sparse.csgraph.maximum_flow`.
"""

from __future__ import annotations

from typing import Dict, Iterable

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import maximum_flow

from repro.errors import SolverError, TopologyError
from repro.mcf.commodities import FlowProblem
from repro.topology.elements import Arcs, Network, SwitchId

#: Capacities are scaled to integers for csgraph's integer max-flow.
_SCALE = 10_000


def source_cut_bound(problem: FlowProblem) -> float:
    """λ upper bound from each group's source out-capacity.

    The concurrent rate cannot exceed (source out-capacity) / (group
    demand) for any group — a single cut, hence an upper bound.
    """
    out_cap = np.zeros(problem.num_nodes)
    np.add.at(out_cap, problem.arcs.src, problem.arcs.cap)
    bound = np.inf
    for g in problem.groups:
        bound = min(bound, out_cap[g.source] / g.total_demand)
    return float(bound)


def sink_cut_bound(problem: FlowProblem) -> float:
    """λ upper bound from per-sink in-capacity across all groups."""
    in_cap = np.zeros(problem.num_nodes)
    np.add.at(in_cap, problem.arcs.dst, problem.arcs.cap)
    demand_in: Dict[int, float] = {}
    for g in problem.groups:
        for sink, demand in zip(g.sinks, g.demands):
            demand_in[int(sink)] = demand_in.get(int(sink), 0.0) + float(demand)
    bound = np.inf
    for sink, demand in demand_in.items():
        bound = min(bound, in_cap[sink] / demand)
    return float(bound)


def concurrent_upper_bound(problem: FlowProblem) -> float:
    """Best available cheap upper bound on the concurrent throughput."""
    return min(source_cut_bound(problem), sink_cut_bound(problem))


def single_pair_max_flow(net: Network, src: SwitchId, dst: SwitchId) -> float:
    """Exact max flow between two switches over the fabric.

    Capacities are the cable-bundle capacities; both directions of a
    cable may be used simultaneously (full-duplex model).
    """
    if src == dst:
        raise SolverError("source and destination switches coincide")
    return flow_between_sets(net, [src], [dst])


def flow_between_sets(
    net: Network, side_a: Iterable[SwitchId], side_b: Iterable[SwitchId]
) -> float:
    """Max flow from switch set ``side_a`` to ``side_b`` (super nodes).

    A super source feeds every ``side_a`` switch and every ``side_b``
    switch drains into a super sink, each through an arc far wider than
    any cut.  Raises :class:`TopologyError` for a switch not in ``net``.
    """
    side_a, side_b = set(side_a), set(side_b)
    if not side_a or not side_b:
        raise SolverError("both sides of a cut need at least one switch")
    if side_a & side_b:
        raise SolverError("cut sides overlap")
    arcs = net.arcs()
    a = [_node_of(arcs, s) for s in side_a]
    b = [_node_of(arcs, s) for s in side_b]
    n = len(arcs.switches)
    source, sink = n, n + 1
    # csgraph's integer max-flow wants int32: capacities are scaled to
    # integers, and one billion dwarfs any real cut (total fabric
    # capacity stays far below it) without overflow.
    big = 1_000_000_000
    rows = np.concatenate([arcs.src, np.full(len(a), source), b])
    cols = np.concatenate([arcs.dst, a, np.full(len(b), sink)])
    vals = np.concatenate([np.rint(arcs.cap * _SCALE),
                           np.full(len(a) + len(b), big)])
    graph = sp.csr_matrix((vals.astype(np.int32), (rows, cols)),
                          shape=(n + 2, n + 2))
    return maximum_flow(graph, source, sink).flow_value / _SCALE


def _node_of(arcs: Arcs, switch: SwitchId) -> int:
    try:
        return arcs.node[switch]
    except KeyError:
        raise TopologyError(f"unknown switch {switch!r}") from None

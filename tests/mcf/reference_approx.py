"""Reference FPTAS: the per-sink Garg–Könemann tree walk.

This is the implementation that
:func:`repro.mcf.approx.solve_concurrent_approx` replaced, kept
unchanged as the differential oracle: after each Dijkstra tree a Python
loop walks every sink's path with one ``searchsorted`` per path and adds
its flow arc by arc.  Tests require the vectorized walk to return a
``repr``-equal λ and the same ``mcf.approx.*`` counters.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components, dijkstra

from repro import obs
from repro.errors import SolverError
from repro.mcf.approx import _certify, _phase_budget
from repro.mcf.commodities import FlowProblem
from repro.mcf.exact import MCFResult


def reference_solve_concurrent_approx(problem: FlowProblem,
                                      epsilon: float = 0.1,
                                      max_phases=None) -> MCFResult:
    """The per-sink FPTAS; same contract as ``solve_concurrent_approx``.

    It reports no dual bound: ``upper`` is ``None``.
    """
    if not 0 < epsilon < 1:
        raise SolverError(f"epsilon must be in (0, 1), got {epsilon}")
    if problem.num_groups == 0:
        raise SolverError("no demand groups to solve")

    arcs = problem.arcs
    num_arcs = problem.num_arcs
    cap = arcs.cap
    delta = (1 + epsilon) * ((1 + epsilon) * num_arcs) ** (-1.0 / epsilon)
    lengths = delta / cap
    flow = np.zeros(num_arcs)
    routed = [np.zeros(len(g.sinks)) for g in problem.groups]

    n = problem.num_nodes
    order = arcs.order
    matrix = sp.csr_matrix((lengths[order], arcs.dst[order], arcs.indptr),
                           shape=(n, n))
    keys = arcs.src[order].astype(np.int64) * n + arcs.dst[order]
    _count, component = connected_components(matrix)
    unreachable = any((component[g.sinks] != component[g.source]).any()
                      for g in problem.groups)
    if unreachable:
        obs.incr("mcf.approx.unreachable_sinks")

    d_value = float((lengths * cap).sum())
    phases = 0
    trees = 0
    budget = max_phases if max_phases is not None else _phase_budget(epsilon, num_arcs)
    with obs.span("mcf.approx", groups=problem.num_groups, arcs=num_arcs), \
            obs.timer("mcf.approx.solve_s"), \
            obs.ProgressTracker("mcf.approx", total=budget) as progress:
        while not unreachable and d_value < 1.0 and phases < budget:
            for g_index, group in enumerate(problem.groups):
                remaining = group.demands.astype(np.float64).copy()
                for _round in range(len(group.sinks) + 1):
                    if d_value >= 1.0 or not (remaining > 1e-12).any():
                        break
                    np.take(lengths, order, out=matrix.data)
                    predecessors = dijkstra(
                        matrix, indices=group.source,
                        return_predecessors=True)[1]
                    trees += 1
                    bump_amount = np.zeros(num_arcs)
                    for sink_pos, sink in enumerate(group.sinks):
                        if remaining[sink_pos] <= 1e-12:
                            continue
                        path_arcs = _tree_path(order, keys, n, predecessors,
                                               int(sink))
                        bottleneck = float(cap[path_arcs].min())
                        amount = min(float(remaining[sink_pos]), bottleneck)
                        flow[path_arcs] += amount
                        bump_amount[path_arcs] += amount
                        routed[g_index][sink_pos] += amount
                        remaining[sink_pos] -= amount
                    bump = 1.0 + epsilon * bump_amount / cap
                    d_value += float((lengths * (bump - 1.0) * cap).sum())
                    lengths *= bump
            phases += 1
            progress.advance()

    obs.incr("mcf.approx.solves")
    obs.incr("mcf.approx.phases", phases)
    obs.incr("mcf.approx.dijkstra_calls", trees)
    if unreachable:
        result = MCFResult(throughput=0.0, method="approx-gk")
    else:
        result = _certify(problem, flow, routed)
    obs.set_gauge("mcf.approx.last_objective", result.throughput)
    return result


def _tree_path(order: np.ndarray, keys: np.ndarray, n: int,
               predecessors: np.ndarray, sink: int) -> np.ndarray:
    """Arc ids of the shortest-path tree's path to ``sink``, in order."""
    nodes = [sink]
    while predecessors[nodes[-1]] >= 0:
        nodes.append(int(predecessors[nodes[-1]]))
    ends = np.array(nodes[::-1], dtype=np.int64)
    return order[np.searchsorted(keys, ends[:-1] * n + ends[1:])]

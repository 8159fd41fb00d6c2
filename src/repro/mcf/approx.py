"""Fleischer/Garg–Könemann approximation for max concurrent flow.

The exact LP (``repro.mcf.exact``) grows as #groups × #arcs and becomes
impractical for the paper's largest instances (k = 30–32 all-to-all
traffic) on a laptop.  This module implements the classic multiplicative-
weights FPTAS (Garg & Könemann 1998; Fleischer 2000):

* every arc carries a length ``l(a)``, initialized to ``δ / cap(a)``;
* in *phases*, each commodity routes its full demand along successive
  shortest paths (by current lengths), bumping traversed arc lengths by
  ``(1 + ε · sent / cap)``;
* the process stops once ``D(l) = Σ l(a)·cap(a) ≥ 1``.

Rather than relying on the theoretical scaling constants, the solver
returns a **certified feasible** throughput: the accumulated flow is
scaled down by the worst arc overload, and λ is the minimum scaled
rate over all commodities, so it never exceeds the optimum.  It does
not reach the nominal (1 - ε)·OPT in practice.  At ε = 0.08, measured
λ/OPT is about 0.72 at worst on the plant benchmark's k = 6
mcf-bracket instances and 0.571 on a fig8 fat-tree k = 4 instance.
The tests only check small random instances, against a 0.85-0.9 floor.
"""

from __future__ import annotations

import math
from typing import List, Optional

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components, dijkstra

from repro import obs
from repro.errors import SolverError
from repro.mcf.commodities import FlowProblem
from repro.mcf.exact import MCFResult


def solve_concurrent_approx(
    problem: FlowProblem,
    epsilon: float = 0.1,
    max_phases: Optional[int] = None,
) -> MCFResult:
    """Approximate max concurrent flow: a feasible λ at most the optimum.

    ``epsilon`` is the Garg–Könemann step size (the module notes give
    the measured gap to the optimum).  ``max_phases`` optionally caps
    the phase count (the certified result stays feasible, just possibly
    further from optimal).
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
    routed: List[np.ndarray] = [
        np.zeros(len(g.sinks)) for g in problem.groups
    ]

    # Dijkstra runs on the arcs' CSR layout; each query writes the current
    # lengths into the matrix's data slots.  ``keys`` is (src, dst) of
    # every slot, sorted, so a tree edge maps back to its arc.
    n = problem.num_nodes
    order = arcs.order
    matrix = sp.csr_matrix((lengths[order], arcs.dst[order], arcs.indptr),
                           shape=(n, n))
    keys = arcs.src[order].astype(np.int64) * n + arcs.dst[order]
    # Arcs come in antiparallel pairs, so a sink is reachable from its
    # source exactly when both lie in one component.  Otherwise the
    # concurrent throughput is 0.
    _count, component = connected_components(matrix)
    unreachable = any((component[g.sinks] != component[g.source]).any()
                      for g in problem.groups)
    if unreachable:
        obs.incr("mcf.approx.unreachable_sinks")

    d_value = float((lengths * cap).sum())
    phases = 0
    trees = 0
    budget = max_phases if max_phases is not None else _phase_budget(epsilon, num_arcs)
    # The phase budget is a theoretical worst case; d_value usually
    # crosses 1.0 far earlier, so the heartbeat ETA here is an upper
    # bound that only tightens (the clamp keeps it monotone).
    with obs.span("mcf.approx", groups=problem.num_groups, arcs=num_arcs), \
            obs.timer("mcf.approx.solve_s"), \
            obs.ProgressTracker("mcf.approx", total=budget) as progress:
        while not unreachable and d_value < 1.0 and phases < budget:
            for g_index, group in enumerate(problem.groups):
                remaining = group.demands.astype(np.float64).copy()
                # Route the whole group off shared shortest-path trees: one
                # Dijkstra serves every sink still carrying demand.  Length
                # bumps apply after each tree, not after each sink — a
                # standard batching of Fleischer's inner loop; the result
                # stays exact because feasibility is certified a posteriori.
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


def _phase_budget(epsilon: float, num_arcs: int) -> int:
    """Theoretical upper bound on the number of phases (safety net)."""
    return int(math.ceil(2 * math.log((1 + epsilon) * num_arcs) / (epsilon**2))) + 2


def _certify(
    problem: FlowProblem, flow: np.ndarray, routed: List[np.ndarray]
) -> MCFResult:
    """Scale accumulated flow to feasibility and report the worst rate."""
    with np.errstate(divide="ignore", invalid="ignore"):
        overload = np.where(flow > 0, flow / problem.arcs.cap, 0.0)
    worst = float(overload.max())
    scale = 1.0 if worst <= 1.0 else 1.0 / worst
    lam = math.inf
    for group, sent in zip(problem.groups, routed):
        rates = sent * scale / group.demands
        lam = min(lam, float(rates.min()))
    if not math.isfinite(lam):
        raise SolverError("approximation produced no routed flow")
    return MCFResult(throughput=lam, method="approx-gk")

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

Each demand group routes off shared shortest-path trees: one Dijkstra
from the group's source serves every sink still carrying demand, and
the tree's flow is added in one numpy pass.  Every node is mapped to its
predecessor arc once per tree, then all live sinks walk up the tree
together, one level per step, so the Python work per tree grows with the
tree's depth and not with its sink count.  The pass adds the same
floating-point terms in the same order as routing the sinks one at a
time (the comment in the loop says why), so λ is bit-identical to that
per-sink walk, which the tests keep as a differential oracle.

Rather than relying on the theoretical scaling constants, the solver
returns a **certified feasible** throughput: the accumulated flow is
scaled down by the worst arc overload, and λ is the minimum scaled
rate over all commodities, so it never exceeds the optimum.  It does
not reach the nominal (1 - ε)·OPT in practice.  At ε = 0.08, measured
λ/OPT is about 0.72 at worst on the plant benchmark's k = 6
mcf-bracket instances and 0.571 on a fig8 fat-tree k = 4 instance.
The tests only check small random instances, against a 0.85-0.9 floor.
The result also carries the weak-duality bound ``upper = D(l)/α(l)`` at
the final lengths, with ``α(l) = Σ demand · dist_l(source, sink)``, so
the optimum is bracketed by ``[throughput, upper]``.
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
    further from optimal).  ``upper`` of the result is a dual bound at
    least the optimum (0.0 when some demand is unreachable).
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
    # Tree paths are padded with the extra arc ``num_arcs``: infinite
    # capacity, and a flow slot outside the certified ``flow[:num_arcs]``.
    cap_pad = np.append(cap, np.inf)
    flow = np.zeros(num_arcs + 1)
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
    upper = 0.0
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
                # Dijkstra serves every sink still carrying demand, each
                # sink sends min(remaining, path bottleneck), and lengths
                # are bumped once per tree — a standard batching of
                # Fleischer's inner loop, exact because feasibility is
                # certified a posteriori.  All live sinks walk the tree
                # together, so a tree costs numpy calls per level of the
                # tree, not per sink.
                for _round in range(len(group.sinks) + 1):
                    live = (remaining > 1e-12).nonzero()[0]
                    if d_value >= 1.0 or not live.size:
                        break
                    np.take(lengths, order, out=matrix.data)
                    predecessors = dijkstra(
                        matrix, indices=group.source,
                        return_predecessors=True)[1]
                    trees += 1
                    paths = _tree_paths(predecessors, order, keys,
                                        group.source, group.sinks[live])
                    amount = np.minimum(remaining[live],
                                        cap_pad[paths].min(axis=0))
                    # One add over every (sink, arc) pair of the tree is
                    # bit-identical to adding each sink's path in turn.
                    # Sinks of one tree do not interact: lengths change
                    # only after the tree.  A path crosses an arc at most
                    # once, so in the sink-major ``path_arcs`` the
                    # additions into any arc come in sink order, and
                    # np.add.at and np.bincount apply them one by one in
                    # that order.  Padding lands in the extra arc slot.
                    path_arcs = paths.T.ravel()
                    path_amount = np.repeat(amount, paths.shape[0])
                    np.add.at(flow, path_arcs, path_amount)
                    bump_amount = np.bincount(
                        path_arcs, path_amount, minlength=num_arcs + 1
                    )[:num_arcs]
                    routed[g_index][live] += amount
                    remaining[live] -= amount
                    bump = 1.0 + epsilon * bump_amount / cap
                    d_value += float((lengths * (bump - 1.0) * cap).sum())
                    lengths *= bump
            phases += 1
            progress.advance()
        if not unreachable:
            upper = _dual_bound(problem, matrix, lengths)

    obs.incr("mcf.approx.solves")
    obs.incr("mcf.approx.phases", phases)
    obs.incr("mcf.approx.dijkstra_calls", trees)
    if unreachable:
        result = MCFResult(throughput=0.0, method="approx-gk", upper=upper)
    else:
        result = _certify(problem, flow[:num_arcs], routed)
        result.upper = upper
    obs.set_gauge("mcf.approx.last_objective", result.throughput)
    return result


def _tree_paths(predecessors: np.ndarray, order: np.ndarray,
                keys: np.ndarray, source: int,
                sinks: np.ndarray) -> np.ndarray:
    """Arc ids of the shortest-path tree's paths to ``sinks``.

    Column ``i`` lists the arcs from ``sinks[i]`` up to ``source``,
    padded below with ``len(order)``; row ``j`` is every sink's ``j``-th
    step up the tree.  Every node is mapped to its predecessor arc with
    one ``searchsorted``, then all sinks climb together, one level per
    step.  ``predecessors`` is overwritten.
    """
    n = predecessors.shape[0]
    pad = order.shape[0]
    child = (predecessors >= 0).nonzero()[0]
    pred_arc = np.full(n, pad, dtype=np.int64)
    pred_arc[child] = order[keys.searchsorted(
        predecessors[child].astype(np.int64) * n + child)]
    predecessors[source] = source
    steps = []
    step = pred_arc[sinks]
    while step.min() < pad:
        steps.append(step)
        sinks = predecessors[sinks]
        step = pred_arc[sinks]
    return np.array(steps)


def _dual_bound(problem: FlowProblem, matrix: sp.csr_matrix,
                lengths: np.ndarray) -> float:
    """Weak-duality bound ``D(l)/α(l)`` on the optimum λ at ``lengths``.

    Any flow at rate λ puts ``λ · α(l)`` of length-weighted volume on
    arcs whose length-weighted capacity is ``D(l)``.  One batched
    Dijkstra from every group source gives the distances.
    """
    np.take(lengths, problem.arcs.order, out=matrix.data)
    dist = dijkstra(matrix, indices=[g.source for g in problem.groups])
    alpha = sum(float(g.demands @ dist[i, g.sinks])
                for i, g in enumerate(problem.groups))
    return float((lengths * problem.arcs.cap).sum()) / alpha


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

"""Max-min fair rate allocation over routed flows (water-filling).

The paper evaluates throughput with an optimal-routing LP; real networks
run flows over concrete paths with congestion control approximating
max-min fairness.  This module provides the classic progressive-filling
algorithm, vectorized over the network's directed arcs: repeatedly find
the minimal fair share over the loaded arcs, freeze the flows crossing
every arc at that share, remove their rates from the residual
capacities, and continue.

It serves as a *routing-sensitive* second opinion next to the LP: the
same workload evaluated over ECMP or KSP path choices yields a rate
profile whose aggregate never exceeds the LP optimum and whose trends
across topologies match it (cross-checked in tests and an ablation
bench).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro import obs
from repro.errors import ReproError
from repro.routing.base import Path
from repro.topology.elements import Network, SwitchId

LinkKey = Tuple[SwitchId, SwitchId]


@dataclass(frozen=True)
class RoutedFlow:
    """A flow pinned to one switch-level path.

    ``flow_id`` identifies the flow; ``path`` may have zero hops (both
    endpoints on one switch), in which case the flow is unconstrained by
    the fabric and gets rate ``math.inf`` unless ``demand`` caps it.
    ``demand`` is an optional rate ceiling, at least 0 (None = elastic
    flow).
    """

    flow_id: int
    path: Path
    demand: Optional[float] = None

    def __post_init__(self) -> None:
        # ``not >= 0`` also rejects NaN, which fails every comparison.
        if self.demand is not None and not self.demand >= 0:
            raise ReproError(
                f"flow {self.flow_id} has invalid demand {self.demand!r}; "
                f"a rate ceiling must be >= 0"
            )


@dataclass
class FairShareResult:
    """Per-flow max-min rates plus aggregate statistics."""

    rates: Dict[int, float]

    @property
    def total(self) -> float:
        return sum(r for r in self.rates.values() if math.isfinite(r))

    @property
    def min_rate(self) -> float:
        return min(self.rates.values()) if self.rates else 0.0

    def bounded_rates(self) -> Dict[int, float]:
        """Rates of fabric-constrained flows only (finite values)."""
        return {f: r for f, r in self.rates.items() if math.isfinite(r)}


def link_allocation(
    flows: List[RoutedFlow], rates: Dict[int, float]
) -> Tuple[Dict[LinkKey, float], Dict[LinkKey, int]]:
    """Fold per-flow rates into per-directed-link (rate, flow count).

    The monitoring plane's view of an allocation: summing the returned
    rates over all links equals ``sum(rate * hops)`` over the flows,
    which tests use to cross-check monitor samples against the
    allocator.  Infinite-rate (zero-hop) flows touch no link.
    """
    link_rates: Dict[LinkKey, float] = {}
    link_flows: Dict[LinkKey, int] = {}
    for flow in flows:
        rate = rates[flow.flow_id]
        if not math.isfinite(rate):
            continue
        for key in flow.path.edges():
            link_rates[key] = link_rates.get(key, 0.0) + rate
            link_flows[key] = link_flows.get(key, 0) + 1
    return link_rates, link_flows


def max_min_fair_rates(
    net: Network,
    flows: List[RoutedFlow],
    monitor=None,
    now: float = 0.0,
) -> FairShareResult:
    """Progressive filling over directed link capacities.

    Each fabric cable contributes its capacity independently per
    direction (full-duplex, consistent with the MCF model), indexed by
    :meth:`Network.arcs`.  A round costs O(arcs + flows x hops) in
    numpy and freezes either every demand-capped flow at or below the
    bottleneck share or every flow on every arc at that share, so the
    round count is the number of distinct bottleneck levels.  Rates do
    not depend on the order of ``flows``.

    ``monitor`` (a :class:`repro.monitor.NetworkMonitor`, or anything
    with ``on_allocation``) receives the per-directed-link rates and
    active-flow counts of this allocation, stamped at simulated time
    ``now``; ``None`` skips all monitoring work.
    """
    view = net.arcs()
    index, caps = view.index, view.cap
    bad = np.flatnonzero(~(caps > 0))  # NaN counts as bad too
    if bad.size:
        u, v = list(index)[bad[0]]
        raise ReproError(
            f"link {u!r} - {v!r} has non-positive capacity {caps[bad[0]]}; "
            f"flows crossing it could never be allocated a rate"
        )
    ordered = sorted(flows, key=lambda f: f.flow_id)
    arcs: List[int] = []
    for flow in ordered:
        nodes = flow.path.nodes
        try:
            arcs.extend(map(index.__getitem__, zip(nodes, nodes[1:])))
        except KeyError:
            flow.path.validate_on(net)
            raise
    ids = [f.flow_id for f in ordered]
    if len(set(ids)) != len(ids):
        raise ReproError("flow ids must be unique")

    # Flat (flow, arc) incidence; frozen flows' entries are dropped.
    hops = [len(f.path.nodes) - 1 for f in ordered]
    flow_of = np.repeat(np.arange(len(ids)), hops)
    arc_of = np.array(arcs, dtype=np.intp)
    # Zero-hop flows never cross the fabric and keep demand (or inf);
    # ``ceiling`` is the demand of each unfrozen fabric flow, else inf.
    rate = np.array([math.inf if f.demand is None else f.demand
                     for f in ordered], dtype=float)
    ceiling = np.where(np.array(hops) > 0, rate, math.inf)
    count = np.bincount(arc_of, minlength=caps.size).astype(float)
    # Unloaded arcs hold inf, so their share is inf and never binds.
    remaining = np.where(count > 0, caps, math.inf)
    rounds = 0
    while flow_of.size:
        rounds += 1
        share = remaining / count
        best = share.min()
        if math.isinf(best):
            break  # no loaded arc binds: live flows keep demand or inf
        # Demand ceilings at or below the bottleneck share freeze first.
        frozen = ceiling <= best
        if not frozen.any():
            frozen[flow_of[share[arc_of] == best]] = True
            rate[frozen] = best
        ceiling[frozen] = math.inf
        hit = frozen[flow_of]
        dead = arc_of[hit]
        np.subtract.at(remaining, dead, rate[flow_of[hit]])
        np.maximum(remaining, 0.0, out=remaining)
        count -= np.bincount(dead, minlength=caps.size)
        remaining[count == 0] = math.inf
        flow_of, arc_of = flow_of[~hit], arc_of[~hit]
    obs.incr("flowsim.fairshare_rounds", rounds)
    rates = dict(zip(ids, rate.tolist()))
    if monitor is not None:
        monitor.on_allocation(now, *link_allocation(flows, rates))
    return FairShareResult(rates=rates)

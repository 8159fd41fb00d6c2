"""Commodities and flow problems for throughput evaluation (paper §3.1).

The paper measures throughput by solving the **maximum concurrent
multi-commodity flow** problem at switch level: server bandwidth is
relaxed, all switch-switch links have unit capacity, and every commodity
(server pair with a demand) must receive the same rate ``λ`` per unit of
demand; the reported throughput is the maximal ``λ``.

Two modelling consequences are encoded here:

* **Switch contraction** — commodities between servers on the same switch
  are unconstraining under relaxed server bandwidth and are dropped;
  all others become switch-to-switch demands.
* **Source aggregation** — commodities sharing a source switch can share
  flow variables (flow conservation with multiple sinks), shrinking the
  LP by orders of magnitude without changing its optimum.

Links are full-duplex: each cable is two directed arcs of one capacity
unit each.  Incast traffic is therefore the arc-reversal of broadcast
traffic and achieves the identical ``λ``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Tuple

import numpy as np

from repro.errors import TrafficError
from repro.topology.elements import Arcs, Network, ServerId


@dataclass(frozen=True)
class Commodity:
    """A unit of demand from one server to another."""

    src: ServerId
    dst: ServerId
    demand: float = 1.0

    def __post_init__(self) -> None:
        if self.src == self.dst:
            raise TrafficError(f"commodity from server {self.src} to itself")
        if self.demand <= 0:
            raise TrafficError(f"non-positive demand {self.demand}")


@dataclass
class DemandGroup:
    """All demands sharing one source switch (aggregated commodities)."""

    source: int
    sinks: np.ndarray
    demands: np.ndarray

    @property
    def total_demand(self) -> float:
        return float(self.demands.sum())


@dataclass
class FlowProblem:
    """Aggregated switch-level demands over a directed arc view.

    Node ids are the dense indices of ``arcs`` (``arcs.switches[i]`` is
    node ``i``, ``arcs.node`` maps back).  Arcs come in antiparallel
    pairs (full-duplex cables).
    """

    arcs: Arcs
    groups: List[DemandGroup]

    @property
    def num_nodes(self) -> int:
        return len(self.arcs.switches)

    @property
    def num_arcs(self) -> int:
        return int(self.arcs.src.shape[0])

    @property
    def num_groups(self) -> int:
        return len(self.groups)

    @property
    def total_demand(self) -> float:
        return sum(g.total_demand for g in self.groups)

    def reversed(self) -> "FlowProblem":
        """The arc-reversed problem (models incast given broadcast).

        Arc ``a`` keeps its id and capacity but runs the other way.
        Demands are reversed per-commodity: each (source -> sink, d)
        becomes (sink -> source, d), re-aggregated by the new sources.
        """
        pairs: List[Tuple[int, int, float]] = []
        for g in self.groups:
            for sink, demand in zip(g.sinks, g.demands):
                pairs.append((int(sink), g.source, float(demand)))
        arcs = self.arcs
        return FlowProblem(
            arcs=Arcs(arcs.switches, [(v, u) for u, v in arcs.index],
                      arcs.cap),
            groups=_aggregate(pairs),
        )


def build_flow_problem(
    net: Network, commodities: Iterable[Commodity]
) -> FlowProblem:
    """Contract server commodities to switch level and aggregate.

    Same-switch commodities are dropped (relaxed server bandwidth makes
    them unconstraining).  Raises :class:`TrafficError` if *every*
    commodity is dropped — a concurrent-flow value would be meaningless.
    """
    arcs = net.arcs()
    pairs: List[Tuple[int, int, float]] = []
    for c in commodities:
        src_sw = arcs.node[net.server_switch(c.src)]
        dst_sw = arcs.node[net.server_switch(c.dst)]
        if src_sw == dst_sw:
            continue
        pairs.append((src_sw, dst_sw, c.demand))
    if not pairs:
        raise TrafficError(
            "all commodities are same-switch; concurrent flow is unbounded"
        )
    return FlowProblem(arcs=arcs, groups=_aggregate(pairs))


def _aggregate(pairs: List[Tuple[int, int, float]]) -> List[DemandGroup]:
    """Group (src, dst, demand) triples by source, summing duplicates."""
    by_source: Dict[int, Dict[int, float]] = {}
    for src, dst, demand in pairs:
        sinks = by_source.setdefault(src, {})
        sinks[dst] = sinks.get(dst, 0.0) + demand
    groups = []
    for src in sorted(by_source):
        sinks = by_source[src]
        order = sorted(sinks)
        groups.append(
            DemandGroup(
                source=src,
                sinks=np.asarray(order, dtype=np.int32),
                demands=np.asarray([sinks[t] for t in order], dtype=np.float64),
            )
        )
    return groups


def commodity_count(problem: FlowProblem) -> int:
    """Number of distinct switch-level commodities after aggregation."""
    return sum(len(g.sinks) for g in problem.groups)

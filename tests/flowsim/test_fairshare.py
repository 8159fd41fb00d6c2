"""Unit and property tests for max-min fair allocation."""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ReproError, RoutingError
from repro.flowsim.fairshare import (
    RoutedFlow,
    link_allocation,
    max_min_fair_rates,
)
from repro.routing.base import Path
from repro.routing.ksp import k_shortest_paths
from repro.topology.elements import Network, PlainSwitch
from repro.topology.fattree import build_fat_tree


def p(*indices):
    return Path(tuple(PlainSwitch(i) for i in indices))


def line(n=3, ports=8):
    net = Network("line")
    nodes = [PlainSwitch(i) for i in range(n)]
    for node in nodes:
        net.add_switch(node, ports)
    for a, b in zip(nodes, nodes[1:]):
        net.add_cable(a, b)
    return net


class TestKnownAllocations:
    def test_single_flow_gets_full_link(self):
        net = line()
        result = max_min_fair_rates(net, [RoutedFlow(1, p(0, 1))])
        assert result.rates[1] == pytest.approx(1.0)

    def test_two_flows_share_bottleneck(self):
        net = line()
        flows = [RoutedFlow(1, p(0, 1, 2)), RoutedFlow(2, p(0, 1))]
        result = max_min_fair_rates(net, flows)
        assert result.rates[1] == pytest.approx(0.5)
        assert result.rates[2] == pytest.approx(0.5)

    def test_opposite_directions_do_not_contend(self):
        net = line()
        flows = [RoutedFlow(1, p(0, 1)), RoutedFlow(2, p(1, 0))]
        result = max_min_fair_rates(net, flows)
        assert result.rates[1] == pytest.approx(1.0)
        assert result.rates[2] == pytest.approx(1.0)

    def test_waterfilling_releases_slack(self):
        """Classic: flows A(0-1-2), B(0-1), C(1-2).

        Link (0,1) carries A,B; link (1,2) carries A,C -> everyone 0.5.
        Add D(0,1) -> link (0,1) has 3 flows: A,B,D = 1/3; C then gets
        the slack on (1,2): 2/3.
        """
        net = line()
        flows = [
            RoutedFlow(1, p(0, 1, 2)),
            RoutedFlow(2, p(0, 1)),
            RoutedFlow(3, p(1, 2)),
            RoutedFlow(4, p(0, 1)),
        ]
        rates = max_min_fair_rates(net, flows).rates
        assert rates[1] == pytest.approx(1 / 3)
        assert rates[2] == pytest.approx(1 / 3)
        assert rates[4] == pytest.approx(1 / 3)
        assert rates[3] == pytest.approx(2 / 3)

    def test_demand_caps_respected(self):
        net = line()
        flows = [
            RoutedFlow(1, p(0, 1), demand=0.2),
            RoutedFlow(2, p(0, 1)),
        ]
        rates = max_min_fair_rates(net, flows).rates
        assert rates[1] == pytest.approx(0.2)
        assert rates[2] == pytest.approx(0.8)

    def test_zero_hop_flow_unbounded(self):
        net = line()
        flows = [RoutedFlow(1, p(0)), RoutedFlow(2, p(0, 1))]
        rates = max_min_fair_rates(net, flows).rates
        assert math.isinf(rates[1])
        assert rates[2] == pytest.approx(1.0)

    def test_zero_hop_with_demand(self):
        net = line()
        rates = max_min_fair_rates(
            net, [RoutedFlow(1, p(0), demand=3.0)]
        ).rates
        assert rates[1] == pytest.approx(3.0)

    def test_duplicate_ids_rejected(self):
        net = line()
        with pytest.raises(Exception):
            max_min_fair_rates(net, [RoutedFlow(1, p(0, 1)),
                                     RoutedFlow(1, p(1, 2))])

    def test_result_statistics(self):
        net = line()
        result = max_min_fair_rates(
            net, [RoutedFlow(1, p(0, 1)), RoutedFlow(2, p(1, 2))]
        )
        assert result.total == pytest.approx(2.0)
        assert result.min_rate == pytest.approx(1.0)
        assert set(result.bounded_rates()) == {1, 2}


class TestEdgeCases:
    def test_zero_capacity_link_rejected(self):
        net = line()
        net.add_cable(PlainSwitch(0), PlainSwitch(2), capacity=0.0)
        with pytest.raises(ReproError, match="non-positive capacity"):
            max_min_fair_rates(net, [RoutedFlow(1, p(0, 1))])

    def test_zero_capacity_link_rejected_after_cache_reset(self):
        """The arc index is rebuilt, so a later bad cable still raises."""
        net = line()
        max_min_fair_rates(net, [RoutedFlow(1, p(0, 1))])
        net.add_cable(PlainSwitch(0), PlainSwitch(2), capacity=-1.0)
        with pytest.raises(
            ReproError,
            match=r"link PlainSwitch\(index=0, kind='switch'\) - "
                  r"PlainSwitch\(index=2, kind='switch'\) has "
                  r"non-positive capacity -1\.0; flows crossing it",
        ):
            max_min_fair_rates(net, [RoutedFlow(1, p(0, 1))])

    def test_path_over_missing_link_rejected(self):
        net = line()
        with pytest.raises(RoutingError,
                           match="path uses non-existent link"):
            max_min_fair_rates(net, [RoutedFlow(1, p(0, 2))])

    def test_path_over_removed_link_rejected(self):
        net = line()
        max_min_fair_rates(net, [RoutedFlow(1, p(0, 1, 2))])
        net.remove_cable(PlainSwitch(1), PlainSwitch(2))
        with pytest.raises(RoutingError, match=(
            r"path uses non-existent link PlainSwitch\(index=1, "
            r"kind='switch'\) - PlainSwitch\(index=2, kind='switch'\)"
        )):
            max_min_fair_rates(net, [RoutedFlow(1, p(0, 1, 2))])

    @pytest.mark.parametrize("demand", [-0.5, -1e-12, math.nan])
    def test_negative_or_nan_demand_rejected(self, demand):
        """A negative cap would manufacture capacity for other flows."""
        with pytest.raises(ReproError, match="invalid demand"):
            RoutedFlow(1, p(0, 1), demand=demand)

    def test_zero_demand_allowed(self):
        net = line()
        rates = max_min_fair_rates(
            net, [RoutedFlow(1, p(0, 1), demand=0.0), RoutedFlow(2, p(0, 1))]
        ).rates
        assert rates == {1: 0.0, 2: 1.0}

    def test_single_flow_bounded_rates(self):
        net = line()
        result = max_min_fair_rates(net, [RoutedFlow(7, p(0, 1, 2))])
        assert result.bounded_rates() == {7: pytest.approx(1.0)}
        assert result.total == pytest.approx(1.0)
        assert result.min_rate == pytest.approx(1.0)

    def test_zero_hop_flow_excluded_from_bounded_rates(self):
        net = line()
        result = max_min_fair_rates(
            net, [RoutedFlow(1, p(0)), RoutedFlow(2, p(0, 1))]
        )
        assert set(result.bounded_rates()) == {2}

    def test_deterministic_across_flow_orderings(self):
        """Same flow set, any presentation order: identical rates."""
        net = line()
        flows = [
            RoutedFlow(1, p(0, 1, 2)),
            RoutedFlow(2, p(0, 1)),
            RoutedFlow(3, p(1, 2)),
            RoutedFlow(4, p(0, 1), demand=0.1),
        ]
        baseline = max_min_fair_rates(net, flows).rates
        rng = random.Random(42)
        for _ in range(6):
            shuffled = list(flows)
            rng.shuffle(shuffled)
            assert max_min_fair_rates(net, shuffled).rates == baseline


class TestLinkAllocation:
    def test_folds_rates_per_directed_link(self):
        flows = [RoutedFlow(1, p(0, 1, 2)), RoutedFlow(2, p(0, 1))]
        rates = {1: 0.5, 2: 0.5}
        link_rates, link_flows = link_allocation(flows, rates)
        key01 = (PlainSwitch(0), PlainSwitch(1))
        key12 = (PlainSwitch(1), PlainSwitch(2))
        assert link_rates == {key01: pytest.approx(1.0),
                              key12: pytest.approx(0.5)}
        assert link_flows == {key01: 2, key12: 1}
        # Total over links equals sum(rate * hops).
        assert sum(link_rates.values()) == pytest.approx(
            sum(rates[f.flow_id] * f.path.hops for f in flows)
        )

    def test_infinite_rate_flows_touch_no_link(self):
        flows = [RoutedFlow(1, p(0))]
        link_rates, link_flows = link_allocation(flows, {1: math.inf})
        assert link_rates == {} and link_flows == {}


class TestMonitorHook:
    def test_allocation_published_to_monitor(self):
        class Probe:
            def __init__(self):
                self.calls = []

            def on_allocation(self, t, link_rates, link_flows):
                self.calls.append((t, link_rates, link_flows))

        net = line()
        probe = Probe()
        rates = max_min_fair_rates(
            net, [RoutedFlow(1, p(0, 1, 2))], monitor=probe, now=2.5
        ).rates
        (t, link_rates, link_flows), = probe.calls
        assert t == 2.5
        assert link_rates[(PlainSwitch(0), PlainSwitch(1))] == (
            pytest.approx(rates[1])
        )
        assert link_flows[(PlainSwitch(1), PlainSwitch(2))] == 1

    def test_no_monitor_is_default(self):
        net = line()
        result = max_min_fair_rates(net, [RoutedFlow(1, p(0, 1))])
        assert result.rates[1] == pytest.approx(1.0)


@given(st.integers(min_value=0, max_value=60), st.integers(min_value=2, max_value=24))
def test_property_allocation_feasible_and_positive(seed, nflows):
    """Random flows over fat-tree(4): capacities respected, no starvation."""
    net = build_fat_tree(4)
    rng = random.Random(seed)
    switches = [s for s in net.switches()]
    flows = []
    for fid in range(nflows):
        src, dst = rng.sample(switches, 2)
        paths = k_shortest_paths(net, src, dst, k=4)
        flows.append(RoutedFlow(fid, rng.choice(paths)))
    rates = max_min_fair_rates(net, flows).rates
    assert all(r > 0 for r in rates.values())
    load = {}
    for flow in flows:
        for u, v in flow.path.edges():
            load[(u, v)] = load.get((u, v), 0.0) + rates[flow.flow_id]
    for (u, v), total in load.items():
        assert total <= net.capacity(u, v) + 1e-6

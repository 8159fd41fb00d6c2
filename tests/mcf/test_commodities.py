"""Unit tests for commodities, contraction, and aggregation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import TrafficError
from repro.mcf.commodities import (
    Commodity,
    build_flow_problem,
    commodity_count,
)
from repro.topology.elements import Network, PlainSwitch


class TestCommodity:
    def test_self_pair_rejected(self):
        with pytest.raises(TrafficError):
            Commodity(1, 1)

    def test_nonpositive_demand_rejected(self):
        with pytest.raises(TrafficError):
            Commodity(0, 1, demand=0.0)
        with pytest.raises(TrafficError):
            Commodity(0, 1, demand=-2.0)


class TestBuildFlowProblem:
    def test_arcs_are_antiparallel_pairs(self, path3):
        problem = build_flow_problem(path3, [Commodity(0, 1)])
        assert problem.num_arcs == 4  # 2 cables x 2 directions
        forward = set(zip(problem.arcs.src, problem.arcs.dst))
        for u, v in forward:
            assert (v, u) in forward

    def test_capacity_accumulates_parallel(self):
        net = Network("p")
        a, b = PlainSwitch(0), PlainSwitch(1)
        net.add_switch(a, 4)
        net.add_switch(b, 4)
        net.add_cable(a, b)
        net.add_cable(a, b)
        net.add_server(0, a)
        net.add_server(1, b)
        problem = build_flow_problem(net, [Commodity(0, 1)])
        assert set(problem.arcs.cap) == {2.0}

    def test_same_switch_commodities_dropped(self, triangle):
        net = triangle
        net.add_server(10, net.server_switch(0))
        problem = build_flow_problem(net, [Commodity(0, 10), Commodity(0, 1)])
        assert commodity_count(problem) == 1

    def test_all_same_switch_raises(self, triangle):
        net = triangle
        net.add_server(10, net.server_switch(0))
        with pytest.raises(TrafficError):
            build_flow_problem(net, [Commodity(0, 10)])

    def test_aggregation_by_source_switch(self, triangle):
        problem = build_flow_problem(
            triangle,
            [Commodity(0, 1), Commodity(0, 2), Commodity(1, 2)],
        )
        assert problem.num_groups == 2
        sources = {g.source for g in problem.groups}
        idx = triangle.switch_index()
        assert sources == {
            idx[triangle.server_switch(0)],
            idx[triangle.server_switch(1)],
        }

    def test_duplicate_demands_sum(self, triangle):
        problem = build_flow_problem(
            triangle, [Commodity(0, 1), Commodity(0, 1, demand=2.0)]
        )
        group = problem.groups[0]
        assert group.total_demand == pytest.approx(3.0)
        assert commodity_count(problem) == 1

    def test_total_demand(self, triangle):
        problem = build_flow_problem(
            triangle, [Commodity(0, 1), Commodity(1, 2, demand=0.5)]
        )
        assert problem.total_demand == pytest.approx(1.5)


class TestReversed:
    def test_arcs_and_demands_reversed(self, path3):
        problem = build_flow_problem(
            path3, [Commodity(0, 1), Commodity(0, 1, demand=1.0)]
        )
        rev = problem.reversed()
        assert rev.num_arcs == problem.num_arcs
        assert np.array_equal(rev.arcs.src, problem.arcs.dst)
        # The single aggregated demand flips direction.
        assert rev.groups[0].source == int(problem.groups[0].sinks[0])
        assert int(rev.groups[0].sinks[0]) == problem.groups[0].source
        assert rev.total_demand == pytest.approx(problem.total_demand)

    def test_double_reverse_is_identity(self, triangle):
        problem = build_flow_problem(
            triangle, [Commodity(0, 1), Commodity(1, 2), Commodity(2, 0)]
        )
        twice = problem.reversed().reversed()
        assert twice.num_groups == problem.num_groups
        for a, b in zip(problem.groups, twice.groups):
            assert a.source == b.source
            assert np.array_equal(a.sinks, b.sinks)
            assert np.array_equal(a.demands, b.demands)

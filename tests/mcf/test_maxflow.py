"""Unit tests for max-flow helpers and cut bounds."""

from __future__ import annotations

import pytest

from repro.errors import SolverError, TopologyError
from repro.mcf.commodities import Commodity, build_flow_problem
from repro.mcf.maxflow import (
    concurrent_upper_bound,
    single_pair_max_flow,
    sink_cut_bound,
    source_cut_bound,
)
from repro.topology.elements import Network, PlainSwitch
from repro.topology.fattree import build_fat_tree


class TestSinglePairMaxFlow:
    def test_path_bottleneck(self, path3):
        assert single_pair_max_flow(
            path3, PlainSwitch(0), PlainSwitch(2)
        ) == pytest.approx(1.0)

    def test_triangle_two_disjoint_routes(self, triangle):
        assert single_pair_max_flow(
            triangle, PlainSwitch(0), PlainSwitch(1)
        ) == pytest.approx(2.0)

    def test_parallel_cables_add_capacity(self):
        net = Network("p")
        a, b = PlainSwitch(0), PlainSwitch(1)
        net.add_switch(a, 4)
        net.add_switch(b, 4)
        net.add_cable(a, b)
        net.add_cable(a, b)
        net.add_cable(a, b)
        assert single_pair_max_flow(net, a, b) == pytest.approx(3.0)

    def test_fat_tree_edge_to_edge(self):
        """Cross-pod switch pair in fat-tree(4): k/2 uplinks bound flow."""
        net = build_fat_tree(4)
        src = net.server_switch(0)
        dst = net.server_switch(15)
        assert single_pair_max_flow(net, src, dst) == pytest.approx(2.0)

    def test_unknown_switch_named(self, path3):
        with pytest.raises(TopologyError, match=r"PlainSwitch\(index=99"):
            single_pair_max_flow(path3, PlainSwitch(0), PlainSwitch(99))

    def test_same_switch_rejected(self, path3):
        with pytest.raises(SolverError):
            single_pair_max_flow(path3, PlainSwitch(0), PlainSwitch(0))


class TestCutBounds:
    def test_source_bound_path(self, path3):
        problem = build_flow_problem(path3, [Commodity(0, 1)])
        assert source_cut_bound(problem) == pytest.approx(1.0)

    def test_sink_bound_aggregates_across_groups(self, triangle):
        # Two demands into server 2's switch: in-capacity 2 / demand 2.
        problem = build_flow_problem(
            triangle, [Commodity(0, 2), Commodity(1, 2)]
        )
        assert sink_cut_bound(problem) == pytest.approx(1.0)

    def test_combined_bound_is_min(self, triangle):
        problem = build_flow_problem(
            triangle, [Commodity(0, 1), Commodity(0, 2)]
        )
        combined = concurrent_upper_bound(problem)
        assert combined == pytest.approx(
            min(source_cut_bound(problem), sink_cut_bound(problem))
        )

    def test_bounds_scale_with_demand(self, path3):
        problem = build_flow_problem(path3, [Commodity(0, 1, demand=4.0)])
        assert source_cut_bound(problem) == pytest.approx(0.25)

"""Unit tests for the exact concurrent-flow LP."""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import SolverError
from repro.mcf.commodities import Commodity, FlowProblem, build_flow_problem
from repro.mcf.exact import solve_concurrent_exact
from repro.mcf.maxflow import concurrent_upper_bound, single_pair_max_flow
from repro.topology.elements import Network, PlainSwitch
from repro.topology.fattree import build_fat_tree
from repro.topology.jellyfish import build_jellyfish_like_fat_tree

import numpy as np


def line_network(n, servers_at):
    net = Network("line")
    nodes = [PlainSwitch(i) for i in range(n)]
    for node in nodes:
        net.add_switch(node, 8)
    for a, b in zip(nodes, nodes[1:]):
        net.add_cable(a, b)
    for sid, where in enumerate(servers_at):
        net.add_server(sid, nodes[where])
    return net


class TestKnownOptima:
    def test_single_commodity_path(self):
        net = line_network(3, [0, 2])
        lam = solve_concurrent_exact(
            build_flow_problem(net, [Commodity(0, 1)])
        ).throughput
        assert lam == pytest.approx(1.0)

    def test_two_commodities_share_link(self):
        net = line_network(3, [0, 0, 2])
        problem = build_flow_problem(
            net, [Commodity(0, 2), Commodity(1, 2)]
        )
        lam = solve_concurrent_exact(problem).throughput
        assert lam == pytest.approx(0.5)

    def test_opposite_directions_full_duplex(self):
        """Antiparallel demands do not contend (full-duplex model)."""
        net = line_network(2, [0, 1])
        problem = build_flow_problem(
            net, [Commodity(0, 1), Commodity(1, 0)]
        )
        lam = solve_concurrent_exact(problem).throughput
        assert lam == pytest.approx(1.0)

    def test_triangle_uses_detour(self, triangle):
        """One commodity over a triangle: direct + 2-hop detour = 2.0."""
        problem = build_flow_problem(triangle, [Commodity(0, 1)])
        lam = solve_concurrent_exact(problem).throughput
        assert lam == pytest.approx(2.0)

    def test_demand_scales_inversely(self, triangle):
        problem = build_flow_problem(
            triangle, [Commodity(0, 1, demand=4.0)]
        )
        lam = solve_concurrent_exact(problem).throughput
        assert lam == pytest.approx(0.5)

    def test_disconnected_sink_gives_zero(self):
        net = Network("disc")
        a, b = PlainSwitch(0), PlainSwitch(1)
        c, d = PlainSwitch(2), PlainSwitch(3)
        for node in (a, b, c, d):
            net.add_switch(node, 4)
        net.add_cable(a, b)
        net.add_cable(c, d)
        net.add_server(0, a)
        net.add_server(1, c)
        problem = build_flow_problem(net, [Commodity(0, 1)])
        assert solve_concurrent_exact(problem).throughput == pytest.approx(0.0)

    def test_disconnected_sink_gives_positive_zero(self, islands):
        problem = build_flow_problem(islands, [Commodity(0, 1)])
        lam = solve_concurrent_exact(problem).throughput
        assert lam == 0.0
        assert math.copysign(1.0, lam) == 1.0
        assert f"{lam:.4f}" == "0.0000"

    def test_no_groups_rejected(self, triangle):
        problem = build_flow_problem(triangle, [Commodity(0, 1)])
        empty = FlowProblem(arcs=problem.arcs, groups=[])
        with pytest.raises(SolverError):
            solve_concurrent_exact(empty)


class TestAgainstMaxFlow:
    def test_single_pair_equals_max_flow_fat_tree(self):
        """With one commodity, concurrent flow = max flow."""
        net = build_fat_tree(4)
        src = net.server_switch(0)
        dst = net.server_switch(15)
        problem = build_flow_problem(net, [Commodity(0, 15)])
        lam = solve_concurrent_exact(problem).throughput
        assert lam == pytest.approx(single_pair_max_flow(net, src, dst))

    def test_single_pair_equals_max_flow_jellyfish(self):
        net = build_jellyfish_like_fat_tree(4, random.Random(0))
        servers = sorted(net.servers())
        src_server, dst_server = servers[0], servers[-1]
        if net.server_switch(src_server) == net.server_switch(dst_server):
            pytest.skip("degenerate draw: same-switch pair")
        problem = build_flow_problem(net, [Commodity(src_server, dst_server)])
        lam = solve_concurrent_exact(problem).throughput
        flow = single_pair_max_flow(
            net, net.server_switch(src_server), net.server_switch(dst_server)
        )
        assert lam == pytest.approx(flow, rel=1e-4)


class TestFlowsOutput:
    def test_flows_respect_capacity_and_conservation(self, triangle):
        problem = build_flow_problem(
            triangle, [Commodity(0, 1), Commodity(1, 2)]
        )
        result = solve_concurrent_exact(problem, return_flows=True)
        assert result.flows is not None
        assert result.flows.shape == (problem.num_groups, problem.num_arcs)
        total = result.flows.sum(axis=0)
        assert np.all(total <= problem.arcs.cap + 1e-8)
        util = result.utilization(problem)
        assert util.max() <= 1.0 + 1e-8

    def test_utilization_requires_flows(self, triangle):
        problem = build_flow_problem(triangle, [Commodity(0, 1)])
        result = solve_concurrent_exact(problem)
        with pytest.raises(SolverError):
            result.utilization(problem)


@given(st.integers(min_value=0, max_value=50))
def test_property_cut_bound_dominates_exact(seed):
    """Cut-based upper bounds are never below the LP optimum."""
    rng = random.Random(seed)
    net = build_jellyfish_like_fat_tree(4, rng)
    servers = sorted(net.servers())
    commodities = []
    for _ in range(5):
        a, b = rng.sample(servers, 2)
        if net.server_switch(a) != net.server_switch(b):
            commodities.append(Commodity(a, b))
    if not commodities:
        return
    problem = build_flow_problem(net, commodities)
    lam = solve_concurrent_exact(problem).throughput
    assert lam <= concurrent_upper_bound(problem) + 1e-8

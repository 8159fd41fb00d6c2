"""Unit and property tests for the Garg-Könemann approximation."""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.errors import SolverError
from repro.mcf.commodities import Commodity, build_flow_problem
from repro.mcf.approx import solve_concurrent_approx
from repro.mcf.exact import solve_concurrent_exact
from repro.obs.sinks import MemorySink
from repro.topology.elements import Network, PlainSwitch
from repro.topology.fattree import build_fat_tree
from repro.topology.jellyfish import build_jellyfish_like_fat_tree


class TestBasics:
    def test_epsilon_validated(self, triangle):
        problem = build_flow_problem(triangle, [Commodity(0, 1)])
        with pytest.raises(SolverError):
            solve_concurrent_approx(problem, epsilon=0.0)
        with pytest.raises(SolverError):
            solve_concurrent_approx(problem, epsilon=1.0)

    def test_single_path(self, path3):
        problem = build_flow_problem(path3, [Commodity(0, 1)])
        lam = solve_concurrent_approx(problem, epsilon=0.05).throughput
        assert lam == pytest.approx(1.0, rel=0.06)

    def test_disconnected_gives_zero(self):
        net = Network("disc")
        a, b, c = PlainSwitch(0), PlainSwitch(1), PlainSwitch(2)
        for node in (a, b, c):
            net.add_switch(node, 4)
        net.add_cable(a, b)
        net.add_server(0, a)
        net.add_server(1, c)
        problem = build_flow_problem(net, [Commodity(0, 1)])
        assert solve_concurrent_approx(problem).throughput == 0.0

    def test_disconnected_keeps_bookkeeping(self, islands):
        sink = MemorySink()
        obs.registry.reset()
        obs.enable(sink)
        try:
            problem = build_flow_problem(islands, [Commodity(0, 1)])
            lam = solve_concurrent_approx(problem).throughput
            counters = obs.registry.snapshot()
        finally:
            obs.disable()
            obs.registry.reset()
        assert lam == 0.0
        assert math.copysign(1.0, lam) == 1.0
        assert counters["mcf.approx.solves"]["value"] == 1
        assert counters["mcf.approx.unreachable_sinks"]["value"] == 1
        assert counters["mcf.approx.phases"]["value"] == 0
        assert counters["mcf.approx.dijkstra_calls"]["value"] == 0
        assert counters["mcf.approx.last_objective"]["value"] == 0.0
        beats = [e for e in sink.events
                 if e.get("name") == "progress.heartbeat"
                 and e.get("phase") == "mcf.approx"]
        assert beats, "no final progress heartbeat"

    def test_max_phases_caps_work(self, triangle):
        problem = build_flow_problem(triangle, [Commodity(0, 1)])
        lam = solve_concurrent_approx(
            problem, epsilon=0.05, max_phases=1
        ).throughput
        # Still feasible (certified), possibly below optimal.
        assert 0.0 < lam <= 2.0 + 1e-9


class TestAgainstExact:
    def test_fat_tree_broadcast(self):
        net = build_fat_tree(4)
        servers = sorted(net.servers())
        commodities = [Commodity(servers[0], s) for s in servers[1:]]
        problem = build_flow_problem(net, commodities)
        exact = solve_concurrent_exact(problem).throughput
        approx = solve_concurrent_approx(problem, epsilon=0.05).throughput
        assert approx <= exact + 1e-9
        assert approx >= 0.9 * exact

    def test_multi_group(self, triangle):
        problem = build_flow_problem(
            triangle,
            [Commodity(0, 1), Commodity(1, 2), Commodity(2, 0)],
        )
        exact = solve_concurrent_exact(problem).throughput
        approx = solve_concurrent_approx(problem, epsilon=0.05).throughput
        assert approx <= exact + 1e-9
        assert approx >= 0.9 * exact


@settings(max_examples=10)
@given(st.integers(min_value=0, max_value=30))
def test_property_approx_feasible_and_tight(seed):
    """Certified λ never exceeds the LP optimum and stays within 1 - ε."""
    rng = random.Random(seed)
    net = build_jellyfish_like_fat_tree(4, rng)
    servers = sorted(net.servers())
    commodities = []
    for _ in range(6):
        a, b = rng.sample(servers, 2)
        if net.server_switch(a) != net.server_switch(b):
            commodities.append(Commodity(a, b))
    if not commodities:
        return
    problem = build_flow_problem(net, commodities)
    exact = solve_concurrent_exact(problem).throughput
    approx = solve_concurrent_approx(problem, epsilon=0.1).throughput
    assert approx <= exact + 1e-9
    assert approx >= 0.85 * exact

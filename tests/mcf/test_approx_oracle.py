"""Differential tests: the vectorized FPTAS against the per-sink oracle.

The oracle is the per-sink tree walk kept in ``reference_approx``.  The
vectorized walk must return a ``repr``-equal λ and equal
``mcf.approx.*`` counters on fat-tree and jellyfish instances with
all-to-all and broadcast demand, fractional demands, non-unit
capacities, disconnected demand and a phase cap, and on the fig7/fig8
k=4 problems.  The dual bound ``upper`` must bracket the exact λ.
"""

from __future__ import annotations

import random
from functools import lru_cache

import networkx as nx
import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import obs
from repro.experiments import common
from repro.experiments.fig7_broadcast import run_fig7
from repro.experiments.fig8_alltoall import run_fig8
from repro.mcf.approx import _dual_bound, solve_concurrent_approx
from repro.mcf.commodities import Commodity, FlowProblem, build_flow_problem
from repro.mcf.exact import solve_concurrent_exact
from repro.obs.sinks import NullSink
from repro.topology.elements import Arcs
from repro.topology.fattree import build_fat_tree
from repro.topology.jellyfish import build_jellyfish_like_fat_tree
from tests.mcf.reference_approx import reference_solve_concurrent_approx

COUNTERS = ("mcf.approx.solves", "mcf.approx.phases",
            "mcf.approx.dijkstra_calls")
#: Relative slack for the LP optimum, which HiGHS reports to ~1e-9.
LP_TOL = 1e-7


@lru_cache(maxsize=None)
def network(topo, seed):
    if topo == "fat-tree":
        return build_fat_tree(4)
    return build_jellyfish_like_fat_tree(4, random.Random(seed))


def counted(solver, problem, **kwargs):
    """Solve with telemetry on; return the result and the counters."""
    obs.registry.reset()
    obs.enable(NullSink())
    try:
        result = solver(problem, **kwargs)
        snapshot = obs.registry.snapshot()
    finally:
        obs.disable()
        obs.registry.reset()
    return result, {name: snapshot[name]["value"] for name in COUNTERS}


def assert_matches_reference(problem, **kwargs):
    result, counters = counted(solve_concurrent_approx, problem, **kwargs)
    expected, expected_counters = counted(
        reference_solve_concurrent_approx, problem, **kwargs)
    assert repr(result.throughput) == repr(expected.throughput)
    assert counters == expected_counters
    return result


@st.composite
def instances(draw):
    """A k=4 flow problem: topology, pattern, demands and capacities."""
    topo = draw(st.sampled_from(("fat-tree", "jellyfish")))
    net = network(topo, draw(st.integers(0, 3)))
    servers = sorted(net.servers())
    members = draw(st.lists(st.sampled_from(servers), min_size=3,
                            max_size=8, unique=True))
    if draw(st.sampled_from(("a2a", "bcast"))) == "a2a":
        pairs = [(a, b) for a in members for b in members if a != b]
    else:
        pairs = [(members[0], b) for b in members[1:]]
    fractional = draw(st.booleans())
    commodities = [
        Commodity(a, b, draw(st.floats(0.1, 3.0)) if fractional else 1.0)
        for a, b in pairs
        if net.server_switch(a) != net.server_switch(b)
    ]
    if not commodities:
        commodities = [Commodity(servers[0], servers[-1])]
    problem = build_flow_problem(net, commodities)
    if draw(st.booleans()):
        # Non-unit capacities, each direction of a cable on its own.
        arcs = problem.arcs
        caps = draw(st.lists(st.floats(0.25, 4.0), min_size=len(arcs.cap),
                             max_size=len(arcs.cap)))
        problem = FlowProblem(
            arcs=Arcs(arcs.switches, list(arcs.index), caps),
            groups=problem.groups)
    return problem


@settings(max_examples=15)
@given(instances(), st.sampled_from((0.08, 0.1, 0.2)))
def test_matches_reference(problem, epsilon):
    assert_matches_reference(problem, epsilon=epsilon)


@settings(max_examples=10)
@given(instances(), st.integers(0, 4))
def test_phase_cap_matches_reference(problem, max_phases):
    assert_matches_reference(problem, epsilon=0.1, max_phases=max_phases)


def test_disconnected_demand_matches_reference(islands):
    problem = build_flow_problem(islands, [Commodity(0, 1)])
    result = assert_matches_reference(problem, epsilon=0.1)
    assert result.throughput == 0.0
    assert result.upper == 0.0


def test_reference_on_fig7_fig8_k4(monkeypatch):
    """fig7/fig8 at k=4 with ``force="approx"``: λ repr-equal, per problem."""
    solved = []

    def both(problem, epsilon):
        result = solve_concurrent_approx(problem, epsilon=epsilon)
        expected = reference_solve_concurrent_approx(problem, epsilon=epsilon)
        solved.append((repr(result.throughput), repr(expected.throughput)))
        return result

    monkeypatch.setattr(common, "solve_concurrent_approx", both)
    run_fig7(ks=[4], solver="approx")
    run_fig8(ks=[4], solver="approx")
    assert len(solved) == 14
    for got, expected in solved:
        assert got == expected


def fat_tree_all_to_all():
    net = network("fat-tree", 0)
    servers = sorted(net.servers())
    return build_flow_problem(
        net, [Commodity(a, b) for a in servers for b in servers
              if net.server_switch(a) != net.server_switch(b)])


class TestDualBound:
    @settings(max_examples=15)
    @given(instances())
    @example(fat_tree_all_to_all())
    def test_brackets_exact(self, problem):
        exact = solve_concurrent_exact(problem).throughput
        approx = solve_concurrent_approx(problem, epsilon=0.1)
        assert approx.throughput <= exact * (1 + LP_TOL)
        assert exact <= approx.upper * (1 + LP_TOL)

    def test_phase_cap_still_brackets(self):
        problem = fat_tree_all_to_all()
        exact = solve_concurrent_exact(problem).throughput
        for max_phases in (0, 1, 3):
            approx = solve_concurrent_approx(
                problem, epsilon=0.1, max_phases=max_phases)
            assert approx.throughput <= exact * (1 + LP_TOL)
            assert exact <= approx.upper * (1 + LP_TOL)

    def test_exact_lp_reports_no_bound(self, triangle):
        problem = build_flow_problem(triangle, [Commodity(0, 1)])
        assert solve_concurrent_exact(problem).upper is None

    def test_uniform_lengths_give_the_hop_count_bound(self):
        """At l = 1 the bound is total capacity over demand-weighted hops."""
        problem = fat_tree_all_to_all()
        arcs = problem.arcs
        hops = 0.0
        for group in problem.groups:
            dist = nx.single_source_shortest_path_length(
                network("fat-tree", 0).fabric, arcs.switches[group.source])
            hops += sum(float(d) * dist[arcs.switches[t]]
                        for t, d in zip(group.sinks, group.demands))
        n = problem.num_nodes
        matrix = sp.csr_matrix(
            (np.ones(len(arcs.cap)), arcs.dst[arcs.order], arcs.indptr),
            shape=(n, n))
        bound = _dual_bound(problem, matrix, np.ones(len(arcs.cap)))
        assert bound == pytest.approx(arcs.cap.sum() / hops, rel=1e-12)


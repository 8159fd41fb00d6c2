"""Unit tests for flow decomposition."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import SolverError
from repro.mcf.commodities import Commodity, build_flow_problem
from repro.mcf.decompose import (
    decompose_group,
    decompose_solution,
    delivered_per_commodity,
)
from repro.mcf.exact import solve_concurrent_exact
from repro.topology.fattree import build_fat_tree


def solved(net, commodities):
    problem = build_flow_problem(net, commodities)
    result = solve_concurrent_exact(problem, return_flows=True)
    return problem, result


class TestDecomposeSimple:
    def test_single_path(self, path3):
        problem, result = solved(path3, [Commodity(0, 1)])
        paths = decompose_solution(problem, result.flows)
        assert len(paths) == 1
        assert paths[0].amount == pytest.approx(1.0)
        assert len(paths[0].nodes) == 3

    def test_triangle_uses_both_routes(self, triangle):
        problem, result = solved(triangle, [Commodity(0, 1)])
        paths = decompose_solution(problem, result.flows)
        # λ = 2: direct (1.0) + detour (1.0).
        assert sum(p.amount for p in paths) == pytest.approx(2.0)
        hop_counts = sorted(len(p.nodes) - 1 for p in paths)
        assert hop_counts == [1, 2]

    def test_paths_follow_real_arcs(self, triangle):
        problem, result = solved(
            triangle, [Commodity(0, 1), Commodity(1, 2)]
        )
        arc_set = set(zip(problem.arcs.src.tolist(), problem.arcs.dst.tolist()))
        for path in decompose_solution(problem, result.flows):
            for u, v in zip(path.nodes, path.nodes[1:]):
                assert (u, v) in arc_set


class TestDeliveredAmounts:
    def test_matches_lambda_per_commodity(self):
        net = build_fat_tree(4)
        servers = [0, 5, 9, 15]
        commodities = [Commodity(servers[0], s) for s in servers[1:]]
        problem, result = solved(net, commodities)
        lam = result.throughput
        paths = decompose_solution(problem, result.flows)
        delivered = delivered_per_commodity(paths)
        for group in problem.groups:
            for sink, demand in zip(group.sinks, group.demands):
                got = delivered.get((group.source, int(sink)), 0.0)
                assert got == pytest.approx(lam * demand, rel=1e-4, abs=1e-6)

    def test_decomposed_paths_respect_capacity(self):
        net = build_fat_tree(4)
        commodities = [Commodity(0, 15), Commodity(4, 8), Commodity(12, 2)]
        problem, result = solved(net, commodities)
        paths = decompose_solution(problem, result.flows)
        load = {}
        for path in paths:
            for u, v in zip(path.nodes, path.nodes[1:]):
                load[(u, v)] = load.get((u, v), 0.0) + path.amount
        caps = {
            (int(s), int(d)): c
            for s, d, c in zip(problem.arcs.src, problem.arcs.dst,
                               problem.arcs.cap)
        }
        for arc, used in load.items():
            assert used <= caps[arc] + 1e-6


class TestValidation:
    def test_bad_flow_shape_rejected(self, triangle):
        problem, result = solved(triangle, [Commodity(0, 1)])
        with pytest.raises(SolverError):
            decompose_group(problem, problem.groups[0], np.zeros(3))

    def test_bad_matrix_shape_rejected(self, triangle):
        problem, _result = solved(triangle, [Commodity(0, 1)])
        with pytest.raises(SolverError):
            decompose_solution(problem, np.zeros((5, 5)))

    def test_zero_flow_decomposes_empty(self, triangle):
        problem, _result = solved(triangle, [Commodity(0, 1)])
        paths = decompose_group(
            problem, problem.groups[0], np.zeros(problem.num_arcs)
        )
        assert paths == []

"""Unit tests for cut metrics."""

from __future__ import annotations

import random

import pytest

from repro.analysis.cuts import (
    flow_between_sets,
    random_bisection_bandwidth,
    sparsest_pair_cut,
)
from repro.errors import SolverError, TopologyError
from repro.topology.elements import Network, PlainSwitch
from repro.topology.fattree import build_fat_tree
from repro.topology.jellyfish import build_jellyfish_like_fat_tree


def dumbbell():
    """Two triangles joined by a single cable."""
    net = Network("dumbbell")
    nodes = [PlainSwitch(i) for i in range(6)]
    for node in nodes:
        net.add_switch(node, 6)
    for a, b in ((0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)):
        net.add_cable(nodes[a], nodes[b])
    net.add_cable(nodes[2], nodes[3])
    for i, node in enumerate(nodes):
        net.add_server(i, node)
    return net


class TestFlowBetweenSets:
    def test_dumbbell_cut_is_one(self):
        net = dumbbell()
        left = [PlainSwitch(i) for i in range(3)]
        right = [PlainSwitch(i) for i in range(3, 6)]
        assert flow_between_sets(net, left, right) == pytest.approx(1.0)

    def test_single_pair_reduces_to_max_flow(self):
        net = dumbbell()
        value = flow_between_sets(net, [PlainSwitch(0)], [PlainSwitch(1)])
        assert value == pytest.approx(2.0)  # direct + detour

    def test_overlap_rejected(self):
        net = dumbbell()
        with pytest.raises(SolverError):
            flow_between_sets(net, [PlainSwitch(0)], [PlainSwitch(0)])

    def test_unknown_switch_named(self):
        net = dumbbell()
        with pytest.raises(TopologyError, match=r"PlainSwitch\(index=99"):
            flow_between_sets(net, [PlainSwitch(0)], [PlainSwitch(99)])

    def test_empty_side_rejected(self):
        net = dumbbell()
        with pytest.raises(SolverError):
            flow_between_sets(net, [], [PlainSwitch(0)])


class TestBisection:
    def test_dumbbell_bottleneck_found(self):
        net = dumbbell()
        value = random_bisection_bandwidth(net, trials=16,
                                           rng=random.Random(0))
        assert value == pytest.approx(1.0)

    def test_random_graph_beats_fat_tree(self):
        """The paper's premise: richer bandwidth in the random graph."""
        ft = build_fat_tree(4)
        jf = build_jellyfish_like_fat_tree(4, random.Random(0))
        rng = random.Random(1)
        assert random_bisection_bandwidth(
            jf, trials=6, rng=rng
        ) >= random_bisection_bandwidth(ft, trials=6, rng=rng)

    def test_needs_servers(self):
        net = Network("empty")
        net.add_switch(PlainSwitch(0), 2)
        with pytest.raises(SolverError):
            random_bisection_bandwidth(net)


class TestSparsestPair:
    def test_dumbbell_floor(self):
        net = dumbbell()
        value = sparsest_pair_cut(net, samples=40, rng=random.Random(0))
        assert value == pytest.approx(1.0)

    def test_needs_two_switches(self):
        net = Network("one")
        net.add_switch(PlainSwitch(0), 2)
        with pytest.raises(SolverError):
            sparsest_pair_cut(net)

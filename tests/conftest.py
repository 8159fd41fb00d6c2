"""Shared fixtures: small topologies reused across the test suite."""

from __future__ import annotations

import random

import pytest
from hypothesis import settings

from repro.core.conversion import Mode, convert
from repro.core.design import FlatTreeDesign
from repro.core.flattree import FlatTree
from repro.topology.clos import fat_tree_params
from repro.topology.elements import Network, PlainSwitch
from repro.topology.fattree import build_fat_tree

# Solver-heavy property tests can exceed hypothesis' default deadline on
# slow CI machines; correctness, not latency, is what these tests check.
settings.register_profile("repro", deadline=None, max_examples=25)
settings.load_profile("repro")


@pytest.fixture(scope="session")
def fat8() -> Network:
    """Fat-tree(8): 80 switches, 128 servers."""
    return build_fat_tree(8)


@pytest.fixture(scope="session")
def params8():
    return fat_tree_params(8)


@pytest.fixture()
def design8() -> FlatTreeDesign:
    return FlatTreeDesign.for_fat_tree(8)


@pytest.fixture()
def flattree8(design8) -> FlatTree:
    return FlatTree(design8)


@pytest.fixture()
def global8(flattree8) -> Network:
    return convert(flattree8, Mode.GLOBAL_RANDOM)


@pytest.fixture()
def rng() -> random.Random:
    return random.Random(1234)


@pytest.fixture()
def triangle() -> Network:
    """Three switches in a triangle, one server each."""
    net = Network("triangle")
    nodes = [PlainSwitch(i) for i in range(3)]
    for node in nodes:
        net.add_switch(node, 4)
    net.add_cable(nodes[0], nodes[1])
    net.add_cable(nodes[1], nodes[2])
    net.add_cable(nodes[0], nodes[2])
    for i, node in enumerate(nodes):
        net.add_server(i, node)
    return net


@pytest.fixture()
def path3() -> Network:
    """Three switches in a path a-b-c, servers on the endpoints."""
    net = Network("path3")
    a, b, c = PlainSwitch(0), PlainSwitch(1), PlainSwitch(2)
    for node in (a, b, c):
        net.add_switch(node, 4)
    net.add_cable(a, b)
    net.add_cable(b, c)
    net.add_server(0, a)
    net.add_server(1, c)
    return net


@pytest.fixture()
def islands() -> Network:
    """Two disconnected cables a-b and c-d, servers 0 on a and 1 on c."""
    net = Network("islands")
    a, b, c, d = (PlainSwitch(i) for i in range(4))
    for node in (a, b, c, d):
        net.add_switch(node, 4)
    net.add_cable(a, b)
    net.add_cable(c, d)
    net.add_server(0, a)
    net.add_server(1, c)
    return net

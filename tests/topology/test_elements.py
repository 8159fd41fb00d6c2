"""Unit tests for the network element model."""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import PortBudgetError, TopologyError
from repro.topology.elements import (
    AggSwitch,
    CoreSwitch,
    EdgeSwitch,
    Network,
    PlainSwitch,
    equipment_signature,
    merge_parallel,
    total_ports,
)
from repro.topology.fattree import build_fat_tree
from repro.topology.jellyfish import build_jellyfish_like_fat_tree


def make_pair():
    net = Network("t")
    a, b = PlainSwitch(0), PlainSwitch(1)
    net.add_switch(a, 4)
    net.add_switch(b, 4)
    return net, a, b


class TestSwitchIdentity:
    def test_kinds_do_not_collide(self):
        assert EdgeSwitch(0, 1) != AggSwitch(0, 1)
        assert CoreSwitch(0) != PlainSwitch(0)

    def test_same_kind_same_fields_equal(self):
        assert EdgeSwitch(2, 3) == EdgeSwitch(2, 3)

    def test_hashable_in_sets(self):
        s = {EdgeSwitch(0, 1), AggSwitch(0, 1), CoreSwitch(5)}
        assert len(s) == 3

    def test_kind_attribute(self):
        assert EdgeSwitch(0, 0).kind == "edge"
        assert AggSwitch(0, 0).kind == "agg"
        assert CoreSwitch(0).kind == "core"
        assert PlainSwitch(0).kind == "switch"


class TestSwitchRegistration:
    def test_duplicate_switch_rejected(self):
        net, a, _b = make_pair()
        with pytest.raises(TopologyError):
            net.add_switch(a, 4)

    def test_nonpositive_ports_rejected(self):
        net = Network("t")
        with pytest.raises(TopologyError):
            net.add_switch(PlainSwitch(9), 0)

    def test_switches_of_kind(self):
        net = Network("t")
        net.add_switch(EdgeSwitch(0, 0), 2)
        net.add_switch(AggSwitch(0, 0), 2)
        net.add_switch(EdgeSwitch(0, 1), 2)
        assert len(net.switches_of_kind("edge")) == 2
        assert len(net.switches_of_kind("agg")) == 1
        assert net.switches_of_kind("core") == []


class TestCables:
    def test_cable_consumes_ports(self):
        net, a, b = make_pair()
        net.add_cable(a, b)
        assert net.ports_used(a) == 1
        assert net.ports_used(b) == 1
        assert net.ports_free(a) == 3

    def test_self_loop_rejected(self):
        net, a, _b = make_pair()
        with pytest.raises(TopologyError):
            net.add_cable(a, a)

    def test_unknown_switch_rejected(self):
        net, a, _b = make_pair()
        with pytest.raises(TopologyError):
            net.add_cable(a, PlainSwitch(99))

    def test_port_budget_enforced(self):
        net = Network("t")
        a, b = PlainSwitch(0), PlainSwitch(1)
        net.add_switch(a, 1)
        net.add_switch(b, 4)
        net.add_cable(a, b)
        with pytest.raises(PortBudgetError):
            net.add_cable(a, b)

    def test_parallel_cables_accumulate(self):
        net, a, b = make_pair()
        net.add_cable(a, b)
        net.add_cable(a, b)
        assert net.capacity(a, b) == 2.0
        assert net.num_cables == 2
        assert net.degree(a) == 2
        assert net.fabric.number_of_edges() == 1

    def test_remove_cable_frees_ports(self):
        net, a, b = make_pair()
        net.add_cable(a, b)
        net.add_cable(a, b)
        net.remove_cable(a, b)
        assert net.capacity(a, b) == 1.0
        assert net.ports_used(a) == 1
        net.remove_cable(a, b)
        assert net.capacity(a, b) == 0.0
        assert not net.fabric.has_edge(a, b)

    def test_remove_missing_cable_rejected(self):
        net, a, b = make_pair()
        with pytest.raises(TopologyError):
            net.remove_cable(a, b)


class TestServers:
    def test_server_attachment(self):
        net, a, _b = make_pair()
        net.add_server(7, a)
        assert net.server_switch(7) == a
        assert net.servers_on(a) == [7]
        assert net.server_count(a) == 1
        assert net.ports_used(a) == 1

    def test_duplicate_server_rejected(self):
        net, a, b = make_pair()
        net.add_server(7, a)
        with pytest.raises(TopologyError):
            net.add_server(7, b)

    def test_detach_server(self):
        net, a, _b = make_pair()
        net.add_server(7, a)
        assert net.detach_server(7) == a
        assert net.server_count(a) == 0
        assert net.ports_used(a) == 0
        with pytest.raises(TopologyError):
            net.server_switch(7)

    def test_detach_unknown_rejected(self):
        net, _a, _b = make_pair()
        with pytest.raises(TopologyError):
            net.detach_server(3)

    def test_unknown_queries_rejected(self):
        net, _a, _b = make_pair()
        with pytest.raises(TopologyError):
            net.servers_on(PlainSwitch(50))
        with pytest.raises(TopologyError):
            net.server_count(PlainSwitch(50))


class TestDerived:
    def test_switch_index_stable_and_dense(self):
        net, a, b = make_pair()
        index = net.switch_index()
        assert index == {a: 0, b: 1}
        assert net.switch_index() == index

    def test_host_counts_skips_empty(self):
        net, a, _b = make_pair()
        net.add_server(0, a)
        assert net.host_counts() == {a: 1}

    def test_copy_is_equal_and_independent(self):
        net, a, b = make_pair()
        net.add_cable(a, b)
        net.add_server(0, a)
        clone = net.copy()
        assert equipment_signature(clone) == equipment_signature(net)
        assert clone.capacity(a, b) == net.capacity(a, b)
        clone.add_server(1, b)
        assert net.num_servers == 1

    def test_copy_preserves_parallel_capacity(self):
        net, a, b = make_pair()
        net.add_cable(a, b)
        net.add_cable(a, b)
        clone = net.copy()
        assert clone.capacity(a, b) == 2.0
        assert clone.num_cables == 2

    def test_total_ports(self):
        net, _a, _b = make_pair()
        assert total_ports(net) == 8

    def test_edge_list(self):
        net, a, b = make_pair()
        net.add_cable(a, b)
        assert net.edge_list() == [(a, b, 1.0)]


class TestArcIndex:
    def test_both_directions_in_edge_list_order(self):
        net, a, b = make_pair()
        net.add_cable(a, b, capacity=2.0)
        arcs = net.arcs()
        assert arcs.index == {(a, b): 0, (b, a): 1}
        assert arcs.cap.tolist() == [2.0, 2.0]

    def test_memoized_until_mutation(self):
        net, a, b = make_pair()
        net.add_cable(a, b)
        first = net.arcs()
        assert net.arcs() is first

    def test_rebuilt_after_add_cable(self):
        net, a, b = make_pair()
        net.add_cable(a, b)
        net.arcs()
        net.add_cable(a, b)
        assert net.arcs().cap.tolist() == [2.0, 2.0]

    def test_rebuilt_after_remove_cable(self):
        net, a, b = make_pair()
        c = PlainSwitch(2)
        net.add_switch(c, 4)
        net.add_cable(a, b)
        net.add_cable(b, c)
        net.arcs()
        net.remove_cable(a, b)
        arcs = net.arcs()
        assert arcs.index == {(b, c): 0, (c, b): 1}
        assert arcs.cap.tolist() == [1.0, 1.0]

    def test_copy_gets_its_own_index(self):
        net, a, b = make_pair()
        net.add_cable(a, b)
        original = net.arcs()
        clone = net.copy()
        assert clone.arcs() is not original
        clone.remove_cable(a, b)
        assert clone.arcs().index == {}
        assert net.arcs() is original

    def test_rebuilt_after_add_switch(self):
        net, a, b = make_pair()
        net.add_cable(a, b)
        first = net.arcs()
        c = PlainSwitch(2)
        net.add_switch(c, 4)
        arcs = net.arcs()
        assert arcs is not first
        assert arcs.switches == (a, b, c)
        assert arcs.node == {a: 0, b: 1, c: 2}
        assert arcs.indptr.tolist() == [0, 1, 2, 2]

    def test_node_index_and_endpoints(self):
        net, a, b = make_pair()
        net.add_cable(a, b, capacity=3.0)
        arcs = net.arcs()
        assert arcs.node == net.switch_index()
        assert arcs.src.tolist() == [0, 1]
        assert arcs.dst.tolist() == [1, 0]

    def test_arrays_are_read_only(self):
        net, a, b = make_pair()
        net.add_cable(a, b)
        arcs = net.arcs()
        for array in (arcs.src, arcs.dst, arcs.cap, arcs.order,
                      arcs.indptr):
            with pytest.raises(ValueError):
                array[0] = 0

    @pytest.mark.parametrize("builder", ["fat-tree", "jellyfish"])
    def test_csr_order_sorts_by_src_then_dst(self, builder):
        net = (build_fat_tree(6) if builder == "fat-tree"
               else build_jellyfish_like_fat_tree(6, random.Random(0)))
        arcs = net.arcs()
        assert arcs.order.tolist() == np.lexsort(
            (arcs.dst, arcs.src)).tolist()
        for node in range(len(arcs.switches)):
            out = arcs.order[arcs.indptr[node]:arcs.indptr[node + 1]]
            assert set(arcs.src[out].tolist()) <= {node}
            assert out.size == net.fabric.degree(arcs.switches[node])


class TestMergeParallel:
    def test_counts_unordered_pairs(self):
        a, b, c = PlainSwitch(0), PlainSwitch(1), CoreSwitch(2)
        counts = merge_parallel([(a, b), (b, a), (a, c)])
        assert counts[frozenset((a, b))] == 2
        assert counts[frozenset((a, c))] == 1

    def test_mixed_kinds_do_not_raise(self):
        # Heterogeneous namedtuples are not orderable; frozenset keys must
        # absorb that.
        pairs = [(EdgeSwitch(0, 0), CoreSwitch(1)), (CoreSwitch(1), EdgeSwitch(0, 0))]
        counts = merge_parallel(pairs)
        assert list(counts.values()) == [2]


@given(st.integers(min_value=1, max_value=6), st.integers(min_value=1, max_value=6))
def test_property_port_ledger_consistency(cables, servers):
    """Ports used always equals cables + servers touching the switch."""
    net = Network("prop")
    a, b = PlainSwitch(0), PlainSwitch(1)
    budget = cables + servers
    net.add_switch(a, budget)
    net.add_switch(b, cables)
    for _ in range(cables):
        net.add_cable(a, b)
    for s in range(servers):
        net.add_server(s, a)
    assert net.ports_used(a) == cables + servers
    assert net.ports_free(a) == 0
    assert net.ports_used(b) == cables

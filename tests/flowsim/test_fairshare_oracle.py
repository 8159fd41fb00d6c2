"""Differential tests: the array-backed allocator against the oracle.

The oracle is the dict-based progressive filling kept in
``reference_fairshare``.  Rates must agree within 1e-9 on fat-tree and
flat-tree instances, symmetric ties, zero-hop flows and demand caps, in
any flow order; a full simulation with a mid-run link failure must
produce the same outcome under either allocator.
"""

from __future__ import annotations

import math
import random
from functools import lru_cache

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.conversion import Mode
from repro.experiments.common import flat_tree_network
from repro.flowsim import simulator
from repro.flowsim.fairshare import RoutedFlow, max_min_fair_rates
from repro.flowsim.simulator import FlowSimulator, FlowSpec, TopologyEvent
from repro.routing.base import Path
from repro.routing.ksp import k_shortest_paths
from repro.topology.fattree import build_fat_tree
from tests.flowsim.reference_fairshare import reference_max_min_fair_rates

TOPOLOGIES = ("fat-tree", "flat-tree")


@lru_cache(maxsize=None)
def network(topo):
    if topo == "fat-tree":
        return build_fat_tree(4)
    return flat_tree_network(4, Mode.GLOBAL_RANDOM)


@lru_cache(maxsize=None)
def paths(topo, src, dst):
    return tuple(k_shortest_paths(network(topo), src, dst, k=4))


def assert_agree(net, flows):
    rates = max_min_fair_rates(net, flows).rates
    expected = reference_max_min_fair_rates(net, flows).rates
    assert rates.keys() == expected.keys()
    for fid, rate in expected.items():
        if math.isinf(rate):
            assert math.isinf(rates[fid])
        else:
            assert abs(rates[fid] - rate) <= 1e-9, fid
    return rates


def random_flows(topo, rng, nflows, zero_hop, capped):
    """``nflows`` flows over KSP paths; some zero-hop, some capped."""
    switches = list(network(topo).switches())
    flows = []
    for fid in range(nflows):
        src = rng.choice(switches)
        if rng.random() < zero_hop:
            path = Path((src,))
        else:
            dst = rng.choice([s for s in switches if s != src])
            path = rng.choice(paths(topo, src, dst))
        demand = None
        if rng.random() < capped:
            demand = rng.choice([0.0, rng.uniform(0, 0.3), rng.uniform(0, 2)])
        flows.append(RoutedFlow(fid, path, demand))
    return flows


@given(st.sampled_from(TOPOLOGIES), st.integers(0, 10**6),
       st.integers(1, 48), st.sampled_from([0.0, 0.2]),
       st.sampled_from([0.0, 0.3]))
def test_rates_match_oracle(topo, seed, nflows, zero_hop, capped):
    flows = random_flows(topo, random.Random(seed), nflows, zero_hop, capped)
    assert_agree(network(topo), flows)


@given(st.sampled_from(TOPOLOGIES), st.integers(0, 10**6),
       st.integers(2, 48))
def test_shuffled_order_gives_identical_rates(topo, seed, nflows):
    rng = random.Random(seed)
    flows = random_flows(topo, rng, nflows, zero_hop=0.1, capped=0.3)
    shuffled = list(flows)
    rng.shuffle(shuffled)
    net = network(topo)
    assert assert_agree(net, shuffled) == max_min_fair_rates(net, flows).rates


@given(st.sampled_from(TOPOLOGIES), st.integers(0, 10**6),
       st.integers(2, 48))
def test_cap_equal_to_bottleneck_share(topo, seed, nflows):
    """Capping flows exactly at their max-min rate changes nothing."""
    rng = random.Random(seed)
    flows = random_flows(topo, rng, nflows, zero_hop=0.0, capped=0.0)
    net = network(topo)
    rates = reference_max_min_fair_rates(net, flows).rates
    recapped = [
        RoutedFlow(f.flow_id, f.path,
                   rates[f.flow_id] if rng.random() < 0.5 else None)
        for f in flows
    ]
    for fid, rate in assert_agree(net, recapped).items():
        assert rate == pytest.approx(rates[fid], abs=1e-9)


@pytest.mark.parametrize("topo", TOPOLOGIES)
@pytest.mark.parametrize("choice", range(4))
def test_symmetric_all_to_all_ties(topo, choice):
    """Every edge-switch pair once: many arcs tie at the bottleneck."""
    net = network(topo)
    edges = [s for s in net.switches() if net.server_count(s)]
    flows = []
    for src in edges:
        for dst in edges:
            if src != dst:
                options = paths(topo, src, dst)
                flows.append(RoutedFlow(len(flows),
                                        options[choice % len(options)]))
    assert_agree(net, flows)


def test_zero_hop_only():
    net = network("fat-tree")
    node = next(net.switches())
    rates = assert_agree(net, [RoutedFlow(1, Path((node,))),
                               RoutedFlow(2, Path((node,)), demand=0.5)])
    assert math.isinf(rates[1]) and rates[2] == 0.5


def ksp_router(net):
    def route(src_server, dst_server, flow_id):
        src = net.server_switch(src_server)
        dst = net.server_switch(dst_server)
        if src == dst:
            return Path((src,))
        options = k_shortest_paths(net, src, dst, k=4)
        return options[flow_id % len(options)]

    return route


def without_cables(net, dead):
    """A copy of ``net`` with every cable of each ``dead`` bundle removed."""
    degraded = net.copy()
    for u, v in dead:
        mult = net.fabric[u][v]["mult"]
        for _ in range(mult):
            degraded.remove_cable(u, v, capacity=net.capacity(u, v) / mult)
    return degraded


def simulate(net, flows, event):
    return FlowSimulator(net, ksp_router(net)).run(flows, events=[event])


@pytest.mark.parametrize("topo", TOPOLOGIES)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_simulation_matches_oracle_through_link_failure(
        topo, seed, monkeypatch):
    net = network(topo)
    rng = random.Random(seed)
    servers = list(net.servers())
    flows = []
    for fid in range(60):
        src, dst = rng.sample(servers, 2)
        flows.append(FlowSpec(fid, src, dst, size=rng.uniform(0.1, 2.0),
                              arrival=rng.uniform(0.0, 3.0)))
    dead = rng.sample(sorted(net.fabric.edges(), key=repr), 3)
    degraded = without_cables(net, dead)
    event = TopologyEvent(t=1.5, net=degraded, router=ksp_router(degraded))

    result = simulate(net, flows, event)
    monkeypatch.setattr(simulator, "max_min_fair_rates",
                        reference_max_min_fair_rates)
    expected = simulate(net, flows, event)

    assert result.rerouted == expected.rerouted
    assert result.rerouted > 0
    assert ({c.spec.flow_id for c in result.completed}
            == {c.spec.flow_id for c in expected.completed})
    assert ({f.spec.flow_id for f in result.failed}
            == {f.spec.flow_id for f in expected.failed})
    assert abs(result.mean_fct - expected.mean_fct) <= 1e-9
    assert abs(result.p99_fct - expected.p99_fct) <= 1e-9

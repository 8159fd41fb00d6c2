"""The plant benchmark's three workloads.

Each workload builds its inputs from the seed alone, through public
``repro.topology`` / ``repro.traffic`` / ``repro.core`` calls and
``random.Random`` streams derived by :func:`derive` (never ``hash()``),
and digests them.  It then runs ops: ``op(i)`` returns the raw outputs of
op ``i`` and ``check(i, out, ref, shared)`` returns the ways they are
wrong.  Op 0 is the warm-up op of set-up; passes run ops 1, 2, ... in
whole cycles of ``cycle`` ops, each of which leaves the plant as it found
it, so a pass can be replayed op for op.  Reference entries are indexed
by ``i % period``.
"""

from __future__ import annotations

import hashlib
import random
from typing import Any, Dict, List, Optional, Sequence, Tuple

import networkx as nx

from repro.core.controller import Controller
from repro.core.conversion import Mode, convert
from repro.core.design import FlatTreeDesign
from repro.core.failures import FailureSet, materialize_with_failures
from repro.core.flattree import FlatTree
from repro.core.zones import proportional_layout, uniform_layout
from repro.flowsim.simulator import FlowSimulator, FlowSpec, TopologyEvent
from repro.mcf.approx import solve_concurrent_approx
from repro.mcf.commodities import build_flow_problem
from repro.mcf.exact import solve_concurrent_exact
from repro.routing import ksp
from repro.routing.base import Path
from repro.topology.clos import ClosParams, fat_tree_params
from repro.topology.elements import Network
from repro.topology.fattree import build_fat_tree
from repro.topology.jellyfish import build_jellyfish_like_fat_tree
from repro.topology.twostage import build_two_stage
from repro.traffic.clusters import (
    ALL_TO_ALL_CLUSTER_SIZE,
    BROADCAST_CLUSTER_SIZE,
    cluster_count,
    make_clusters,
)
from repro.traffic.flowgen import UNIFORM, poisson_flows, uniform_pairs
from repro.traffic.patterns import (
    all_to_all_commodities,
    broadcast_commodities,
)
from repro.traffic.placement import placement_by_name

from tracing import NULL_TRACER

Errors = List[str]


def derive(seed: int, *labels: object) -> random.Random:
    """A random stream fixed by the seed and the labels, in any process."""
    key = hashlib.sha256(repr((seed,) + labels).encode()).digest()
    return random.Random(int.from_bytes(key[:8], "big"))


def sha(*parts: object) -> str:
    return hashlib.sha256(repr(parts).encode()).hexdigest()


def network_digest(net: Network) -> str:
    """Canonical digest of a network: cables and server attachments."""
    cables = sorted(tuple(sorted((repr(u), repr(v)))) + (cap,)
                    for u, v, cap in net.edge_list())
    servers = sorted((s, repr(net.server_switch(s))) for s in net.servers())
    return sha(cables, servers)


def path_errors(path: Path, net: Network, src: int, dst: int) -> Errors:
    """Why ``path`` cannot carry server ``src`` -> ``dst`` on ``net``."""
    if path.src != net.server_switch(src) or path.dst != net.server_switch(dst):
        return [f"path {path.nodes} does not join servers {src} and {dst}"]
    fabric = net.fabric
    for u, v in zip(path.nodes, path.nodes[1:]):
        if not fabric.has_edge(u, v):
            return [f"path {path.nodes} uses missing link {u} - {v}"]
    return []


class Workload:
    name = ""
    #: Ops per cycle; passes run whole cycles.
    cycle = 1
    #: Nominal seconds per cycle (2-core x86 VM, CPython 3.11); sets the
    #: op count of a pass from ``--seconds``.
    cycle_s = 1.0
    #: Op ``i`` is checked against reference entry ``i % period``.
    period = 1
    #: Reference fields that do not depend on the seed.
    shared_fields: Tuple[str, ...] = ()

    def __init__(self, seed: int, tracer: Any = NULL_TRACER) -> None:
        self.seed = seed
        self.tracer = tracer
        self.digest = ""

    def op(self, i: int) -> Dict[str, Any]:
        raise NotImplementedError

    def check(self, i: int, out: Dict[str, Any], ref: Optional[Dict[str, Any]],
              shared: Optional[Dict[str, Any]]) -> Errors:
        raise NotImplementedError

    def reference_entry(self, out: Dict[str, Any]) -> Dict[str, Any]:
        raise NotImplementedError

    def flows(self, out: Dict[str, Any]) -> int:
        """Flows an op handled (the unit of ``flows_per_s``)."""
        raise NotImplementedError


# ----------------------------------------------------------------------
# mcf-bracket
# ----------------------------------------------------------------------
class _Instance:
    def __init__(self, pattern: str, place: str, topo: str, net: Network,
                 commodities: list) -> None:
        self.pattern = pattern
        self.place = place
        self.topo = topo
        self.net = net
        self.commodities = commodities


def _clustered(params: ClosParams, place: str, size: int,
               rng: random.Random, hotspots: bool) -> List[Any]:
    clusters = cluster_count(params.num_servers, size)
    placement = placement_by_name(place, clusters * size, params, size, rng)
    return make_clusters(placement, size, rng, with_hotspots=hotspots)


class McfBracket(Workload):
    """One op brackets one fig7/fig8 throughput point at k=6.

    ``build_flow_problem``, then the exact LP and the FPTAS (ε=0.08) on
    the same problem.  All-to-all and broadcast instances alternate.
    """

    name = "mcf-bracket"
    K = 6
    EPSILON = 0.08
    A2A_PLACES = ("locality", "weak locality")
    BCAST_PLACES = ("locality", "no locality")
    cycle_s = 18.0

    def __init__(self, seed: int, tracer: Any = NULL_TRACER) -> None:
        super().__init__(seed, tracer)
        tr = tracer
        k = self.K
        params = fat_tree_params(k)
        nets: Dict[str, Network] = {}
        with tr.span("topology.build", topo="fat-tree"):
            nets["fat-tree"] = build_fat_tree(k)
        for label, mode in (("flat-tree local-random", Mode.LOCAL_RANDOM),
                            ("flat-tree global-random", Mode.GLOBAL_RANDOM)):
            with tr.span("topology.build", topo=label):
                nets[label] = convert(
                    FlatTree(FlatTreeDesign.for_fat_tree(k)), mode)
        with tr.span("topology.build", topo="two-stage"):
            nets["two-stage"] = build_two_stage(params, derive(seed, "two-stage"))
        with tr.span("topology.build", topo="random graph"):
            nets["random graph"] = build_jellyfish_like_fat_tree(
                k, derive(seed, "random graph"))

        a2a: List[_Instance] = []
        for place in self.A2A_PLACES:
            with tr.span("traffic.generate", pattern="a2a"):
                demand = all_to_all_commodities(_clustered(
                    params, place, ALL_TO_ALL_CLUSTER_SIZE,
                    derive(seed, "a2a", place), hotspots=False))
            for topo in ("fat-tree", "flat-tree local-random", "two-stage",
                         "random graph"):
                a2a.append(_Instance("a2a", place, topo, nets[topo], demand))
        bcast: List[_Instance] = []
        for place in self.BCAST_PLACES:
            with tr.span("traffic.generate", pattern="bcast"):
                demand = broadcast_commodities(_clustered(
                    params, place, BROADCAST_CLUSTER_SIZE,
                    derive(seed, "bcast", place), hotspots=True))
            for topo in ("fat-tree", "flat-tree global-random", "random graph"):
                bcast.append(_Instance("bcast", place, topo, nets[topo], demand))

        self.instances: List[_Instance] = []
        for index in range(max(len(a2a), len(bcast))):
            self.instances.extend(a2a[index:index + 1] + bcast[index:index + 1])
        self.cycle = self.period = len(self.instances)
        net_digests = {name: network_digest(net) for name, net in nets.items()}
        self.digest = sha([
            (inst.pattern, inst.place, inst.topo, net_digests[inst.topo],
             sorted((c.src, c.dst, c.demand) for c in inst.commodities))
            for inst in self.instances])

    def op(self, i: int) -> Dict[str, Any]:
        inst = self.instances[i % self.cycle]
        tr = self.tracer
        with tr.span("mcf.commodities.build"):
            problem = build_flow_problem(inst.net, inst.commodities)
        lp_vars = problem.num_groups * problem.num_arcs
        with tr.span("mcf.exact.solve", pattern=inst.pattern, lp_vars=lp_vars):
            exact = solve_concurrent_exact(problem).throughput
        with tr.span("mcf.approx.solve", pattern=inst.pattern, lp_vars=lp_vars):
            approx = solve_concurrent_approx(problem, epsilon=self.EPSILON).throughput
        return {"pattern": inst.pattern, "exact": exact, "approx": approx,
                "lp_vars": lp_vars,
                "commodities": sum(len(g.sinks) for g in problem.groups)}

    def check(self, i, out, ref, shared) -> Errors:
        exact, approx = out["exact"], out["approx"]
        errors = []
        if not exact > 0:
            errors.append(f"exact lambda {exact} is not positive")
        if not 0 < approx <= exact * (1 + 1e-6):
            errors.append(f"FPTAS lambda {approx} is outside (0, exact "
                          f"lambda {exact}]: its certificate is infeasible")
        if ref is not None and abs(exact - ref["exact"]) > 1e-6:
            errors.append(f"exact lambda {exact!r} != reference {ref['exact']!r}")
        return errors

    def reference_entry(self, out):
        return {"exact": out["exact"]}

    def flows(self, out) -> int:
        return out["commodities"]


# ----------------------------------------------------------------------
# fct-poisson
# ----------------------------------------------------------------------
class KspRouter:
    """A flowsim router over one network: k-shortest paths, cached."""

    def __init__(self, net: Network) -> None:
        self.net = net
        self._cache: Dict[Tuple[Any, Any], List[Path]] = {}

    def __call__(self, src: int, dst: int, flow_id: int) -> Path:
        src_sw = self.net.server_switch(src)
        dst_sw = self.net.server_switch(dst)
        if src_sw == dst_sw:
            return Path((src_sw,))
        paths = self._cache.get((src_sw, dst_sw))
        if paths is None:
            paths = ksp.k_shortest_paths(self.net, src_sw, dst_sw)
            self._cache[(src_sw, dst_sw)] = paths
        return paths[flow_id % len(paths)]


class _Batch:
    def __init__(self, flows: List[FlowSpec], failures: FailureSet) -> None:
        self.flows = flows
        self.failures = failures


class FctPoisson(Workload):
    """One op simulates one Poisson batch on flat-tree k=8 global-random.

    Flows are routed by ``Controller.route`` over a warm route cache; a
    mid-run ``TopologyEvent`` fails a seeded set of fabric cables and
    swaps in a k-shortest-paths router over the degraded network.
    """

    name = "fct-poisson"
    K = 8
    RATE = 60.0
    FLOWS = 180          # arrivals of a rate-60 Poisson process over ~3 s
    FAIL_AT = 1.5        # simulated time of the cable failure
    FAILED_CABLES = 8
    POOL = 32            # batches generated in set-up
    cycle = 1
    period = POOL

    def __init__(self, seed: int, tracer: Any = NULL_TRACER) -> None:
        super().__init__(seed, tracer)
        tr = tracer
        with tr.span("topology.build", topo="flat-tree"):
            self.flattree = FlatTree(FlatTreeDesign.for_fat_tree(self.K))
            self.controller = Controller(self.flattree)
            self.controller.apply_mode(Mode.GLOBAL_RANDOM)
        with tr.span("core.network"):
            self.net = self.controller.network
        servers = sorted(self.net.servers())
        cables = sorted((tuple(sorted((u, v), key=repr))
                         for u, v in self.net.fabric.edges()), key=repr)
        self.batches: List[_Batch] = []
        for b in range(self.POOL):
            with tr.span("traffic.generate", pattern="poisson"):
                rng = derive(seed, "batch", b)
                flows = poisson_flows(uniform_pairs(servers), self.RATE,
                                      4 * self.FLOWS / self.RATE,
                                      sizes=UNIFORM, rng=rng)[:self.FLOWS]
                if len(flows) != self.FLOWS:
                    raise RuntimeError(f"batch {b} drew only {len(flows)} flows")
                dead = self._connected_cut(cables, derive(seed, "failure", b))
            self.batches.append(_Batch(flows, FailureSet(
                cables=frozenset(frozenset(c) for c in dead))))
        # The controller pre-installs routes for the traffic it will see.
        with tr.span("routing.routes", pairs=self.POOL * self.FLOWS):
            for batch in self.batches:
                for flow in batch.flows:
                    self.controller.routes(flow.src_server, flow.dst_server)
        self.digest = sha(network_digest(self.net), self.FAIL_AT, [
            ([(f.flow_id, f.src_server, f.dst_server, f.size, f.arrival)
              for f in batch.flows],
             sorted(sorted(repr(s) for s in c) for c in batch.failures.cables))
            for batch in self.batches])

    def _connected_cut(self, cables: list, rng: random.Random) -> list:
        """Cables whose loss leaves the fabric connected (no stranding)."""
        while True:
            dead = rng.sample(cables, self.FAILED_CABLES)
            graph = nx.Graph(self.net.fabric)
            graph.remove_edges_from(dead)
            if nx.is_connected(graph):
                return dead

    def op(self, i: int) -> Dict[str, Any]:
        batch = self.batches[i % self.POOL]
        tr = self.tracer
        with tr.span("core.failures.materialize"):
            degraded = materialize_with_failures(self.flattree, batch.failures)
        router = self.controller.route
        failover = KspRouter(degraded)
        if tr is not NULL_TRACER:
            router = tr.wrap(router, "routing.route")
            failover = tr.wrap(failover, "routing.route")
        event = TopologyEvent(self.FAIL_AT, degraded, failover,
                              label="cable-failure")
        with tr.span("flowsim.run", flows=len(batch.flows)):
            result = FlowSimulator(self.net, router).run(
                batch.flows, events=[event])
        return {"result": result, "degraded": degraded}

    def check(self, i, out, ref, shared) -> Errors:
        result, degraded = out["result"], out["degraded"]
        batch = self.batches[i % self.POOL]
        errors = [f"flow {f.spec.flow_id} failed: {f.reason}"
                  for f in result.failed[:3]]
        if len(result.completed) != len(batch.flows):
            errors.append(f"{len(result.completed)} of {len(batch.flows)} "
                          "flows completed")
        for done in result.completed:
            net = self.net if done.finish <= self.FAIL_AT + 1e-12 else degraded
            errors += path_errors(done.path, net, done.spec.src_server,
                                  done.spec.dst_server)[:1]
        if ref is not None and ref["route_digest"] == _route_digest(result):
            for key, value in (("fct_mean", result.mean_fct),
                               ("fct_p99", result.p99_fct)):
                if abs(value - ref[key]) > 1e-9 * abs(ref[key]):
                    errors.append(f"{key} {value!r} != reference {ref[key]!r}")
            if result.rerouted != ref["rerouted"]:
                errors.append(f"{result.rerouted} flows rerouted, "
                              f"reference {ref['rerouted']}")
        return errors

    def reference_entry(self, out):
        result = out["result"]
        return {"route_digest": _route_digest(result),
                "rerouted": result.rerouted,
                "fct_mean": result.mean_fct, "fct_p99": result.p99_fct}

    def flows(self, out) -> int:
        return len(out["result"].completed)


def _route_digest(result: Any) -> str:
    return sha(sorted((c.spec.flow_id, repr(c.path.nodes))
                      for c in result.completed))


# ----------------------------------------------------------------------
# convert-route
# ----------------------------------------------------------------------
class ConvertRoute(Workload):
    """One op converts flat-tree k=16 and makes routes ready.

    ``apply_layout`` to the next layout of a fixed cycle, routes for 500
    seeded server pairs on the cold cache the conversion leaves, then
    ``compile_sdn`` over the first 200 pairs.
    """

    name = "convert-route"
    K = 16
    PAIRS = 500
    SDN_PAIRS = 200
    cycle = period = 5
    cycle_s = 4.5
    shared_fields = ("converters", "links_removed", "links_added",
                     "servers_moved")

    def __init__(self, seed: int, tracer: Any = NULL_TRACER) -> None:
        super().__init__(seed, tracer)
        tr = tracer
        with tr.span("topology.build", topo="flat-tree"):
            self.flattree = FlatTree(FlatTreeDesign.for_fat_tree(self.K))
            self.controller = Controller(self.flattree)
        params = self.flattree.params
        self.layouts = [
            uniform_layout(params, Mode.GLOBAL_RANDOM),
            proportional_layout(params, 0.5),
            uniform_layout(params, Mode.LOCAL_RANDOM),
            proportional_layout(params, 0.25),
            uniform_layout(params, Mode.CLOS),
        ]
        with tr.span("traffic.generate", pattern="pairs"):
            rng = derive(seed, "pairs")
            servers = list(range(params.num_servers))
            self.pairs = [tuple(rng.sample(servers, 2))
                          for _ in range(self.PAIRS)]
        self.digest = sha(self.K, self.pairs, [
            sorted((pod, mode.value) for pod, mode in layout.pod_modes().items())
            for layout in self.layouts])

    def op(self, i: int) -> Dict[str, Any]:
        tr = self.tracer
        ctl = self.controller
        with tr.span("core.apply_layout"):
            plan = ctl.apply_layout(self.layouts[i % self.cycle])
        with tr.span("core.network"):
            net = ctl.network
        with tr.span("routing.routes", pairs=len(self.pairs)):
            routes = [ctl.routes(src, dst) for src, dst in self.pairs]
        with tr.span("routing.sdn.compile", pairs=self.SDN_PAIRS):
            program = ctl.compile_sdn(self.pairs[:self.SDN_PAIRS])
        return {"plan": plan, "net": net, "routes": routes, "program": program}

    def check(self, i, out, ref, shared) -> Errors:
        net, routes = out["net"], out["routes"]
        errors: Errors = []
        entry = self._plan_counts(out["plan"])
        for key, expected in (shared or {}).items():
            if entry[key] != expected:
                errors.append(f"plan {key} {entry[key]} != reference {expected}")
        for (src, dst), paths in zip(self.pairs, routes):
            if not paths:
                errors.append(f"no route for servers {src} -> {dst}")
            for path in paths:
                errors += path_errors(path, net, src, dst)[:1]
        if out["program"].rule_count() == 0:
            errors.append("compiled SDN program has no rules")
        if ref is not None:
            if _lengths_digest(routes) != ref["lengths"]:
                errors.append("path-length multisets differ from the reference")
        else:
            errors += self._shortest_first(net, routes)
        return errors[:5]

    def _shortest_first(self, net: Network, routes: list) -> Errors:
        """Without a reference: each pair's first path is a shortest one."""
        errors = []
        for (src, dst), paths in zip(self.pairs, routes):
            hops = [p.hops for p in paths]
            best = nx.shortest_path_length(net.fabric, paths[0].src, paths[0].dst)
            if hops != sorted(hops) or hops[0] != best:
                errors.append(f"servers {src} -> {dst}: path lengths {hops}, "
                              f"shortest is {best}")
        return errors

    @staticmethod
    def _plan_counts(plan: Any) -> Dict[str, int]:
        return {"converters": plan.converter_count,
                "links_removed": len(plan.links_removed),
                "links_added": len(plan.links_added),
                "servers_moved": len(plan.servers_moved)}

    def reference_entry(self, out):
        entry: Dict[str, Any] = self._plan_counts(out["plan"])
        entry["lengths"] = _lengths_digest(out["routes"])
        return entry

    def flows(self, out) -> int:
        return len(self.pairs)


def _lengths_digest(routes: Sequence[List[Path]]) -> str:
    return sha([sorted(p.hops for p in paths) for paths in routes])


WORKLOADS = {cls.name: cls for cls in (McfBracket, FctPoisson, ConvertRoute)}

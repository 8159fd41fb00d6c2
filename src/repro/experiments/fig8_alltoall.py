"""Figure 8: throughput of all-to-all traffic in 20-member clusters.

Every cluster runs all-to-all among its 20 members; flat-tree operates
as approximated local random graphs.  Expected shape (paper §3.3):

* flat-tree tracks the local-random-graph optimum; it beats two-stage
  random graph for small networks (k <= 14) and stays within ~6-9%
  beyond;
* fat-tree is highly placement-sensitive: good with strong locality,
  collapsing under weak locality;
* the random graph is moderate but the least locality-sensitive.
"""

from __future__ import annotations

import random
import zlib
from typing import List, Optional, Sequence

from repro.experiments.common import (
    DEFAULT_FLOW_KS,
    ExperimentResult,
    baseline_networks,
    flat_tree_network,
    ks_from_env,
    throughput_of,
)
from repro.core.conversion import Mode
from repro.mcf.commodities import Commodity
from repro.topology.clos import ClosParams, fat_tree_params
from repro.traffic.clusters import (
    ALL_TO_ALL_CLUSTER_SIZE,
    cluster_count,
    make_clusters,
)
from repro.traffic.patterns import all_to_all_commodities
from repro.traffic.placement import placement_by_name

PLACEMENTS: Sequence[str] = ("locality", "weak locality")


def all_to_all_workload(
    params: ClosParams,
    placement_name: str,
    rng: random.Random,
    cluster_size: int = ALL_TO_ALL_CLUSTER_SIZE,
) -> List[Commodity]:
    """The Figure-8 workload: all-to-all inside every cluster."""
    clusters = cluster_count(params.num_servers, cluster_size)
    placement = placement_by_name(
        placement_name, clusters * cluster_size, params, cluster_size, rng
    )
    return all_to_all_commodities(
        make_clusters(placement, cluster_size, rng)
    )


def run_fig8(
    ks: Optional[Sequence[int]] = None,
    seed: int = 0,
    cluster_size: int = ALL_TO_ALL_CLUSTER_SIZE,
    solver: Optional[str] = None,
) -> ExperimentResult:
    """Reproduce Figure 8 over the given k sweep."""
    ks = ks or ks_from_env(DEFAULT_FLOW_KS)
    result = ExperimentResult(
        experiment="fig8: all-to-all throughput, 20-member clusters",
        x_label="k",
        y_label="throughput (lambda)",
    )
    topologies = ("fat-tree", "flat-tree", "two-stage random graph",
                  "random graph")
    series = {
        (topo, place): result.new_series(f"{topo} {place}")
        for topo in topologies
        for place in PLACEMENTS
    }
    for k in ks:
        params = fat_tree_params(k)
        baselines = baseline_networks(k, seed)
        nets = {
            "fat-tree": baselines["fat-tree"],
            "flat-tree": flat_tree_network(k, Mode.LOCAL_RANDOM),
            "two-stage random graph": baselines["two-stage"],
            "random graph": baselines["random graph"],
        }
        for place in PLACEMENTS:
            # crc32, not hash(): str hashing follows PYTHONHASHSEED.
            offset = zlib.crc32(place.encode()) % 1000
            workload = all_to_all_workload(
                params, place, random.Random(seed + offset),
                cluster_size=cluster_size,
            )
            for topo, net in nets.items():
                series[(topo, place)].add(
                    k, throughput_of(net, workload, force=solver)
                )
    result.notes.append(
        "paper shape: flat-tree ~ local random optimum, beats two-stage "
        "for k <= 14; fat-tree collapses under weak locality"
    )
    return result

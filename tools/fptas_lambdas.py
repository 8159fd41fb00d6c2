#!/usr/bin/env python3
"""Print the FPTAS λ of every plant-benchmark ``mcf-bracket`` instance.

Usage::

    python tools/fptas_lambdas.py [--seeds 0 1 ...]

For each seed it builds the ``mcf-bracket`` workload of
``plantbench/workloads.py`` (14 fig7/fig8 k=6 problems) and solves each
problem with the FPTAS at the workload's ε.  One line per instance::

    seed index pattern/place/topo repr(λ) phases=P dijkstra_calls=D

``repr`` prints every bit of λ, so ``diff`` of this output from two
checkouts shows whether a solver change kept the FPTAS bit-identical.
``make plant-smoke`` prints seed 0.  Runs standalone from a repo
checkout: it adds the sibling ``src/`` and ``plantbench/`` directories
to ``sys.path``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "plantbench")]

from repro import obs  # noqa: E402
from repro.mcf.approx import solve_concurrent_approx  # noqa: E402
from repro.mcf.commodities import build_flow_problem  # noqa: E402
from repro.obs.sinks import NullSink  # noqa: E402
from workloads import McfBracket  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[0])
    args = parser.parse_args(argv)
    for seed in args.seeds:
        workload = McfBracket(seed)
        for index, inst in enumerate(workload.instances):
            problem = build_flow_problem(inst.net, inst.commodities)
            obs.registry.reset()
            obs.enable(NullSink())
            try:
                lam = solve_concurrent_approx(
                    problem, epsilon=workload.EPSILON).throughput
                counters = obs.registry.snapshot()
            finally:
                obs.disable()
                obs.registry.reset()
            print(f"{seed} {index:2d} {inst.pattern}/{inst.place}/{inst.topo}"
                  f" {lam!r}"
                  f" phases={counters['mcf.approx.phases']['value']:g}"
                  f" dijkstra_calls="
                  f"{counters['mcf.approx.dijkstra_calls']['value']:g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Plant benchmark: one workload, timed or traced, from the checkout root.

    python3 plantbench/run.py --workload mcf-bracket --seed 1 --seconds 20 --trace 0

Builds nothing: it imports the ``repro`` package from ``src/`` of the
checkout it sits in.  The last line of standard output is the result
object (``correct``, ``attempted``, ``failed``, ``metrics``); the line
before it is a report with the workload digest, the op-tail percentile,
failures and the environment fingerprint.  Exit status: 0 when every op
passed its checks, 1 when one failed, 2 when the benchmark cannot run.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Variables that change what the plant computes or turn telemetry on.
SCRUBBED_ENV = ("REPRO_SOLVER", "REPRO_KS", "REPRO_MAX_K", "REPRO_HYBRID_K",
                "REPRO_TRACEMALLOC", "REPRO_TELEMETRY")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("mcf-bracket", "fct-poisson", "convert-route"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"plantbench: no repro package under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    for name in SCRUBBED_ENV:
        os.environ.pop(name, None)
    sys.path.insert(0, str(ROOT / "src"))

    import harness
    from workloads import WORKLOADS

    with open(HERE / "reference.json", encoding="utf-8") as handle:
        reference = json.load(handle)["workloads"].get(args.workload, {})
    return harness.run(WORKLOADS[args.workload], args.seed, args.seconds,
                       bool(args.trace), ROOT, reference)


if __name__ == "__main__":
    sys.exit(main())

"""Record the plant's outputs as the benchmark oracle's reference.

    python3 plantbench/record_reference.py

For every workload and each seed in ``SEEDS``: the workload digest and
the checked fields of one period of ops.  Fields that do not depend on
the seed (the convert-route plan counts) are stored once, from the first
seed, and checked on every seed.  Outputs must pass the reference-free
checks before they are recorded.  ``reference.json`` is written anew.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import harness  # noqa: E402
from repro.obs.bench import environment_fingerprint  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: Seeds with a recorded reference; other seeds get the reference-free
#: checks only.
SEEDS = range(0, 21)


def record(cls: type, seeds: range) -> dict:
    shared = None
    by_seed = {}
    for seed in seeds:
        bench = harness.setup(cls, seed)
        entries = [{}] * bench.period
        for i in range(1, bench.period + 1):  # in pass order, after op 0
            out = bench.op(i)
            errors = bench.check(i, out, None, None)
            if errors:
                raise SystemExit(f"{cls.name} seed {seed} op {i}: {errors}")
            entries[i % bench.period] = bench.reference_entry(out)
        common = [{f: e.pop(f) for f in cls.shared_fields} for e in entries]
        if cls.shared_fields:
            shared = shared or common
            if common != shared:
                raise SystemExit(f"{cls.name}: seed-free fields vary by seed")
        by_seed[str(seed)] = {"digest": bench.digest, "ops": entries}
        print(f"{cls.name} seed {seed}: {len(entries)} ops", file=sys.stderr)
    return {"shared": shared, "seeds": by_seed}


def main() -> int:
    fingerprint = environment_fingerprint(ROOT)
    fingerprint["source_sha256"] = harness.source_digest(ROOT / "src" / "repro")
    doc = {"workloads": {name: record(cls, SEEDS)
                         for name, cls in sorted(WORKLOADS.items())},
           "recorded_with": fingerprint}
    path = HERE / "reference.json"
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""perfreport — the perf-session gates and span-profiler front ends.

The bench runner (``flattree bench``, :mod:`repro.obs.bench`) records
durable per-session wall times; ``python -m tools.perfreport`` judges
them.  The pairwise gate is ``diff BASE NEW`` (:mod:`repro.obs.diffprof`:
25% relative tolerance, 5 ms floor below which both sides are noise,
environment drift reported above the verdict); the trajectory gate is
``trend`` (:mod:`repro.obs.trend`: MAD noise bands over every numbered
session).  ``profile``, ``flamegraph`` and ``hotspots`` are front ends
for the span profiler (:mod:`repro.obs.perf`) and the sampling
profiler's campaign artifacts.

Exit codes mirror ``tools.flatlint``: 0 clean, 1 regressions found,
2 usage errors (unreadable file, schema violation).  See
``docs/performance.md``.
"""

from __future__ import annotations

import sys
from pathlib import Path

try:
    import repro  # noqa: F401
except ImportError:  # standalone invocation from a checkout
    sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))

__version__ = "2.0.0"

__all__ = ["__version__"]

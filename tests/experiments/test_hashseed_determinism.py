"""Every experiment prints the same table under every PYTHONHASHSEED.

Each run is a fresh interpreter, so str hashing differs between the two;
a seed derived from ``hash()`` would change the cluster placement and
with it the table.
"""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

SRC = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "..",
                                   "src"))


#: One CLI argv per experiment, at its smallest size.
EXPERIMENTS = {
    "fig5": ["fig5", "--ks", "4"],
    "fig6": ["fig6", "--ks", "4"],
    "fig7": ["fig7", "--ks", "4"],
    "fig8": ["fig8", "--ks", "4"],
    "fct": ["fct", "--ks", "4", "--flows", "40"],
    "hybrid": ["hybrid", "--k", "4"],
}


def run_figure(figure: str, hash_seed: str) -> bytes:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    result = subprocess.run(
        [sys.executable, "-m", "repro.cli", *EXPERIMENTS[figure]],
        capture_output=True, env=env, timeout=600, check=False,
    )
    assert result.returncode == 0, result.stderr.decode()
    return result.stdout


@pytest.mark.parametrize("figure", list(EXPERIMENTS))
def test_table_independent_of_hash_seed(figure):
    assert run_figure(figure, "0") == run_figure(figure, "1")

"""Workload inputs, made from the seed alone.

This module is what a fresh interpreter runs to time set-up: it imports
the CLI module (which loads every layer of the library) and builds the
maps, grids and seeded start points of one workload.  It imports nothing
of the benchmark's checking code.

    python3 perfbench/inputs.py <workload> <seed>
"""

from __future__ import annotations

import os
import sys

import numpy as np

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)

import eqstate as eq  # noqa: E402
import eqstate.cli  # noqa: E402,F401


def _rng(seed):
    return np.random.Generator(np.random.Philox(int(seed)))


def lsv_transition(seed):
    rng = _rng(seed)
    return {
        "map": eq.lsv(1.5),
        "alpha": 1.5,
        "base": (0.5, 1.0),
        "horizon": 200,
        "short_horizon": 40,
        # the CLI's grid "0.5:1.5:0.01", 101 points across t = 1
        "grid_spec": "0.5:1.5:0.01",
        "grid": [round(0.5 + k * 0.01, 12) for k in range(101)],
        "t_samples": sorted(round(float(v), 6) for v in rng.uniform(0.3, 0.95, 2)),
        "gurevich_ns": sorted(int(v) for v in rng.choice(np.arange(5, 200), 5, replace=False)) + [200],
        "sample_seed": int(rng.integers(1, 2**31)),
        "n_samples": 20_000,
        "refine_order": 2,
    }


def zooming_orbit(seed):
    rng = _rng(seed)
    return {
        "map": eq.lsv(0.6),
        "alpha": 0.6,
        # the acceptance setting c11: its start point, N = 1e4, exponential
        # rate 0.2, delta = 0.1.  The detector's cost depends on the orbit
        # (how long candidates survive), so this one start point is fixed;
        # the seed draws the start points of the other calls.
        "x_c11": float(_rng(20240501).uniform(0.0, 1.0)),
        "N": 10_000, "rate": 0.2, "delta": 0.1,
        "x": [float(v) for v in rng.uniform(0.05, 0.95, 2)],
        "N_short": 2_000, "sqrt_rate": 0.5,
        "N_cli": 4_000,
        "N_long": 100_000, "pliss_lambda": 0.1,
        "N_iterate": 5_000,
        "prefix": 300,
    }


def series_oracles(seed):
    rng = _rng(seed)
    return {
        # the last tolerance is the CLI's default, so CLI and library roots agree
        "tols": (1e-6, 1e-7, 1e-8, 1e-9, 1e-10, 1e-11, 1e-13, 1e-12),
        "qs": tuple(range(1, 11)),
        "cli_qs": (1, 3, 5),
        "gammas": [round(float(g), 6) for g in rng.uniform(0.05, 0.95, 16)],
        "verify_seed": int(rng.integers(1, 2**31)),
        "cli_verify_seed": int(rng.integers(1, 2**31)),
        "verify_sizes": {"n_pairs": 3_000, "n_prop": 100, "n_entropy": 300, "max_len": 2_000},
        "ce_c": [-2.0] + [round(float(c), 6) for c in rng.uniform(-1.99, -1.4, 3)],
        "ce_N": 20_000,
    }


BUILDERS = {
    "lsv_transition": lsv_transition,
    "zooming_orbit": zooming_orbit,
    "series_oracles": series_oracles,
}


if __name__ == "__main__":
    BUILDERS[sys.argv[1]](int(sys.argv[2]))

"""Seeded CLI configs for the three benchmark workloads.

Shapes (dimension, intervals, levels, grid, Monte Carlo size) are fixed per
workload; the seed draws only the values.  Every draw is bounded, so the
development oracle of ``oracles.py`` certifies its own truncation error
for any seed (see ``ORACLE_DEPTH_CAP`` there).

``small=True`` gives reduced sizes of the same shapes for the self-test.
"""

from __future__ import annotations

import numpy as np

WORKLOADS = {
    "kernel-jumps-d2": (
        "one 257^2 truncated solve (M=N=3) with full fields written: "
        "exercises the sweep and CSV serialisation"),
    "mmd-area-m8": (
        "45 small level-2 surfaces whose corners alone are used: "
        "exercises the MMD assembly and the many-small-solves path"),
    "validate-jumps-d2": (
        "depth-19 development oracles and 2e4-path Monte Carlo: exercises "
        "tensor algebra and mc_oracle, and bypasses the sweep"),
}

D = 2
JUMP_INTENSITY = 1.5


def _rng(workload: str, seed: int) -> np.random.Generator:
    tag = sum(ord(c) * 31**i for i, c in enumerate(workload)) % 2**32
    return np.random.default_rng([seed, tag])


def _cov(rng, scale: float) -> list:
    f = rng.uniform(-scale, scale, size=(D, D))
    return (f @ f.T).tolist()


def _triplet(rng, time_grid, jumps_on_first: bool, drift: float, vol: float,
             jump_scale: float) -> dict:
    intervals = []
    for i in range(len(time_grid) - 1):
        iv = {"drift": rng.uniform(-drift, drift, size=D).tolist(),
              "cov": _cov(rng, vol), "jumps": None}
        if i == 0 and jumps_on_first:
            iv["jumps"] = {"type": "gaussian_cp", "intensity": JUMP_INTENSITY,
                           "cov": _cov(rng, jump_scale)}
        intervals.append(iv)
    return {"dim": D, "state_depth": 1, "time_grid": list(time_grid),
            "intervals": intervals}


def kernel_config(seed: int, small: bool = False) -> dict:
    rng = _rng("kernel-jumps-d2", seed)
    grid = [0.0, 0.4, 1.0]
    points = 33 if small else 257
    return {
        "experiment": "kernel",
        "triplets": [_triplet(rng, grid, True, 0.6, 0.5, 0.4),
                     _triplet(rng, grid, True, 0.6, 0.5, 0.4)],
        "grid": {"s_points": points, "t_points": points, "T": 1.0},
        "levels": {"M": 3, "N": 3},
    }


def mmd_config(seed: int, small: bool = False) -> dict:
    rng = _rng("mmd-area-m8", seed)
    n_paths = 3 if small else 8
    paths = []
    for _ in range(n_paths):
        a = rng.uniform(-0.4, 0.4, size=(4, D, D))
        paths.append({"derivative": rng.uniform(-1.0, 1.0, size=(4, D)).tolist(),
                      "area": (a - np.swapaxes(a, 1, 2)).tolist()})
    return {
        "experiment": "mmd",
        "ensemble": {"dim": D, "time_grid": [0.0, 0.25, 0.5, 0.75, 1.0],
                     "paths": paths},
        "wiener": {"time_grid": [0.0, 0.5, 1.0],
                   "covs": [(np.eye(D) * 0.5 + np.asarray(_cov(rng, 0.5))).tolist()
                            for _ in range(2)]},
        "grid": {"s_points": 17 if small else 65, "T": 1.0},
    }


def validate_config(seed: int, small: bool = False) -> dict:
    rng = _rng("validate-jumps-d2", seed)
    grid = [0.0, 0.5, 1.0]
    return {
        "experiment": "validate",
        "triplets": [_triplet(rng, grid, True, 0.3, 0.35, 0.3),
                     _triplet(rng, grid, False, 0.3, 0.35, 0.0)],
        "grid": {"s_points": 33 if small else 129, "T": 1.0},
        "levels": {"M": 4, "N": 4},
        "mc": {"n_paths": 2000 if small else 20000,
               "steps": 4 if small else 16,
               "seed": int(rng.integers(2**31))},
    }


CONFIGS = {"kernel-jumps-d2": kernel_config, "mmd-area-m8": mmd_config,
           "validate-jumps-d2": validate_config}

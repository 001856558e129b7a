"""Independent oracles for the correctness gate, run in their own process.

Usage::

    python3 perfbench/oracles.py WORKLOAD CONFIG.json FIRST_OUTPUT_DIR ORACLE.json

Writes ``{"value", "bound", "certificate"}`` for the workload's config.  The
benchmark runs this once per invocation, after the first CLI run and
outside the timed runs, in a separate process so that the benchmark's own
process stays small (a child's ``ru_maxrss`` includes the high-water mark
of the process that spawned it).  The oracles build their own triplets
instead of using the CLI's config parser.

* kernel and validate: the inner product of the developments of the two
  truncated velocities at depth ``ORACLE_DEPTH``.  For kernel also the
  ``truncation_certificate`` recomputed at the velocity depths printed in
  the first run's ``certificate.txt``.
* mmd: the depth-12 Hilbert norm of the difference between the ensemble's
  mean signature and the Wiener expected signature (acceptance criterion
  7's direct oracle).
"""

from __future__ import annotations

import json
import math
import os
import re
import sys

import numpy as np

from levy_sigkernel import tensor_algebra as ta
from levy_sigkernel.characteristics import (GaussianJumps, LevyTriplet,
                                            characteristic_velocity)
from levy_sigkernel.development import bound_outer_truncation, develop
from levy_sigkernel.kernel_solver import truncation_certificate

# The development oracle's error is at most the product of the two sides'
# bound_outer_truncation (each bounds the l1 tail of one development above
# the depth).  At depth 16 that product stays below ORACLE_TOL for every
# seed of the bounded draws in workloads.py.
ORACLE_DEPTH = 16
ORACLE_TOL = 1e-10
MMD_ORACLE_DEPTH = 12


class OracleError(RuntimeError):
    """The oracle cannot certify its own accuracy for this input."""


def _triplet(raw: dict) -> LevyTriplet:
    ivs = raw["intervals"]
    jumps = [None if iv.get("jumps") is None else
             GaussianJumps(iv["jumps"]["intensity"], np.asarray(iv["jumps"]["cov"]))
             for iv in ivs]
    return LevyTriplet(dim=raw["dim"], time_grid=np.asarray(raw["time_grid"]),
                       drifts=[np.asarray(iv["drift"]) for iv in ivs],
                       covs=[np.asarray(iv["cov"]) for iv in ivs],
                       jumps=jumps, state_depth=raw["state_depth"])


def _top_level(v) -> int:
    return max(n for x in v.tensors for n in range(1, x.depth + 1)
               if np.any(x.levels[n]))


def development_oracle(cfg: dict) -> dict:
    """<dev(v_a^M), dev(v_b^N)> at depth ORACLE_DEPTH with its error bound."""
    raw = cfg["triplets"]
    horizon = cfg["grid"]["T"]
    levels = (cfg["levels"]["M"], cfg["levels"]["N"])
    vels = [characteristic_velocity(_triplet(raw[k]), levels[k]) for k in (0, 1)]
    bound = math.prod(bound_outer_truncation(v, 0.0, horizon, _top_level(v),
                                             ORACLE_DEPTH + 1) for v in vels)
    if not bound <= ORACLE_TOL:
        raise OracleError(f"development oracle bound {bound:.3e} > {ORACLE_TOL}")
    devs = [develop(v, 0.0, horizon, ORACLE_DEPTH) for v in vels]
    return {"value": ta.inner_product(*devs), "bound": bound}


def kernel_oracle(cfg: dict, first_out: str) -> dict:
    out = development_oracle(cfg)
    try:
        with open(os.path.join(first_out, "certificate.txt")) as fh:
            depths = re.search(r"velocity depths (\d+)/(\d+)", fh.read()).groups()
    except (OSError, AttributeError):
        return out                             # the first run's gate fails anyway
    va, vb = (characteristic_velocity(_triplet(cfg["triplets"][k]), int(depths[k]))
              for k in (0, 1))
    horizon = cfg["grid"]["T"]
    out["certificate"] = repr(truncation_certificate(
        va, vb, cfg["levels"]["M"], cfg["levels"]["N"], horizon, horizon))
    return out


def mmd_oracle(cfg: dict) -> dict:
    ens = cfg["ensemble"]
    grid = np.asarray(ens["time_grid"])
    d, horizon = ens["dim"], cfg["grid"]["T"]
    sigs = []
    for path in ens["paths"]:
        trip = LevyTriplet(dim=d, time_grid=grid,
                           drifts=list(np.asarray(path["derivative"])),
                           covs=[np.zeros((d, d))] * (len(grid) - 1),
                           areas=list(np.asarray(path["area"])), state_depth=2)
        sigs.append(develop(characteristic_velocity(trip, 2), 0.0, horizon,
                            MMD_ORACLE_DEPTH))
    mean = sigs[0]
    for sig in sigs[1:]:
        mean = mean + sig
    mean = mean * (1.0 / len(sigs))
    wn = cfg["wiener"]
    n_int = len(wn["time_grid"]) - 1
    wiener = LevyTriplet(dim=d, time_grid=np.asarray(wn["time_grid"]),
                         drifts=[np.zeros(d)] * n_int,
                         covs=[np.asarray(a) for a in wn["covs"]])
    diff = mean - develop(characteristic_velocity(wiener, 2), 0.0, horizon,
                          MMD_ORACLE_DEPTH)
    return {"value": ta.inner_product(diff, diff), "bound": None}


def main(workload: str, cfg_path: str, first_out: str, out_path: str) -> int:
    with open(cfg_path) as fh:
        cfg = json.load(fh)
    if workload == "kernel-jumps-d2":
        oracle = kernel_oracle(cfg, first_out)
    elif workload == "mmd-area-m8":
        oracle = mmd_oracle(cfg)
    else:
        oracle = development_oracle(cfg)
    with open(out_path, "w") as fh:
        json.dump(oracle, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))

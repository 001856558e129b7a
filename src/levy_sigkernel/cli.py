"""Batch front-end: JSON experiment configs in, CSV tables out.

Config schema (all experiments):

    {
      "experiment": "kernel" | "mmd" | "validate" | "bounds",
      "output_dir": "out",                  # optional, overridden by --output
      "triplets": [ ... ],                  # kernel/validate/bounds
      "ensemble": {...}, "wiener": {...},   # mmd
      "grid":   {"s_points": 129, "t_points": 129, "T": 1.0},
      "levels": {"M": 2, "N": 2},
      "mc":     {"n_paths": 20000, "steps": 16, "seed": 42}   # --seed overrides
    }

A triplet is

    {"dim": 1, "state_depth": 1, "time_grid": [0.0, 1.0],
     "intervals": [{"drift": [0.0], "cov": [[1.0]],     # or "factors": [[..],..]
                    "area": [[0.0]],                    # optional, state_depth 2
                    "jumps": null
                             | {"type": "atomic", "weights": [..],
                                "atoms": [{"level1": [..], "level2": [[..]]}]}
                             | {"type": "gaussian_cp", "intensity": 1.0,
                                "cov": [[1.0]]}}]}

See ``examples_config()`` for a ready-to-run annotated example.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from typing import TYPE_CHECKING

import numpy as np

from . import _forks
from . import tensor_algebra as ta
from .characteristics import (AtomicJumps, GaussianJumps, LevyTriplet,
                              characteristic_velocity, factor_covariance,
                              velocity_depth)
from .errors import ConfigError, InvalidParameter, LevySigKernelError
from .kernel_solver import (make_grid, solve_truncated_system,
                            truncation_certificate)
from .tensor_algebra import TruncatedTensor

# ``development``, ``mc_oracle`` and ``mmd`` are imported inside the
# commands that use them, so that a run loads only what it computes
if TYPE_CHECKING:
    from .mmd import AugmentedPathEnsemble, WienerSpec

_MAX_VELOCITY_COEFFS = 2_000_000


def _require(cfg: dict, key: str, path: str):
    if not isinstance(cfg, dict):
        raise ConfigError(path or "config", "expected an object")
    if key not in cfg:
        raise ConfigError(f"{path}.{key}" if path else key, "missing required field")
    return cfg[key]


def _as_number(value, path: str) -> float:
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ConfigError(path, "expected a number")
    try:
        number = float(value)
    except OverflowError:               # an integer beyond the float range
        number = math.inf
    if not math.isfinite(number):       # json parses NaN and Infinity
        raise ConfigError(path, "expected a finite number")
    return number


def _as_int(value, path: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise ConfigError(path, "expected an integer")
    return value


def _parse_array(value, path: str, what: str) -> np.ndarray:
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(path, f"expected {what}") from None
    if not np.all(np.isfinite(arr)):
        raise ConfigError(path, f"expected {what}, all finite")
    return arr


def _parse_matrix(value, d: int, path: str) -> np.ndarray:
    arr = _parse_array(value, path, "a matrix of numbers")
    if arr.shape != (d, d):
        raise ConfigError(path, f"expected shape ({d}, {d}), got {arr.shape}")
    return arr


def _parse_vector(value, d: int, path: str) -> np.ndarray:
    arr = _parse_array(value, path, "a vector of numbers")
    if arr.shape != (d,):
        raise ConfigError(path, f"expected {d} entries, got shape {arr.shape}")
    return arr


def _parse_list(value, path: str, what: str) -> list:
    if not isinstance(value, list):
        raise ConfigError(path, f"expected a list of {what}")
    return value


def _parse_factors(value, d: int, path: str) -> np.ndarray:
    try:
        return factor_covariance(d, value)
    except InvalidParameter as exc:
        raise ConfigError(path, str(exc)) from None


def _parse_time_grid(value, path: str) -> np.ndarray:
    grid = _parse_array(value, path, "a list of times")
    if grid.ndim != 1 or len(grid) < 2:
        raise ConfigError(path, "expected a list of at least two times")
    return grid


def _parse_atom(value, d: int, state_depth: int, path: str) -> TruncatedTensor:
    if not isinstance(value, dict):
        raise ConfigError(path, "expected an object with level1/level2")
    levels = [np.zeros(1), _parse_vector(_require(value, "level1", path), d, f"{path}.level1")]
    if "level2" in value and value["level2"] is not None:
        if state_depth < 2:
            raise ConfigError(f"{path}.level2", "level2 atoms need state_depth 2")
        levels.append(_parse_matrix(value["level2"], d, f"{path}.level2").ravel())
    return TruncatedTensor.from_levels(d, levels)


def parse_triplet(cfg: dict, path: str) -> LevyTriplet:
    d = _as_int(_require(cfg, "dim", path), f"{path}.dim")
    state_depth = _as_int(cfg.get("state_depth", 1), f"{path}.state_depth")
    grid = _parse_time_grid(_require(cfg, "time_grid", path), f"{path}.time_grid")
    intervals = _require(cfg, "intervals", path)
    if not isinstance(intervals, list) or len(intervals) != len(grid) - 1:
        raise ConfigError(f"{path}.intervals", "need one interval object per grid step")
    drifts, covs, areas, jumps = [], [], [], []
    for i, iv in enumerate(intervals):
        ipath = f"{path}.intervals[{i}]"
        if not isinstance(iv, dict):
            raise ConfigError(ipath, "expected an object")
        drifts.append(_parse_vector(iv.get("drift", [0.0] * d), d, f"{ipath}.drift"))
        if "factors" in iv:
            covs.append(_parse_factors(iv["factors"], d, f"{ipath}.factors"))
        else:
            covs.append(_parse_matrix(iv.get("cov", np.zeros((d, d))), d, f"{ipath}.cov"))
        areas.append(None if iv.get("area") is None
                     else _parse_matrix(iv["area"], d, f"{ipath}.area"))
        jspec = iv.get("jumps")
        if jspec is None:
            jumps.append(None)
        elif not isinstance(jspec, dict):
            raise ConfigError(f"{ipath}.jumps", "expected null or an object")
        elif jspec.get("type") == "atomic":
            raw_atoms = _parse_list(_require(jspec, "atoms", f"{ipath}.jumps"),
                                    f"{ipath}.jumps.atoms", "atom objects")
            atoms = tuple(_parse_atom(a, d, state_depth, f"{ipath}.jumps.atoms[{k}]")
                          for k, a in enumerate(raw_atoms))
            weights = _parse_vector(_require(jspec, "weights", f"{ipath}.jumps"),
                                    len(atoms), f"{ipath}.jumps.weights")
            jumps.append(AtomicJumps(weights, atoms))
        elif jspec.get("type") == "gaussian_cp":
            jumps.append(GaussianJumps(
                _as_number(_require(jspec, "intensity", f"{ipath}.jumps"),
                           f"{ipath}.jumps.intensity"),
                _parse_matrix(_require(jspec, "cov", f"{ipath}.jumps"), d,
                              f"{ipath}.jumps.cov")))
        else:
            raise ConfigError(f"{ipath}.jumps.type", "expected 'atomic' or 'gaussian_cp'")
    try:
        return LevyTriplet(dim=d, time_grid=grid, drifts=drifts, covs=covs,
                           areas=areas, jumps=jumps, state_depth=state_depth)
    except LevySigKernelError as exc:
        raise ConfigError(path, str(exc)) from exc


def _parse_grid(cfg: dict, points: bool = True) -> tuple[int | None, int | None, float]:
    """``(s_points, t_points, T)``.  With ``points=False`` the point counts
    may be absent, and are None then; the ones given are still checked."""
    grid = _require(cfg, "grid", "")
    if not isinstance(grid, dict):
        raise ConfigError("grid", "expected an object")
    sp = None
    if points or "s_points" in grid:
        sp = _as_int(_require(grid, "s_points", "grid"), "grid.s_points")
    tp = _as_int(grid["t_points"], "grid.t_points") if "t_points" in grid else sp
    horizon = _as_number(_require(grid, "T", "grid"), "grid.T")
    if any(p is not None and p < 2 for p in (sp, tp)) or horizon <= 0:
        raise ConfigError("grid", "need s_points, t_points >= 2 and T > 0")
    return sp, tp, horizon


def _parse_levels(cfg: dict) -> tuple[int, int]:
    levels = _require(cfg, "levels", "")
    m = _as_int(_require(levels, "M", "levels"), "levels.M")
    n = _as_int(levels.get("N", m), "levels.N")
    if m < 1 or n < 1:
        raise ConfigError("levels", "M and N must be >= 1")
    return m, n


def _check_budget(dim: int, level: int, path: str) -> None:
    """A level whose truncated tensor alone exceeds the coefficient budget
    is a config error (``path`` names the level's field)."""
    size = ta.flat_size(dim, level)
    if size > _MAX_VELOCITY_COEFFS:
        raise ConfigError(path, f"level {level} at dim {dim} needs {size} coefficients, "
                                f"above the budget of {_MAX_VELOCITY_COEFFS}")


def _check_solve_budget(dim: int, m: int, n: int) -> None:
    """A truncated solve whose state width D = flat(M-1) + flat(N-1) - 1 has
    square tables above the coefficient budget is a config error naming the
    larger level: its side tables hold flat(M-1)- and flat(N-1)-square
    identities, and its transfer maps and interval-pair tables D x D blocks."""
    fm, fn = ta.flat_size(dim, m - 1), ta.flat_size(dim, n - 1)
    width = fm + fn - 1
    if width * width > _MAX_VELOCITY_COEFFS:
        raise ConfigError("levels.M" if fm >= fn else "levels.N",
                          f"levels M={m}, N={n} at dim {dim} give a state width of "
                          f"{width}, whose square tables exceed the budget of "
                          f"{_MAX_VELOCITY_COEFFS} coefficients")


def _budget_depth(dim: int, level: int) -> int:
    """Deepest depth within the coefficient budget (>= level): the cap of
    every depth the CLI chooses, and the depth of the bounds tables."""
    depth = level
    while depth < level + 16 and ta.flat_size(dim, depth + 1) <= _MAX_VELOCITY_COEFFS:
        depth += 1
    return depth


def _certified_velocity(triplet: LevyTriplet, level: int, horizon: float):
    """The characteristic velocity at the depth its certified tail needs
    (``characteristics.velocity_depth``), capped by the budget depth."""
    depth = velocity_depth(triplet, level, _budget_depth(triplet.dim, level), horizon)
    return characteristic_velocity(triplet, depth)


def _check_horizon(horizon: float, triplet: LevyTriplet, path: str) -> None:
    """``grid.T`` past the triplet's horizon (by more than every time check
    allows) is a config error."""
    if horizon > triplet.horizon + 1e-12:
        raise ConfigError("grid.T", f"{horizon!r} lies past {path}'s horizon "
                                    f"{triplet.horizon!r}")


def _certified_solve(trip_a: LevyTriplet, trip_b: LevyTriplet, m: int, n: int,
                     s_points: int, t_points: int, horizon: float):
    """The solve of kernel and validate: both certified velocities and the
    system truncated at levels M and N, on grids through each triplet's
    breakpoints.  Returns ``(va, vb, surface)``."""
    if trip_b.dim != trip_a.dim:
        raise ConfigError("triplets[1].dim", f"expected {trip_a.dim}, the dim of "
                                             f"triplets[0], got {trip_b.dim}")
    # a lone triplet is both: it fails as triplets[0] first
    _check_horizon(horizon, trip_a, "triplets[0]")
    _check_horizon(horizon, trip_b, "triplets[1]")
    _check_budget(trip_a.dim, m, "levels.M")
    _check_budget(trip_b.dim, n, "levels.N")
    _check_solve_budget(trip_a.dim, m, n)
    s_grid = make_grid(horizon, s_points, trip_a.time_grid)
    t_grid = make_grid(horizon, t_points, trip_b.time_grid)
    va = _certified_velocity(trip_a, m, horizon)
    vb = _certified_velocity(trip_b, n, horizon)
    surface = solve_truncated_system(va.truncated(m), vb.truncated(n), m, n,
                                     s_grid, t_grid)
    return va, vb, surface


def cmd_kernel(cfg: dict, out_dir: str) -> int:
    triplets = _require(cfg, "triplets", "")
    if not isinstance(triplets, list) or len(triplets) != 2:
        raise ConfigError("triplets", "kernel experiment needs exactly two triplets")
    ta_, tb = (parse_triplet(t, f"triplets[{i}]") for i, t in enumerate(triplets))
    m, n = _parse_levels(cfg)
    sp, tp, horizon = _parse_grid(cfg)
    va, vb, surface = _certified_solve(ta_, tb, m, n, sp, tp, horizon)
    cert = truncation_certificate(va, vb, m, n, horizon, horizon)
    surface.to_csv(os.path.join(out_dir, "kernel.csv"), include_fields=True)
    _forks.write_text(os.path.join(out_dir, "certificate.txt"),
                      f"w({horizon!r},{horizon!r}) = {surface.value()!r}\n"
                      f"truncation_certificate = {cert!r}\n"
                      f"levels M={m} N={n}; velocity depths {va.depth}/{vb.depth}\n")
    print(f"kernel: w(T,T) = {surface.value()!r}, certificate = {cert!r}")
    return 0


def _parse_ensemble(cfg: dict) -> AugmentedPathEnsemble:
    from .mmd import AugmentedPathEnsemble
    ens = _require(cfg, "ensemble", "")
    d = _as_int(_require(ens, "dim", "ensemble"), "ensemble.dim")
    grid = _parse_time_grid(_require(ens, "time_grid", "ensemble"),
                            "ensemble.time_grid")
    paths = _require(ens, "paths", "ensemble")
    if not isinstance(paths, list) or not paths:
        raise ConfigError("ensemble.paths", "expected a non-empty list")
    derivs, area_derivs = [], []
    n_int = len(grid) - 1
    for k, p in enumerate(paths):
        ppath = f"ensemble.paths[{k}]"
        if not isinstance(p, dict):
            raise ConfigError(ppath, "expected an object")
        dv = _parse_array(_require(p, "derivative", ppath), f"{ppath}.derivative",
                          "an array of numbers")
        if dv.shape != (n_int, d):
            raise ConfigError(f"{ppath}.derivative",
                              f"expected shape ({n_int}, {d}), got {dv.shape}")
        derivs.append(dv)
        if p.get("area") is None:
            area_derivs.append(None)
        else:
            ar = _parse_array(p["area"], f"{ppath}.area", "an array of numbers")
            if ar.shape != (n_int, d, d):
                raise ConfigError(f"{ppath}.area",
                                  f"expected shape ({n_int}, {d}, {d}), got {ar.shape}")
            area_derivs.append(ar)
    try:
        return AugmentedPathEnsemble(dim=d, time_grid=grid, derivs=derivs,
                                     area_derivs=area_derivs)
    except LevySigKernelError as exc:
        raise ConfigError("ensemble", str(exc)) from exc


def _parse_wiener(cfg: dict, dim: int) -> WienerSpec:
    from .mmd import WienerSpec
    wn = _require(cfg, "wiener", "")
    grid = _parse_time_grid(_require(wn, "time_grid", "wiener"), "wiener.time_grid")
    if "factors" in wn:
        factors = _parse_list(wn["factors"], "wiener.factors", "factor lists")
        if len(factors) != len(grid) - 1:
            raise ConfigError("wiener.factors", "need one factor list per interval")
        covs = [_parse_factors(f, dim, f"wiener.factors[{i}]")
                for i, f in enumerate(factors)]
    else:
        raw = _parse_list(_require(wn, "covs", "wiener"), "wiener.covs", "matrices")
        if len(raw) != len(grid) - 1:
            raise ConfigError("wiener.covs", "need one covariance per interval")
        covs = [_parse_matrix(a, dim, f"wiener.covs[{i}]") for i, a in enumerate(raw)]
    try:
        return WienerSpec(dim, grid, covs)
    except LevySigKernelError as exc:
        raise ConfigError("wiener", str(exc)) from exc


def cmd_mmd(cfg: dict, out_dir: str) -> int:
    from .mmd import mmd_to_wiener
    ensemble = _parse_ensemble(cfg)
    wiener = _parse_wiener(cfg, ensemble.dim)
    sp, tp, horizon = _parse_grid(cfg)
    if tp != sp:
        raise ConfigError("grid.t_points", "the mmd grid is square: must equal s_points")
    if abs(horizon - ensemble.horizon) > 1e-12:
        raise ConfigError("grid.T", "must equal the ensemble horizon")
    if ensemble.horizon > wiener.time_grid[-1] + 1e-12:
        raise ConfigError("wiener.time_grid", f"ends before the ensemble horizon "
                                              f"{ensemble.horizon!r}")
    mmd, report = mmd_to_wiener(ensemble, wiener, sp)
    report.to_csv(os.path.join(out_dir, "mmd.csv"))
    print(f"mmd = {mmd!r} (mmd^2 = {report.mmd_squared!r}, "
          f"{ensemble.n_paths} paths{', radicand clipped' if report.clipped else ''})")
    return 0


def cmd_validate(cfg: dict, out_dir: str) -> int:
    from .development import (bound_gronwall, bound_level, develop,
                              development_inner_product)
    from .mc_oracle import estimate_kernel
    triplets = _require(cfg, "triplets", "")
    if not isinstance(triplets, list) or not 1 <= len(triplets) <= 2:
        raise ConfigError("triplets", "validate needs one or two triplets")
    parsed = [parse_triplet(t, f"triplets[{i}]") for i, t in enumerate(triplets)]
    trip_a = parsed[0]
    trip_b = parsed[1] if len(parsed) > 1 else parsed[0]
    m, n = _parse_levels(cfg)
    sp, tp, horizon = _parse_grid(cfg)
    mc = _require(cfg, "mc", "")
    n_paths = _as_int(_require(mc, "n_paths", "mc"), "mc.n_paths")
    steps = _as_int(_require(mc, "steps", "mc"), "mc.steps")
    seed = _as_int(_require(mc, "seed", "mc"), "mc.seed")
    # checked before the solves: the Monte Carlo oracle runs last
    if n_paths < 2:
        raise ConfigError("mc.n_paths", "the standard error needs at least 2 paths")
    if steps < 1:
        raise ConfigError("mc.steps", "need at least 1 step per interval")
    if not -2**63 <= seed < 2**63:
        raise ConfigError("mc.seed", "a Philox key word holds seeds in [-2**63, 2**63)")

    results: list[tuple[str, bool, str]] = []
    va, vb, surface = _certified_solve(trip_a, trip_b, m, n, sp, tp, horizon)
    w_val = surface.value()

    # oracle 1: inner product of truncated developments, each oracle at the
    # depth its remainder bound needs, within the budget depth and 24, but
    # never below the levels (d = 1 admits levels past 24)
    max_depth = max(min(_budget_depth(trip_a.dim, max(m, n) + 8), 24), max(m, n))
    ref, _, _ = development_inner_product(va.truncated(m), vb.truncated(n), 0.0,
                                          horizon, max(m, n), max_depth)
    rel = abs(w_val - ref) / max(abs(ref), 1e-12)
    results.append(("solver-vs-development", rel <= 1e-3,
                    f"rel_err={rel:.3e} (w={w_val!r}, oracle={ref!r})"))

    # oracle 2: certificate against the deep-velocity reference
    cert = truncation_certificate(va, vb, m, n, horizon, horizon)
    ref_full, oracle_depth, _ = development_inner_product(va, vb, 0.0, horizon,
                                                          max(m, n), max_depth)
    gap = abs(ref_full - w_val)
    tol = cert + 1e-3 * max(abs(ref_full), 1.0)
    results.append(("truncation-certificate", gap <= tol,
                    f"|u_ref - w|={gap:.3e} <= certificate+grid={tol:.3e}"))

    # bound suite on the left velocity at oracle 2's depth, reported last:
    # checked now, so that the development is freed before the Monte Carlo
    norms = ta.level_norms(develop(va, 0.0, horizon, oracle_depth))
    ok = float(norms.values.sum()) <= bound_gronwall(va, 0.0, horizon) * (1 + 1e-12)
    for lev in range(1, min(oracle_depth, 6) + 1):
        ok = ok and norms[lev] <= bound_level(va, 0.0, horizon, lev) * (1 + 1e-12)
    bounds = ("development-bounds", bool(ok), "levels and gronwall")

    # oracle 3: Monte Carlo kernel within 3 standard errors + certificate.
    # Only the depth-M/N truncations are read from here on: free the deep
    # velocities and the solved surface first
    trunc_gap = abs(ta.inner_product(
        develop(va.truncated(m), 0.0, horizon, max(m, n)),
        develop(vb.truncated(n), 0.0, horizon, max(m, n))) - ref)
    del va, vb, surface
    mc_val, mc_se = estimate_kernel(trip_a, trip_b, horizon, max(m, n),
                                    n_paths, steps, seed)
    tol = 3.0 * mc_se + cert + trunc_gap + 1e-3 * max(abs(w_val), 1.0)
    results.append(("mc-vs-solver", abs(mc_val - w_val) <= tol,
                    f"|mc - w|={abs(mc_val - w_val):.3e} <= 3se+cert={tol:.3e}"))
    results.append(bounds)

    lines = []
    all_ok = True
    for name, passed, detail in results:
        all_ok &= passed
        lines.append(f"{'PASS' if passed else 'FAIL'} {name}: {detail}")
    print("\n".join(lines))
    _forks.write_text(os.path.join(out_dir, "validate.txt"), "\n".join(lines) + "\n")
    return 0 if all_ok else 1


def cmd_bounds(cfg: dict, out_dir: str) -> int:
    from .development import (bound_inner_truncation, bound_level,
                              bound_outer_truncation, develop,
                              remainder_diagnostics)
    triplets = _require(cfg, "triplets", "")
    if not isinstance(triplets, list) or not triplets:
        raise ConfigError("triplets", "bounds needs at least one triplet")
    # the bounds read only M and T; N and the point counts are checked
    # when given, and ignored
    m, _ = _parse_levels(cfg)
    _, _, horizon = _parse_grid(cfg, points=False)
    parsed = [parse_triplet(raw, f"triplets[{i}]") for i, raw in enumerate(triplets)]
    for i, trip in enumerate(parsed):
        _check_horizon(horizon, trip, f"triplets[{i}]")
        _check_budget(trip.dim, m, "levels.M")
    rows = []
    for i, trip in enumerate(parsed):
        depth = max(_budget_depth(trip.dim, m), trip.state_depth)
        v = characteristic_velocity(trip, depth)
        norms = ta.level_norms(develop(v, 0.0, horizon, depth)).values
        total = float(norms.sum())
        for lev in range(1, m + 1):
            exact_tail = total - sum(norms[: lev + 1])
            rows.append((i, lev, float(norms[lev]),
                         float(bound_level(v, 0.0, horizon, lev)),
                         float(max(exact_tail, 0.0)),
                         float(bound_inner_truncation(v, 0.0, horizon, lev)),
                         float(bound_outer_truncation(v, 0.0, horizon, lev, lev + 1))))
    table = ["triplet,level,exact_level_norm,level_bound,"
             "exact_tail,inner_truncation_bound,outer_truncation_bound\n"]
    table += (",".join(repr(x) if isinstance(x, float) else str(x) for x in row) + "\n"
              for row in rows)
    _forks.write_text(os.path.join(out_dir, "bounds.csv"), "".join(table))
    remainder = ["mode,rho,m,exact,asymptotic\n"]
    for mode, rho in (("factorial-jumps", 1.0), ("geometric-jumps", 0.5)):
        for mm in range(1, 13):
            exact, asym = remainder_diagnostics(rho, mm, mode)
            remainder.append(f"{mode},{rho!r},{mm},{exact!r},{asym!r}\n")
    _forks.write_text(os.path.join(out_dir, "remainder.csv"), "".join(remainder))
    print(f"bounds: wrote {len(rows)} rows")
    return 0


def examples_config() -> dict:
    """Annotated example config (also written by --write-example)."""
    return {
        "experiment": "kernel",
        "output_dir": "out",
        "triplets": [
            {"dim": 1, "state_depth": 1, "time_grid": [0.0, 1.0],
             "intervals": [{"drift": [0.0], "cov": [[1.0]], "jumps": None}]},
            {"dim": 1, "state_depth": 1, "time_grid": [0.0, 1.0],
             "intervals": [{"drift": [0.0], "cov": [[1.0]],
                            "jumps": {"type": "gaussian_cp", "intensity": 1.0,
                                      "cov": [[1.0]]}}]},
        ],
        "grid": {"s_points": 129, "t_points": 129, "T": 1.0},
        "levels": {"M": 4, "N": 4},
        "mc": {"n_paths": 20000, "steps": 16, "seed": 42},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="levy-sigkernel",
        description="Expected signature kernels of inhomogeneous Levy "
                    "processes: kernel solves, signature-MMD, validation "
                    "and bound tables driven by a JSON config.")
    parser.add_argument("--config", help="path to the JSON experiment config")
    parser.add_argument("--output", help="output directory (overrides config)")
    parser.add_argument("--seed", type=int, help="RNG seed override for mc blocks")
    parser.add_argument("--write-example", metavar="PATH",
                        help="write an annotated example config and exit")
    args = parser.parse_args(argv)

    if args.write_example:
        try:
            _forks.write_text(args.write_example, json.dumps(examples_config(), indent=2))
        except OSError as exc:
            print(f"error: cannot write example config: {exc}", file=sys.stderr)
            return 1
        print(f"wrote example config to {args.write_example}")
        return 0
    if not args.config:
        parser.error("--config is required (or use --write-example)")

    try:
        with open(args.config) as fh:
            cfg = json.load(fh)
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as exc:
        print(f"error: config is not valid JSON: {exc}", file=sys.stderr)
        return 2

    commands = {"kernel": cmd_kernel, "mmd": cmd_mmd, "validate": cmd_validate,
                "bounds": cmd_bounds}
    try:
        experiment = _require(cfg, "experiment", "")
        if not isinstance(experiment, str) or experiment not in commands:
            *names, last = commands
            raise ConfigError("experiment", f"expected {', '.join(names)} or {last}")
        if args.seed is not None:
            mc = cfg.setdefault("mc", {})
            if not isinstance(mc, dict):
                raise ConfigError("mc", "expected an object")
            mc["seed"] = args.seed
        out_dir = args.output or cfg.get("output_dir", ".")
        os.makedirs(out_dir, exist_ok=True)
        return commands[experiment](cfg, out_dir)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except LevySigKernelError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:   # from making the output directory or writing into it
        where = "" if exc.filename is not None else f" in {out_dir!r}"
        print(f"error: cannot write output{where}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

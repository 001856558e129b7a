"""Signature maximum mean discrepancy between empirical path data and the
inhomogeneous Wiener measure.

The squared MMD decomposes into three families of kernel surfaces:

    mmd^2 = u(T,T) - (2/M) sum_k v_k(T,T) + (1/M^2) sum_{j,k} w_jk(T,T)

where u is the Wiener self-kernel (a scalar Goursat problem), v_k the
cross kernel of path k against the Wiener expected signature, and w_jk
the deterministic signature kernel of the area-augmented paths j and k.
The cross and pair kernels are truncated kernel systems at M = N = 2 on
the level-2 characteristic velocities.  The 1 + m + m(m+1)/2 solves run
one after another in sorted order, so the result is reproducible bitwise.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .characteristics import LevyTriplet, _check_grid, characteristic_velocity
from .errors import InvalidParameter, InvalidTriplet, NumericalInconsistency
from .kernel_solver import (KernelSurface, _validate_grid, make_grid,
                            solve_goursat_scalar, solve_truncated_system)

__all__ = [
    "AugmentedPathEnsemble",
    "WienerSpec",
    "MMDReport",
    "mmd_to_wiener",
    "cross_kernel",
    "pair_kernel",
]

_ANTISYM_TOL = 1e-10


@dataclass
class AugmentedPathEnsemble:
    """Piecewise-constant-derivative paths with vector and area components.

    ``derivs[k]`` has shape (n_intervals, d); ``area_derivs[k]`` shape
    (n_intervals, d, d) with antisymmetric slices, or None for a path
    without area.
    """

    dim: int
    time_grid: np.ndarray
    derivs: list[np.ndarray]
    area_derivs: list[np.ndarray | None]

    def __post_init__(self):
        self.time_grid = _check_grid(self.time_grid)
        m = len(self.time_grid) - 1
        if len(self.derivs) != len(self.area_derivs):
            raise InvalidParameter("need one area entry per path (possibly None)")
        self.derivs = [np.asarray(b, dtype=float) for b in self.derivs]
        checked = []
        for k, (b, ar) in enumerate(zip(self.derivs, self.area_derivs)):
            if b.shape != (m, self.dim):
                raise InvalidParameter(f"path {k}: derivative shape must be (intervals, dim)")
            if ar is None:
                checked.append(None)
                continue
            ar = np.asarray(ar, dtype=float)
            if ar.shape != (m, self.dim, self.dim):
                raise InvalidParameter(f"path {k}: area shape must be (intervals, dim, dim)")
            if not np.allclose(ar + np.swapaxes(ar, 1, 2), 0.0, atol=_ANTISYM_TOL):
                raise InvalidTriplet(f"path {k}: area derivatives must be antisymmetric")
            checked.append(ar)
        self.area_derivs = checked

    @property
    def n_paths(self) -> int:
        return len(self.derivs)

    @property
    def horizon(self) -> float:
        return float(self.time_grid[-1])

    def path_triplet(self, k: int) -> LevyTriplet:
        """Deterministic triplet whose development is path k's signature."""
        m = len(self.time_grid) - 1
        ar = self.area_derivs[k]
        return LevyTriplet(
            dim=self.dim, time_grid=self.time_grid.copy(),
            drifts=[self.derivs[k][i] for i in range(m)],
            covs=[np.zeros((self.dim, self.dim)) for _ in range(m)],
            areas=[None if ar is None else ar[i] for i in range(m)],
            state_depth=2 if ar is not None else 1)


@dataclass
class WienerSpec:
    """Per-interval covariance of the inhomogeneous Wiener measure."""

    dim: int
    time_grid: np.ndarray
    covs: list[np.ndarray]

    def __post_init__(self):
        self.time_grid = _check_grid(self.time_grid)
        if len(self.covs) != len(self.time_grid) - 1:
            raise InvalidParameter("need one covariance per interval")
        self.covs = [np.asarray(a, dtype=float) for a in self.covs]

    @classmethod
    def from_factors(cls, dim: int, time_grid, factor_lists) -> "WienerSpec":
        """Build covariances from per-interval volatility factor vectors."""
        covs = []
        for factors in factor_lists:
            a = np.zeros((dim, dim))
            for sig in factors:
                sig = np.asarray(sig, dtype=float)
                a += np.outer(sig, sig)
            covs.append(a)
        return cls(dim, np.asarray(time_grid, dtype=float), covs)

    def as_triplet(self) -> LevyTriplet:
        m = len(self.covs)
        return LevyTriplet(
            dim=self.dim, time_grid=self.time_grid.copy(),
            drifts=[np.zeros(self.dim) for _ in range(m)],
            covs=[a.copy() for a in self.covs], state_depth=1)


@dataclass
class MMDReport:
    """All surface corner values entering one MMD evaluation."""

    mmd: float
    mmd_squared: float
    wiener_term: float
    cross_values: np.ndarray
    pair_values: np.ndarray
    radicand: float
    clipped: bool = False
    surfaces: dict = field(default_factory=dict)

    def to_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("kind,j,k,value\n")
            fh.write(f"wiener,,,{float(self.wiener_term)!r}\n")
            for k, val in enumerate(self.cross_values):
                fh.write(f"cross,,{k},{float(val)!r}\n")
            m = len(self.cross_values)
            for j in range(m):
                for k in range(m):
                    fh.write(f"pair,{j},{k},{float(self.pair_values[j, k])!r}\n")
            fh.write(f"mmd_squared,,,{float(self.mmd_squared)!r}\n")
            fh.write(f"mmd,,,{float(self.mmd)!r}\n")


def _merged_grid(ensemble: AugmentedPathEnsemble, wiener: WienerSpec, grid) -> np.ndarray:
    breaks = np.union1d(ensemble.time_grid, wiener.time_grid)
    if np.isscalar(grid):
        return make_grid(ensemble.horizon, int(grid), breaks)
    return np.asarray(grid, dtype=float)


def cross_kernel(ensemble: AugmentedPathEnsemble, k: int, wiener: WienerSpec,
                 grid) -> KernelSurface:
    """Kernel surface of path k against the Wiener expected signature."""
    grid = _merged_grid(ensemble, wiener, grid)
    left = characteristic_velocity(ensemble.path_triplet(k), 2)
    right = characteristic_velocity(wiener.as_triplet(), 2)
    return solve_truncated_system(left, right, 2, 2, grid, grid)


def pair_kernel(ensemble: AugmentedPathEnsemble, j: int, k: int,
                grid) -> KernelSurface:
    """Deterministic signature kernel surface of paths j and k."""
    if np.isscalar(grid):
        grid = make_grid(ensemble.horizon, int(grid), ensemble.time_grid)
    else:
        grid = np.asarray(grid, dtype=float)
    left = characteristic_velocity(ensemble.path_triplet(j), 2)
    right = characteristic_velocity(ensemble.path_triplet(k), 2)
    return solve_truncated_system(left, right, 2, 2, grid, grid)


def _wiener_self_kernel(wiener: WienerSpec, grid: np.ndarray) -> KernelSurface:
    # scalar Goursat with alpha(s,t) = <a(s), a(t)>/4, constant per cell pair
    idx = np.searchsorted(wiener.time_grid, 0.5 * (grid[:-1] + grid[1:]),
                          side="right") - 1
    idx = np.clip(idx, 0, len(wiener.covs) - 1)
    gram = np.array([[0.25 * np.sum(ai * aj) for aj in wiener.covs]
                     for ai in wiener.covs])
    cells = gram[np.ix_(idx, idx)]
    halfnorm = np.array([0.5 * np.linalg.norm(a) for a in wiener.covs])
    mass = np.concatenate([[0.0], np.cumsum(halfnorm[idx] * np.diff(grid))])
    return solve_goursat_scalar(cells, grid, grid, s_mass=mass, t_mass=mass)


def mmd_to_wiener(ensemble: AugmentedPathEnsemble, wiener: WienerSpec,
                  grid) -> tuple[float, MMDReport]:
    """Signature MMD between the path ensemble's empirical law and the
    Wiener measure, assembled from kernel surface corner values.

    ``report.surfaces`` maps ``"wiener"``, ``("cross", k)`` and
    ``("pair", j, k)`` for j <= k to the solved surfaces.
    """
    if ensemble.dim != wiener.dim:
        raise InvalidParameter("ensemble and Wiener dims differ")
    if ensemble.n_paths == 0:
        raise InvalidParameter("ensemble is empty")
    grid = _merged_grid(ensemble, wiener, grid)
    _validate_grid(grid, np.union1d(ensemble.time_grid, wiener.time_grid), "mmd")
    m = ensemble.n_paths

    surfaces: dict = {"wiener": _wiener_self_kernel(wiener, grid)}
    for k in range(m):
        surfaces[("cross", k)] = cross_kernel(ensemble, k, wiener, grid)
    for j in range(m):
        for k in range(j, m):
            surfaces[("pair", j, k)] = pair_kernel(ensemble, j, k, grid)

    wiener_term = surfaces["wiener"].value()
    cross = np.array([surfaces[("cross", k)].value() for k in range(m)])
    pairs = np.zeros((m, m))
    for j in range(m):
        for k in range(j, m):
            val = surfaces[("pair", j, k)].value()
            pairs[j, k] = pairs[k, j] = val

    radicand = float(wiener_term - 2.0 / m * cross.sum() + pairs.sum() / m**2)
    clipped = False
    if radicand < 0.0:
        if radicand < -1e-8:
            raise NumericalInconsistency(
                f"squared MMD evaluated to {radicand}, below -1e-8")
        radicand_clipped, clipped = 0.0, True
    else:
        radicand_clipped = radicand
    mmd = float(np.sqrt(radicand_clipped))
    report = MMDReport(mmd=mmd, mmd_squared=radicand_clipped,
                       wiener_term=wiener_term, cross_values=cross,
                       pair_values=pairs, radicand=radicand, clipped=clipped,
                       surfaces=surfaces)
    return mmd, report

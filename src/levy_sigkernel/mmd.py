"""Signature maximum mean discrepancy between empirical path data and the
inhomogeneous Wiener measure.

The squared MMD decomposes into three families of kernel surfaces:

    mmd^2 = u(T,T) - (2/M) sum_k v_k(T,T) + (1/M^2) sum_{j,k} w_jk(T,T)

where u is the Wiener self-kernel, v_k the cross kernel of path k against
the Wiener expected signature, and w_jk the deterministic signature kernel
of the area-augmented paths j and k.  All three are truncated kernel
systems at M = N = 2 on the level-2 characteristic velocities; u is the
surface of the Wiener velocity with itself, whose coupled fields stay zero
(a scalar Goursat problem).  ``mmd_to_wiener`` needs only the far-corner
values of u, the m cross and the m(m+1)/2 pair surfaces: it sweeps them on
their shared grid in corner-only chunks under a fixed memory cap, keeping
three anti-diagonals per surface, so memory stays flat in m.  On two or
more CPUs a batch large enough to pay for a fork is split into contiguous
groups of surfaces, one per CPU: the calling process sweeps the first and
a forked child each other group, sending its corners back as raw float64
bytes.  Without a child (no ``os.fork``, another Python thread alive, a
fork or pipe that fails), or when a child exits non-zero, dies, sends
short, warns or is reaped elsewhere, the calling process sweeps that group
itself; if it raises, it kills and reaps every child.  Each corner is
bitwise equal to that of the surface's own ``solve_truncated_system``
call, whatever its chunk or group, so the result is reproducible bitwise
and the errors are those of one process.  ``MMDReport.surfaces`` solves a
surface in full only when it is read.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field

import numpy as np

from . import _forks
from .characteristics import (LevyTriplet, _check_grid, characteristic_velocity,
                              factor_covariance)
from .errors import InvalidParameter, InvalidTriplet, NumericalInconsistency
from .kernel_solver import (KernelSurface, _solve_truncated_batch, make_grid,
                            solve_truncated_system)

__all__ = [
    "AugmentedPathEnsemble",
    "WienerSpec",
    "factor_covariance",
    "MMDReport",
    "mmd_to_wiener",
]

_ANTISYM_TOL = 1e-10
# A negative squared MMD is clipped to 0 down to -_RADICAND_RTOL times
# |u| + 2/m sum |v_k| + 1/m^2 sum |w_jk|, and rejected below.  At unit
# magnitude this is the fixed -1e-8 it replaces; it exceeds the rounding of
# a corner value, about cells * eps (4e-12 on a 129^2 grid), by 2500 times,
# and follows the terms' magnitude in both directions.
_RADICAND_RTOL = 1e-8


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

    def as_triplet(self) -> LevyTriplet:
        m = len(self.covs)
        return LevyTriplet(
            dim=self.dim, time_grid=self.time_grid.copy(),
            drifts=[np.zeros(self.dim) for _ in range(m)],
            covs=[a.copy() for a in self.covs], state_depth=1)


class _LazySurfaces(Mapping):
    """Read-only mapping from surface keys to level-2 kernel surfaces on
    one grid.  It holds only each key's velocity pair: reading a key
    solves that surface in full with ``solve_truncated_system``, anew on
    each read."""

    def __init__(self, pairs: dict, grid: np.ndarray):
        self._pairs, self._grid = pairs, grid

    def __getitem__(self, key) -> KernelSurface:
        left, right = self._pairs[key]
        return solve_truncated_system(left, right, 2, 2, self._grid, self._grid)

    def __iter__(self):
        return iter(self._pairs)

    def __len__(self) -> int:
        return len(self._pairs)


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
    surfaces: Mapping = field(default_factory=dict)

    def to_csv(self, path) -> None:
        """Write the corner values as (kind, j, k, value) rows, whole or not
        at all (``_forks.write_text``)."""
        m = len(self.cross_values)
        rows = ["kind,j,k,value\n", f"wiener,,,{float(self.wiener_term)!r}\n"]
        rows += (f"cross,,{k},{float(val)!r}\n" for k, val in enumerate(self.cross_values))
        rows += (f"pair,{j},{k},{float(self.pair_values[j, k])!r}\n"
                 for j in range(m) for k in range(m))
        rows += (f"mmd_squared,,,{float(self.mmd_squared)!r}\n",
                 f"mmd,,,{float(self.mmd)!r}\n")
        _forks.write_text(path, "".join(rows))


def mmd_to_wiener(ensemble: AugmentedPathEnsemble, wiener: WienerSpec,
                  grid) -> tuple[float, MMDReport]:
    """Signature MMD between the path ensemble's empirical law and the
    Wiener measure, assembled from kernel surface corner values.

    ``report.surfaces`` is a read-only mapping from ``"wiener"``,
    ``("cross", k)`` and ``("pair", j, k)`` for j <= k to the surfaces,
    each solved in full when it is read.
    """
    if ensemble.dim != wiener.dim:
        raise InvalidParameter("ensemble and Wiener dims differ")
    if ensemble.n_paths == 0:
        raise InvalidParameter("ensemble is empty")
    # a point count goes to make_grid, which rejects one that is not an
    # integer; the batch checks the grid against every breakpoint
    if np.isscalar(grid):
        grid = make_grid(ensemble.horizon, grid,
                         np.concatenate([ensemble.time_grid, wiener.time_grid]))
    grid = np.asarray(grid, dtype=float)
    m = ensemble.n_paths

    paths = [characteristic_velocity(ensemble.path_triplet(k), 2) for k in range(m)]
    right = characteristic_velocity(wiener.as_triplet(), 2)
    keys = ["wiener"] + [("cross", k) for k in range(m)]
    pairs = [(right, right)] + [(paths[k], right) for k in range(m)]
    for j in range(m):
        for k in range(j, m):
            keys.append(("pair", j, k))
            pairs.append((paths[j], paths[k]))
    corners = dict(zip(keys, _solve_truncated_batch(pairs, 2, 2, grid, grid,
                                                    corners=True).tolist()))

    wiener_term = corners["wiener"]
    cross = np.array([corners[("cross", k)] for k in range(m)])
    values = np.zeros((m, m))
    for j in range(m):
        for k in range(j, m):
            values[j, k] = values[k, j] = corners[("pair", j, k)]

    radicand = float(wiener_term - 2.0 / m * cross.sum() + values.sum() / m**2)
    clipped = False
    if radicand < 0.0:
        scale = float(abs(wiener_term) + 2.0 / m * np.abs(cross).sum()
                      + np.abs(values).sum() / m**2)
        if radicand < -_RADICAND_RTOL * scale:
            raise NumericalInconsistency(
                f"squared MMD evaluated to {radicand}, below -{_RADICAND_RTOL} "
                f"times the magnitude {scale} of its terms")
        radicand_clipped, clipped = 0.0, True
    else:
        radicand_clipped = radicand
    mmd = float(np.sqrt(radicand_clipped))
    report = MMDReport(mmd=mmd, mmd_squared=radicand_clipped,
                       wiener_term=wiener_term, cross_values=cross,
                       pair_values=values, radicand=radicand, clipped=clipped,
                       surfaces=_LazySurfaces(dict(zip(keys, pairs)), grid))
    return mmd, report

"""Differential triplets of inhomogeneous Levy processes and their
characteristic velocities.

A triplet holds, per interval of a time grid, a drift (vector part plus an
optional antisymmetric area part), a diffusion covariance on the first
level, and a jump specification.  Its characteristic velocity is the
piecewise-constant tensor-series derivative whose free development is the
expected signature:

    velocity = drift + area + cov/2 + integral of (exp(x) - 1 - x 1_{|x| small})
               against the jump measure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import islice
from typing import Sequence

import numpy as np

from . import tensor_algebra as ta
from .errors import (DepthTooSmall, DimMismatch, InvalidParameter,
                     InvalidTriplet, OutOfRange)
from .tensor_algebra import TruncatedTensor

__all__ = [
    "PiecewiseVelocity",
    "LevyTriplet",
    "factor_covariance",
    "AtomicJumps",
    "GaussianJumps",
    "characteristic_velocity",
    "velocity_tail_bound",
    "velocity_depth",
    "exponential_moment_value",
    "gaussian_tensor_moment",
]

_PSD_TOL = 1e-10


def _check_grid(grid: np.ndarray) -> np.ndarray:
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or len(grid) < 2:
        raise InvalidParameter("time grid needs at least two points")
    if grid[0] != 0.0:
        raise InvalidParameter("time grid must start at 0")
    if not np.all(np.diff(grid) > 0):
        raise InvalidParameter("time grid must be strictly increasing")
    return grid


def _check_psd(mat: np.ndarray, what: str) -> np.ndarray:
    mat = np.asarray(mat, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise InvalidTriplet(f"{what} must be a square matrix")
    if not np.allclose(mat, mat.T, atol=_PSD_TOL):
        raise InvalidTriplet(f"{what} must be symmetric")
    eigmin = np.linalg.eigvalsh(mat).min() if mat.size else 0.0
    if eigmin < -_PSD_TOL * max(1.0, np.abs(mat).max()):
        raise InvalidTriplet(f"{what} must be positive semidefinite")
    return 0.5 * (mat + mat.T)


class PiecewiseVelocity:
    """A time grid plus one zero-scalar tensor per interval.

    ``tail_rates`` optionally gives, per interval, a bound on the T^1 norm
    of the levels above the stored depth that the velocity leaves out
    (:func:`characteristic_velocity` attaches its certified tail there);
    ``omitted_mass`` integrates it.  ``truncated`` drops it: a truncation
    is an exact velocity of its own.
    """

    def __init__(self, dim: int, time_grid: Sequence[float],
                 tensors: Sequence[TruncatedTensor],
                 tail_rates: Sequence[float] | None = None):
        self.dim = dim
        self.time_grid = _check_grid(np.asarray(time_grid, dtype=float))
        if len(tensors) != len(self.time_grid) - 1:
            raise InvalidParameter("need one tensor per grid interval")
        for x in tensors:
            if x.dim != dim:
                raise DimMismatch("velocity tensor dim mismatch")
            if x.scalar() != 0.0:
                raise InvalidParameter("velocity tensors must have zero scalar part")
        self.tensors = list(tensors)
        self.depth = max(x.depth for x in tensors)
        if tail_rates is None:
            tail_rates = [0.0] * len(self.tensors)
        self.tail_rates = [float(r) for r in tail_rates]
        if len(self.tail_rates) != len(self.tensors) or not all(
                r >= 0.0 for r in self.tail_rates):
            raise InvalidParameter("need one nonnegative tail rate per interval")

    @property
    def horizon(self) -> float:
        return float(self.time_grid[-1])

    def interval_of(self, t: float) -> int:
        """Index of the interval containing t (right-open, last one closed)."""
        if not self.time_grid[0] - 1e-12 <= t <= self.time_grid[-1] + 1e-12:  # false for NaN
            raise OutOfRange(f"time {t} outside [{self.time_grid[0]}, {self.time_grid[-1]}]")
        i = int(np.searchsorted(self.time_grid, t, side="right") - 1)
        return min(max(i, 0), len(self.tensors) - 1)

    def overlaps(self, s: float, t: float):
        """Yield (interval index, overlap length) pairs covering [s, t]."""
        if s > t:
            raise OutOfRange("need s <= t")
        self.interval_of(s), self.interval_of(t)
        for i in range(len(self.tensors)):
            lo = max(s, self.time_grid[i])
            hi = min(t, self.time_grid[i + 1])
            if hi > lo + 0.0:
                yield i, hi - lo

    def truncated(self, depth: int) -> "PiecewiseVelocity":
        return PiecewiseVelocity(self.dim, self.time_grid,
                                 [ta.truncate(x, depth) for x in self.tensors])

    def _integral(self, s: float, t: float, rate) -> float:
        """Sum of ``dt * rate(i)`` over the intervals overlapping [s, t], in
        interval order: the integral of a per-interval constant rate."""
        return float(sum(dt * rate(i) for i, dt in self.overlaps(s, t)))

    def mass(self, s: float, t: float) -> float:
        """1-variation mass: integral of the T^1 norm over [s, t]."""
        return self._integral(s, t, lambda i: ta.norm_p(self.tensors[i], 1))

    def level_mass(self, s: float, t: float, n: int) -> float:
        """Integral of the level-n Euclidean norm over [s, t]."""
        def rate(i):
            x = self.tensors[i]
            return float(np.linalg.norm(x.levels[n])) if n <= x.depth else 0.0
        return self._integral(s, t, rate)

    def tail_mass(self, s: float, t: float, depth: int) -> float:
        """Integral of the T^1 norm of the part above ``depth``."""
        return self._integral(s, t, lambda i: sum(
            np.linalg.norm(lev) for lev in self.tensors[i].levels[depth + 1:]))

    def omitted_mass(self, s: float, t: float) -> float:
        """Bound on the integrated T^1 norm of the levels above ``depth``
        that are not stored (0.0 for a velocity without tail rates)."""
        return self._integral(s, t, self.tail_rates.__getitem__)


@dataclass(frozen=True)
class AtomicJumps:
    """Finitely many atoms x_i with intensities lambda_i >= 0."""

    weights: np.ndarray
    atoms: tuple[TruncatedTensor, ...]

    def __post_init__(self):
        try:
            weights = np.asarray(self.weights, dtype=float)
        except (TypeError, ValueError):
            raise InvalidTriplet("atom weights must be numbers") from None
        if weights.shape != (len(self.atoms),):
            raise InvalidTriplet("weights must be a 1-D array with one weight per atom")
        object.__setattr__(self, "weights", weights)
        if np.any(self.weights < 0):
            raise InvalidTriplet("atom intensities must be >= 0")
        for x in self.atoms:
            if x.scalar() != 0.0:
                raise InvalidTriplet("jump atoms must have zero scalar part")


@dataclass(frozen=True)
class GaussianJumps:
    """Compound Poisson jumps with centered Gaussian law N(0, cov) on V."""

    intensity: float
    cov: np.ndarray

    def __post_init__(self):
        if self.intensity < 0:
            raise InvalidTriplet("jump intensity must be >= 0")
        object.__setattr__(self, "cov", _check_psd(self.cov, "jump covariance"))


JumpSpec = AtomicJumps | GaussianJumps | None


@dataclass
class LevyTriplet:
    """Piecewise-constant differential characteristics (drift, cov, jumps).

    ``drifts[i]`` is the level-1 drift vector on interval i; ``areas[i]``
    the antisymmetric level-2 drift part (``None`` for state_depth 1);
    ``covs[i]`` the PSD diffusion covariance on the level-1 block; and
    ``jumps[i]`` the jump specification.
    """

    dim: int
    time_grid: np.ndarray
    drifts: list[np.ndarray]
    covs: list[np.ndarray]
    areas: list[np.ndarray | None] = field(default_factory=list)
    jumps: list[JumpSpec] = field(default_factory=list)
    state_depth: int = 1

    def __post_init__(self):
        self.time_grid = _check_grid(self.time_grid)
        m = len(self.time_grid) - 1
        if not self.areas:
            self.areas = [None] * m
        if not self.jumps:
            self.jumps = [None] * m
        if not (len(self.drifts) == len(self.covs) == len(self.areas) == len(self.jumps) == m):
            raise InvalidTriplet("per-interval data must match the grid")
        if self.state_depth not in (1, 2):
            raise InvalidTriplet("state_depth must be 1 or 2")
        self.drifts = [np.asarray(b, dtype=float) for b in self.drifts]
        for b in self.drifts:
            if b.shape != (self.dim,):
                raise InvalidTriplet("drift must be a level-1 vector")
        self.covs = [_check_psd(a, "diffusion covariance") for a in self.covs]
        for a in self.covs:
            if a.shape != (self.dim, self.dim):
                raise InvalidTriplet("covariance must be dim x dim")
        checked_areas: list[np.ndarray | None] = []
        for ar in self.areas:
            if ar is None:
                checked_areas.append(None)
                continue
            if self.state_depth < 2:
                raise InvalidTriplet("area part requires state_depth 2")
            ar = np.asarray(ar, dtype=float)
            if ar.shape != (self.dim, self.dim):
                raise InvalidTriplet("area part must be dim x dim")
            if not np.allclose(ar + ar.T, 0.0, atol=_PSD_TOL):
                raise InvalidTriplet("area part must be antisymmetric")
            checked_areas.append(ar)
        self.areas = checked_areas
        for j in self.jumps:
            if isinstance(j, AtomicJumps):
                for x in j.atoms:
                    if x.dim != self.dim:
                        raise InvalidTriplet("atom dim mismatch")
                    if x.depth > self.state_depth:
                        raise InvalidTriplet("atom depth exceeds state_depth")
                    if x.depth >= 2:
                        lvl2 = x.levels[2].reshape(self.dim, self.dim)
                        if not np.allclose(lvl2 + lvl2.T, 0.0, atol=_PSD_TOL):
                            raise InvalidTriplet("atom level-2 part must be antisymmetric")
            elif isinstance(j, GaussianJumps):
                if j.cov.shape != (self.dim, self.dim):
                    raise InvalidTriplet("jump covariance must be dim x dim")

    @property
    def horizon(self) -> float:
        return float(self.time_grid[-1])

    @property
    def n_intervals(self) -> int:
        return len(self.drifts)

    def has_jumps(self) -> bool:
        return any(j is not None for j in self.jumps)

    @classmethod
    def homogeneous(cls, dim: int, horizon: float, drift=None, cov=None,
                    area=None, jumps: JumpSpec = None,
                    state_depth: int | None = None) -> "LevyTriplet":
        """Single-interval triplet with constant characteristics."""
        b = np.zeros(dim) if drift is None else np.asarray(drift, dtype=float)
        a = np.zeros((dim, dim)) if cov is None else np.asarray(cov, dtype=float)
        if state_depth is None:
            state_depth = 2 if area is not None else 1
        return cls(dim=dim, time_grid=np.array([0.0, horizon]),
                   drifts=[b], covs=[a], areas=[area], jumps=[jumps],
                   state_depth=state_depth)

    @classmethod
    def brownian(cls, dim: int, horizon: float, cov=None) -> "LevyTriplet":
        """Time-homogeneous Brownian motion (standard if cov omitted)."""
        return cls.homogeneous(dim, horizon,
                               cov=np.eye(dim) if cov is None else cov)


def factor_covariance(dim: int, factors) -> np.ndarray:
    """Covariance ``sum_k sig_k sig_k^T`` of a list of volatility factor
    vectors ``sig_k``, each a finite 1-D vector of length ``dim``."""
    if not isinstance(factors, (list, tuple, np.ndarray)):
        raise InvalidParameter("expected a list of factor vectors")
    a = np.zeros((dim, dim))
    for k, sig in enumerate(factors):
        try:
            sig = np.asarray(sig, dtype=float)
        except (TypeError, ValueError, OverflowError):
            raise InvalidParameter(f"factor {k} must be a vector of numbers") from None
        if sig.shape != (dim,) or not np.all(np.isfinite(sig)):
            raise InvalidParameter(f"factor {k} must be a finite vector of length {dim}")
        a += np.outer(sig, sig)
    return a


def _gaussian_moments(cov: np.ndarray, depth: int):
    """Yield the tensor moments of N(0, cov) at levels 2, 4, ..., ``depth``.

    Pair-partition recursion on the last index: the moment at n couples the
    final slot with each earlier slot k through the covariance, times the
    moment at n - 2 on the remaining slots.  One outer product serves the
    n - 1 couplings, each a view with the covariance slot moved to k; each
    level is shaped (d,) * n and is built from the one before it.
    """
    prev = np.ones(())
    for n in range(2, depth + 1, 2):
        term = np.multiply.outer(prev, cov)           # axes: others..., k-slot, last
        out = np.zeros(term.shape)
        for k in range(n - 1):
            out += np.moveaxis(term, n - 2, k)
        yield out
        prev = out


def gaussian_tensor_moment(cov: np.ndarray, n: int) -> np.ndarray:
    """Flattened n-th tensor moment E[xi^{(x)n}] of xi ~ N(0, cov).

    The last level of :func:`_gaussian_moments`; odd moments vanish.
    """
    cov = np.asarray(cov, dtype=float)
    d = cov.shape[0]
    if n == 0:
        return np.ones(1)
    if n % 2 == 1:
        return np.zeros(d**n)
    for out in _gaussian_moments(cov, n):
        pass
    return out.ravel()


def _exp_levels(x: TruncatedTensor, depth: int):
    """Yield levels 0, 1, ..., depth of exp(x) for an x on levels 1 and 2
    (an atom), each built once.

    Level n of the power x^m is x_1 (x) (level n-1 of x^(m-1)) + x_2 (x)
    (level n-2 of x^(m-1)), each product formed by ``ta._add_outer``, and
    level n of exp(x) sums it over m, divided by m!.  Equal to
    ``ta.exp_tensor`` up to rounding, but lazy: a level does not depend on
    ``depth``, and velocity_depth draws levels until its tail bound holds,
    not all levels up to its cap.
    """
    x1 = ta._columns(x.levels[1])
    x2 = ta._columns(x.levels[2]) if x.depth >= 2 else None
    prev2, prev = {}, {0: np.ones((1, 1))}  # levels n-2 and n-1 of each x^m, by m
    yield prev[0].ravel()
    for n in range(1, depth + 1):
        row = {}
        for xk, below in ((x1, prev), (x2, prev2)):
            if xk is None:
                continue
            for m, p in below.items():
                add = m + 1 in row
                if not add:
                    row[m + 1] = np.empty((len(xk) * len(p), 1))
                ta._add_outer(row[m + 1], xk, p, add)
        yield sum(p / math.factorial(m) for m, p in row.items()).ravel()
        prev2, prev = prev, row


def _velocity_levels(triplet: LevyTriplet, i: int, depth: int):
    """Yield levels 0, 1, ..., depth of interval i's velocity, each built
    once: a level has the same bits at every depth that holds it.

    Level n is drift, then area, then cov/2 added onto zeros (levels 1 and
    2 only), plus the jump term, itself summed onto zeros: ``intensity *
    moment / n!`` on the even levels of Gaussian jumps (the small-jump
    compensator vanishes by symmetry), and ``lam * (E_n - [n == 0] -
    [small] x_n)`` per atom x of weight lam > 0, in atom order, with E_n
    level n of exp(x) (:func:`_exp_levels`) and small meaning
    ``|x| <= 1``.
    """
    d, spec = triplet.dim, triplet.jumps[i]
    gaussian, atoms = isinstance(spec, GaussianJumps), []
    if gaussian:
        moments = _gaussian_moments(spec.cov, depth)
    elif isinstance(spec, AtomicJumps):
        atoms = [(float(lam), atom, ta.max_level_norm(atom) <= 1.0, _exp_levels(atom, depth))
                 for lam, atom in zip(spec.weights, spec.atoms) if lam != 0.0]
    for n in range(depth + 1):
        x, jump = np.zeros(d**n), np.zeros(d**n)
        if n == 1:
            x += triplet.drifts[i]
        elif n == 2:
            if triplet.areas[i] is not None:
                x += triplet.areas[i].ravel()
            x += 0.5 * triplet.covs[i].ravel()
        if gaussian and n >= 2 and n % 2 == 0:
            jump += spec.intensity * next(moments).ravel() / math.factorial(n)
        for lam, atom, small, exp_levels in atoms:
            term = next(exp_levels)
            if n == 0:
                term = term - 1.0
            elif small and n <= atom.depth:
                term = term - atom.levels[n]
            jump += term * lam
        x += jump
        yield x


def characteristic_velocity(triplet: LevyTriplet, depth: int) -> PiecewiseVelocity:
    """Characteristic velocity of the triplet, truncated at ``depth``.

    The velocity carries the certified bound of :func:`velocity_tail_bound`
    on the levels above ``depth`` as its tail rates, so that
    ``omitted_mass`` and the kernel certificate cover the whole velocity.
    """
    _check_depth(triplet, depth)
    return _velocity(triplet, depth)


def _check_depth(triplet: LevyTriplet, depth: int) -> None:
    if depth < triplet.state_depth:
        raise DepthTooSmall(
            f"depth {depth} cannot hold state_depth {triplet.state_depth}")


def _velocity(triplet: LevyTriplet, depth: int) -> PiecewiseVelocity:
    d, n = triplet.dim, triplet.n_intervals
    return PiecewiseVelocity(d, triplet.time_grid,
                             [TruncatedTensor(d, list(_velocity_levels(triplet, i, depth)))
                              for i in range(n)],
                             [_tail_rate(triplet, i, depth) for i in range(n)])


def _series_tail(log_first: float, ratio, n: int, step: int) -> float:
    """Sum of the terms t_n, t_{n+step}, ... of a positive series, given
    log t_n and the term ratio ``ratio(m) = t_{m+step} / t_m``.

    The ratio must not increase with m.  Then once it is below 1 at m, the
    terms after t_m sum to at most ``t_m r / (1 - r)`` (a geometric series
    of ratio r = ratio(m) dominates them), and that remainder is added once
    it is below a unit roundoff of the partial sum.  Returns ``inf`` when
    the sum overflows.
    """
    try:
        term = math.exp(log_first)
    except OverflowError:
        return math.inf
    total = 0.0
    while term > 0.0:
        total += term
        if math.isinf(total):
            return math.inf
        r = ratio(n)
        if r < 1.0 and term * r / (1.0 - r) <= 2.0**-52 * total:
            return total + term * r / (1.0 - r)
        term *= r
        n += step
    return total                                # the terms underflowed


def _exp_series_tail(rho: float, k0: int) -> float:
    """sum_{k >= k0} rho^k / k!: its term ratio rho / (k + 1) falls with k."""
    if rho == 0.0:
        return 1.0 if k0 == 0 else 0.0
    return _series_tail(k0 * math.log(rho) - math.lgamma(k0 + 1),
                        lambda k: rho / (k + 1), k0, 1)


def _gaussian_tail(cov: np.ndarray, depth: int) -> float:
    """Bound on sum_{n > depth} |E[xi^(x)n]| / n! for xi ~ N(0, cov).

    Odd levels vanish.  For even n, with xi' an independent copy,
    |E[xi^(x)n]|^2 = E[(xi . xi')^n] = (n-1)!! E[(xi'^T cov xi')^(n/2)]
    <= (n-1)!! sigma^(2n) E|Z|^n, where sigma^2 is the largest eigenvalue of
    cov, Z ~ N(0, I_d) and E|Z|^n = 2^(n/2) Gamma((d + n)/2) / Gamma(d/2).
    So the level-n term is at most t_n = sigma^n sqrt((n-1)!! E|Z|^n) / n!,
    below sigma^n E|Z|^n / n! and equal to the exact norm for an isotropic
    cov; the terms have ratio sigma^2 sqrt((d + n)/(n + 1)) / (n + 2),
    which falls with n, so :func:`_series_tail` sums them with a proven
    remainder.  The bound is tight up to the anisotropy of cov: on the
    benchmark's jump laws it is within 2.3x of the exact tail at the
    depths the CLI picks.
    """
    d = cov.shape[0]
    sigma2 = max(float(np.linalg.eigvalsh(cov).max()), 0.0)
    if sigma2 == 0.0:
        return 0.0
    n = depth + 2 - depth % 2                  # the first even level above depth
    log_first = (0.5 * n * math.log(sigma2)
                 + 0.5 * (math.lgamma((d + n) / 2) - math.lgamma(d / 2)
                          - math.lgamma(n / 2 + 1) - math.lgamma(n + 1)))
    return _series_tail(log_first,
                        lambda m: sigma2 * math.sqrt((d + m) / (m + 1)) / (m + 2), n, 2)


def _atom_tail(atom: TruncatedTensor, depth: int) -> float:
    """Bound on sum_{n > depth} |level n of exp(x)| for an atom x with
    levels 1 and 2 only.

    The Euclidean norm is a cross norm, so the level-n norm is at most the
    coefficient c_n of exp(a z + b z^2), a and b the norms of levels 1 and
    2; n c_n = a c_{n-1} + 2 b c_{n-2}.  Levels above N come from the powers
    x^k with 2k > N only, so they sum to at most the exponential-series
    tail of rho = a + b from k = N // 2 + 1; N grows until that remainder
    is below 1e-6 of the summed coefficients.  For an atom on level 1 alone
    c_n = a^n / n! is the exact level norm: the bound is tight.
    """
    a = float(np.linalg.norm(atom.levels[1]))
    b = float(np.linalg.norm(atom.levels[2])) if atom.depth >= 2 else 0.0
    c_prev, c = 0.0, 1.0                        # c_{n-1}, c_n at n = 0
    partial, n = 0.0, 0
    while True:
        if n > depth:
            partial += c
            if not math.isfinite(partial):
                return math.inf
            rest = _exp_series_tail(a + b, n // 2 + 1)
            if rest <= 1e-6 * partial or math.isinf(rest):
                return partial + rest
        n += 1
        c_prev, c = c, (a * c + 2.0 * b * c_prev) / n


# The tail closed forms are exact for isotropic Gaussian jumps and for atoms
# on level 1, where lgamma, exp and the sums (a few ulps a term) could put
# them below the stored level norms; this relative margin covers that.
_TAIL_ROUNDING = 1e-12


def _tail_rate(triplet: LevyTriplet, i: int, depth: int) -> float:
    """Bound on the T^1 norm of interval i's velocity levels above depth.

    Above level 2 only the jumps contribute: drift, area and covariance
    live on levels 1 and 2, and so does the small-jump compensator.
    """
    if depth < 2:
        *_, level2 = _velocity_levels(triplet, i, 2)
        return (float(np.linalg.norm(level2)) * (1.0 + _TAIL_ROUNDING)
                + _tail_rate(triplet, i, 2))
    spec = triplet.jumps[i]
    if isinstance(spec, GaussianJumps):
        tail = spec.intensity * _gaussian_tail(spec.cov, depth)
    elif isinstance(spec, AtomicJumps):
        tail = sum(lam * _atom_tail(atom, depth)
                   for lam, atom in zip(spec.weights, spec.atoms) if lam != 0.0)
    else:
        return 0.0
    return float(tail) * (1.0 + _TAIL_ROUNDING)


def _spans(triplet: LevyTriplet, horizon: float | None = None
           ) -> list[tuple[int, float]]:
    """(interval, length of its part in [0, horizon]) for each interval that
    starts before the horizon, which defaults to the triplet's; raises
    ``OutOfRange`` unless 0 <= horizon <= T (NaN included)."""
    grid = triplet.time_grid
    if horizon is None:
        horizon = triplet.horizon
    if not 0.0 <= horizon <= triplet.horizon + 1e-12:     # false for NaN
        raise OutOfRange(f"horizon {horizon} lies outside [0, {triplet.horizon}]")
    return [(i, min(horizon, grid[i + 1]) - grid[i])
            for i in range(triplet.n_intervals) if grid[i] < horizon]


def velocity_tail_bound(triplet: LevyTriplet, depth: int,
                        horizon: float | None = None) -> float:
    """Certified bound on the integrated T^1 norm, over [0, horizon], of the
    characteristic velocity's levels above ``depth``.

    Closed form per interval: Gaussian jumps give lambda times the sum over
    even n > depth of sigma_max^n sqrt((n-1)!! E|Z|^n) / n!
    (:func:`_gaussian_tail`, at most sigma_max^n E|Z|^n / n!), atoms the
    tail of their exponential series (:func:`_atom_tail`); drift,
    covariance and area contribute nothing above level 2.  This is the
    bound the velocity depths of the CLI are chosen by, and the tight one:
    on the benchmark configs it is within 2.3x of the exact tail, where
    :func:`development.gaussian_jump_tail_bound` is 1e4-1e6x above it.
    """
    _check_depth(triplet, depth)
    return float(sum(dt * _tail_rate(triplet, i, depth) for i, dt in _spans(triplet, horizon)))


VELOCITY_TAIL_RTOL = 1e-8


def velocity_depth(triplet: LevyTriplet, level: int, max_depth: int,
                   horizon: float | None = None) -> int:
    """Smallest velocity depth K >= max(level, 2, state_depth) whose
    certified tail above K (over [0, horizon]) is at most
    ``VELOCITY_TAIL_RTOL`` times the stored tail of levels level+1..K;
    never above ``max_depth``, unless that lies below this floor, which is
    returned then.

    A truncation certificate at ``level`` from ``characteristic_velocity(
    triplet, K)`` then exceeds the one at any deeper depth by a relative
    amount of that order at most.  Jump-free triplets have a zero tail
    above level 2 and get ``max(level, 2, state_depth)`` (capped).  The
    search takes the norms of the velocity's own levels
    (:func:`_velocity_levels`), each built once, and sums each interval's
    stored tail as ``PiecewiseVelocity.tail_mass`` does.
    """
    spans = _spans(triplet, horizon)
    depth = max(level, 2, triplet.state_depth)
    norms = [(float(np.linalg.norm(lev)) for lev in _velocity_levels(triplet, i, max_depth))
             for i, _ in spans]
    # per interval, the norms of levels level+1..depth summed in level order
    rates = [sum(islice(g, level + 1, depth + 1)) for g in norms]
    while depth < max_depth:
        stored = float(sum(dt * r for (_, dt), r in zip(spans, rates)))
        if velocity_tail_bound(triplet, depth, horizon) <= VELOCITY_TAIL_RTOL * stored:
            return depth
        depth += 1
        rates = [r + next(g) for r, g in zip(rates, norms)]
    return depth


def _large_jump_radial_integrand(r: float, d: int, scale: float) -> float:
    # (e^{scale r} - 1) times the chi_d density, assembled in log space so
    # that the Gaussian factor tames the exponential before it overflows
    logc = (1 - d / 2) * math.log(2) - math.lgamma(d / 2) + (d - 1) * math.log(r)
    quad_part = logc - 0.5 * r * r
    return math.exp(quad_part + scale * r) - math.exp(quad_part)


def exponential_moment_value(triplet: LevyTriplet, lam: float,
                             horizon: float | None = None) -> float:
    """Large-jump exponential moment entering the sufficiency check.

    Atomic jumps are summed exactly.  For Gaussian jump laws the value is
    an upper bound obtained by radial quadrature after bounding the jump
    norm through the largest covariance eigenvalue; it is always finite,
    which is what the sufficiency check needs.
    """
    if lam <= 0:
        raise InvalidParameter("lam must be > 0")
    total = 0.0
    for i, dt in _spans(triplet, horizon):
        spec = triplet.jumps[i]
        if spec is None:
            continue
        if isinstance(spec, AtomicJumps):
            for w, atom in zip(spec.weights, spec.atoms):
                if ta.max_level_norm(atom) > 1.0:
                    try:
                        total += dt * w * math.expm1(ta.norm_p(ta.dilate(atom, lam), 1))
                    except OverflowError:
                        return math.inf
        else:
            sigma = math.sqrt(max(np.linalg.eigvalsh(spec.cov).max(), 0.0))
            if sigma == 0.0 or spec.intensity == 0.0:
                continue
            # scipy is imported here only: at module level it dominated the
            # package's import time and memory, and nothing else uses it
            from scipy import integrate

            d = triplet.dim
            val, _ = integrate.quad(
                _large_jump_radial_integrand, 1.0 / sigma, np.inf,
                args=(d, lam * sigma))
            total += dt * spec.intensity * val
    return total

"""Monte Carlo ground truth: path simulation, pathwise truncated signatures,
and estimators for expected signatures and kernels.

Randomness is counter-based: path p of a run seeded with ``seed`` draws
from a Philox stream with key ``[seed, stream_offset + p]``, so estimates
are reproducible bitwise regardless of how paths are scheduled.  Within a
path the draw order is fixed per interval: Brownian sub-step normals,
then the Poisson jump count, then jump positions, then jump values.

Jumps enter signatures through tensor exponentials (Marcus/geometric
convention), placed after the continuous factor of the sub-step that
contains them; the residual weak bias from not splitting that sub-step's
Gaussian increment is O(dt) and vanishes for commuting (d = 1) data.

The signatures of all paths are computed at once, segment by segment.  A
segment without area (level 1 only) is applied with the fused step
``S (x) exp(x)`` of ``tensor_algebra._mul_exp_level1``, evaluated level by
level in Horner form; a segment with area uses the batched
:func:`tensor_algebra.tensor_mul` and :func:`tensor_algebra.exp_tensor`.
Each segment updates only its live rows, those with a nonzero increment:
jump slots are gathered, updated and scattered back, and a segment with no
live row is skipped.  ``path_signature`` makes the same choices for one path
with the same code, so row p equals
``path_signature(paths.increments_of(p), depth)`` bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import tensor_algebra as ta
from .characteristics import AtomicJumps, GaussianJumps, LevyTriplet
from .errors import DimMismatch, InvalidParameter, OutOfRange, Unsupported
from .tensor_algebra import LevelNorms, TruncatedTensor

__all__ = [
    "SimulatedPaths",
    "SignatureEstimate",
    "simulate_paths",
    "path_signature",
    "estimate_expected_signature",
    "estimate_kernel",
    "estimate_to_csv",
]


@dataclass
class SimulatedPaths:
    """Time-ordered zero-scalar increments for a batch of paths.

    ``segments`` is a list of (level1, level2) pairs with arrays of shape
    (n_paths, d) and (n_paths, d*d) (level2 may be None).  Each segment
    contributes one tensor-exponential factor to every path's signature.
    """

    dim: int
    n_paths: int
    segments: list[tuple[np.ndarray, np.ndarray | None]]

    def increments_of(self, p: int) -> list[TruncatedTensor]:
        """Increment sequence of one path as truncated tensors."""
        out = []
        for lvl1, lvl2 in self.segments:
            x = TruncatedTensor.zero(self.dim, 1 if lvl2 is None else 2)
            x.levels[1] += lvl1[p]
            if lvl2 is not None:
                x.levels[2] += lvl2[p]
            out.append(x)
        return out

    def total_increment(self) -> np.ndarray:
        return sum(lvl1 for lvl1, _ in self.segments)


def _cov_factor(cov: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh(cov)
    vals = np.clip(vals, 0.0, None)
    return vecs * np.sqrt(vals)


def simulate_paths(triplet: LevyTriplet, n_paths: int, steps_per_interval: int,
                   seed: int, horizon: float | None = None,
                   stream_offset: int = 0) -> SimulatedPaths:
    """Simulate increments of the triplet's process on [0, horizon].

    Gaussian sub-increments are exact per sub-step; jump counts are
    Poisson per interval with uniform positions.  Deterministic given
    ``seed`` (see module docstring for the stream layout).
    """
    if n_paths < 1 or steps_per_interval < 1:
        raise InvalidParameter("need n_paths >= 1 and steps_per_interval >= 1")
    if horizon is None:
        horizon = triplet.horizon
    if horizon > triplet.horizon + 1e-12:
        raise OutOfRange("horizon exceeds the triplet's grid")
    d = triplet.dim

    plan = []
    for i in range(triplet.n_intervals):
        lo = triplet.time_grid[i]
        hi = min(triplet.time_grid[i + 1], horizon)
        if hi <= lo:
            break
        plan.append(_IntervalDraws(triplet, i, hi - lo, steps_per_interval, n_paths))
        if hi >= horizon:
            break

    # Re-keying one Philox bit generator gives each path the stream of its
    # own Generator(Philox(key=[seed, stream_offset + p])) without building
    # one, which costs more than the path's draws.  Paths run one at a time,
    # so each path's stream continues across intervals.
    bitgen = np.random.Philox(key=[seed, stream_offset])
    rng = np.random.Generator(bitgen)
    state = bitgen.state
    key = state["state"]["key"]
    for p in range(n_paths):
        key[1] = stream_offset + p
        bitgen.state = state
        for iv in plan:
            iv.draw(rng, p)
    noise = [iv.transform_noise() for iv in plan]

    segments: list[tuple[np.ndarray, np.ndarray | None]] = []
    for i, iv in enumerate(plan):
        b, ar = triplet.drifts[i], triplet.areas[i]
        lvl2_base = None if ar is None else np.tile(ar.ravel() * iv.dt, (n_paths, 1))
        for step in range(steps_per_interval):
            lvl1 = noise[i][step]
            lvl1 += b * iv.dt
            segments.append((lvl1, None if lvl2_base is None else lvl2_base.copy()))
            for slot_entries in iv.step_slots.get(step, []):
                j1 = np.zeros((n_paths, d))
                j2 = None
                for p, v1, v2 in slot_entries:
                    j1[p] = v1
                    if v2 is not None:
                        if j2 is None:
                            j2 = np.zeros((n_paths, d * d))
                        j2[p] = v2
                segments.append((j1, j2))
    return SimulatedPaths(dim=d, n_paths=n_paths, segments=segments)


class _IntervalDraws:
    """One interval's draw parameters and the draws of all paths on it."""

    def __init__(self, triplet: LevyTriplet, i: int, span: float, steps: int,
                 n_paths: int):
        self.span = span
        self.steps = steps
        self.dt = span / steps
        self.sqdt = math.sqrt(self.dt)
        self.factor = _cov_factor(triplet.covs[i])
        self.has_noise = bool(np.any(self.factor))
        spec = self.spec = triplet.jumps[i]
        if spec is not None:
            self.rate = float(np.sum(spec.weights)) if isinstance(spec, AtomicJumps) \
                else spec.intensity
        if isinstance(spec, GaussianJumps):
            self.jump_factor = _cov_factor(spec.cov)
        # sub-step standard normals by (path, step), so that each path's
        # draws fill one contiguous block; transform_noise() turns them into
        # the segments' increments by (step, path)
        self.noise = np.zeros((n_paths, steps, triplet.dim))
        # step -> slot -> list of (path, level1, level2); a path with several
        # jumps in one sub-step occupies successive slots in time order
        self.step_slots: dict[int, list[list]] = {}
        self._seen: dict[tuple[int, int], int] = {}

    def _place(self, p, u, v1, v2):
        step = min(int(u / self.dt), self.steps - 1)
        slot = self._seen.get((p, step), 0)
        self._seen[(p, step)] = slot + 1
        slots = self.step_slots.setdefault(step, [])
        while len(slots) <= slot:
            slots.append([])
        slots[slot].append((p, v1, v2))

    def transform_noise(self) -> np.ndarray:
        """All paths' sub-step increments, shape ``(steps, n_paths, d)``.

        Reorders the standard normals by (step, path) while scaling them by
        sqrt(dt), then maps them to the interval's covariance by one product
        over the whole block; each row is computed as ``sqdt * z @ factor.T``
        on the row alone would be.  Block ``[step]`` becomes that sub-step's
        level-1 segment.  The draws are released.
        """
        z, self.noise = self.noise.transpose(1, 0, 2), None
        if not self.has_noise:
            return np.zeros(z.shape)
        scaled = np.multiply(z, self.sqdt, out=np.empty(z.shape))
        return (scaled.reshape(-1, z.shape[2]) @ self.factor.T).reshape(z.shape)

    def draw(self, rng: np.random.Generator, p: int) -> None:
        """Path p's draws on this interval, in the order the module fixes."""
        d = self.noise.shape[2]
        if self.has_noise:
            rng.standard_normal(out=self.noise[p])
        spec = self.spec
        if spec is None:
            return
        n_jumps = int(rng.poisson(self.rate * self.span)) if self.rate > 0 else 0
        if n_jumps == 0:
            return
        pos = np.sort(rng.uniform(0.0, self.span, size=n_jumps))
        if isinstance(spec, AtomicJumps):
            picks = rng.choice(len(spec.atoms), size=n_jumps, p=spec.weights / self.rate)
            for u, pick in zip(pos, picks):
                atom = spec.atoms[pick]
                v1 = np.asarray(atom.levels[1], dtype=float) if atom.depth >= 1 \
                    else np.zeros(d)
                v2 = np.asarray(atom.levels[2], dtype=float) if atom.depth >= 2 \
                    else None
                self._place(p, u, v1, v2)
        elif isinstance(spec, GaussianJumps):
            draws = rng.standard_normal((n_jumps, d)) @ self.jump_factor.T
            for u, val in zip(pos, draws):
                self._place(p, u, val, None)
        else:
            raise Unsupported(f"jump spec {type(spec).__name__}")


def path_signature(increments, depth: int) -> TruncatedTensor:
    """Ordered product of tensor exponentials of zero-scalar increments.

    An increment that stores only level 1 is applied with the fused
    ``tensor_algebra._mul_exp_level1``, any other with ``tensor_mul`` and
    ``exp_tensor``; an all-zero increment is skipped, as it leaves the
    product unchanged.
    """
    if not increments:
        raise InvalidParameter("need at least one increment")
    dim = increments[0].dim
    out = TruncatedTensor.unit(dim, depth)
    for x in increments:
        if x.scalar() != 0.0:
            raise InvalidParameter("increments must have zero scalar part")
        if x.dim != dim:
            raise DimMismatch(f"increment dim {x.dim} vs path dim {dim}")
        if not any(lev.any() for lev in x.levels[1:]):
            continue
        if x.depth == 1:
            out = ta._mul_exp_level1(out, x.levels[1])
        else:
            out = ta.tensor_mul(out, ta.exp_tensor(x.with_depth(depth)), depth)
    return out


def _batch_signatures(paths: SimulatedPaths, depth: int) -> list[np.ndarray]:
    """Signature levels of all paths at once, each of shape (n_paths, d**n).

    Each segment updates only its live rows, those whose level 1 or level 2
    is nonzero: all rows without a gather, none by skipping the segment, and
    otherwise a gathered subset that is scattered back.  A segment without
    level 2 uses the fused ``_mul_exp_level1``, one with level 2 the batched
    ``tensor_mul``/``exp_tensor``, as ``path_signature`` does for one path.
    """
    d = paths.dim
    n_paths = paths.n_paths
    sig = [np.ones((n_paths, 1))] + [np.zeros((n_paths, d**n)) for n in range(1, depth + 1)]
    for lvl1, lvl2 in paths.segments:
        live = lvl1.any(axis=1)
        if lvl2 is not None:
            live |= lvl2.any(axis=1)
        rows = np.flatnonzero(live)
        if len(rows) == 0:
            continue
        every = len(rows) == n_paths
        if every:
            rows = slice(None)
        cur = TruncatedTensor(d, [lev[rows] for lev in sig])
        if lvl2 is None:
            new = ta._mul_exp_level1(cur, lvl1[rows])
        else:
            levels = [np.zeros(1), lvl1[rows], lvl2[rows]]
            levels += [np.zeros(d**n) for n in range(3, depth + 1)]
            new = ta.tensor_mul(cur, ta.exp_tensor(TruncatedTensor(d, levels[:depth + 1])),
                                depth)
        if every:
            sig = new.levels
        else:
            for lev, upd in zip(sig, new.levels):
                lev[rows] = upd
    return [np.ascontiguousarray(lev) for lev in sig]


@dataclass
class SignatureEstimate:
    """Sample mean of pathwise signatures with standard errors."""

    mean: TruncatedTensor
    se: TruncatedTensor
    level_se: LevelNorms
    n_paths: int


def estimate_expected_signature(triplet: LevyTriplet, t: float, depth: int,
                                n_paths: int, steps: int, seed: int,
                                stream_offset: int = 0) -> SignatureEstimate:
    """Monte Carlo estimate of the expected signature at time t."""
    paths = simulate_paths(triplet, n_paths, steps, seed, horizon=t,
                           stream_offset=stream_offset)
    sig = _batch_signatures(paths, depth)
    mean = TruncatedTensor(triplet.dim, [lvl.mean(axis=0) for lvl in sig])
    se_levels = [lvl.std(axis=0, ddof=1) / math.sqrt(n_paths) if n_paths > 1
                 else np.zeros(lvl.shape[1]) for lvl in sig]
    se = TruncatedTensor(triplet.dim, se_levels)
    level_se = LevelNorms(np.array([np.linalg.norm(lev) for lev in se_levels]))
    return SignatureEstimate(mean=mean, se=se, level_se=level_se, n_paths=n_paths)


def estimate_kernel(triplet_a: LevyTriplet, triplet_b: LevyTriplet, t: float,
                    depth: int, n_paths: int, steps: int, seed: int):
    """Monte Carlo estimate of the expected signature kernel at (t, t).

    Returns ``(value, standard_error)``; the error combines the two
    independent mean estimates by the delta method.  The second triplet
    uses path streams offset by ``n_paths``.
    """
    # each side's paths are dropped once its signatures are formed
    sig_a = _batch_signatures(simulate_paths(triplet_a, n_paths, steps, seed, horizon=t),
                              depth)
    sig_b = _batch_signatures(simulate_paths(triplet_b, n_paths, steps, seed, horizon=t,
                                             stream_offset=n_paths), depth)
    mean_a = [lvl.mean(axis=0) for lvl in sig_a]
    mean_b = [lvl.mean(axis=0) for lvl in sig_b]
    value = float(sum(ma @ mb for ma, mb in zip(mean_a, mean_b)))
    # delta method: variance of <mean_a, .> against per-path signatures of b
    proj_a = sum(lvl @ mb for lvl, mb in zip(sig_a, mean_b))
    proj_b = sum(lvl @ ma for lvl, ma in zip(sig_b, mean_a))
    var = proj_a.var(ddof=1) / n_paths + proj_b.var(ddof=1) / n_paths
    return value, float(math.sqrt(var))


def estimate_to_csv(estimate: SignatureEstimate, path) -> None:
    """Serialize an estimate as (word, mean, se) rows."""
    dim = estimate.mean.dim
    with open(path, "w") as fh:
        fh.write("word,mean,se\n")
        for n in range(estimate.mean.depth + 1):
            for idx in range(dim**n):
                word = "".join(str(c) for c in ta.word_from_index(idx, n, dim))
                fh.write(f"{word},{float(estimate.mean.levels[n][idx])!r},"
                         f"{float(estimate.se.levels[n][idx])!r}\n")

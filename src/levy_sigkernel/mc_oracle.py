"""Monte Carlo ground truth: path simulation, pathwise truncated signatures,
and estimators for expected signatures and kernels.

Randomness is counter-based: a run seeded with ``seed`` draws from one
Philox stream with key ``[seed, stream_offset]``, so the same key gives the
same paths bit for bit.  The stream is read interval by interval, in time
order, each draw for all paths at once in path order: the Brownian sub-step
normals (by path, then sub-step), then the Poisson jump counts, the jump
positions and the jump values.  Each interval's jumps are sorted and placed
in their sub-steps after its draws.

Jumps enter signatures through tensor exponentials (Marcus/geometric
convention), placed after the continuous factor of the sub-step that
contains them; the residual weak bias from not splitting that sub-step's
Gaussian increment is O(dt) and vanishes for commuting (d = 1) data.

The estimators do not build the paths: ``_interval_segments`` draws one
interval at a time and the signatures take each interval's segments before
the next is drawn, so at most one interval's increments exist at once.  A
sub-step's Brownian segment holds every path, as a contiguous row of the
interval's ``(steps, n_paths, d)`` buffer; a jump segment holds only the
paths that jump in it, their indices and values.  ``simulate_paths``
collects the same intervals into dense segments.

The signatures of all paths are computed at once, segment by segment, on
each segment's live rows (``_batch_signatures``): every segment takes the
fused step ``S (x) exp(x)`` through the Horner core of
``tensor_algebra.mul_exp``, on a signature held batch-last (level n as a
``(d**n, n_paths)`` array) in two buffer sets reused for every segment.
Live rows are the segment's rows with a level ``!= 0`` (NaN included),
found by one pass per column.  ``path_signature`` takes the same step for
one path through ``mul_exp``, so row p equals
``path_signature(paths.increments_of(p), depth)`` bit for bit.

``estimate_kernel`` runs its two sides at once on two or more CPUs: side b
(key ``[seed, 1]``) in a forked child (``_forks.start``), side a (key
``[seed, 0]``) in the calling process.  This is the estimators' only
parallelism: each side's signatures run in one loop on one thread.  The
child sends side b's mean levels and signature levels one way, as raw
float64 bytes; the parent takes them after its own loop and forms the
estimate as the sequential sides do, so every path gives the same bits.
Where the child gives nothing (no ``os.fork``, another Python thread
alive, a fork that fails, a child that exits non-zero, dies, warns or is
reaped elsewhere), the calling process computes side b itself, with the
same bits, errors and warnings; if it raises, it kills and reaps the
child.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Iterator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import _forks
from . import tensor_algebra as ta
from .characteristics import AtomicJumps, GaussianJumps, LevyTriplet, _spans
from .errors import DimMismatch, InvalidParameter, Unsupported
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


def _interval_segments(triplet: LevyTriplet, n_paths: int, steps_per_interval: int,
                       seed: int, horizon: float | None = None,
                       stream_offset: int = 0) -> Iterator[list[tuple]]:
    """Each interval's segments on [0, horizon], drawn when asked for.

    Reads the Philox stream of key ``[seed, stream_offset]`` in the order
    of the module docstring and yields one list per interval of its
    segments ``(rows, level1, level2)`` in time order; ``level2`` may be
    None.  A sub-step's Brownian segment has ``rows`` None and rows of every
    path: ``level1`` is a contiguous ``(n_paths, d)`` row of the interval's
    ``(steps, n_paths, d)`` buffer.  A jump segment holds only the paths
    that jump in it, their indices ``rows`` increasing, with one value row
    each.  The generator keeps no reference to an interval it has yielded.
    The arguments (``_check_draws``) and the horizon are checked at the
    call, before any draw.
    """
    _check_draws(n_paths, steps_per_interval, seed, stream_offset)
    rng = np.random.Generator(np.random.Philox(key=[seed, stream_offset]))
    return (_IntervalDraws(triplet, i, span, steps_per_interval, n_paths).segments(rng)
            for i, span in _spans(triplet, horizon))


def _check_draws(n_paths: int, steps_per_interval: int, seed: int,
                 stream_offset: int) -> None:
    """``InvalidParameter`` unless the sizes are integers >= 1 and the key
    words integers in [-2**63, 2**63); an integer is an ``int`` or a numpy
    integer, not a bool."""
    args = (n_paths, steps_per_interval, seed, stream_offset)
    if any(isinstance(a, bool) or not isinstance(a, (int, np.integer)) for a in args):
        raise InvalidParameter("n_paths, steps_per_interval, seed and stream_offset "
                               f"must be integers, got {args!r}")
    if n_paths < 1 or steps_per_interval < 1:
        raise InvalidParameter("need n_paths >= 1 and steps_per_interval >= 1")
    if not -2**63 <= min(seed, stream_offset) <= max(seed, stream_offset) < 2**63:
        raise InvalidParameter("seed and stream_offset must lie in [-2**63, 2**63)")


def simulate_paths(triplet: LevyTriplet, n_paths: int, steps_per_interval: int,
                   seed: int, horizon: float | None = None,
                   stream_offset: int = 0) -> SimulatedPaths:
    """Simulate increments of the triplet's process on [0, horizon].

    Gaussian sub-increments are exact per sub-step; jump counts are
    Poisson per interval with uniform positions.  Deterministic given
    ``seed`` and ``stream_offset``, the two words of the Philox key (each
    must lie in [-2**63, 2**63); see the module docstring for the stream
    layout).  Each interval's variates are drawn for all paths at once.
    Every segment is dense: a jump segment holds a zero row for each path
    that does not jump in it.
    """
    segments: list[tuple[np.ndarray, np.ndarray | None]] = []
    for interval in _interval_segments(triplet, n_paths, steps_per_interval, seed,
                                       horizon, stream_offset):
        for rows, lvl1, lvl2 in interval:
            if rows is None:   # each segment gets its own area level
                segments.append((lvl1, None if lvl2 is None else lvl2.copy()))
                continue
            dense = [None, None]
            for k, lev in enumerate((lvl1, lvl2)):
                if lev is not None:
                    dense[k] = np.zeros((n_paths, lev.shape[1]))
                    dense[k][rows] = lev
            segments.append(tuple(dense))
    return SimulatedPaths(dim=triplet.dim, n_paths=n_paths, segments=segments)


# Normals drawn per call while an interval's Brownian increments are read,
# unless three paths hold more: two scratch buffers of 256 KiB
_DRAW_NORMALS = 1 << 15


class _IntervalDraws:
    """One interval's draw parameters; draws its variates for all paths."""

    def __init__(self, triplet: LevyTriplet, i: int, span: float, steps: int,
                 n_paths: int):
        self.dim, self.n_paths, self.span, self.steps = triplet.dim, n_paths, span, steps
        self.dt = span / steps
        self.drift, self.area = triplet.drifts[i], triplet.areas[i]
        self.factor = _cov_factor(triplet.covs[i])
        spec, rate, self.atom_table = triplet.jumps[i], 0.0, None
        if isinstance(spec, AtomicJumps):
            rate = float(np.sum(spec.weights))
            self.probs = spec.weights / rate if rate > 0 else None
            # by atom: level 1, level 2 (zero if absent), level 2 present
            self.atom_table = [np.array(col) for col in zip(
                *((*a.with_depth(2).levels[1:], a.depth >= 2) for a in spec.atoms))]
        elif isinstance(spec, GaussianJumps):
            rate = spec.intensity
            self.jump_factor = _cov_factor(spec.cov)
        elif spec is not None:
            raise Unsupported(f"jump spec {type(spec).__name__}")
        self.lam = rate * span

    def segments(self, rng: np.random.Generator) -> list[tuple]:
        """Draws the interval and returns its segments ``(rows, level1,
        level2)`` in time order: each sub-step's Brownian segment (drift
        included), then its jump segments.  The Brownian segments share one
        area level."""
        lvl1 = self.increments(rng)           # the stream's order: normals, then jumps
        jumps = self.jump_segments(rng)
        lvl1 += self.drift * self.dt
        lvl2 = None if self.area is None else np.tile(self.area.ravel() * self.dt,
                                                      (self.n_paths, 1))
        out = []
        for step in range(self.steps):
            out.append((None, lvl1[step], lvl2))
            out.extend(jumps.get(step, ()))
        return out

    def increments(self, rng: np.random.Generator) -> np.ndarray:
        """All paths' sub-step increments, shape ``(steps, n_paths, d)``.

        Draws the normals by (path, step), unless the interval has no
        covariance, into a scratch buffer of whole paths at a time: the
        ``Generator`` fills its output in order, so the calls read the
        stream as one call would.  Scales each call's normals by sqrt(dt),
        maps them by the covariance factor in one product and moves them
        to their (step, path) places.  The calls split the paths evenly,
        with room for at least three paths each, so no call holds a lone
        path unless there is one path in all: each row is then
        ``sqdt * z @ factor.T`` as in one product for all paths, while a
        product of one row, which a lone path at one sub-step would give,
        takes another BLAS routine.
        """
        shape = (self.steps, self.n_paths, self.dim)
        if not np.any(self.factor):
            return np.zeros(shape)
        out = np.empty(shape)
        calls = -(-self.n_paths // max(3, _DRAW_NORMALS // (self.steps * self.dim)))
        edges = [self.n_paths * c // calls for c in range(calls + 1)]
        noise = np.empty((-(-self.n_paths // calls), self.steps, self.dim))
        mapped = np.empty_like(noise)
        for lo, hi in zip(edges[:-1], edges[1:]):
            z, zf = noise[:hi - lo], mapped[:hi - lo]
            rng.standard_normal(out=z)
            z *= math.sqrt(self.dt)
            np.matmul(z.reshape(-1, self.dim), self.factor.T, out=zf.reshape(-1, self.dim))
            out[:, lo:hi] = zf.transpose(1, 0, 2)
        return out

    def jump_segments(self, rng: np.random.Generator) -> dict[int, list[tuple]]:
        """Draws the interval's jumps and returns its jump segments
        ``(rows, level1, level2)`` by sub-step, each list in time order.

        The draws, all paths in path order: the Poisson counts, then the
        uniform positions, then the values (Gaussian rows times the jump
        factor in one product, or atom indices).  A path's jumps take its
        sorted positions ``span * u`` in draw order; a jump at t lies in
        sub-step ``min(int(t / dt), steps - 1)``.  Segment k of a sub-step
        holds each path's k-th jump there: the paths ``rows`` in increasing
        order and their values, level 2 only if a jump of the segment has
        one.
        """
        if self.lam <= 0:
            return {}
        counts = rng.poisson(self.lam, self.n_paths)
        n_jumps = int(counts.sum())
        if not n_jumps:
            return {}
        path = np.repeat(np.arange(self.n_paths), counts)
        pos = self.span * rng.random(n_jumps)
        pos = pos[np.lexsort((pos, path))]
        if self.atom_table is None:
            lvl1 = rng.standard_normal((n_jumps, self.dim)) @ self.jump_factor.T
            lvl2, has2 = None, np.zeros(n_jumps, dtype=bool)
        else:
            picks = rng.choice(len(self.probs), size=n_jumps, p=self.probs)
            lvl1, lvl2, has2 = (col[picks] for col in self.atom_table)
        step = np.minimum((pos / self.dt).astype(np.intp), self.steps - 1)
        cell = path * self.steps + step   # nondecreasing: sorted by path, then time
        slot = np.arange(len(cell)) - np.searchsorted(cell, cell)
        group = step * (slot.max() + 1) + slot   # ordered by sub-step, then slot
        order = np.argsort(group, kind="stable")
        out: dict[int, list] = {}
        for rows in np.split(order, np.flatnonzero(np.diff(group[order])) + 1):
            segment = (path[rows], lvl1[rows], lvl2[rows] if has2[rows].any() else None)
            out.setdefault(int(step[rows[0]]), []).append(segment)
        return out


def path_signature(increments, depth: int) -> TruncatedTensor:
    """Ordered product of tensor exponentials of zero-scalar increments.

    Each increment is applied with the fused ``tensor_algebra.mul_exp``; an
    all-zero increment is skipped, as it leaves the product unchanged.
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
        out = ta.mul_exp(out, x)
    return out


def _live_rows(lev: np.ndarray) -> np.ndarray:
    """Rows of a (n_paths, k) segment level with a nonzero entry (NaN counts),
    by one ``!= 0`` pass per column."""
    live = lev[:, 0] != 0
    for c in range(1, lev.shape[1]):
        live |= lev[:, c] != 0
    return live


class _PathStream(NamedTuple):
    """A batch of paths that exists one interval at a time: ``intervals``
    yields each interval's segments ``(rows, level1, level2)``, as
    ``_interval_segments`` does."""

    dim: int
    n_paths: int
    intervals: Iterator[list[tuple]]


def _streamed_signatures(triplet: LevyTriplet, n_paths: int, steps: int, seed: int,
                         horizon: float, depth: int, stream_offset: int = 0
                         ) -> list[np.ndarray]:
    """``_batch_signatures`` of the paths ``simulate_paths`` would return,
    fed to it one interval at a time: no more than one interval's
    increments exist at once."""
    intervals = _interval_segments(triplet, n_paths, steps, seed, horizon, stream_offset)
    return _batch_signatures(_PathStream(triplet.dim, n_paths, intervals), depth)


def _batch_signatures(paths: SimulatedPaths | _PathStream, depth: int) -> list[np.ndarray]:
    """Signature levels of all paths at once, each of shape (n_paths, d**n).

    ``paths`` is a ``_PathStream`` or, as one interval of dense segments,
    a ``SimulatedPaths``.  The signature sits batch-last, level n as a
    ``(d**n, n_paths)`` array, in two buffer sets that every segment of
    every interval reuses; each interval is dropped before the next is
    drawn.  Which levels of each segment take part is decided on all rows
    (``_interval_plan``): as in ``mul_exp``, a level that is zero on every
    row is skipped.  The row-major outputs are allocated after the spare
    set is dropped.
    """
    d, n_paths = paths.dim, paths.n_paths
    if isinstance(paths, SimulatedPaths):
        intervals = iter([[(None, *segment) for segment in paths.segments]])
    else:
        intervals = paths.intervals
    sig = [np.ones((1, n_paths))] + [np.zeros((d**n, n_paths)) for n in range(1, depth + 1)]
    spare = [np.empty_like(lev) for lev in sig]
    # map, unlike a generator expression, keeps no reference to the last
    # interval while it draws the next
    for plan in map(functools.partial(_interval_plan, depth=depth), intervals):
        sig, spare = _apply_plan(plan, sig, spare)
        del plan   # no reference to the interval while the next is drawn
    del spare
    return [np.ascontiguousarray(lev.T) for lev in sig]


def _interval_plan(segments: list[tuple], depth: int) -> list[tuple]:
    """``(rows, levels, x)`` for each of an interval's segments with a
    nonzero level: its rows (None for every path), its levels, and the live
    levels ``(j, x^j)`` that its live rows multiply."""
    plan = []
    for rows, *pair in segments:
        levels = [(j, lev) for j, lev in enumerate(pair, 1) if lev is not None]
        nonzero = [(j, lev) for j, lev in levels if lev.any()]
        if nonzero:
            plan.append((rows, [lev for _, lev in levels],
                         [(j, lev) for j, lev in nonzero if j <= depth]))
    return plan


def _apply_plan(plan, sig: list[np.ndarray], spare: list[np.ndarray]
                ) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Applies an interval's segments to the batch-last signature ``sig``;
    returns the signature and the spare set.

    A segment updates only its live rows, those with a nonzero level (NaN
    counts, found by ``_live_rows``): all paths by the Horner core of
    ``mul_exp`` (``tensor_algebra._mul_exp_into``) into the spare set,
    which then becomes the signature; none by skipping the segment;
    otherwise the live paths' columns, gathered and scattered back.  Each
    update takes the steps ``path_signature`` takes for one path.
    """
    n_paths = sig[0].shape[1]
    for rows, levels, x in plan:
        live = _live_rows(levels[0])
        for lev in levels[1:]:
            live |= _live_rows(lev)
        idx = np.flatnonzero(live)
        if len(idx) == 0:
            continue
        if len(idx) == n_paths:
            ta._mul_exp_into(sig, [(j, lev.T) for j, lev in x], spare)
            sig, spare = spare, sig
        else:
            target = idx if rows is None else rows[idx]
            out = [lev[:, :len(idx)] for lev in spare]
            ta._mul_exp_into([np.take(lev, target, axis=1) for lev in sig],
                             [(j, np.take(lev, idx, axis=0).T) for j, lev in x], out)
            for lev, upd in zip(sig, out):
                lev[:, target] = upd
    return sig, spare


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
    """Monte Carlo estimate of the expected signature at time t.

    Needs n_paths >= 2: one path has no standard error.
    """
    if n_paths < 2:
        raise InvalidParameter("the standard error needs n_paths >= 2")
    sig = _streamed_signatures(triplet, n_paths, steps, seed, t, depth, stream_offset)
    mean = TruncatedTensor(triplet.dim, [lvl.mean(axis=0) for lvl in sig])
    se_levels = [lvl.std(axis=0, ddof=1) / math.sqrt(n_paths) for lvl in sig]
    se = TruncatedTensor(triplet.dim, se_levels)
    level_se = LevelNorms(np.array([np.linalg.norm(lev) for lev in se_levels]))
    return SignatureEstimate(mean=mean, se=se, level_se=level_se, n_paths=n_paths)


def estimate_kernel(triplet_a: LevyTriplet, triplet_b: LevyTriplet, t: float,
                    depth: int, n_paths: int, steps: int, seed: int):
    """Monte Carlo estimate of the expected signature kernel at (t, t).

    Returns ``(value, standard_error)``; the error combines the two
    independent mean estimates by the delta method.  The two sides are
    independent: side a draws from Philox key ``[seed, 0]``, side b from
    ``[seed, 1]``.  On two or more CPUs, side b runs in a forked child
    (``_forks.start``) that sends its mean and signature levels while the
    calling process runs side a; otherwise, or when the child gives
    nothing, the calling process runs side b after side a.  Every path
    gives the same bits and raises the same errors.
    """
    if n_paths < 2:
        raise InvalidParameter("the standard error needs n_paths >= 2")
    if triplet_a.dim != triplet_b.dim:
        raise DimMismatch(f"triplet dims {triplet_a.dim} and {triplet_b.dim} differ")
    _check_draws(n_paths, steps, seed, 1)   # in this process, before the fork
    side_a, side_b = (functools.partial(_streamed_signatures, triplet, n_paths, steps,
                                        seed, t, depth, offset)
                      for offset, triplet in enumerate((triplet_a, triplet_b)))

    def side_b_levels() -> list[np.ndarray]:
        sig = side_b()
        return _level_means(sig) + sig

    sizes = [triplet_a.dim**n for n in range(depth + 1)]
    child = _forks.Child()
    if ta._cpu_count() >= 2:
        child = _forks.start(side_b_levels, sizes + [n_paths * k for k in sizes])
    try:
        sig_a = side_a()
        mean_a = _level_means(sig_a)
        got = child.join()
    finally:
        child.kill()
    if got is None:
        sig_b = side_b()
        mean_b = _level_means(sig_b)
    else:
        mean_b = got[:depth + 1]
        sig_b = [lev.reshape(n_paths, k) for lev, k in zip(got[depth + 1:], sizes)]
    var_b = _projection_variance(sig_b, mean_a)
    value = float(sum(ma @ mb for ma, mb in zip(mean_a, mean_b)))
    # delta method: variance of <mean_a, .> against per-path signatures of b
    var = _projection_variance(sig_a, mean_b) / n_paths + var_b / n_paths
    return value, float(math.sqrt(var))


def _level_means(sig: list[np.ndarray]) -> list[np.ndarray]:
    return [lvl.mean(axis=0) for lvl in sig]


def _projection_variance(sig: list[np.ndarray], other_mean: list[np.ndarray]):
    """Sample variance (ddof 1) over the paths of ``<S_p, other_mean>``."""
    return sum(lvl @ m for lvl, m in zip(sig, other_mean)).var(ddof=1)


def estimate_to_csv(estimate: SignatureEstimate, path) -> None:
    """Serialize an estimate as (word, mean, se) rows, written whole or not
    at all (``_forks.write_text``)."""
    dim = estimate.mean.dim
    rows = ["word,mean,se\n"]
    for n in range(estimate.mean.depth + 1):
        for idx in range(dim**n):
            word = "".join(str(c) for c in ta.word_from_index(idx, n, dim))
            rows.append(f"{word},{float(estimate.mean.levels[n][idx])!r},"
                        f"{float(estimate.se.levels[n][idx])!r}\n")
    _forks.write_text(path, "".join(rows))

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

The signatures of all paths are computed at once, segment by segment, on
each segment's live rows (``_batch_signatures``): every segment takes the
fused step ``S (x) exp(x)`` through the Horner core of
``tensor_algebra.mul_exp``, on a signature held batch-last (level n as a
``(d**n, width)`` array) in two buffer sets reused for every segment.
Live rows are found by one ``!= 0`` pass per column of the segment.  A
large batch is split into column blocks, one per CPU, each block but the
first on a thread of its own; every column takes the same steps in any
split.
The worker threads call private functions only.  ``path_signature`` takes
the same step for one path through ``mul_exp``, so row p equals
``path_signature(paths.increments_of(p), depth)`` bit for bit.
"""

from __future__ import annotations

import contextvars
import math
import threading
from dataclasses import dataclass

import numpy as np

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


def simulate_paths(triplet: LevyTriplet, n_paths: int, steps_per_interval: int,
                   seed: int, horizon: float | None = None,
                   stream_offset: int = 0) -> SimulatedPaths:
    """Simulate increments of the triplet's process on [0, horizon].

    Gaussian sub-increments are exact per sub-step; jump counts are
    Poisson per interval with uniform positions.  Deterministic given
    ``seed`` and ``stream_offset``, the two words of the Philox key (each
    must lie in [-2**63, 2**63); see the module docstring for the stream
    layout).  Each interval's variates are drawn for all paths at once.
    """
    if n_paths < 1 or steps_per_interval < 1:
        raise InvalidParameter("need n_paths >= 1 and steps_per_interval >= 1")
    if not -2**63 <= min(seed, stream_offset) <= max(seed, stream_offset) < 2**63:
        raise InvalidParameter("seed and stream_offset must lie in [-2**63, 2**63)")

    rng = np.random.Generator(np.random.Philox(key=[seed, stream_offset]))
    segments: list[tuple[np.ndarray, np.ndarray | None]] = []
    for i, span in _spans(triplet, horizon):
        iv = _IntervalDraws(triplet, i, span, steps_per_interval, n_paths)
        lvl1 = iv.increments(rng)             # the stream's order: normals, then jumps
        jumps = iv.jump_segments(rng)
        lvl1 += triplet.drifts[i] * iv.dt
        ar = triplet.areas[i]
        lvl2_base = None if ar is None else np.tile(ar.ravel() * iv.dt, (n_paths, 1))
        for step in range(steps_per_interval):
            segments.append((lvl1[step], None if lvl2_base is None else lvl2_base.copy()))
            segments.extend(jumps.get(step, ()))
    return SimulatedPaths(dim=triplet.dim, n_paths=n_paths, segments=segments)


class _IntervalDraws:
    """One interval's draw parameters; draws its variates for all paths."""

    def __init__(self, triplet: LevyTriplet, i: int, span: float, steps: int,
                 n_paths: int):
        self.dim, self.n_paths, self.span, self.steps = triplet.dim, n_paths, span, steps
        self.dt = span / steps
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

    def increments(self, rng: np.random.Generator) -> np.ndarray:
        """All paths' sub-step increments, shape ``(steps, n_paths, d)``.

        Draws the normals by (path, step) in one call, unless the interval
        has no covariance.  Scales them by sqrt(dt) in (step, path) order,
        then maps them to the covariance by one product, each row as
        ``sqdt * z @ factor.T`` on the row alone would be.
        """
        shape = (self.steps, self.n_paths, self.dim)
        if not np.any(self.factor):
            return np.zeros(shape)
        noise = np.empty((self.n_paths, self.steps, self.dim))
        rng.standard_normal(out=noise)
        scaled = np.multiply(noise.transpose(1, 0, 2), math.sqrt(self.dt), out=np.empty(shape))
        # the product reuses the drawn normals' buffer: validate's peak RSS
        # read 3.5 MB lower than with a third buffer per interval
        out = noise.reshape(-1, self.dim)
        np.matmul(scaled.reshape(-1, self.dim), self.factor.T, out=out)
        return out.reshape(shape)

    def jump_segments(self, rng: np.random.Generator
                      ) -> dict[int, list[tuple[np.ndarray, np.ndarray | None]]]:
        """Draws the interval's jumps and returns its jump segments by
        sub-step, each list in time order.

        The draws, all paths in path order: the Poisson counts, then the
        uniform positions, then the values (Gaussian rows times the jump
        factor in one product, or atom indices).  A path's jumps take its
        sorted positions ``span * u`` in draw order; a jump at t lies in
        sub-step ``min(int(t / dt), steps - 1)``.  Segment k of a sub-step
        holds each path's k-th jump there.
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
            j1 = np.zeros((self.n_paths, self.dim))
            j1[path[rows]] = lvl1[rows]
            j2 = None
            if has2[rows].any():
                j2 = np.zeros((self.n_paths, self.dim**2))
                j2[path[rows]] = lvl2[rows]
            out.setdefault(int(step[rows[0]]), []).append((j1, j2))
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


def _batch_signatures(paths: SimulatedPaths, depth: int,
                      blocks: int | None = None) -> list[np.ndarray]:
    """Signature levels of all paths at once, each of shape (n_paths, d**n).

    The paths are split into ``blocks`` column blocks of nearly equal width,
    by default one per CPU the process may run on, but none narrower than
    ``_MIN_BLOCK_PATHS`` paths.  Every block but the first runs in its own
    thread, in a copy of the caller's context (so under its ``np.errstate``),
    and the first runs on the calling thread.  Which levels of each segment
    take part is decided here, on all rows: as in ``mul_exp``, a level that
    is zero on every row is skipped.  Each path's column then takes the same
    steps in any split, so the result does not depend on ``blocks``.  The
    row-major outputs are allocated after every block has dropped its spare
    buffers.
    """
    d, n_paths = paths.dim, paths.n_paths
    if blocks is None:
        blocks = min(ta._cpu_count(), n_paths // _MIN_BLOCK_PATHS)
    blocks = max(1, min(blocks, n_paths))
    plan = []
    for segment in paths.segments:
        levels = [(j, lev) for j, lev in enumerate(segment, 1) if lev is not None]
        nonzero = [(j, lev) for j, lev in levels if lev.any()]
        if nonzero:
            plan.append(([lev for _, lev in levels],
                         [(j, lev) for j, lev in nonzero if j <= depth]))
    edges = [n_paths * b // blocks for b in range(blocks + 1)]
    spans = list(zip(edges[:-1], edges[1:]))
    results: list = [None] * blocks

    def run(b: int) -> None:
        try:
            results[b] = _block_signatures(plan, *spans[b], d, depth)
        except BaseException as exc:   # re-raised on the calling thread
            results[b] = exc

    workers = [threading.Thread(target=contextvars.copy_context().run, args=(run, b))
               for b in range(1, blocks)]
    for worker in workers:
        worker.start()
    run(0)
    for worker in workers:
        worker.join()
    for res in results:
        if isinstance(res, BaseException):
            raise res
    out = [np.empty((n_paths, d**n)) for n in range(depth + 1)]
    for (lo, hi), sig in zip(spans, results):
        for lev, part in zip(out, sig):
            lev[lo:hi] = part.T
    return out


# Narrowest block of paths that _batch_signatures splits off.  Each block
# runs the whole segment loop, and two threads hand the GIL to each other
# at every numpy call.  On a 2-core x86 host, validate-jumps-d2's two sides
# at depth 4 took 31.7 ms in one block against 35.8 ms in two at 8000 paths,
# 39.5 against 36.9 ms at 10 000 and 83.5 against 54.2 ms at 20 000.
_MIN_BLOCK_PATHS = 5000


def _block_signatures(plan, lo: int, hi: int, d: int, depth: int) -> list[np.ndarray]:
    """Signature levels of paths ``lo:hi``, batch-last: level n as a
    (d**n, hi - lo) array.

    ``plan`` lists, per segment with a nonzero level, the segment's levels
    and the live levels ``(j, x^j)`` that every block multiplies.  The
    signature sits in two buffer sets that every segment reuses.  A segment
    updates only the block's live rows, those with a nonzero level (NaN
    counts, found by ``_live_rows``): all rows by the Horner core of
    ``mul_exp`` (``tensor_algebra._mul_exp_into``) into the spare set, which
    then becomes the signature; none by skipping the segment; otherwise its
    live columns, gathered and scattered back.  Each update takes the steps
    ``path_signature`` takes for one path.
    """
    width = hi - lo
    sig = [np.ones((1, width))] + [np.zeros((d**n, width)) for n in range(1, depth + 1)]
    spare = [np.empty_like(lev) for lev in sig]
    for levels, x in plan:
        live = _live_rows(levels[0][lo:hi])
        for lev in levels[1:]:
            live |= _live_rows(lev[lo:hi])
        rows = np.flatnonzero(live)
        if len(rows) == 0:
            continue
        if len(rows) == width:
            ta._mul_exp_into(sig, [(j, lev[lo:hi].T) for j, lev in x], spare)
            sig, spare = spare, sig
        else:
            out = [lev[:, :len(rows)] for lev in spare]
            ta._mul_exp_into([np.take(lev, rows, axis=1) for lev in sig],
                             [(j, np.take(lev[lo:hi], rows, axis=0).T) for j, lev in x],
                             out)
            for lev, upd in zip(sig, out):
                lev[:, rows] = upd
    return sig


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
    paths = simulate_paths(triplet, n_paths, steps, seed, horizon=t,
                           stream_offset=stream_offset)
    sig = _batch_signatures(paths, depth)
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
    independent: the first draws from Philox key ``[seed, 0]``, the second
    from ``[seed, 1]``.
    """
    if n_paths < 2:
        raise InvalidParameter("the standard error needs n_paths >= 2")
    # each side's paths are dropped once its signatures are formed
    sig_a = _batch_signatures(simulate_paths(triplet_a, n_paths, steps, seed, horizon=t),
                              depth)
    sig_b = _batch_signatures(simulate_paths(triplet_b, n_paths, steps, seed, horizon=t,
                                             stream_offset=1), depth)
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

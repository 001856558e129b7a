import functools
import itertools
import math
import os
import signal
import subprocess
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest

from levy_sigkernel import _forks, mc_oracle
from levy_sigkernel import tensor_algebra as ta
from levy_sigkernel.characteristics import (AtomicJumps, GaussianJumps,
                                            LevyTriplet, PiecewiseVelocity,
                                            characteristic_velocity)
from levy_sigkernel.development import develop, expected_signature
from levy_sigkernel.errors import DimMismatch, InvalidParameter, OutOfRange
from levy_sigkernel.kernel_solver import bessel_i0
from levy_sigkernel.mc_oracle import (SimulatedPaths, _batch_signatures,
                                      _cov_factor, estimate_expected_signature,
                                      estimate_kernel, path_signature,
                                      simulate_paths)
from levy_sigkernel.tensor_algebra import TruncatedTensor as TT

from conftest import (dense_exp_tensor, gamma, general_mul_exp_bound, open_fds,
                      reference_mul_exp)


def atom(dim, vec):
    return TT.from_levels(dim, [np.zeros(1), np.asarray(vec, dtype=float)])


def jump_triplet():
    """d = 2 on three intervals: Gaussian compound-Poisson jumps, then atomic
    jumps (one atom with area) under an area drift, then pure diffusion."""
    area = np.array([[0.0, 0.2], [-0.2, 0.0]])
    atoms = (TT.from_levels(2, [np.zeros(1), [0.5, -0.3], [0.0, 0.1, -0.1, 0.0]]),
             atom(2, [-0.2, 0.4]))
    return LevyTriplet(
        dim=2, time_grid=np.array([0.0, 0.3, 0.7, 1.0]),
        drifts=[np.array([0.1, -0.2]), np.array([0.0, 0.3]), np.zeros(2)],
        covs=[np.array([[0.4, 0.1], [0.1, 0.2]]), 0.3 * np.eye(2), 0.1 * np.eye(2)],
        areas=[None, area, None],
        jumps=[GaussianJumps(1.5, np.array([[0.2, 0.05], [0.05, 0.1]])),
               AtomicJumps(np.array([1.0, 2.0]), atoms), None],
        state_depth=2)


def reference_paths(triplet, n_paths, steps_per_interval, seed,
                    horizon=None, stream_offset=0):
    """Reference simulation: one Generator(Philox(key=[seed, stream_offset])),
    read interval by interval for all paths at once (normals, counts,
    positions, values), with each path placing its own jumps."""
    if horizon is None:
        horizon = triplet.horizon
    d = triplet.dim
    rng = np.random.Generator(np.random.Philox(key=[seed, stream_offset]))
    segments = []
    for i in range(triplet.n_intervals):
        lo = triplet.time_grid[i]
        hi = min(triplet.time_grid[i + 1], horizon)
        if hi <= lo:
            break
        dt = (hi - lo) / steps_per_interval
        b, ar = triplet.drifts[i], triplet.areas[i]
        factor = _cov_factor(triplet.covs[i])
        spec = triplet.jumps[i]
        noise = np.zeros((n_paths, steps_per_interval, d))
        if np.any(factor):
            # every path's scaled normals mapped in one product, as in
            # ``_IntervalDraws.increments``: a product of one row takes
            # another BLAS routine and rounds otherwise
            z = math.sqrt(dt) * rng.standard_normal((n_paths, steps_per_interval, d))
            noise = (z.reshape(-1, d) @ factor.T).reshape(noise.shape)
        step_slots = {}
        seen = {}

        def place(p, step, v1, v2):
            slot = seen.get((p, step), 0)
            seen[(p, step)] = slot + 1
            slots = step_slots.setdefault(step, [])
            while len(slots) <= slot:
                slots.append([])
            slots[slot].append((p, v1, v2))

        rate = 0.0
        if isinstance(spec, AtomicJumps):
            rate = float(np.sum(spec.weights))
        elif spec is not None:
            rate = spec.intensity
        counts = rng.poisson(rate * (hi - lo), n_paths) if rate > 0 else np.zeros(n_paths)
        n_jumps = int(counts.sum())
        if n_jumps:
            uniforms = rng.uniform(0.0, hi - lo, size=n_jumps)
            if isinstance(spec, AtomicJumps):
                picks = rng.choice(len(spec.atoms), size=n_jumps, p=spec.weights / rate)
                values = []
                for pick in picks:
                    a = spec.atoms[pick]
                    values.append((np.asarray(a.levels[1], dtype=float),
                                   np.asarray(a.levels[2], dtype=float)
                                   if a.depth >= 2 else None))
            else:
                draws = rng.standard_normal((n_jumps, d)) @ _cov_factor(spec.cov).T
                values = [(val, None) for val in draws]
            first = 0
            for p, count in enumerate(counts.astype(int)):
                pos = np.sort(uniforms[first:first + count])
                for u, (v1, v2) in zip(pos, values[first:first + count]):
                    place(p, min(int(u / dt), steps_per_interval - 1), v1, v2)
                first += count

        lvl2_base = None if ar is None else np.tile(ar.ravel() * dt, (n_paths, 1))
        for step in range(steps_per_interval):
            lvl1 = noise[:, step, :] + b * dt
            segments.append((lvl1, None if lvl2_base is None else lvl2_base.copy()))
            for slot_entries in step_slots.get(step, []):
                j1 = np.zeros((n_paths, d))
                j2 = None
                for p, v1, v2 in slot_entries:
                    j1[p] = v1
                    if v2 is not None:
                        if j2 is None:
                            j2 = np.zeros((n_paths, d * d))
                        j2[p] = v2
                segments.append((j1, j2))
        if hi >= horizon:
            break
    return SimulatedPaths(dim=d, n_paths=n_paths, segments=segments)


def dense_batch_mul(x, y, depth, d):
    """Reference: the batched product that the shared ``tensor_mul`` replaced."""
    n_paths = x[0].shape[0]
    out = [np.zeros((n_paths, d**n)) for n in range(depth + 1)]
    for n in range(depth + 1):
        acc = out[n]
        for k in range(max(0, n - len(y) + 1), min(n, len(x) - 1) + 1):
            xk, ym = x[k], y[n - k]
            if k == 0 or k == n:
                acc += xk * ym
            else:
                acc += np.einsum("pi,pj->pij", xk, ym).reshape(n_paths, -1)
    return out


def dense_batch_exp(x, depth, d):
    """Reference: the batched exponential that the shared ``exp_tensor``
    replaced.  It scales by ``lvl / k`` where ``exp_tensor`` multiplies by
    ``1.0 / k``: the two round alike for k = 1, 2 (depth <= 2) only."""
    n_paths = x[0].shape[0]
    acc = [np.ones((n_paths, 1))] + [np.zeros((n_paths, d**n)) for n in range(1, depth + 1)]
    for k in range(depth, 0, -1):
        acc = dense_batch_mul([lvl / k for lvl in x], acc, depth, d)
        acc[0] += 1.0
    return acc


def batch_signatures(paths, depth):
    """``_batch_signatures`` of dense paths, fed as one interval."""
    intervals = iter([[(None, *segment) for segment in paths.segments]])
    return _batch_signatures(paths.dim, paths.n_paths, intervals, depth)


def dense_batch_signatures(paths, depth):
    d, n_paths = paths.dim, paths.n_paths
    sig = [np.ones((n_paths, 1))] + [np.zeros((n_paths, d**n)) for n in range(1, depth + 1)]
    for lvl1, lvl2 in paths.segments:
        inc = [np.zeros((n_paths, 1)), lvl1]
        if depth >= 2:
            inc.append(lvl2 if lvl2 is not None else np.zeros((n_paths, d * d)))
        sig = dense_batch_mul(sig, dense_batch_exp(inc, depth, d), depth, d)
    return sig


class TestSimulatePaths:
    def test_zero_triplet(self):
        trip = LevyTriplet.homogeneous(2, 1.0)
        paths = simulate_paths(trip, 5, 4, seed=1)
        for lvl1, lvl2 in paths.segments:
            assert np.all(lvl1 == 0.0) and lvl2 is None

    def test_pure_drift_sums_exactly(self):
        trip = LevyTriplet(dim=2, time_grid=np.array([0.0, 0.4, 1.0]),
                           drifts=[np.array([1.0, 0.0]), np.array([0.0, 2.0])],
                           covs=[np.zeros((2, 2))] * 2)
        paths = simulate_paths(trip, 3, 7, seed=2)
        total = paths.total_increment()
        expected = 0.4 * np.array([1.0, 0.0]) + 0.6 * np.array([0.0, 2.0])
        assert np.allclose(total, expected[None, :], atol=1e-14)

    def test_bm_increment_variance(self):
        trip = LevyTriplet.brownian(1, 1.0)
        paths = simulate_paths(trip, 100_000, 4, seed=3)
        inc = paths.segments[0][0][:, 0]   # first sub-step, dt = 1/4
        var = inc.var(ddof=1)
        se = var * math.sqrt(2.0 / (len(inc) - 1))   # se of a normal variance
        assert abs(var - 0.25) <= 3 * se

    def test_determinism(self):
        trip = LevyTriplet.homogeneous(
            1, 1.0, cov=np.eye(1),
            jumps=AtomicJumps(np.array([3.0]), (atom(1, [0.5]),)))
        a = simulate_paths(trip, 50, 8, seed=9)
        b = simulate_paths(trip, 50, 8, seed=9)
        assert len(a.segments) == len(b.segments)
        for (x1, x2), (y1, y2) in zip(a.segments, b.segments):
            assert np.array_equal(x1, y1)
        c = simulate_paths(trip, 50, 8, seed=10)
        assert any(not np.array_equal(x1, y1)
                   for (x1, _), (y1, _) in zip(a.segments, c.segments))

    def test_jump_counts_poisson(self):
        lam = 2.5
        trip = LevyTriplet.homogeneous(
            1, 1.0, jumps=AtomicJumps(np.array([lam]), (atom(1, [1.0]),)))
        paths = simulate_paths(trip, 20_000, 1, seed=4)
        # count nonzero jump-slot entries per path (atom value 1.0)
        jumps = sum((seg[0][:, 0] != 0.0).astype(int)
                    for seg in paths.segments[1:])
        mean = jumps.mean()
        se = jumps.std(ddof=1) / math.sqrt(len(jumps))
        assert abs(mean - lam) <= 3 * se

    def test_parameter_validation(self):
        trip = LevyTriplet.brownian(1, 1.0)
        with pytest.raises(InvalidParameter):
            simulate_paths(trip, 0, 4, seed=1)


class TestSharedGenerator:
    @pytest.mark.parametrize("horizon,offset,steps", [(None, 0, 3), (0.85, 37, 3),
                                                      (None, 5, 1)])
    def test_draws_match_reference(self, horizon, offset, steps):
        trip = jump_triplet()
        new = simulate_paths(trip, 60, steps, seed=11, horizon=horizon, stream_offset=offset)
        ref = reference_paths(trip, 60, steps, seed=11, horizon=horizon, stream_offset=offset)
        assert len(new.segments) == len(ref.segments) > 3 * steps
        assert any(l2 is not None and l2.any() for _, l2 in ref.segments[3:])
        for (a1, a2), (b1, b2) in zip(new.segments, ref.segments):
            assert a1.tobytes() == b1.tobytes()
            assert (a2 is None) == (b2 is None)
            if a2 is not None:
                assert a2.tobytes() == b2.tobytes()



def assert_same_segments(new, ref):
    assert len(new.segments) == len(ref.segments)
    for (a1, a2), (b1, b2) in zip(new.segments, ref.segments):
        assert a1.tobytes() == b1.tobytes()
        assert (a2 is None) == (b2 is None)
        if a2 is not None:
            assert a2.tobytes() == b2.tobytes()


def jump_cov():
    return np.array([[0.3, 0.1], [0.1, 0.2]])


def two_atoms():
    """An atom with area and one without."""
    return (TT.from_levels(2, [np.zeros(1), [0.5, -0.3], [0.0, 0.1, -0.1, 0.0]]),
            atom(2, [-0.2, 0.4]))


def placement_triplet(grid, covs, jumps):
    return LevyTriplet(dim=2, time_grid=np.array(grid),
                       drifts=[np.array([0.1, -0.2])] * len(covs), covs=covs,
                       jumps=jumps, state_depth=2)


class TestJumpPlacement:
    """Jumps are placed after their interval's draws, for all paths at
    once; each case compares against a reference in which each path places
    its own jumps.  Every case has an interval where paths take several jumps
    in one sub-step, so a wrong sort order or slot rank shows."""

    def check(self, trip, steps=3, seed=11, horizon=None, offset=0, n_paths=60):
        new = simulate_paths(trip, n_paths, steps, seed, horizon=horizon,
                             stream_offset=offset)
        ref = reference_paths(trip, n_paths, steps, seed, horizon=horizon,
                              stream_offset=offset)
        assert_same_segments(new, ref)
        return ref

    def test_several_jumps_in_one_sub_step(self):
        trip = LevyTriplet.homogeneous(2, 1.0, cov=0.2 * np.eye(2),
                                       jumps=GaussianJumps(40.0, jump_cov()))
        ref = self.check(trip)
        # three noise segments, and some sub-step with slots 0, 1 and 2
        assert len(ref.segments) >= 3 + 3 * 3

    def test_jumps_without_covariance(self):
        trip = placement_triplet([0.0, 0.5, 1.0], [np.zeros((2, 2)), 0.1 * np.eye(2)],
                                 [GaussianJumps(12.0, jump_cov()), None])
        ref = self.check(trip)
        first = ref.segments[0][0]   # drift alone: every path alike
        assert np.all(first == first[0])

    def test_atoms_with_zero_weights(self):
        trip = placement_triplet([0.0, 0.4, 1.0], [0.3 * np.eye(2)] * 2,
                                 [AtomicJumps(np.zeros(2), two_atoms()),
                                  AtomicJumps(np.array([6.0, 9.0]), two_atoms())])
        ref = self.check(trip)
        assert all(l2 is None for _, l2 in ref.segments[:3])
        assert any(l2 is not None for _, l2 in ref.segments[3:])

    def test_jump_free_interval_between_jump_intervals(self):
        trip = placement_triplet([0.0, 0.3, 0.6, 1.0], [0.2 * np.eye(2)] * 3,
                                 [GaussianJumps(15.0, jump_cov()), None,
                                  AtomicJumps(np.array([5.0, 10.0]), two_atoms())])
        self.check(trip)

    def test_horizon_inside_a_jump_interval(self):
        trip = placement_triplet([0.0, 0.3, 0.7, 1.0], [0.2 * np.eye(2)] * 3,
                                 [GaussianJumps(15.0, jump_cov()),
                                  AtomicJumps(np.array([8.0, 12.0]), two_atoms()), None])
        ref = self.check(trip, horizon=0.5, offset=5)
        assert len(ref.segments) > 2 * 3

    def test_negative_seed(self):
        trip = LevyTriplet.homogeneous(2, 1.0, cov=0.2 * np.eye(2),
                                       jumps=GaussianJumps(20.0, jump_cov()))
        self.check(trip, seed=-5)


class TestStreamAndHorizonChecks:
    @pytest.mark.parametrize("seed, offset", [
        (2**63, 0), (2**64 - 2, 0), (-2**63 - 1, 0), (3, 2**63), (3, -2**63 - 1)])
    def test_streams_a_key_cannot_hold(self, seed, offset):
        with pytest.raises(InvalidParameter):
            simulate_paths(jump_triplet(), 3, 2, seed, stream_offset=offset)

    @pytest.mark.parametrize("seed, offset", [(-2**63, 2**63 - 1), (2**63 - 1, -2**63)])
    def test_extreme_streams_match_reference(self, seed, offset):
        trip = LevyTriplet.homogeneous(2, 1.0, cov=0.2 * np.eye(2),
                                       jumps=GaussianJumps(20.0, jump_cov()))
        new = simulate_paths(trip, 3, 2, seed, stream_offset=offset)
        assert_same_segments(new, reference_paths(trip, 3, 2, seed, stream_offset=offset))

    def test_kernel_needs_triplets_of_one_dim(self, forks):
        # before any fork: a matmul of the two sides' means would raise
        # numpy's ValueError
        with pytest.raises(DimMismatch):
            estimate_kernel(LevyTriplet.brownian(1, 1.0), LevyTriplet.brownian(2, 1.0),
                            1.0, 3, 50, 2, seed=1)
        assert forks == []

    def test_kernel_needs_two_paths(self):
        trip = LevyTriplet.brownian(1, 1.0)
        with pytest.raises(InvalidParameter):
            estimate_kernel(trip, trip, 1.0, 2, 1, 4, seed=1)

    @pytest.mark.parametrize("n_paths", [1, 0])
    def test_expected_signature_needs_two_paths(self, n_paths):
        # one path used to report a standard error of exactly 0
        with pytest.raises(InvalidParameter):
            estimate_expected_signature(LevyTriplet.brownian(1, 1.0), 1.0, 2,
                                        n_paths, 4, seed=1)

    @pytest.mark.parametrize("horizon", [float("nan"), -0.5, float("inf"), 1.5])
    def test_horizon_outside_the_grid(self, horizon):
        with pytest.raises(OutOfRange):
            simulate_paths(jump_triplet(), 4, 2, seed=1, horizon=horizon)

    def test_negative_time_estimate(self):
        with pytest.raises(OutOfRange):
            estimate_expected_signature(jump_triplet(), -0.5, 2, 10, 2, seed=1)

    def test_zero_horizon_has_no_segments(self):
        assert simulate_paths(jump_triplet(), 4, 2, seed=1, horizon=0.0).segments == []

    # each entry point's output arrays for sizes (n_paths, steps, seed) and,
    # for the estimators, a depth
    SIZED = {
        "simulate_paths": lambda *sizes: [
            lev for seg in simulate_paths(jump_triplet(), *sizes).segments
            for lev in seg if lev is not None],
        "estimate_expected_signature": lambda *sizes, depth=2: estimate_expected_signature(
            jump_triplet(), 1.0, depth, *sizes).mean.levels,
        "estimate_kernel": lambda *sizes, depth=2: [np.array(estimate_kernel(
            jump_triplet(), jump_triplet(), 1.0, depth, *sizes))],
    }

    # sizes, then a depth (which simulate_paths does not take)
    BAD_SIZES = {
        "float_paths": (10.0, 2, 1), "numpy_float_paths": (np.float64(10), 2, 1),
        "float_steps": (10, 2.5, 1), "bool_steps": (10, True, 1), "float_seed": (10, 2, 1.0),
        "none_paths": (None, 2, 1), "str_paths": ("5", 2, 1),
        "float_depth": (10, 2, 1, 2.5), "negative_depth": (10, 2, 1, -1),
        "bool_depth": (10, 2, 1, True),
    }

    @pytest.mark.parametrize("entry, sizes", [
        pytest.param(entry, sizes, id=f"{entry}-{name}")
        for (name, sizes), entry in itertools.product(BAD_SIZES.items(), sorted(SIZED))
        if len(sizes) == 3 or entry != "simulate_paths"])
    def test_sizes_must_be_integers(self, monkeypatch, forks, entry, sizes):
        # a float, None or a string used to end in a raw TypeError, a bool
        # passed as 1, and a negative depth gave a depth-0 estimate; the
        # kernel estimator checks before it forks
        monkeypatch.setattr(_forks, "cpu_count", lambda: 2)
        depth = {"depth": sizes[3]} if len(sizes) == 4 else {}
        with pytest.raises(InvalidParameter, match="integers|nonnegative integer"):
            self.SIZED[entry](*sizes[:3], **depth)
        assert forks == []

    @pytest.mark.parametrize("entry", sorted(SIZED))
    def test_numpy_integer_sizes(self, entry):
        got = self.SIZED[entry](np.int64(10), np.int32(2), np.uint8(1))
        want = self.SIZED[entry](10, 2, 1)
        assert [lev.tobytes() for lev in got] == [lev.tobytes() for lev in want]


def abs_paths(paths):
    return SimulatedPaths(paths.dim, paths.n_paths,
                          [(np.abs(l1), None if l2 is None else np.abs(l2))
                           for l1, l2 in paths.segments])


def path_roundings(paths, depth):
    """Roundings along one term of a batched signature: K = 5 depth + 2 N.

    A term of output level n takes m_i letters from segment i, sum m_i = n.
    Through one segment it carries at most 5 m_i + 2 roundings, whichever
    scheme computes that segment:
    - fused step ``mul_exp``, from L <= 2 live levels (1 and 2): at most
      L + m_i (L + 2) <= 4 m_i + 2 (``general_mul_exp_bound`` in conftest);
    - exponential and product (every segment of the dense reference): each
      of the at most m_i Horner factors of the exponential costs a scaling
      by 1/k (two roundings with ``x * (1/k)``, one with ``x / k``), a
      product and the addition of the level-1 and level-2 terms (4 m_i);
      the product with the signature adds one multiplication, and summing
      its terms into zeros in increasing order puts the term through at
      most m_i + 1 additions (5 m_i + 2).
    Summed over N segments: at most 5 n + 2 N <= 5 depth + 2 N.
    """
    return 5 * depth + 2 * len(paths.segments)


def signature_bound(paths, depth):
    """Per coefficient, ``gamma_K`` times the signature of the absolute
    increments: each computed signature lies this close to the exact one
    (K from ``path_roundings``).  The majorant is itself a floating-point
    value on nonnegative data, low by at most a factor 1 - gamma_K, which is
    divided out."""
    g = gamma(path_roundings(paths, depth))
    return [g / (1 - g) * lvl for lvl in dense_batch_signatures(abs_paths(paths), depth)]


def kernel_estimate_bounds(trip, depth, n_paths, steps, seed):
    """Bounds on the difference of two evaluations of ``estimate_kernel`` whose
    signatures each satisfy ``signature_bound``; returns (value, se) bounds.

    Value ``V = sum_n <mean_a^n, mean_b^n>``: a term carries the roundings
    of its two signature terms (K_a + K_b), of the two means (P - 1
    additions and one division each, P paths), of its product (1) and of the
    sums over words and levels (at most d**depth - 1 + depth), so
    ``K_V = K_a + K_b + 2 P + d**depth + depth``; both evaluations lie within
    gamma_{K_V} of the exact V, measured on absolute values.

    Standard error ``se = sqrt((var proj_a + var proj_b) / P)`` with
    ``proj_a[p] = sum_n <sig_a[p]^n, mean_b^n>``:
    - each proj lies within gamma_{K_p} of the exact one, with
      ``K_p = K_a + K_b + P + d**depth + depth``; as se is a norm of the
      centred projections over sqrt(P (P - 1)), the exact se of the two
      evaluations' projections differ by at most the norm of their
      difference over that factor;
    - given its projections, each evaluation rounds the centred squares,
      their sum, the scalings, the sum of the two variances and the square
      root (gamma_{P+6} relative), and centres on a mean that is off by at
      most gamma_P times the mean absolute projection, which raises se by
      at most that shift over sqrt(P - 1) per side.
    """
    pa = simulate_paths(trip, n_paths, steps, seed, horizon=1.0)
    pb = simulate_paths(trip, n_paths, steps, seed, horizon=1.0, stream_offset=1)
    ka, kb = path_roundings(pa, depth), path_roundings(pb, depth)
    big = trip.dim**depth + depth
    abs_a = dense_batch_signatures(abs_paths(pa), depth)
    abs_b = dense_batch_signatures(abs_paths(pb), depth)
    ma = [lvl.mean(axis=0) for lvl in abs_a]
    mb = [lvl.mean(axis=0) for lvl in abs_b]
    gv = gamma(ka + kb + 2 * n_paths + big)
    value_tol = 2 * gv / (1 - gv) * sum(a @ b for a, b in zip(ma, mb))

    gp = gamma(ka + kb + n_paths + big)
    proj_abs = [sum(lvl @ m for lvl, m in zip(sig, means)) / (1 - gp)
                for sig, means in ((abs_a, mb), (abs_b, ma))]
    spread = math.sqrt(sum(float(((2 * gp * pr) ** 2).sum()) for pr in proj_abs)
                       / (n_paths * (n_paths - 1)))
    shift = math.sqrt(sum((gamma(n_paths) * (1 + gp) * float(pr.mean())) ** 2
                          for pr in proj_abs) / (n_paths - 1))
    _, se = estimate_kernel(trip, trip, 1.0, depth, n_paths, steps, seed)
    gs = gamma(n_paths + 6)
    se_tol = spread + 2 * shift + 2 * gs / (1 - gs) * (se + spread + shift)
    return value_tol, se_tol


class TestBatchedSignatures:
    @pytest.mark.parametrize("depth", [1, 2, 3, 4])
    def test_rows_match_single_path_signatures(self, depth):
        paths = simulate_paths(jump_triplet(), 25, 2, seed=4)
        sig = batch_signatures(paths, depth)
        for p in range(paths.n_paths):
            single = path_signature(paths.increments_of(p), depth)
            for lvl, ref in zip(sig, single.levels):
                assert lvl[p].tobytes() == ref.tobytes()

    @pytest.mark.parametrize("depth", [1, 2, 3, 4])
    def test_matches_dense_batched_reference(self, depth):
        paths = simulate_paths(jump_triplet(), 40, 3, seed=8)
        sig = batch_signatures(paths, depth)
        ref = dense_batch_signatures(paths, depth)
        tol = signature_bound(paths, depth)
        assert len(sig) == len(ref) == depth + 1
        for lvl, r, t in zip(sig, ref, tol):
            assert lvl.shape == r.shape
            assert np.all(np.abs(lvl - r) <= 2 * t)

    @pytest.mark.parametrize("depth,value,se", [
        (2, "0x1.33050579997efp+0", "0x1.277873b39af10p-6"),
        (4, "0x1.362f24650a275p+0", "0x1.49390fb6c5ac4p-6")])
    def test_estimate_kernel_unchanged(self, depth, value, se):
        # value and se are frozen from ``reference_paths`` (keys [5, 0] and
        # [5, 1]) and ``dense_batch_signatures``, se as the sample variances
        # of the projections ``<S_a,p, m_b>`` and ``<S_b,p, m_a>``.  Today's
        # bits (frozen below) come from the fused step, which reassociates
        # sums, and from each side's moments: se from ``m_b^T G_a m_b +
        # m_a^T G_b m_a``, G the centred rows' Gram matrix (here, as 300
        # paths exceed the 7 and 31 coordinates; the eigenpairs it replaced
        # gave the same bits).  They lie within the rounding bound of
        # kernel_estimate_bounds, derived for the projections, from them
        trip = jump_triplet()
        got = estimate_kernel(trip, trip, 1.0, depth, 300, 3, seed=5)
        fused_bits = {2: ("0x1.33050579997efp+0", "0x1.277873b39af10p-6"),
                      4: ("0x1.362f24650a274p+0", "0x1.49390fb6c5ac4p-6")}
        assert got == tuple(float.fromhex(h) for h in fused_bits[depth])
        value_tol, se_tol = kernel_estimate_bounds(trip, depth, 300, 3, seed=5)
        assert abs(got[0] - float.fromhex(value)) <= value_tol
        assert abs(got[1] - float.fromhex(se)) <= se_tol

    @pytest.mark.parametrize("forked", [True, False], ids=["forked", "in_process"])
    def test_estimate_kernel_sides_draw_from_different_keys(self, monkeypatch, tmp_path,
                                                             forked):
        # the two sides of one kernel estimate must be independent: each
        # reads its own Philox key, and the two keys give other paths.  The
        # keys are recorded where the interval generator opens the stream,
        # in a file, so that a forked side's key is seen too
        log, real = tmp_path / "keys", mc_oracle._interval_segments

        def record(triplet, n_paths, steps, seed, horizon=None, stream_offset=0):
            with open(log, "a") as fh:
                fh.write(f"{seed} {stream_offset}\n")
            return real(triplet, n_paths, steps, seed, horizon, stream_offset)

        monkeypatch.setattr(_forks, "cpu_count", lambda: 2)
        if not forked:
            monkeypatch.delattr(os, "fork")
        monkeypatch.setattr(mc_oracle, "_interval_segments", record)
        trip = jump_triplet()
        estimate_kernel(trip, trip, 1.0, 2, 50, 3, seed=5)
        keys = [tuple(map(int, line.split())) for line in log.read_text().splitlines()]
        assert len(keys) == 2 and keys[0] != keys[1]
        monkeypatch.undo()
        sides = [simulate_paths(trip, 50, 3, seed, horizon=1.0, stream_offset=offset)
                 for seed, offset in keys]
        assert not np.array_equal(sides[0].segments[0][0], sides[1].segments[0][0])


def all_rows_signatures(paths, depth):
    """Reference: every segment updates every row, live or not."""
    d, n_paths = paths.dim, paths.n_paths
    sig = TT(d, [np.ones((n_paths, 1))] + [np.zeros((n_paths, d**n))
                                           for n in range(1, depth + 1)])
    for lvl1, lvl2 in paths.segments:
        x = [np.zeros(1), lvl1] + ([] if lvl2 is None else [lvl2])
        sig = ta.mul_exp(sig, TT(d, x))
    return sig.levels


class TestLiveRows:
    def test_zero_triplet_skips_every_segment(self):
        paths = simulate_paths(LevyTriplet.homogeneous(2, 1.0), 5, 4, seed=1)
        sig = batch_signatures(paths, 3)
        unit = path_signature(paths.increments_of(0), 3)
        assert [lvl.shape for lvl in sig] == [(5, 2**n) for n in range(4)]
        for lvl, ref in zip(sig, unit.levels):
            assert lvl.flags.c_contiguous
            assert np.array_equal(lvl, np.broadcast_to(ref, lvl.shape))
        assert unit.levels[0][0] == 1.0 and not any(lev.any() for lev in unit.levels[1:])

    @pytest.mark.parametrize("with_level2", [False, True])
    def test_segment_without_live_rows_is_skipped(self, with_level2):
        paths = simulate_paths(jump_triplet(), 30, 2, seed=3)
        n, d = paths.n_paths, paths.dim
        dead = (np.zeros((n, d)), np.zeros((n, d * d)) if with_level2 else None)
        padded = SimulatedPaths(d, n, paths.segments[:3] + [dead] + paths.segments[3:])
        for lvl, ref in zip(batch_signatures(padded, 4), batch_signatures(paths, 4)):
            assert lvl.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("depth", [2, 4])
    def test_partly_live_segments_match_updating_all_rows(self, depth):
        paths = simulate_paths(jump_triplet(), 40, 3, seed=8)
        # an area-only segment: live rows whose level 1 is zero
        area = np.zeros((paths.n_paths, 4))
        area[::2] = [0.0, 0.3, -0.3, 0.0]
        paths.segments.insert(2, (np.zeros((paths.n_paths, 2)), area))
        live = [int((l1.any(axis=1) | (l2 is not None and l2.any(axis=1))).sum())
                for l1, l2 in paths.segments]
        partly = [0 < k < paths.n_paths for k in live]
        assert any(p and l2 is None for p, (_, l2) in zip(partly, paths.segments))
        assert any(p and l2 is not None for p, (_, l2) in zip(partly, paths.segments))
        for lvl, ref in zip(batch_signatures(paths, depth),
                            all_rows_signatures(paths, depth)):
            assert lvl.tobytes() == np.ascontiguousarray(ref).tobytes()


def reference_batch_signatures(paths, depth):
    """Reference: ``_batch_signatures`` before it held the signature
    batch-last in reused buffers.  It gathers and scatters rows, finds live
    rows by ``any(axis=1)`` and steps by ``reference_mul_exp``."""
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
        x = [np.zeros(1), lvl1[rows]] + ([] if lvl2 is None else [lvl2[rows]])
        new = reference_mul_exp(TT(d, [lev[rows] for lev in sig]), TT(d, x))
        if every:
            sig = new.levels
        else:
            for lev, upd in zip(sig, new.levels):
                lev[rows] = upd
    return [np.ascontiguousarray(lev) for lev in sig]


def mixed_segments(rng, n, d):
    """Hand-made segments of every kind ``_batch_signatures`` tells apart."""
    def rows_of(lead, which, scale=0.4):
        out = np.zeros((n, lead))
        out[which] = rng.normal(size=(len(which), lead)) * scale
        return out

    full = rng.normal(size=(n, d)) * 0.4
    full[10] = [1e200, 0.5]                 # row 10's signature overflows to inf
    nan_rows = rows_of(d, [0, 3, 7])
    nan_rows[5] = [np.nan, 0.0]             # live through a NaN alone
    nan_rows[9] = [0.0, np.nan]
    signed = rows_of(d, [0, 3])
    signed[[1, 2]] = -0.0                   # rows of -0.0 are not live
    signed[4] = [-0.0, 0.2]
    # a zero level is skipped, not multiplied: inf * 0 would give NaN
    level2_zero_on_live = (rows_of(d, [1, 6, 10]), np.zeros((n, d * d)))
    level2_zero_on_live[1][2] = -0.0
    return [
        (full, None),
        (rows_of(d, [1, 4, 7]), None),                              # partly live
        (np.zeros((n, d)), None),                                   # no live row
        (np.zeros((n, d)), np.zeros((n, d * d))),                   # none, with level 2
        (full * 0.5, rng.normal(size=(n, d * d)) * 0.2),            # level 2 on every row
        (rows_of(d, [0, 2]), rows_of(d * d, [2, 5, 8], 0.2)),       # live through level 2 alone
        (np.zeros((n, d)), rows_of(d * d, [3, 9], 0.2)),            # level 2 alone
        (signed, None),
        level2_zero_on_live,
        (rows_of(d, [6]), None),                                    # one live row
        (rows_of(d, [k for k in range(n) if k != 8]), None),        # all rows but one
        (nan_rows, None),
        (rng.normal(size=(n, d)) * 0.4, None),
    ]


class TestReferenceBatchSignatures:
    """``_batch_signatures`` bitwise against the row-major reference it
    replaced, on simulated paths with hand-made segments mixed in."""

    def paths(self):
        rng = np.random.default_rng(7)
        sim = simulate_paths(jump_triplet(), 11, 2, seed=8)
        mixed = mixed_segments(rng, sim.n_paths, sim.dim)
        segments = sim.segments[:4] + mixed[:7] + sim.segments[4:9] + mixed[7:] \
            + sim.segments[9:]
        return SimulatedPaths(sim.dim, sim.n_paths, segments)

    @pytest.mark.parametrize("depth", [0, 1, 2, 3, 4, 5])
    def test_bitwise_equal_to_reference(self, depth):
        paths = self.paths()
        with np.errstate(over="ignore", invalid="ignore"):
            got = batch_signatures(paths, depth)
            want = reference_batch_signatures(paths, depth)
        assert len(got) == len(want) == depth + 1
        for lvl, ref in zip(got, want):
            assert lvl.shape == ref.shape and lvl.flags.c_contiguous
            assert lvl.tobytes() == ref.tobytes()
        if depth:
            nan_rows = np.isnan(got[-1]).any(axis=1)
            assert nan_rows[[5, 9]].all() and not nan_rows[[0, 1, 2, 3, 4, 6, 7, 8]].any()
        if depth >= 4:
            assert np.isinf(got[-1][10]).any()

    @pytest.mark.parametrize("depth", [2, 4])
    def test_simulated_paths_bitwise_equal_to_reference(self, depth):
        paths = simulate_paths(jump_triplet(), 300, 3, seed=5)
        for lvl, ref in zip(batch_signatures(paths, depth),
                            reference_batch_signatures(paths, depth)):
            assert lvl.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("partly", [True, False], ids=["partly", "full"])
    def test_zero_level_is_skipped(self, partly):
        # a level that is zero on every live row is skipped, as mul_exp
        # skips it: multiplied, it would turn row 0's inf into NaN
        first = np.array([[1e200, 0.5], [0.3, -0.2], [0.1, 0.4]])
        second = np.array([[0.3, 0.2], [0.0, 0.0] if partly else [0.2, 0.1], [-0.1, 0.4]])
        paths = SimulatedPaths(2, 3, [(first, None), (second, np.zeros((3, 4)))])
        with np.errstate(over="ignore", invalid="ignore"):
            got = batch_signatures(paths, 4)
            want = reference_batch_signatures(paths, 4)
        for lvl, ref in zip(got, want):
            assert lvl.tobytes() == ref.tobytes()
        assert np.isinf(got[4][0]).any() and not np.isnan(got[4]).any()

    def test_segments_unchanged_and_calls_repeat(self):
        paths = self.paths()
        before = [tuple(None if lev is None else lev.copy() for lev in seg)
                  for seg in paths.segments]
        with np.errstate(over="ignore", invalid="ignore"):
            first = batch_signatures(paths, 4)
            second = batch_signatures(paths, 4)
        for a, b in zip(first, second):
            assert a.tobytes() == b.tobytes()
        assert len(paths.segments) == len(before)
        for seg, old in zip(paths.segments, before):
            for lev, ref in zip(seg, old):
                assert (lev is None) == (ref is None)
                assert lev is None or lev.tobytes() == ref.tobytes()


class TestEdgeRows:
    """``_batch_signatures`` on rows of inf, NaN and -0.0, on levels live in
    a few rows and on overflows is bitwise equal to the reference, and an
    error under ``np.errstate`` reaches the caller."""

    N = 13

    def paths(self):
        rng = np.random.default_rng(11)
        n, d = self.N, 2
        sim = simulate_paths(jump_triplet(), n, 2, seed=4)
        mixed = mixed_segments(rng, n, d)     # inf row 10; NaN rows 5, 9; -0.0 rows 1, 2, 4
        overflow = rng.normal(size=(n, d)) * 0.4
        overflow[2] = [1e200, 0.5]            # an inf row
        signed = np.zeros((n, d))
        signed[[3, 8]] = [0.3, -0.2]
        signed[[7, 11]] = -0.0                # rows of -0.0
        signed[12] = [-0.0, 0.1]
        first_rows = np.zeros((n, d))         # rows 0-5 only
        first_rows[:6] = rng.normal(size=(6, d)) * 0.4
        segments = (sim.segments[:3] + [(overflow, None)] + mixed[:7] + sim.segments[3:8]
                    + [(signed, None), (first_rows, None)] + mixed[7:] + sim.segments[8:])
        return SimulatedPaths(d, n, segments)

    @pytest.mark.parametrize("depth", [0, 1, 2, 3, 4])
    def test_bitwise_equal_to_reference(self, depth):
        paths = self.paths()
        with np.errstate(over="ignore", invalid="ignore"):
            got = batch_signatures(paths, depth)
            want = reference_batch_signatures(paths, depth)
        assert len(got) == depth + 1
        for lvl, ref in zip(got, want):
            assert lvl.shape == ref.shape and lvl.flags.c_contiguous
            assert lvl.tobytes() == ref.tobytes()
        if depth >= 4:
            top = got[-1]
            assert np.isinf(top[[2, 10]]).any(axis=1).all()
            assert np.isnan(top[[5, 9]]).any(axis=1).all()

    def test_level_skip_is_decided_on_all_rows(self):
        # level 2 of the second segment is live in row 2 alone; row 0, live
        # by its level 1, multiplies it too, so its inf times 0 gives NaN
        first = np.array([[1e200, 0.5], [0.3, -0.2], [0.1, 0.4], [0.2, 0.1]])
        second = (np.array([[0.1, 0.2], [0.0, 0.0], [-0.3, 0.1], [0.0, 0.0]]),
                  np.array([[0.0] * 4, [0.0] * 4, [0.0, 0.1, -0.1, 0.0], [0.0] * 4]))
        paths = SimulatedPaths(2, 4, [(first, None), second])
        with np.errstate(over="ignore", invalid="ignore"):
            got = batch_signatures(paths, 4)
            want = reference_batch_signatures(paths, 4)
        for lvl, ref in zip(got, want):
            assert lvl.tobytes() == ref.tobytes()
        assert np.isnan(got[4][0]).any() and np.isfinite(got[4][1:]).all()

    def test_overflow_reaches_the_caller(self):
        # only row 2 overflows
        first = np.array([[0.1, 0.2], [0.3, -0.1], [1e200, 0.5], [0.2, 0.2]])
        paths = SimulatedPaths(2, 4, [(first, None), (first * 0.5, None)])
        with np.errstate(over="raise"), pytest.raises(FloatingPointError):
            batch_signatures(paths, 4)

    def test_peak_memory_holds_two_signature_sets(self):
        # the signature and its spare set, a gathered copy of a partly live
        # segment's columns (at most 44 % of the paths here) and one product
        # temporary: 3.1 sets.  Outputs allocated before the spare set is
        # dropped would add a third set
        n_paths, depth = 4000, 4
        paths = simulate_paths(jump_triplet(), n_paths, 2, seed=6)
        one_set = 8 * n_paths * sum(2**n for n in range(depth + 1))
        tracemalloc.start()
        try:
            batch_signatures(paths, depth)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3.5 * one_set, peak / one_set


def streamed_signatures(trip, n_paths, steps, seed, depth):
    """``_batch_signatures`` fed by the interval generator, as the estimators
    feed it."""
    intervals = mc_oracle._interval_segments(trip, n_paths, steps, seed)
    return _batch_signatures(trip.dim, n_paths, intervals, depth)


def zero_atom_triplet():
    """``jump_triplet`` whose atomic interval also jumps, most often, to an
    atom whose levels are all zero."""
    trip = jump_triplet()
    zero = TT.from_levels(2, [np.zeros(1), np.zeros(2), np.zeros(4)])
    atomic = trip.jumps[1]
    jumps = [trip.jumps[0], AtomicJumps(np.append(atomic.weights, 12.0),
                                        atomic.atoms + (zero,)), None]
    return LevyTriplet(dim=2, time_grid=trip.time_grid, drifts=trip.drifts,
                       covs=trip.covs, areas=trip.areas, jumps=jumps, state_depth=2)


def sparse_form(segment, pick):
    """A dense segment as a sparse one on the rows ``pick`` selects and the
    rows with a nonzero entry (NaN included)."""
    rows = np.flatnonzero(pick | np.any([lev.any(axis=1) for lev in segment
                                         if lev is not None], axis=0))
    return (rows, *(None if lev is None else lev[rows] for lev in segment))


class TestStreamedSignatures:
    """Signatures fed one interval at a time, with sparse jump segments,
    bitwise equal to the reference on ``simulate_paths``'s dense segments."""

    @pytest.mark.parametrize("depth", [1, 2, 3, 4])
    def test_bitwise_equal_to_reference(self, depth):
        trip = jump_triplet()
        dense = simulate_paths(trip, 301, 3, seed=5)
        # level-2 atoms and area segments, and sparse jump segments
        assert any(l2 is not None and l2.any() for _, l2 in dense.segments[3:])
        got = streamed_signatures(trip, 301, 3, 5, depth)
        want = reference_batch_signatures(dense, depth)
        for lvl, ref in zip(got, want):
            assert lvl.flags.c_contiguous and lvl.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("depth", [2, 4])
    def test_zero_atom_is_skipped(self, monkeypatch, depth):
        # a drawn jump to the zero atom updates no row, and a segment of
        # such jumps alone takes no step
        trip = zero_atom_triplet()
        dense = simulate_paths(trip, 200, 2, seed=3)
        live = [int((l1.any(axis=1) | (l2 is not None and l2.any(axis=1))).sum())
                for l1, l2 in dense.segments]
        assert 0 in live and any(0 < k < 200 for k in live)
        widths, real = [], ta._mul_exp_into

        def record(s_cols, x_cols, q):
            widths.append(q[0].shape[1])
            return real(s_cols, x_cols, q)

        monkeypatch.setattr(ta, "_mul_exp_into", record)
        got = streamed_signatures(trip, 200, 2, 3, depth)
        assert sum(widths) == sum(live)
        for lvl, ref in zip(got, reference_batch_signatures(dense, depth)):
            assert lvl.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("depth", [1, 4])
    def test_hand_made_sparse_segments(self, monkeypatch, depth):
        # the mixed segments as sparse ones that also hold zero rows, rows
        # of -0.0 and NaN rows: a sparse segment updates the rows that its
        # dense form would, and no other
        paths = TestEdgeRows().paths()
        pick = np.arange(paths.n_paths) % 3 == 0
        segments = [(None, *seg) if k % 4 == 0 else sparse_form(seg, pick)
                    for k, seg in enumerate(paths.segments)]
        assert sum(rows is not None and len(rows) < paths.n_paths
                   for rows, *_ in segments) > 10
        live = sum(int((l1.any(axis=1) | (l2 is not None and l2.any(axis=1))).sum())
                   for l1, l2 in paths.segments)
        widths, real = [], ta._mul_exp_into

        def record(s_cols, x_cols, q):
            widths.append(q[0].shape[1])
            return real(s_cols, x_cols, q)

        intervals = iter([segments[:9], [], segments[9:]])
        with np.errstate(over="ignore", invalid="ignore"):
            monkeypatch.setattr(ta, "_mul_exp_into", record)
            got = _batch_signatures(paths.dim, paths.n_paths, intervals, depth)
            monkeypatch.undo()
            want = reference_batch_signatures(paths, depth)
        assert sum(widths) == live
        for lvl, ref in zip(got, want):
            assert lvl.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("normals", [30, 4], ids=["paths_per_draw", "steps_past_draw"])
    def test_draws_across_calls_match_reference(self, monkeypatch, normals):
        # in d = 2, 30 normals hold five paths of 3 sub-steps, so 61 paths
        # take 13 draws; 4 normals hold less than one path (three are drawn)
        monkeypatch.setattr(mc_oracle, "_DRAW_NORMALS", normals)
        trip = jump_triplet()
        for n_paths, seed, horizon in [(61, 11, None), (61, 3, 0.85), (1, 4, None)]:
            assert_same_segments(simulate_paths(trip, n_paths, 3, seed, horizon=horizon),
                                 reference_paths(trip, n_paths, 3, seed, horizon=horizon))

    def test_draws_at_one_sub_step_leave_no_path_alone(self, monkeypatch):
        # at one sub-step a lone path's product has one row, which takes
        # another BLAS routine (so does the reference's product per path),
        # and rounds otherwise in some rows: 4 and 61 paths, three per
        # draw, must round as one draw of all of them
        trip = jump_triplet()
        cases = [(n_paths, seed) for n_paths in (4, 61) for seed in range(12)]
        whole = [simulate_paths(trip, n_paths, 1, seed) for n_paths, seed in cases]
        monkeypatch.setattr(mc_oracle, "_DRAW_NORMALS", 4)
        for (n_paths, seed), ref in zip(cases, whole):
            assert_same_segments(simulate_paths(trip, n_paths, 1, seed), ref)

    def test_stream_error_reaches_the_caller(self):
        # the stream raises while its second interval is drawn
        before = threading.active_count()

        def intervals():
            yield [(None, np.full((12, 2), 0.1), None)]
            raise OutOfRange("stream ends")

        with pytest.raises(OutOfRange):
            _batch_signatures(2, 12, intervals(), 3)
        assert threading.active_count() == before

    def test_overflow_in_a_later_interval_reaches_the_caller(self):
        # row 10 overflows in the second of three intervals
        before = threading.active_count()
        first = np.full((12, 2), 0.1)
        second = first.copy()
        second[10] = [1e200, 0.5]
        intervals = iter([[(None, first, None)], [(None, second, None)],
                          [(None, first, None)]])
        with np.errstate(over="raise"), pytest.raises(FloatingPointError):
            _batch_signatures(2, 12, intervals, 4)
        assert threading.active_count() == before


class TestStreamedMemory:
    """``estimate_kernel`` holds one interval's increments at a time, and
    one side's signatures: each side ends in its moments, a few KiB, before
    the next begins.  The in-process path (no ``os.fork``) runs both sides,
    one after the other; with side b in a forked child, the parent holds
    side a alone."""

    N, STEPS, DEPTH = 6000, 8, 4

    def triplet(self, intervals):
        # equal spans, so that every interval draws alike
        k = intervals
        return LevyTriplet(dim=2, time_grid=0.125 * np.arange(k + 1),
                           drifts=[np.array([0.1, -0.2])] * k,
                           covs=[np.array([[0.4, 0.1], [0.1, 0.2]])] * k,
                           jumps=[GaussianJumps(6.0, jump_cov())] * k)

    def peak(self, intervals):
        trip = self.triplet(intervals)
        horizon = float(trip.time_grid[-1])
        # a first call makes the imports it needs outside the traced span
        estimate_kernel(trip, trip, horizon, self.DEPTH, 8, self.STEPS, seed=3)
        tracemalloc.start()
        try:
            estimate_kernel(trip, trip, horizon, self.DEPTH, self.N, self.STEPS, seed=3)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def sizes(self):
        one_set = 8 * self.N * sum(2**n for n in range(self.DEPTH + 1))
        interval = 8 * self.STEPS * self.N * 2
        return one_set, interval

    @pytest.fixture
    def in_process(self, monkeypatch):
        monkeypatch.delattr(os, "fork")   # both sides in this process

    def test_peak_does_not_grow_with_intervals(self, in_process):
        _, interval = self.sizes()
        two, eight = self.peak(2), self.peak(8)
        assert eight <= two + interval, (two / interval, eight / interval)

    def test_peak_holds_signature_sets_and_one_interval(self, in_process):
        # side b's signature and spare sets, one interval's increments and
        # the two draw scratch buffers, which peak while an interval is
        # drawn: 2 sets + 1.68 intervals here, where the scratch is 0.67 of
        # an interval.  Side a's rows kept through side b would add a set,
        # and a leaked interval one more interval; a fifth of a set (0.39
        # of an interval) is left for the gathered columns and product
        # temporaries
        one_set, interval = self.sizes()
        scratch = 2 * 8 * mc_oracle._DRAW_NORMALS
        peak = self.peak(2)
        assert peak <= 2.2 * one_set + interval + scratch, (peak - 2 * one_set) / interval

    def test_forked_parent_holds_one_side(self, monkeypatch, forks):
        # side a's signature and spare sets, or its signatures and their
        # row-major copy, with one interval and the draw scratch: side b's
        # sets and intervals live in the child, which sends its moments
        # alone.  A fifth of a set is left for the gathered columns and
        # product temporaries
        monkeypatch.setattr(_forks, "cpu_count", lambda: 2)
        one_set, interval = self.sizes()
        scratch = 2 * 8 * mc_oracle._DRAW_NORMALS
        peak = self.peak(2)
        assert len(forks) == 2   # the first call and the traced one
        assert peak <= 2.2 * one_set + interval + scratch, (peak - 2 * one_set) / interval


def test_estimators_start_no_thread(monkeypatch, forks):
    # side b's fork is the estimators' only parallelism: at 12 000 paths
    # on four CPUs neither estimator starts a Python thread, forked or not
    trip = jump_triplet()

    def expected_signature():
        return estimate_expected_signature(trip, 1.0, 3, 12_000, 2, seed=7).mean.levels

    def kernel():
        return [np.array(estimate_kernel(trip, trip, 1.0, 3, 12_000, 2, seed=7))]

    def start(thread):
        raise AssertionError(f"a thread was started: {thread!r}")

    def bits(levels):
        return [lev.tobytes() for lev in levels]

    def patched(run):
        with monkeypatch.context() as m:
            m.setattr(threading.Thread, "start", start)
            m.setattr(_forks, "cpu_count", lambda: 4)
            return run()

    assert bits(patched(expected_signature)) == bits(expected_signature())
    want = bits(kernel())
    forked = len(forks)
    assert bits(patched(kernel)) == want
    assert len(forks) == forked + 1
    monkeypatch.delattr(os, "fork")
    assert bits(kernel()) == want
    assert bits(patched(kernel)) == want


def no_jump_triplet():
    """``jump_triplet`` without its jumps: drift, covariance and an area."""
    trip = jump_triplet()
    return LevyTriplet(dim=2, time_grid=trip.time_grid, drifts=trip.drifts,
                       covs=trip.covs, areas=trip.areas, jumps=[None] * 3,
                       state_depth=2)


class TestForkedSide:
    """``estimate_kernel`` with side b in a forked child gives the bits of
    the in-process path, by every fallback, and leaves no child process and
    no open file descriptor behind."""

    @pytest.fixture(autouse=True)
    def two_cpus(self, monkeypatch):
        monkeypatch.setattr(_forks, "cpu_count", lambda: 2)

    @staticmethod
    def in_process(monkeypatch, *args, **kwargs):
        with monkeypatch.context() as m:
            m.delattr(os, "fork")
            return estimate_kernel(*args, **kwargs)

    def check(self, monkeypatch, *args, **kwargs):
        """The estimate of the current setup equals the in-process one, bit
        for bit, and no child or descriptor is left."""
        fds = open_fds()
        got = estimate_kernel(*args, **kwargs)
        assert open_fds() == fds
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        want = self.in_process(monkeypatch, *args, **kwargs)
        assert [x.hex() for x in got] == [x.hex() for x in want]

    @pytest.mark.parametrize("sides", [
        (jump_triplet, jump_triplet), (no_jump_triplet, no_jump_triplet),
        (jump_triplet, zero_atom_triplet), (no_jump_triplet, jump_triplet)],
        ids=["jumps", "no_jumps", "atoms_a_zero_atom_b", "mixed"])
    @pytest.mark.parametrize("depth, n_paths", [(1, 301), (2, 301), (4, 301), (4, 20)],
                             ids=["1", "2", "4", "4_rows"])
    def test_bitwise_equal_to_in_process(self, monkeypatch, forks, sides, depth, n_paths):
        # the atoms of jump_triplet carry level 2.  At 20 paths, fewer than
        # the 31 coordinates, each side sends its centred rows; else their
        # Gram matrix
        trip_a, trip_b = (side() for side in sides)
        self.check(monkeypatch, trip_a, trip_b, 1.0, depth, n_paths, 3, seed=5)
        assert len(forks) == 1

    def test_child_sends_its_moments(self, monkeypatch, forks):
        # side b's child sends its K means and min(n, K) rows of K (its
        # centred rows or their Gram matrix): at validate-jumps-d2's shape (d = 2, depth 4, 20 000 paths)
        # 31 + 961 floats, under a 64 KiB pipe buffer
        started, joined = [], []
        real_start, real_join = _forks.start, _forks.Child.join

        def start(run, sizes):
            started.append(list(sizes))
            return real_start(run, sizes)

        def join(child):
            got = real_join(child)
            joined.append(None if got is None else [a.size for a in got])
            return got
        monkeypatch.setattr(_forks, "start", start)
        monkeypatch.setattr(_forks.Child, "join", join)
        trip = jump_triplet()
        for depth, n_paths in [(4, 20_000), (4, 20), (1, 301)]:
            estimate_kernel(trip, trip, 1.0, depth, n_paths, 2, seed=2)
        assert started == joined == [[31, 31 * 31], [31, 20 * 31], [3, 3 * 3]]
        assert len(forks) == 3 and 8 * sum(started[0]) < 64 * 1024

    def test_fork_raising(self, monkeypatch):
        def fork():
            raise OSError(11, "Resource temporarily unavailable")
        monkeypatch.setattr(os, "fork", fork)
        self.check(monkeypatch, jump_triplet(), jump_triplet(), 1.0, 3, 101, 2, seed=2)

    @pytest.mark.parametrize("how", ["exit_1", "killed"])
    def test_child_failing_at_once(self, monkeypatch, how):
        real_fork = os.fork

        def fork():
            pid = real_fork()
            if pid == 0:
                if how == "killed":
                    os.kill(os.getpid(), signal.SIGKILL)
                os._exit(1)
            return pid
        monkeypatch.setattr(os, "fork", fork)
        self.check(monkeypatch, jump_triplet(), jump_triplet(), 1.0, 3, 101, 2, seed=2)

    @pytest.mark.parametrize("how", ["exit_1", "killed"])
    def test_child_failing_in_mid_send(self, monkeypatch, forks, how):
        # the child has sent its means, not its Gram matrix
        parent, real = os.getpid(), _forks.send

        def send(writer, arrays):
            if os.getpid() == parent:
                return real(writer, arrays)
            real(writer, arrays[:1])
            if how == "killed":
                os.kill(os.getpid(), signal.SIGKILL)
            raise RuntimeError("child fails in mid-send")
        monkeypatch.setattr(_forks, "send", send)
        self.check(monkeypatch, jump_triplet(), jump_triplet(), 1.0, 3, 101, 2, seed=2)
        assert len(forks) == 1

    def test_child_exiting_1_after_sending_everything(self, monkeypatch, forks):
        # a child that sent arrays of every size and then failed is not
        # trusted: the parent computes side b itself
        parent, real = os.getpid(), _forks.send

        def send(writer, arrays):
            if os.getpid() == parent:
                return real(writer, arrays)
            real(writer, [np.full_like(a, -1.0) for a in arrays])
            raise RuntimeError("child fails after its moments")
        monkeypatch.setattr(_forks, "send", send)
        self.check(monkeypatch, jump_triplet(), jump_triplet(), 1.0, 3, 101, 2, seed=2)
        assert len(forks) == 1

    def test_child_reaped_by_sigchld_ignore(self, monkeypatch, forks):
        # waitpid cannot see the child's status: the parent computes side b
        old = signal.signal(signal.SIGCHLD, signal.SIG_IGN)
        try:
            self.check(monkeypatch, jump_triplet(), jump_triplet(), 1.0, 3, 101, 2, seed=2)
        finally:
            signal.signal(signal.SIGCHLD, old)
        assert len(forks) == 1

    def test_no_fork_beside_another_python_thread(self, monkeypatch, forks):
        stop = threading.Event()
        other = threading.Thread(target=stop.wait)
        other.start()
        try:
            self.check(monkeypatch, jump_triplet(), jump_triplet(), 1.0, 3, 101, 2, seed=2)
        finally:
            stop.set()
            other.join()
        assert forks == []

    def test_one_cpu_forks_nothing(self, monkeypatch, forks):
        monkeypatch.setattr(_forks, "cpu_count", lambda: 1)
        self.check(monkeypatch, jump_triplet(), jump_triplet(), 1.0, 3, 101, 2, seed=2)
        assert forks == []

    @pytest.mark.parametrize("where", ["signatures", "join"])
    def test_parent_error_kills_and_reaps(self, monkeypatch, forks, where):
        # the parent raises in side a, or while it reads the child's
        # moments: the child is killed and reaped, and the pipe closed
        parent = os.getpid()
        if where == "signatures":
            real = mc_oracle._batch_signatures

            def fail(*args, **kwargs):
                if os.getpid() == parent:
                    raise KeyboardInterrupt
                return real(*args, **kwargs)
            monkeypatch.setattr(mc_oracle, "_batch_signatures", fail)
        else:
            def fail(reader, sizes):
                raise KeyboardInterrupt
            monkeypatch.setattr(_forks, "receive", fail)
        fds = open_fds()
        with pytest.raises(KeyboardInterrupt):
            estimate_kernel(jump_triplet(), jump_triplet(), 1.0, 3, 101, 2, seed=2)
        assert len(forks) == 1 and open_fds() == fds
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_child_error_reaches_the_caller_as_its_type(self, forks):
        # side b's horizon lies past its grid: the child fails, and the
        # parent, computing side b itself, raises the typed error
        fds = open_fds()
        with pytest.raises(OutOfRange):
            estimate_kernel(LevyTriplet.brownian(2, 2.0), jump_triplet(), 1.5, 3, 50, 2,
                            seed=1)
        assert len(forks) == 1 and open_fds() == fds
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_child_warning_is_shown_by_the_parent(self, monkeypatch, forks):
        # side b overflows: the child stops at numpy's first warning, and
        # the parent computes side b again and shows the warnings that the
        # in-process path shows
        args = (LevyTriplet.brownian(2, 1.0),
                LevyTriplet.homogeneous(2, 1.0, drift=np.array([1e120, 0.0])), 1.0, 4, 20, 2)
        runs = []
        for run in (estimate_kernel, functools.partial(self.in_process, monkeypatch)):
            with warnings.catch_warnings(record=True) as shown:
                warnings.simplefilter("always")
                got = run(*args, seed=1)
            runs.append((got, [(w.category, str(w.message)) for w in shown]))
        (got, shown), (want, want_shown) = runs
        assert len(forks) == 1 and not all(map(math.isfinite, got))
        assert [x.hex() for x in got] == [x.hex() for x in want]
        assert shown == want_shown and (RuntimeWarning, "overflow encountered in multiply") \
            in shown


ISOLATED_PREAMBLE = """
import os
from levy_sigkernel import _forks, mc_oracle
from levy_sigkernel.characteristics import LevyTriplet
_forks.cpu_count = lambda: 2
real_fork, forks = os.fork, []
def fork():
    forks.append(None)
    return real_fork()
os.fork = fork
def both(*args, **kwargs):
    got = mc_oracle.estimate_kernel(*args, **kwargs)
    del os.fork
    want = mc_oracle.estimate_kernel(*args, **kwargs)
    os.fork = fork
    print(len(forks), got == want)
"""


def run_isolated(code: str) -> str:
    """Runs ``code`` after ``ISOLATED_PREAMBLE`` in a new interpreter, with
    the package on its path and OpenBLAS left at its own thread count, under
    a timeout; returns its output."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(mc_oracle.__file__)))
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", ISOLATED_PREAMBLE + code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


class TestForkedSideIsolated:
    """Forked sides in a process of their own, where a hang would only run
    into the timeout."""

    def test_levels_larger_than_a_pipe_buffer(self):
        # d = 2, depth 14: 32 767 means (256 KiB, four times a 64 KiB pipe
        # buffer), then six paths' centred rows (1.5 MiB)
        out = run_isolated("trip = LevyTriplet.brownian(2, 1.0)\n"
                           "both(trip, trip, 1.0, 14, 6, 1, seed=3)\n")
        assert out.split() == ["1", "True"]

    def test_uncapped_openblas(self):
        # a large product first starts OpenBLAS's worker threads; child and
        # parent call BLAS in the draws and in the moments' Gram products
        # (20 000 paths exceed the 31 coordinates)
        out = run_isolated("import numpy as np\n"
                           "a = np.ones((400, 400)); a @ a\n"
                           "trip = LevyTriplet.brownian(2, 1.0, cov=np.array([[0.4, 0.1], "
                           "[0.1, 0.2]]))\n"
                           "both(trip, trip, 1.0, 4, 20000, 4, seed=3)\n")
        assert out.split() == ["1", "True"]


class TestPathSignature:
    def test_single_increment(self):
        # an increment that stores level 2 takes the same fused step, which
        # associates the products of the dense Horner scheme differently
        x = TT.from_levels(2, [np.zeros(1), [0.3, -0.4], [0.0, 0.2, -0.1, 0.05]])
        sig = path_signature([x], 3)
        ref = dense_exp_tensor(x.with_depth(3))
        for got, want, tol in zip(sig.levels, ref.levels,
                                  general_mul_exp_bound(TT.unit(2, 3), x)):
            assert np.all(np.abs(got - want) <= tol)

    def test_single_level1_increment(self):
        # the fused step and the dense Horner scheme associate the same
        # products differently: level n carries at most 3n roundings in either
        x = atom(2, [0.3, -0.4])
        sig = path_signature([x], 3)
        ref = dense_exp_tensor(x.with_depth(3))
        majorant = ta.exp_tensor(TT.from_levels(2, [np.zeros(1), np.abs(x.levels[1])])
                                 .with_depth(3))
        for n in range(4):
            tol = 2 * gamma(3 * n) / (1 - gamma(3 * n)) * majorant.levels[n]
            assert np.all(np.abs(sig.levels[n] - ref.levels[n]) <= tol)

    @pytest.mark.parametrize("vec", [[0.3], [0.0], [0.3, -0.4, 0.1]])
    def test_increment_dim_mismatch(self, vec):
        with pytest.raises(DimMismatch):
            path_signature([atom(2, [0.1, 0.2]), atom(len(vec), vec)], 3)

    def test_matches_develop_for_deterministic_path(self, rng):
        grid = np.array([0.0, 0.3, 1.0])
        tensors = [TT.from_levels(2, [np.zeros(1), rng.normal(size=2)])
                   for _ in range(2)]
        v = PiecewiseVelocity(2, grid, tensors)
        increments = [tensors[0] * 0.3, tensors[1] * 0.7]
        sig = path_signature(increments, 5)
        ref = develop(v, 0.0, 1.0, 5)
        assert ta.norm_p(sig - ref, "max") < 1e-12

    def test_scalar_splitting_exact(self, rng):
        # d = 1: scalar exponentials commute, splitting changes nothing
        x = atom(1, [0.8])
        whole = path_signature([x], 5)
        split = path_signature([x * 0.5, x * 0.5], 5)
        assert ta.norm_p(whole - split, "max") < 1e-14

    def test_level2_shuffle_identity_survives_jumps(self, rng):
        trip = LevyTriplet.homogeneous(
            2, 1.0, drift=[0.2, -0.1], cov=0.5 * np.eye(2),
            area=np.array([[0.0, 0.3], [-0.3, 0.0]]),
            jumps=AtomicJumps(np.array([2.0]), (atom(2, [0.4, 0.1]),)))
        paths = simulate_paths(trip, 20, 5, seed=6)
        for p in range(20):
            sig = path_signature(paths.increments_of(p), 3)
            s1 = sig.levels[1]
            s2 = sig.levels[2].reshape(2, 2)
            assert np.abs(np.outer(s1, s1) - (s2 + s2.T)).max() < 1e-12


class TestEstimators:
    def test_zero_triplet_estimate(self):
        trip = LevyTriplet.homogeneous(1, 1.0)
        est = estimate_expected_signature(trip, 1.0, 3, 50, 4, seed=5)
        assert est.mean.scalar() == 1.0
        for n in range(1, 4):
            assert np.all(est.mean.levels[n] == 0.0)
            assert np.all(est.se.levels[n] == 0.0)

    def test_bm_fawcett_small(self):
        bm = LevyTriplet.brownian(1, 1.0)
        est = estimate_expected_signature(bm, 1.0, 4, 20_000, 16, seed=8)
        target = [1.0, 0.0, 0.5, 0.0, 0.125]
        for n in range(1, 5):
            se = max(est.se.levels[n][0], 1e-12)
            assert abs(est.mean.levels[n][0] - target[n]) <= 3.5 * se

    def test_gaussian_cp_level2_consistency(self):
        trip = LevyTriplet.homogeneous(
            1, 1.0, jumps=GaussianJumps(1.0, np.array([[1.0]])))
        est = estimate_expected_signature(trip, 1.0, 4, 20_000, 4, seed=12)
        ref = expected_signature(trip, 1.0, 4)
        se = max(est.se.levels[2][0], 1e-12)
        assert abs(est.mean.levels[2][0] - ref.levels[2][0]) <= 3.5 * se

    def test_kernel_zero_triplets(self):
        trip = LevyTriplet.homogeneous(1, 1.0)
        val, se = estimate_kernel(trip, trip, 1.0, 3, 100, 2, seed=3)
        assert val == 1.0 and se == 0.0

    def test_kernel_bm_vs_bessel(self):
        bm = LevyTriplet.brownian(1, 1.0)
        val, se = estimate_kernel(bm, bm, 1.0, 6, 20_000, 8, seed=21)
        assert abs(val - bessel_i0(1.0)) <= 3.5 * se + 1e-3

    @pytest.mark.parametrize("n_paths", [20, 301], ids=["rows", "gram"])
    def test_kernel_se_is_the_projections_delta_method(self, n_paths):
        # se from the sides' moments equals the delta method on the paths:
        # sqrt((var_p <S_a,p, m_b> + var_p <S_b,p, m_a>) / n), the sample
        # variances of each side's signatures projected on the other side's
        # mean, here from the dense reference signatures.  20 paths take
        # the centred rows (K = 31), 301 their Gram matrix
        trip_a, trip_b, depth, steps = jump_triplet(), zero_atom_triplet(), 4, 3
        sig_a, sig_b = (dense_batch_signatures(simulate_paths(
            trip, n_paths, steps, 5, horizon=1.0, stream_offset=offset), depth)
            for offset, trip in enumerate((trip_a, trip_b)))
        m_a, m_b = ([lvl.mean(axis=0) for lvl in sig] for sig in (sig_a, sig_b))
        var = sum(sum(lvl @ m for lvl, m in zip(sig, other)).var(ddof=1)
                  for sig, other in ((sig_a, m_b), (sig_b, m_a)))
        _, se = estimate_kernel(trip_a, trip_b, 1.0, depth, n_paths, steps, seed=5)
        assert se == pytest.approx(math.sqrt(var / n_paths), rel=1e-12, abs=0)

    def test_level_se_is_norm_of_coordinate_ses(self):
        bm = LevyTriplet.brownian(2, 1.0)
        est = estimate_expected_signature(bm, 1.0, 3, 2_000, 4, seed=2)
        for n in range(4):
            assert est.level_se[n] == pytest.approx(
                float(np.linalg.norm(est.se.levels[n])), abs=1e-15)

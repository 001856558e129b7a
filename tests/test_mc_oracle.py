import math
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest

from levy_sigkernel import mc_oracle
from levy_sigkernel import tensor_algebra as ta
from levy_sigkernel.characteristics import (AtomicJumps, GaussianJumps,
                                            LevyTriplet, PiecewiseVelocity,
                                            characteristic_velocity)
from levy_sigkernel.development import develop, expected_signature
from levy_sigkernel.errors import DimMismatch, InvalidParameter, OutOfRange
from levy_sigkernel.kernel_solver import bessel_i0
from levy_sigkernel.mc_oracle import (SimulatedPaths, _batch_signatures,
                                      _cov_factor, estimate_expected_signature,
                                      estimate_kernel, estimate_to_csv,
                                      path_signature, simulate_paths)
from levy_sigkernel.tensor_algebra import TruncatedTensor as TT

from conftest import dense_exp_tensor, gamma, general_mul_exp_bound, reference_mul_exp


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
            z = rng.standard_normal((n_paths, steps_per_interval, d))
            for p in range(n_paths):
                noise[p] = math.sqrt(dt) * z[p] @ factor.T
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
    @pytest.mark.parametrize("horizon,offset", [(None, 0), (0.85, 37)])
    def test_draws_match_reference(self, horizon, offset):
        trip = jump_triplet()
        new = simulate_paths(trip, 60, 3, seed=11, horizon=horizon, stream_offset=offset)
        ref = reference_paths(trip, 60, 3, seed=11, horizon=horizon, stream_offset=offset)
        assert len(new.segments) == len(ref.segments) > 3 * 3
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
        sig = _batch_signatures(paths, depth)
        for p in range(paths.n_paths):
            single = path_signature(paths.increments_of(p), depth)
            for lvl, ref in zip(sig, single.levels):
                assert lvl[p].tobytes() == ref.tobytes()

    @pytest.mark.parametrize("depth", [1, 2, 3, 4])
    def test_matches_dense_batched_reference(self, depth):
        paths = simulate_paths(jump_triplet(), 40, 3, seed=8)
        sig = _batch_signatures(paths, depth)
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
        # [5, 1]) and ``dense_batch_signatures`` under the estimator's
        # formulas; the fused step reassociates sums, so today's bits (frozen
        # below) lie within the rounding bound of kernel_estimate_bounds
        # from them
        trip = jump_triplet()
        got = estimate_kernel(trip, trip, 1.0, depth, 300, 3, seed=5)
        fused_bits = {2: ("0x1.33050579997efp+0", "0x1.277873b39af0fp-6"),
                      4: ("0x1.362f24650a274p+0", "0x1.49390fb6c5ac4p-6")}
        assert got == tuple(float.fromhex(h) for h in fused_bits[depth])
        value_tol, se_tol = kernel_estimate_bounds(trip, depth, 300, 3, seed=5)
        assert abs(got[0] - float.fromhex(value)) <= value_tol
        assert abs(got[1] - float.fromhex(se)) <= se_tol

    def test_estimate_kernel_sides_draw_from_different_keys(self, monkeypatch):
        # the two sides of one kernel estimate must be independent: each
        # reads its own Philox key, and the two keys give other paths
        from levy_sigkernel import mc_oracle
        keys, real = [], mc_oracle.simulate_paths

        def record(triplet, n_paths, steps, seed, horizon=None, stream_offset=0):
            keys.append((seed, stream_offset))
            return real(triplet, n_paths, steps, seed, horizon, stream_offset)

        monkeypatch.setattr(mc_oracle, "simulate_paths", record)
        trip = jump_triplet()
        estimate_kernel(trip, trip, 1.0, 2, 50, 3, seed=5)
        assert len(keys) == 2 and keys[0] != keys[1]
        sides = [real(trip, 50, 3, seed, horizon=1.0, stream_offset=offset)
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
        sig = _batch_signatures(paths, 3)
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
        for lvl, ref in zip(_batch_signatures(padded, 4), _batch_signatures(paths, 4)):
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
        for lvl, ref in zip(_batch_signatures(paths, depth),
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
            got = _batch_signatures(paths, depth)
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
        for lvl, ref in zip(_batch_signatures(paths, depth),
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
            got = _batch_signatures(paths, 4)
            want = reference_batch_signatures(paths, 4)
        for lvl, ref in zip(got, want):
            assert lvl.tobytes() == ref.tobytes()
        assert np.isinf(got[4][0]).any() and not np.isnan(got[4]).any()

    def test_segments_unchanged_and_calls_repeat(self):
        paths = self.paths()
        before = [tuple(None if lev is None else lev.copy() for lev in seg)
                  for seg in paths.segments]
        with np.errstate(over="ignore", invalid="ignore"):
            first = _batch_signatures(paths, 4)
            second = _batch_signatures(paths, 4)
        for a, b in zip(first, second):
            assert a.tobytes() == b.tobytes()
        assert len(paths.segments) == len(before)
        for seg, old in zip(paths.segments, before):
            for lev, ref in zip(seg, old):
                assert (lev is None) == (ref is None)
                assert lev is None or lev.tobytes() == ref.tobytes()


class TestColumnBlocks:
    """``_batch_signatures`` split into column blocks, one per thread, is
    bitwise equal to the reference for every split."""

    N = 13   # blocks=2 splits rows 0-5 from rows 6-12

    def paths(self):
        rng = np.random.default_rng(11)
        n, d = self.N, 2
        sim = simulate_paths(jump_triplet(), n, 2, seed=4)
        mixed = mixed_segments(rng, n, d)     # inf row 10; NaN rows 5, 9; -0.0 rows 1, 2, 4
        overflow = rng.normal(size=(n, d)) * 0.4
        overflow[2] = [1e200, 0.5]            # an inf row left of the split too
        signed = np.zeros((n, d))
        signed[[3, 8]] = [0.3, -0.2]
        signed[[7, 11]] = -0.0                # rows of -0.0 right of the split
        signed[12] = [-0.0, 0.1]
        left_only = np.zeros((n, d))          # every row of block 0, none of block 1
        left_only[:6] = rng.normal(size=(6, d)) * 0.4
        segments = (sim.segments[:3] + [(overflow, None)] + mixed[:7] + sim.segments[3:8]
                    + [(signed, None), (left_only, None)] + mixed[7:] + sim.segments[8:])
        return SimulatedPaths(d, n, segments)

    @pytest.mark.parametrize("blocks", [1, 2, 3, 13])
    @pytest.mark.parametrize("depth", [0, 1, 3, 4])
    def test_bitwise_equal_to_reference(self, blocks, depth):
        paths = self.paths()
        with np.errstate(over="ignore", invalid="ignore"):
            got = _batch_signatures(paths, depth, blocks=blocks)
            want = reference_batch_signatures(paths, depth)
        assert len(got) == depth + 1
        for lvl, ref in zip(got, want):
            assert lvl.shape == ref.shape and lvl.flags.c_contiguous
            assert lvl.tobytes() == ref.tobytes()
        if depth >= 4:
            top = got[-1]
            assert np.isinf(top[[2, 10]]).any(axis=1).all()
            assert np.isnan(top[[5, 9]]).any(axis=1).all()

    @pytest.mark.parametrize("blocks", [1, 2])
    def test_level_skip_is_decided_on_all_rows(self, blocks):
        # level 2 of the second segment is live in block 1 (rows 2-3) alone;
        # block 0 multiplies it too, so row 0's inf times 0 gives NaN there
        first = np.array([[1e200, 0.5], [0.3, -0.2], [0.1, 0.4], [0.2, 0.1]])
        second = (np.array([[0.1, 0.2], [0.0, 0.0], [-0.3, 0.1], [0.0, 0.0]]),
                  np.array([[0.0] * 4, [0.0] * 4, [0.0, 0.1, -0.1, 0.0], [0.0] * 4]))
        paths = SimulatedPaths(2, 4, [(first, None), second])
        with np.errstate(over="ignore", invalid="ignore"):
            got = _batch_signatures(paths, 4, blocks=blocks)
            want = reference_batch_signatures(paths, 4)
        for lvl, ref in zip(got, want):
            assert lvl.tobytes() == ref.tobytes()
        assert np.isnan(got[4][0]).any() and np.isfinite(got[4][1:]).all()

    def test_more_blocks_than_cores_under_frequent_switches(self):
        # the blocks share only the read-only plan and the result slots
        paths = simulate_paths(jump_triplet(), 301, 3, seed=9)
        want = reference_batch_signatures(paths, 4)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                got = _batch_signatures(paths, 4, blocks=7)
                for lvl, ref in zip(got, want):
                    assert lvl.tobytes() == ref.tobytes()
        finally:
            sys.setswitchinterval(interval)

    def test_blocks_follow_the_cpus_and_run_in_threads(self, monkeypatch):
        calls = []
        original = mc_oracle._block_signatures

        def record(plan, lo, hi, d, depth):
            calls.append((lo, hi, threading.current_thread() is threading.main_thread()))
            return original(plan, lo, hi, d, depth)

        monkeypatch.setattr(mc_oracle, "_block_signatures", record)
        monkeypatch.setattr(ta, "_cpu_count", lambda: 3)
        monkeypatch.setattr(mc_oracle, "_MIN_BLOCK_PATHS", 4)
        paths = simulate_paths(jump_triplet(), 13, 2, seed=4)
        got = _batch_signatures(paths, 3)
        assert sorted(calls) == [(0, 4, True), (4, 8, False), (8, 13, False)]
        for lvl, ref in zip(got, reference_batch_signatures(paths, 3)):
            assert lvl.tobytes() == ref.tobytes()
        calls.clear()
        _batch_signatures(simulate_paths(jump_triplet(), 11, 2, seed=4), 3)
        assert sorted(calls) == [(0, 5, True), (5, 11, False)]   # 11 // 4 blocks
        calls.clear()
        _batch_signatures(simulate_paths(jump_triplet(), 7, 2, seed=4), 3)
        assert calls == [(0, 7, True)]

    def overflow_in_block_1(self):
        # only row 2, which the worker thread takes, overflows
        first = np.array([[0.1, 0.2], [0.3, -0.1], [1e200, 0.5], [0.2, 0.2]])
        return SimulatedPaths(2, 4, [(first, None), (first * 0.5, None)])

    def test_worker_runs_under_the_callers_errstate(self):
        paths = self.overflow_in_block_1()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with np.errstate(over="ignore", invalid="ignore"):
                got = _batch_signatures(paths, 4, blocks=2)
        assert np.isinf(got[4][2]).any() and np.isfinite(got[4][[0, 1, 3]]).all()

    def test_worker_error_reaches_the_caller(self):
        with np.errstate(over="raise"), pytest.raises(FloatingPointError):
            _batch_signatures(self.overflow_in_block_1(), 4, blocks=2)

    @pytest.mark.parametrize("blocks", [1, 2])
    def test_peak_memory_holds_two_signature_sets(self, blocks):
        # the signature and its spare set, a gathered copy of a partly live
        # segment's columns (at most 44 % of the paths here) and one product
        # temporary: 3.1 sets in one block, 2.9-3.2 in two.  Outputs
        # allocated before the blocks end would add a third set
        n_paths, depth = 4000, 4
        paths = simulate_paths(jump_triplet(), n_paths, 2, seed=6)
        one_set = 8 * n_paths * sum(2**n for n in range(depth + 1))
        tracemalloc.start()
        try:
            _batch_signatures(paths, depth, blocks=blocks)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3.5 * one_set, peak / one_set


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

    def test_estimate_csv(self, tmp_path):
        bm = LevyTriplet.brownian(1, 1.0)
        est = estimate_expected_signature(bm, 1.0, 2, 500, 4, seed=1)
        out = tmp_path / "esig.csv"
        estimate_to_csv(est, out)
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "word,mean,se"
        # empty word row then single-letter rows; exact re-parse
        assert lines[1].startswith(",")
        vals = [float(line.split(",")[1]) for line in lines[1:]]
        flat = np.concatenate([est.mean.levels[n] for n in range(3)])
        assert np.array_equal(np.array(vals), flat)

    def test_level_se_is_norm_of_coordinate_ses(self):
        bm = LevyTriplet.brownian(2, 1.0)
        est = estimate_expected_signature(bm, 1.0, 3, 2_000, 4, seed=2)
        for n in range(4):
            assert est.level_se[n] == pytest.approx(
                float(np.linalg.norm(est.se.levels[n])), abs=1e-15)

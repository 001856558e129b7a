import math

import numpy as np
import pytest

from levy_sigkernel import tensor_algebra as ta
from levy_sigkernel.characteristics import (AtomicJumps, GaussianJumps,
                                            LevyTriplet, PiecewiseVelocity,
                                            characteristic_velocity)
from levy_sigkernel.development import develop, expected_signature
from levy_sigkernel.errors import InvalidParameter
from levy_sigkernel.kernel_solver import bessel_i0
from levy_sigkernel.mc_oracle import (SimulatedPaths, _batch_signatures,
                                      _cov_factor, estimate_expected_signature,
                                      estimate_kernel, estimate_to_csv,
                                      path_signature, simulate_paths)
from levy_sigkernel.tensor_algebra import TruncatedTensor as TT


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


def per_path_generator_paths(triplet, n_paths, steps_per_interval, seed,
                             horizon=None, stream_offset=0):
    """Reference simulation: one Generator(Philox) per path, drawn interval
    by interval, as before the bit generator was re-keyed per path."""
    if horizon is None:
        horizon = triplet.horizon
    d = triplet.dim
    rngs = [np.random.Generator(np.random.Philox(key=[seed, stream_offset + p]))
            for p in range(n_paths)]
    segments = []
    for i in range(triplet.n_intervals):
        lo = triplet.time_grid[i]
        hi = min(triplet.time_grid[i + 1], horizon)
        if hi <= lo:
            break
        dt = (hi - lo) / steps_per_interval
        b, ar = triplet.drifts[i], triplet.areas[i]
        factor = _cov_factor(triplet.covs[i])
        has_noise = bool(np.any(factor))
        spec = triplet.jumps[i]
        noise = np.zeros((n_paths, steps_per_interval, d))
        step_slots = {}
        seen = {}

        def place(p, step, v1, v2):
            slot = seen.get((p, step), 0)
            seen[(p, step)] = slot + 1
            slots = step_slots.setdefault(step, [])
            while len(slots) <= slot:
                slots.append([])
            slots[slot].append((p, v1, v2))

        sqdt = math.sqrt(dt)
        for p, rng in enumerate(rngs):
            if has_noise:
                noise[p] = sqdt * rng.standard_normal((steps_per_interval, d)) @ factor.T
            if spec is None:
                continue
            rate = float(np.sum(spec.weights)) if isinstance(spec, AtomicJumps) \
                else spec.intensity
            n_jumps = int(rng.poisson(rate * (hi - lo))) if rate > 0 else 0
            if n_jumps == 0:
                continue
            pos = np.sort(rng.uniform(0.0, hi - lo, size=n_jumps))
            if isinstance(spec, AtomicJumps):
                picks = rng.choice(len(spec.atoms), size=n_jumps, p=spec.weights / rate)
                for u, pick in zip(pos, picks):
                    a = spec.atoms[pick]
                    v1 = np.asarray(a.levels[1], dtype=float)
                    v2 = np.asarray(a.levels[2], dtype=float) if a.depth >= 2 else None
                    place(p, min(int(u / dt), steps_per_interval - 1), v1, v2)
            else:
                draws = rng.standard_normal((n_jumps, d)) @ _cov_factor(spec.cov).T
                for u, val in zip(pos, draws):
                    place(p, min(int(u / dt), steps_per_interval - 1), val, None)

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
    def test_draws_match_per_path_generators(self, horizon, offset):
        trip = jump_triplet()
        new = simulate_paths(trip, 60, 3, seed=11, horizon=horizon, stream_offset=offset)
        ref = per_path_generator_paths(trip, 60, 3, seed=11, horizon=horizon,
                                       stream_offset=offset)
        assert len(new.segments) == len(ref.segments) > 3 * 3
        assert any(l2 is not None and l2.any() for _, l2 in ref.segments[3:])
        for (a1, a2), (b1, b2) in zip(new.segments, ref.segments):
            assert a1.tobytes() == b1.tobytes()
            assert (a2 is None) == (b2 is None)
            if a2 is not None:
                assert a2.tobytes() == b2.tobytes()


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
        assert len(sig) == len(ref) == depth + 1
        for lvl, r in zip(sig, ref):
            assert lvl.shape == r.shape
            if depth <= 2:
                assert lvl.tobytes() == r.tobytes()
            else:
                # only the rounding of x/3 against x * (1/3) differs
                tol = 8 * np.finfo(float).eps * max(1.0, float(np.abs(r).max()))
                assert np.abs(lvl - r).max() <= tol

    @pytest.mark.parametrize("depth,value,se", [
        (2, "0x1.4039e406f127cp+0", "0x1.8a1a91c53c135p-6"),
        (4, "0x1.4544851540b5fp+0", "0x1.b93b0032885fap-6")])
    def test_estimate_kernel_unchanged(self, depth, value, se):
        # frozen from the dense batched products and per-path generators
        # that the shared products and the re-keyed generator replaced
        trip = jump_triplet()
        got = estimate_kernel(trip, trip, 1.0, depth, 300, 3, seed=5)
        assert got == (float.fromhex(value), float.fromhex(se))


class TestPathSignature:
    def test_single_increment(self):
        x = atom(2, [0.3, -0.4])
        sig = path_signature([x], 3)
        ref = ta.exp_tensor(x.with_depth(3))
        assert ta.norm_p(sig - ref, "max") == 0.0

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

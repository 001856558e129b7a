import math

import numpy as np
import pytest

from levy_sigkernel import tensor_algebra as ta
from levy_sigkernel.characteristics import (AtomicJumps, GaussianJumps,
                                            LevyTriplet, PiecewiseVelocity,
                                            _gaussian_moments,
                                            characteristic_velocity,
                                            exponential_moment_value,
                                            gaussian_tensor_moment,
                                            velocity_tail_bound)
from levy_sigkernel.development import develop, expected_signature
from levy_sigkernel.errors import (DepthTooSmall, InvalidParameter,
                                   InvalidTriplet, OutOfRange)
from levy_sigkernel.kernel_solver import truncation_certificate
from levy_sigkernel.mc_oracle import simulate_paths
from levy_sigkernel.tensor_algebra import TruncatedTensor as TT


def atom(dim, vec, area=None):
    levels = [np.zeros(1), np.asarray(vec, dtype=float)]
    if area is not None:
        levels.append(np.asarray(area, dtype=float).ravel())
    return TT.from_levels(dim, levels)


class TestValidation:
    def test_cov_must_be_psd(self):
        with pytest.raises(InvalidTriplet):
            LevyTriplet.homogeneous(2, 1.0, cov=np.array([[1.0, 0.0], [0.0, -1.0]]))

    def test_cov_must_be_symmetric(self):
        with pytest.raises(InvalidTriplet):
            LevyTriplet.homogeneous(2, 1.0, cov=np.array([[1.0, 0.5], [0.0, 1.0]]))

    def test_area_must_be_antisymmetric(self):
        with pytest.raises(InvalidTriplet):
            LevyTriplet.homogeneous(2, 1.0, area=np.eye(2))

    def test_atomic_weights_nonnegative(self):
        with pytest.raises(InvalidTriplet):
            AtomicJumps(np.array([-1.0]), (atom(1, [1.0]),))

    @pytest.mark.parametrize("weights", [1.0, [[1.0]], [1.0, 2.0], "abc"],
                             ids=["0-d", "nested", "too-many", "non-numeric"])
    def test_atomic_weights_one_per_atom(self, weights):
        with pytest.raises(InvalidTriplet):
            AtomicJumps(weights, (atom(1, [1.0]),))

    def test_gaussian_cov_psd(self):
        with pytest.raises(InvalidTriplet):
            GaussianJumps(1.0, np.array([[-1.0]]))

    def test_velocity_zero_scalar_enforced(self):
        with pytest.raises(InvalidParameter):
            PiecewiseVelocity(1, [0.0, 1.0], [TT.unit(1, 1)])

    def test_grid_strictly_increasing(self):
        with pytest.raises(InvalidParameter):
            LevyTriplet(dim=1, time_grid=np.array([0.0, 1.0, 1.0]),
                        drifts=[np.zeros(1)] * 2, covs=[np.zeros((1, 1))] * 2)


class TestCharacteristicVelocity:
    def test_pure_diffusion(self):
        trip = LevyTriplet.homogeneous(1, 1.0, cov=np.array([[1.0]]))
        v = characteristic_velocity(trip, 2)
        assert v.tensors[0].levels[1][0] == 0.0
        assert v.tensors[0].levels[2][0] == 0.5

    def test_smooth_path_velocity_is_derivative(self):
        trip = LevyTriplet(dim=2, time_grid=np.array([0.0, 0.5, 1.0]),
                           drifts=[np.array([1.0, -2.0]), np.array([0.5, 0.0])],
                           covs=[np.zeros((2, 2))] * 2)
        v = characteristic_velocity(trip, 3)
        for i in range(2):
            assert np.array_equal(v.tensors[i].levels[1], trip.drifts[i])
            assert ta.norm_p(v.tensors[i], 1) == np.linalg.norm(trip.drifts[i])

    def test_gaussian_cp_d1_levels(self):
        # E[xi^2]/2! = 1/2 and E[xi^4]/4! = 3/24 = 1/8 for xi ~ N(0, 1)
        trip = LevyTriplet.homogeneous(
            1, 1.0, jumps=GaussianJumps(1.0, np.array([[1.0]])))
        v = characteristic_velocity(trip, 4)
        got = [float(lev[0]) for lev in v.tensors[0].levels]
        assert got == pytest.approx([0.0, 0.0, 0.5, 0.0, 0.125], abs=1e-15)

    def test_gaussian_cp_odd_levels_vanish(self):
        cov = np.array([[2.0, 0.3], [0.3, 0.5]])
        trip = LevyTriplet.homogeneous(2, 1.0, jumps=GaussianJumps(0.7, cov))
        v = characteristic_velocity(trip, 5)
        for n in (1, 3, 5):
            assert np.all(v.tensors[0].levels[n] == 0.0)

    def test_gaussian_moments_match_monte_carlo(self, rng):
        cov = np.array([[1.0, 0.4], [0.4, 0.8]])
        n_samples = 200_000
        chol = np.linalg.cholesky(cov)
        draws = rng.standard_normal((n_samples, 2)) @ chol.T
        for n in (2, 4):
            outer = draws[:, :, None] if n == 2 else None
            if n == 2:
                samples = np.einsum("pi,pj->pij", draws, draws).reshape(n_samples, -1)
            else:
                samples = np.einsum("pi,pj,pk,pl->pijkl", draws, draws,
                                    draws, draws).reshape(n_samples, -1)
            mean = samples.mean(axis=0)
            se = samples.std(axis=0, ddof=1) / math.sqrt(n_samples)
            exact = gaussian_tensor_moment(cov, n)
            assert np.all(np.abs(mean - exact) <= 3.0 * se + 1e-12)

    def test_atomic_small_vs_large_jump_compensation(self):
        small = atom(1, [0.5])
        large = atom(1, [2.0])
        trip = LevyTriplet.homogeneous(
            1, 1.0, jumps=AtomicJumps(np.array([1.0, 1.0]), (small, large)))
        v = characteristic_velocity(trip, 3)
        # small atom is compensated (exp - 1 - x), large one is not (exp - 1)
        expected_l1 = (0.0) + (2.0)
        expected_l2 = 0.5**2 / 2 + 2.0**2 / 2
        assert v.tensors[0].levels[1][0] == pytest.approx(expected_l1, abs=1e-14)
        assert v.tensors[0].levels[2][0] == pytest.approx(expected_l2, abs=1e-14)

    def test_depth_too_small(self):
        trip = LevyTriplet.homogeneous(2, 1.0, area=np.array([[0, 1], [-1, 0]], float))
        with pytest.raises(DepthTooSmall):
            characteristic_velocity(trip, 1)

    def test_zero_scalar_always(self, rng):
        trip = LevyTriplet.homogeneous(
            2, 1.0, drift=[0.1, 0.2], cov=np.eye(2),
            jumps=AtomicJumps(np.array([0.5]), (atom(2, [1.5, 0.0]),)))
        v = characteristic_velocity(trip, 4)
        assert v.tensors[0].scalar() == 0.0

    def test_continuous_level2_velocity_has_levels_1_2_only(self):
        trip = LevyTriplet.homogeneous(2, 1.0, drift=[1.0, 0.0], cov=np.eye(2),
                                       area=np.array([[0, 0.3], [-0.3, 0]]))
        v = characteristic_velocity(trip, 6)
        for n in range(3, 7):
            assert np.all(v.tensors[0].levels[n] == 0.0)


class TestExponentialMoment:
    def test_no_jumps(self):
        assert exponential_moment_value(LevyTriplet.brownian(1, 1.0), 1.0) == 0.0

    def test_single_large_atom(self):
        trip = LevyTriplet.homogeneous(
            1, 1.0, jumps=AtomicJumps(np.array([1.0]), (atom(1, [2.0]),)))
        assert exponential_moment_value(trip, 1.0) == pytest.approx(
            math.e**2 - 1, rel=1e-12)

    def test_small_atom_excluded(self):
        trip = LevyTriplet.homogeneous(
            1, 1.0, jumps=AtomicJumps(np.array([1.0]), (atom(1, [0.9]),)))
        assert exponential_moment_value(trip, 1.0) == 0.0

    def test_gaussian_always_finite(self):
        trip = LevyTriplet.homogeneous(
            2, 1.0, jumps=GaussianJumps(2.0, np.diag([1.0, 4.0])))
        val = exponential_moment_value(trip, 2.0)
        assert math.isfinite(val) and val > 0.0

    def test_gaussian_quadrature_vs_monte_carlo_bound(self, rng):
        # the radial value dominates the exact Monte Carlo expectation
        cov = np.array([[0.8, 0.2], [0.2, 0.5]])
        trip = LevyTriplet.homogeneous(2, 1.0, jumps=GaussianJumps(1.0, cov))
        val = exponential_moment_value(trip, 1.0)
        draws = rng.standard_normal((100_000, 2)) @ np.linalg.cholesky(cov).T
        norms = np.linalg.norm(draws, axis=1)
        mc = np.mean((norms > 1.0) * np.expm1(norms))
        assert val >= mc * 0.95


class TestVelocityIntegrals:
    def test_mass_piecewise(self):
        grid = np.array([0.0, 0.5, 1.0])
        tens = [TT.from_levels(1, [[0.0], [2.0]]), TT.from_levels(1, [[0.0], [4.0]])]
        v = PiecewiseVelocity(1, grid, tens)
        assert v.mass(0.0, 1.0) == pytest.approx(3.0)
        assert v.mass(0.25, 0.75) == pytest.approx(0.25 * 2 + 0.25 * 4)

    def test_tail_and_level_mass(self):
        tens = [TT.from_levels(1, [[0.0], [1.0], [3.0]])]
        v = PiecewiseVelocity(1, [0.0, 2.0], tens)
        assert v.level_mass(0.0, 2.0, 2) == pytest.approx(6.0)
        assert v.tail_mass(0.0, 2.0, 1) == pytest.approx(6.0)
        assert v.tail_mass(0.0, 2.0, 2) == 0.0

    def test_bitwise_equal_to_per_integral_loops(self, rng):
        # one loop per integral, as each was written before they shared one
        # helper; the certificates are built from these bits
        def mass(v, s, t):
            return float(sum(dt * ta.norm_p(v.tensors[i], 1) for i, dt in v.overlaps(s, t)))

        def level_mass(v, s, t, n):
            total = 0.0
            for i, dt in v.overlaps(s, t):
                x = v.tensors[i]
                if n <= x.depth:
                    total += dt * float(np.linalg.norm(x.levels[n]))
            return float(total)

        def tail_mass(v, s, t, depth):
            total = 0.0
            for i, dt in v.overlaps(s, t):
                x = v.tensors[i]
                total += dt * sum(np.linalg.norm(x.levels[n])
                                  for n in range(depth + 1, x.depth + 1))
            return float(total)

        def omitted_mass(v, s, t):
            return float(sum(dt * v.tail_rates[i] for i, dt in v.overlaps(s, t)))

        grid = np.concatenate([[0.0], np.sort(rng.uniform(0.0, 1.3, size=4)), [1.3]])
        depths = [1, 4, 2, 6, 3]
        tens = [TT.from_levels(2, [np.zeros(1)] + [rng.normal(size=2**n) / n
                                                   for n in range(1, k + 1)])
                for k in depths]
        v = PiecewiseVelocity(2, grid, tens, tail_rates=rng.uniform(0.0, 1e-3, size=5))
        for s, t in [(0.0, 1.3), (0.1, 0.9), (grid[1], grid[3]), (0.7, 0.7)]:
            assert v.mass(s, t) == mass(v, s, t)
            assert v.omitted_mass(s, t) == omitted_mass(v, s, t)
            for n in range(8):
                assert v.level_mass(s, t, n) == level_mass(v, s, t, n)
                assert v.tail_mass(s, t, n) == tail_mass(v, s, t, n)


NAN = float("nan")


def two_jump_triplet():
    """Gaussian jumps on [0, 0.4), a large atom on [0.4, 1]."""
    return LevyTriplet(dim=2, time_grid=np.array([0.0, 0.4, 1.0]),
                       drifts=[np.array([0.2, -0.1])] * 2, covs=[0.1 * np.eye(2)] * 2,
                       jumps=[GaussianJumps(1.5, 0.2 * np.eye(2)),
                              AtomicJumps(np.array([0.5]), (atom(2, [1.5, 0.0]),))])


class TestTimesOutsideTheGrid:
    # expected_signature takes a jump-free triplet, so that NaN reaches develop
    @pytest.mark.parametrize("call", [
        lambda v: v.mass(NAN, 1.0),
        lambda v: develop(v, NAN, 1.0, 2),
        lambda v: truncation_certificate(v, v, 2, 2, NAN, 1.0),
        lambda v: expected_signature(LevyTriplet.brownian(2, 1.0), NAN, 2),
    ], ids=["mass", "develop", "truncation_certificate", "expected_signature"])
    def test_nan_time(self, call):
        with pytest.raises(OutOfRange):
            call(characteristic_velocity(two_jump_triplet(), 2))

    # velocity_depth, which reads the same horizon rule, is tested in
    # test_certified_depths.py
    @pytest.mark.parametrize("horizon", [NAN, 1.5])
    @pytest.mark.parametrize("call", [
        lambda trip, h: velocity_tail_bound(trip, 2, h),
        lambda trip, h: exponential_moment_value(trip, 1.0, h),
        lambda trip, h: simulate_paths(trip, 4, 2, seed=1, horizon=h),
    ], ids=["velocity_tail_bound", "exponential_moment_value", "simulate_paths"])
    def test_horizon_outside_the_grid(self, call, horizon):
        with pytest.raises(OutOfRange, match="lies outside"):
            call(two_jump_triplet(), horizon)


def reference_gaussian_tensor_moment(cov, n):
    """Pair-partition recursion from scratch at every level, one outer
    product per coupling of the last slot with slot k."""
    cov = np.asarray(cov, dtype=float)
    d = cov.shape[0]
    if n == 0:
        return np.ones(1)
    if n % 2 == 1:
        return np.zeros(d**n)
    prev = reference_gaussian_tensor_moment(cov, n - 2).reshape((d,) * (n - 2))
    out = np.zeros((d,) * n)
    for k in range(n - 1):
        term = np.multiply.outer(prev, cov)
        out += np.moveaxis(term, n - 2, k)
    return out.ravel()


def reference_jump_velocity_term(spec, dim, depth):
    """The jump term by out-of-place tensor sums."""
    out = TT.zero(dim, depth)
    if spec is None:
        return out
    if isinstance(spec, AtomicJumps):
        for lam, x0 in zip(spec.weights, spec.atoms):
            if lam == 0.0:
                continue
            x = x0.with_depth(depth)
            term = ta.exp_tensor(x)
            term.levels[0][0] -= 1.0
            if ta.max_level_norm(x0) <= 1.0:
                term = term - x
            out = out + term * float(lam)
        return out
    for n in range(2, depth + 1, 2):
        out.levels[n] += (spec.intensity * reference_gaussian_tensor_moment(spec.cov, n)
                          / math.factorial(n))
    return out


def reference_drift(triplet, i, depth):
    """Interval i's drift and area as a depth-``depth`` tensor."""
    x = TT.zero(triplet.dim, depth)
    x.levels[1] += triplet.drifts[i]
    if triplet.areas[i] is not None and depth >= 2:
        x.levels[2] += triplet.areas[i].ravel()
    return x


def reference_characteristic_velocity(triplet, depth):
    tensors = []
    for i in range(triplet.n_intervals):
        x = reference_drift(triplet, i, depth)
        x.levels[2] += 0.5 * triplet.covs[i].ravel()
        tensors.append(x + reference_jump_velocity_term(triplet.jumps[i],
                                                        triplet.dim, depth))
    return tensors


def random_cov(rng, d, scale):
    f = rng.uniform(-scale, scale, size=(d, d))
    return f @ f.T


class TestBitwiseReferences:
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_gaussian_moments_equal_recursion(self, rng, d):
        cov = random_cov(rng, d, 0.8)
        levels = list(_gaussian_moments(cov, 12))
        assert [lev.shape for lev in levels] == [(d,) * n for n in range(2, 13, 2)]
        for n, lev in zip(range(2, 13, 2), levels):
            assert lev.tobytes() == reference_gaussian_tensor_moment(cov, n).tobytes()
        for n in range(13):
            assert (gaussian_tensor_moment(cov, n).tobytes()
                    == reference_gaussian_tensor_moment(cov, n).tobytes())

    def test_d1_moments_are_double_factorials(self):
        sigma = 0.7
        for n, lev in zip(range(2, 13, 2), _gaussian_moments(np.array([[sigma**2]]), 12)):
            double_fact = math.prod(range(n - 1, 0, -2))
            assert lev.ravel()[0] == pytest.approx(double_fact * sigma**n, rel=n * 1e-15)

    def test_velocity_equals_out_of_place_composition(self, rng):
        d = 2
        small = atom(d, [0.3, -0.4], [[0.0, 0.2], [-0.2, 0.0]])
        large = atom(d, [1.5, 0.8], [[0.0, -0.6], [0.6, 0.0]])
        also_small = atom(d, [-0.5, 0.1])
        area = np.array([[0.0, 0.25], [-0.25, 0.0]])
        trip = LevyTriplet(
            dim=d, time_grid=np.array([0.0, 0.3, 0.7, 1.0]),
            drifts=[rng.uniform(-0.6, 0.6, size=d) for _ in range(3)],
            covs=[random_cov(rng, d, 0.5) for _ in range(3)],
            areas=[area, None, -area],
            jumps=[GaussianJumps(1.5, random_cov(rng, d, 0.4)),
                   AtomicJumps(np.array([0.7, 1.3, 0.0, 0.4]),
                               (small, large, large, also_small)),
                   None],
            state_depth=2)
        for depth in (2, 5, 10):
            got = characteristic_velocity(trip, depth).tensors
            ref = reference_characteristic_velocity(trip, depth)
            for i, (x, y) in enumerate(zip(got, ref)):
                assert x.depth == y.depth == depth
                for lx, ly in zip(x.levels, y.levels):
                    if isinstance(trip.jumps[i], AtomicJumps):
                        # exp(x) level by level, not by exp_tensor's Horner form
                        assert np.abs(lx - ly).max() <= 1e-14 * np.abs(ly).max()
                    else:
                        assert lx.tobytes() == ly.tobytes()

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_level_bits_do_not_depend_on_the_depth(self, rng, d):
        def antisym(scale):
            a = rng.uniform(-scale, scale, size=(d, d))
            return a - a.T

        small = atom(d, rng.uniform(-0.3, 0.3, d), antisym(0.2))
        large = atom(d, rng.uniform(1.0, 1.5, d))
        trip = LevyTriplet(
            dim=d, time_grid=np.array([0.0, 0.3, 0.7, 1.0]),
            drifts=[rng.uniform(-0.6, 0.6, size=d) for _ in range(3)],
            covs=[random_cov(rng, d, 0.5) for _ in range(3)],
            areas=[antisym(0.3), None, antisym(0.3)],
            jumps=[GaussianJumps(1.5, random_cov(rng, d, 0.4)),
                   AtomicJumps(np.array([0.7, 0.0, 1.3]), (small, large, large)),
                   None],
            state_depth=2)
        deepest = characteristic_velocity(trip, 9).tensors
        for depth in range(2, 9):
            for x, y in zip(characteristic_velocity(trip, depth).tensors, deepest):
                for lx, ly in zip(x.levels, y.levels):
                    assert lx.tobytes() == ly.tobytes()

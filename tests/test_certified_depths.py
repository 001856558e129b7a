"""Truncation depths chosen by certified need: the velocity tail bound, the
certificate that covers it, and the development oracle's remainder bound."""

import math

import numpy as np
import pytest

from levy_sigkernel import tensor_algebra as ta
from levy_sigkernel.characteristics import (VELOCITY_TAIL_RTOL, AtomicJumps,
                                            GaussianJumps, LevyTriplet,
                                            PiecewiseVelocity, _exp_levels,
                                            characteristic_velocity,
                                            velocity_depth, velocity_tail_bound)
from levy_sigkernel.development import develop, development_inner_product
from levy_sigkernel.errors import InvalidParameter
from levy_sigkernel.kernel_solver import truncation_certificate
from levy_sigkernel.tensor_algebra import TruncatedTensor as TT

from conftest import random_velocity_tensor

DEEP = 19                      # the coefficient-budget depth at d = 2


def workload_triplet(rng, grid, jumps: bool, drift: float, vol: float,
                     jump_scale: float) -> LevyTriplet:
    """A d = 2 triplet shaped like the benchmark's: random drift and
    covariance per interval, Gaussian jumps of intensity 1.5 on the first."""
    def cov(scale):
        f = rng.uniform(-scale, scale, size=(2, 2))
        return f @ f.T

    n = len(grid) - 1
    return LevyTriplet(
        dim=2, time_grid=np.asarray(grid),
        drifts=[rng.uniform(-drift, drift, size=2) for _ in range(n)],
        covs=[cov(vol) for _ in range(n)],
        jumps=[GaussianJumps(1.5, cov(jump_scale)) if i == 0 and jumps else None
               for i in range(n)])


def kernel_triplets(seed):
    rng = np.random.default_rng(seed)
    return [workload_triplet(rng, [0.0, 0.4, 1.0], True, 0.6, 0.5, 0.4)
            for _ in range(2)]


def validate_triplets(seed):
    rng = np.random.default_rng(seed)
    return [workload_triplet(rng, [0.0, 0.5, 1.0], True, 0.3, 0.35, 0.3),
            workload_triplet(rng, [0.0, 0.5, 1.0], False, 0.3, 0.35, 0.0)]


def atomic_triplet(level2: float) -> LevyTriplet:
    levels = [np.zeros(1), np.array([0.9, -0.4])]
    if level2:
        levels.append(np.array([0.0, level2, -level2, 0.0]))
    small = TT.from_levels(2, [np.zeros(1), np.array([0.2, 0.1])])
    return LevyTriplet.homogeneous(
        2, 1.0, drift=[0.1, 0.0], cov=0.3 * np.eye(2),
        jumps=AtomicJumps([1.5, 4.0], (TT.from_levels(2, levels), small)),
        state_depth=2)


WORKLOAD_TRIPLETS = [t for seed in (1, 2, 3) for t in kernel_triplets(seed)] \
    + [validate_triplets(seed)[0] for seed in (1, 2, 3)]


class TestVelocityTailBound:
    @pytest.mark.parametrize("k", range(len(WORKLOAD_TRIPLETS)))
    def test_dominates_the_stored_tail_on_workload_shapes(self, k):
        trip = WORKLOAD_TRIPLETS[k]
        deep = characteristic_velocity(trip, DEEP)
        for depth in range(1, DEEP):
            assert velocity_tail_bound(trip, depth) >= deep.tail_mass(0.0, 1.0, depth)

    @pytest.mark.parametrize("k", range(len(WORKLOAD_TRIPLETS)))
    def test_within_five_times_the_tail_at_the_chosen_depth(self, k):
        trip = WORKLOAD_TRIPLETS[k]
        depth = velocity_depth(trip, 3, DEEP)
        exact = characteristic_velocity(trip, DEEP).tail_mass(0.0, 1.0, depth)
        assert velocity_tail_bound(trip, depth) <= 5.0 * exact

    @pytest.mark.parametrize("level2", [0.0, 0.5])
    def test_dominates_the_stored_tail_of_atoms(self, level2):
        trip = atomic_triplet(level2)
        deep = characteristic_velocity(trip, DEEP)
        for depth in range(2, DEEP):
            assert velocity_tail_bound(trip, depth) >= deep.tail_mass(0.0, 1.0, depth)

    def test_exact_for_level_one_atoms_and_isotropic_jumps(self):
        # the closed forms are the exact level norms in these two cases; the
        # atom's sum stops once its remainder bound is below 1e-6 of it
        atom = TT.from_levels(2, [np.zeros(1), np.array([1.2, 0.5])])
        for spec in (AtomicJumps([2.0], (atom,)), GaussianJumps(2.0, 0.6 * np.eye(2))):
            trip = LevyTriplet.homogeneous(2, 1.0, jumps=spec)
            deep = characteristic_velocity(trip, 18)
            for depth in (2, 5, 8):
                exact = deep.tail_mass(0.0, 1.0, depth)
                assert exact <= velocity_tail_bound(trip, depth) <= exact * (1 + 2e-6)

    def test_depth_one_counts_level_two(self):
        trip = WORKLOAD_TRIPLETS[0]
        deep = characteristic_velocity(trip, DEEP)
        assert velocity_tail_bound(trip, 1) >= deep.tail_mass(0.0, 1.0, 1) \
            > velocity_tail_bound(trip, 2)

    def test_integrates_up_to_the_horizon(self):
        trip = WORKLOAD_TRIPLETS[0]                 # jumps on [0, 0.4] only
        assert velocity_tail_bound(trip, 6, 0.2) == pytest.approx(
            0.5 * velocity_tail_bound(trip, 6, 0.4), rel=1e-14)
        assert velocity_tail_bound(trip, 6, 0.4) == velocity_tail_bound(trip, 6)

    def test_jump_free_tail_is_zero(self):
        trip = validate_triplets(1)[1]
        assert velocity_tail_bound(trip, 2) == 0.0
        assert velocity_depth(trip, 4, DEEP) == 4
        assert velocity_depth(trip, 1, DEEP) == 2

    def test_overflowing_jumps_give_inf_at_the_cap(self):
        trip = LevyTriplet.homogeneous(2, 1.0, jumps=GaussianJumps(1.0, 3000.0 * np.eye(2)))
        assert velocity_tail_bound(trip, 4) == math.inf
        assert velocity_depth(trip, 3, 9) == 9


class TestVelocityCarriesItsTail:
    def test_rates_are_the_bound_and_truncation_drops_them(self):
        trip = WORKLOAD_TRIPLETS[1]
        v = characteristic_velocity(trip, 10)
        assert v.omitted_mass(0.0, 1.0) == pytest.approx(
            velocity_tail_bound(trip, 10), rel=1e-14)
        assert v.truncated(3).omitted_mass(0.0, 1.0) == 0.0
        assert v.truncated(12).omitted_mass(0.0, 1.0) == 0.0

    def test_rates_must_be_nonnegative_one_per_interval(self):
        x = TT.from_levels(1, [np.zeros(1), np.ones(1)])
        with pytest.raises(InvalidParameter):
            PiecewiseVelocity(1, [0.0, 1.0], [x], [-1.0])
        with pytest.raises(InvalidParameter):
            PiecewiseVelocity(1, [0.0, 1.0], [x], [0.0, 0.0])

    def test_never_above_the_cap(self):
        trip = atomic_triplet(0.5)                  # needs about depth 19
        for cap in (2, 5, 11):
            assert velocity_depth(trip, 2, cap) == cap

    def test_never_below_the_floor(self):
        # a cap below max(level, 2, state_depth) gives the floor
        trip = atomic_triplet(0.5)
        for level, floor in ((1, 2), (3, 3)):
            assert velocity_depth(trip, level, 1) == floor


def rebuilding_velocity_depth(triplet, level, max_depth, horizon=None):
    """Reference: the depth search that built the whole velocity at every
    candidate depth, O(K^2) coefficients for a depth K."""
    horizon = triplet.horizon if horizon is None else horizon
    depth = max(level, 2, triplet.state_depth)
    while depth < max_depth:
        v = characteristic_velocity(triplet, depth)
        stored = v.tail_mass(0.0, horizon, level)
        if v.omitted_mass(0.0, horizon) <= VELOCITY_TAIL_RTOL * stored:
            return depth
        depth += 1
    return depth


def random_jump_triplet(rng):
    """A triplet of dimension 1-3 on 1-3 intervals, each with Gaussian
    jumps, atoms (some with level 2, some of weight 0) or none."""
    d, n = int(rng.integers(1, 4)), int(rng.integers(1, 4))
    grid = np.concatenate([[0.0], np.sort(rng.uniform(0.05, 0.95, n - 1)), [1.0]])
    jumps = []
    for _ in range(n):
        kind = rng.integers(3)
        f = rng.uniform(-0.6, 0.6, size=(d, d))
        if kind == 0:
            jumps.append(GaussianJumps(float(rng.uniform(0.2, 3.0)), f @ f.T))
        elif kind == 1:
            atoms = []
            for _ in range(int(rng.integers(1, 4))):
                levels = [np.zeros(1), rng.uniform(-0.8, 0.8, d)]
                a = rng.uniform(-0.3, 0.3, size=(d, d))
                levels.append((a - a.T).ravel())
                atoms.append(TT.from_levels(d, levels))
            weights = rng.uniform(0.0, 3.0, len(atoms))
            weights[rng.random(len(atoms)) < 0.2] = 0.0
            jumps.append(AtomicJumps(weights, tuple(atoms)))
        else:
            jumps.append(None)
    return LevyTriplet(dim=d, time_grid=grid,
                       drifts=[rng.uniform(-0.5, 0.5, d) for _ in range(n)],
                       covs=[(lambda f: f @ f.T)(rng.uniform(-0.5, 0.5, (d, d)))
                             for _ in range(n)],
                       jumps=jumps, state_depth=2)


class TestDepthSearchBuildsEachLevelOnce:
    """``velocity_depth`` builds each level once and picks the depths of the
    search that rebuilt the velocity at every candidate depth."""

    @pytest.mark.parametrize("horizon", [None, 0.7, 0.4])
    def test_same_depths_on_workload_shapes(self, horizon):
        trips = WORKLOAD_TRIPLETS + [validate_triplets(seed)[1] for seed in (1, 2)]
        for trip in trips:
            for level in (1, 2, 3, 4):
                assert velocity_depth(trip, level, DEEP, horizon) \
                    == rebuilding_velocity_depth(trip, level, DEEP, horizon)

    def test_same_depths_on_random_triplets(self):
        rng = np.random.default_rng(7)
        searched = set()
        for _ in range(30):
            trip = random_jump_triplet(rng)
            cap = {1: 24, 2: 13, 3: 8}[trip.dim]
            for level in (1, 3):
                for horizon in (None, float(rng.uniform(0.1, 1.0))):
                    depth = velocity_depth(trip, level, cap, horizon)
                    assert depth == rebuilding_velocity_depth(trip, level, cap, horizon)
                    searched.add(depth)
        assert len(searched) >= 5              # the searches end at many depths

    def test_atom_levels_are_those_of_exp_tensor(self):
        rng = np.random.default_rng(3)
        for d, with_area in ((1, False), (2, True), (3, True), (2, False)):
            levels = [np.zeros(1), rng.uniform(-1.0, 1.0, d)]
            if with_area:
                a = rng.uniform(-0.5, 0.5, size=(d, d))
                levels.append((a - a.T).ravel())
            x = TT.from_levels(d, levels)
            ref = ta.exp_tensor(x.with_depth(7))
            got = list(_exp_levels(x, 7))
            assert len(got) == 8
            for lev, want in zip(got, ref.levels):
                assert lev.shape == want.shape
                np.testing.assert_allclose(lev, want, rtol=1e-13, atol=1e-16)

    def test_horizon_outside_the_grid(self):
        from levy_sigkernel.errors import OutOfRange
        for horizon in (float("nan"), -0.1, 1.5):
            with pytest.raises(OutOfRange):
                velocity_depth(WORKLOAD_TRIPLETS[0], 3, DEEP, horizon)


class TestNeedDepthCertificate:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("shape", ["kernel", "validate"])
    def test_within_one_ppm_above_the_budget_depth_certificate(self, seed, shape):
        trips = kernel_triplets(seed) if shape == "kernel" else validate_triplets(seed)
        m = 3 if shape == "kernel" else 4
        need = [characteristic_velocity(t, velocity_depth(t, m, DEEP, 1.0))
                for t in trips]
        deep = [characteristic_velocity(t, DEEP) for t in trips]
        assert max(v.depth for v in need) <= 14
        cert = truncation_certificate(*need, m, m, 1.0, 1.0)
        ref = truncation_certificate(*deep, m, m, 1.0, 1.0)
        assert ref <= cert <= ref * (1 + 1e-6)

    def test_covers_the_omitted_levels(self):
        trip = WORKLOAD_TRIPLETS[0]
        v = characteristic_velocity(trip, 6)
        exact_only = PiecewiseVelocity(2, v.time_grid, v.tensors)
        plain = truncation_certificate(exact_only, exact_only, 3, 3, 1.0, 1.0)
        omit = v.omitted_mass(0.0, 1.0)
        assert omit > 0.0
        assert truncation_certificate(v, v, 3, 3, 1.0, 1.0) == pytest.approx(
            plain * math.exp(2 * omit) * (1 + 2 * omit / (2 * v.tail_mass(0.0, 1.0, 3))),
            rel=1e-12)


class TestDevelopmentInnerProduct:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("truncate", [True, False])
    def test_bound_covers_the_deep_value_on_validate_shapes(self, seed, truncate):
        trips = validate_triplets(seed)
        va, vb = (characteristic_velocity(t, velocity_depth(t, 4, DEEP)) for t in trips)
        if truncate:
            va, vb = va.truncated(4), vb.truncated(4)
        value, depth, bound = development_inner_product(va, vb, 0.0, 1.0, 4, DEEP)
        deep = ta.inner_product(develop(va, 0.0, 1.0, DEEP), develop(vb, 0.0, 1.0, DEEP))
        assert 4 <= depth <= 14
        assert abs(value - deep) <= bound
        assert bound <= 1e-14 * math.exp(va.mass(0.0, 1.0) + vb.mass(0.0, 1.0))
        assert value == ta.inner_product(develop(va, 0.0, 1.0, depth),
                                         develop(vb, 0.0, 1.0, depth))

    def test_bound_covers_the_deep_value_on_random_velocities(self):
        rng = np.random.default_rng(16)
        grid = np.array([0.0, 0.3, 1.0])
        for scale in (0.5, 1.5, 3.0):
            v, w = (PiecewiseVelocity(2, grid, [random_velocity_tensor(rng, 2, 3, scale)
                                                for _ in range(2)]) for _ in range(2))
            for top in (3, 6, 9):
                value, depth, bound = development_inner_product(v, w, 0.0, 1.0, 3, top)
                deep = ta.inner_product(develop(v, 0.0, 1.0, 16), develop(w, 0.0, 1.0, 16))
                assert depth <= top
                assert abs(value - deep) <= bound + 1e-15 * abs(deep)

    def test_zero_velocities_need_the_least_depth(self):
        zero = PiecewiseVelocity(2, [0.0, 1.0], [TT.zero(2, 3)])
        value, depth, bound = development_inner_product(zero, zero, 0.0, 1.0, 2, 9)
        assert (value, depth) == (1.0, 2) and bound <= 1e-100

    def test_depth_range_must_be_nonempty(self):
        zero = PiecewiseVelocity(2, [0.0, 1.0], [TT.zero(2, 3)])
        with pytest.raises(InvalidParameter):
            development_inner_product(zero, zero, 0.0, 1.0, 5, 4)

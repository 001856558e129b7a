import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from levy_sigkernel import tensor_algebra as ta
from levy_sigkernel.characteristics import (LevyTriplet, PiecewiseVelocity,
                                            characteristic_velocity)
from levy_sigkernel.development import bound_outer_truncation, develop
from levy_sigkernel.errors import GridMismatch, InvalidParameter
from levy_sigkernel.kernel_solver import (apriori_psi, bessel_i0, make_grid,
                                          solve_goursat_scalar,
                                          solve_truncated_system,
                                          truncation_certificate)
from levy_sigkernel.tensor_algebra import TruncatedTensor as TT

from conftest import random_velocity_tensor

I0_1 = 1.2660658777520084
I0_2 = 2.2795853023360673


def unigrid(n, horizon=1.0):
    return np.linspace(0.0, horizon, n)


def development_oracle(v, vt, m, n, horizon, depth):
    return ta.inner_product(develop(v.truncated(m), 0, horizon, depth),
                            develop(vt.truncated(n), 0, horizon, depth))


class TestBessel:
    def test_i0_at_zero(self):
        assert bessel_i0(0.0) == 1.0

    def test_i0_reference_values(self):
        # series oracle with term-size stopping; the constants here were
        # frozen from an independent 60-term evaluation of the same series
        assert bessel_i0(1.0) == pytest.approx(I0_1, abs=1e-15)
        assert bessel_i0(2.0) == pytest.approx(I0_2, abs=1e-15)

    def test_i0_monotone(self):
        zs = np.linspace(0, 5, 21)
        vals = [bessel_i0(z) for z in zs]
        assert np.all(np.diff(vals) > 0)

    def test_i0_series_partial_sums(self):
        # brute-force partial sums converge to the evaluator's value
        z = 1.7
        direct = sum((z / 2) ** (2 * k) / math.factorial(k) ** 2 for k in range(40))
        assert bessel_i0(z) == pytest.approx(direct, rel=1e-15)

    def test_psi(self):
        assert apriori_psi(0.0, 3.0) == pytest.approx(math.exp(3.0), rel=1e-15)
        assert apriori_psi(1.0, 1.0) == pytest.approx(math.exp(2.0) * bessel_i0(2.0),
                                                      rel=1e-14)
        with pytest.raises(InvalidParameter):
            apriori_psi(-1.0, 1.0)
        with pytest.raises(InvalidParameter):
            bessel_i0(-0.1)

    def test_overflow_returns_inf(self):
        assert bessel_i0(1500.0) == math.inf
        assert bessel_i0(1e200) == math.inf
        assert apriori_psi(400.0, 400.0) == math.inf
        assert apriori_psi(0.0, 709.0) == pytest.approx(math.exp(709.0), rel=1e-15)
        with pytest.raises(InvalidParameter):
            bessel_i0(math.nan)

    @settings(max_examples=60, deadline=500)
    @given(z=st.floats(min_value=0.0, max_value=1e300))
    def test_i0_total_on_extreme_input(self, z):
        val = bessel_i0(z)
        assert isinstance(val, float) and val >= 1.0

    @settings(max_examples=60, deadline=500)
    @given(x=st.floats(min_value=0.0, max_value=1e300),
           y=st.floats(min_value=0.0, max_value=1e300))
    def test_psi_total_on_extreme_input(self, x, y):
        val = apriori_psi(x, y)
        assert isinstance(val, float) and val >= 1.0


class TestScalarGoursat:
    def test_zero_alpha(self):
        surf = solve_goursat_scalar(lambda s, t: 0.0, unigrid(17), unigrid(17))
        assert np.all(surf.w == 1.0)

    def test_constant_alpha_bessel(self):
        g = unigrid(513)
        surf = solve_goursat_scalar((lambda s: 1.0, lambda t: 1.0), g, g)
        assert abs(surf.value() - I0_2) / I0_2 < 1e-4
        # closed form at interior points too
        i = 256
        assert surf.w[i, i] == pytest.approx(bessel_i0(2 * g[i]), rel=1e-4)

    def test_separable_alpha_bessel(self):
        # f(s) = 2s, g(t) = 1 -> F = s^2, G = t, u = I0(2 s sqrt(t))
        g = unigrid(513)
        surf = solve_goursat_scalar((lambda s: 2.0 * s, lambda t: 1.0), g, g)
        assert surf.value() == pytest.approx(bessel_i0(2.0), rel=1e-4)
        assert surf.w[256, 512] == pytest.approx(bessel_i0(2 * 0.5), rel=1e-4)

    def test_cellwise_alpha_matches_callable(self):
        g = unigrid(65)
        cells = np.full((64, 64), 0.8)
        a = solve_goursat_scalar(cells, g, g)
        b = solve_goursat_scalar((lambda s: 0.8, lambda t: 1.0), g, g)
        assert np.abs(a.w - b.w).max() < 1e-13

    def test_negative_alpha_oscillates_below_one(self):
        g = unigrid(129)
        surf = solve_goursat_scalar((lambda s: -1.0, lambda t: 1.0), g, g)
        # u = J0-type series: 1 - st + (st)^2/4 - ... = sum (-st)^k/(k!)^2
        ref = sum((-1.0) ** k / math.factorial(k) ** 2 for k in range(30))
        assert surf.value() == pytest.approx(ref, rel=1e-4)


class TestLevel2System:
    """Continuous triplets with second-level characteristics, solved as the
    truncated system at M = N = 2 on their level-2 velocities."""

    @staticmethod
    def solve(t1, t2, g):
        return solve_truncated_system(characteristic_velocity(t1, 2),
                                      characteristic_velocity(t2, 2), 2, 2, g, g)

    def test_two_standard_bms_bessel(self):
        bm = LevyTriplet.brownian(1, 1.0)
        g = unigrid(257)
        surf = self.solve(bm, bm, g)
        assert abs(surf.value() - I0_1) < 1e-4

    def test_reduces_to_scalar_goursat(self, rng):
        # b = 0, no area: alpha(s,t) = <a(s), a(t)>/4
        cov = np.array([[0.9, 0.2], [0.2, 0.4]])
        trip = LevyTriplet.homogeneous(2, 1.0, cov=cov)
        g = unigrid(65)
        surf = self.solve(trip, trip, g)
        alpha = 0.25 * np.sum(cov * cov)
        ref = solve_goursat_scalar((lambda s: alpha, lambda t: 1.0), g, g)
        assert np.abs(surf.w - ref.w).max() < 1e-12
        assert np.abs(surf.f).max() == 0.0

    def test_deterministic_paths_match_development(self, rng):
        grid = np.array([0.0, 0.5, 1.0])
        trips = []
        for _ in range(2):
            ar = rng.normal(size=(2, 2)) * 0.4
            trips.append(LevyTriplet(
                dim=2, time_grid=grid,
                drifts=[rng.normal(size=2) * 0.7 for _ in range(2)],
                covs=[np.zeros((2, 2))] * 2,
                areas=[(ar - ar.T) * 0.5, (ar.T - ar) * 0.25], state_depth=2))
        g = make_grid(1.0, 257, grid)
        surf = self.solve(trips[0], trips[1], g)
        v1 = characteristic_velocity(trips[0], 2)
        v2 = characteristic_velocity(trips[1], 2)
        ref = ta.inner_product(develop(v1, 0, 1, 12), develop(v2, 0, 1, 12))
        assert abs(surf.value() - ref) / abs(ref) < 1e-3


def random_velocity(rng, dim, depth, grid, scale):
    return PiecewiseVelocity(dim, grid, [random_velocity_tensor(rng, dim, depth, scale)
                                         for _ in range(len(grid) - 1)])


class TestTruncatedSystem:
    def test_zero_velocities(self):
        v = PiecewiseVelocity(2, [0.0, 1.0], [TT.zero(2, 3)])
        surf = solve_truncated_system(v, v, 3, 3, unigrid(9), unigrid(9))
        assert np.all(surf.w == 1.0)
        assert np.abs(surf.f).max() == 0.0 and np.abs(surf.ftilde).max() == 0.0

    def test_level1_matches_scalar_goursat(self, rng):
        # V-valued velocities at M = N = 1 reduce to the classical problem
        grid = np.array([0.0, 1.0])
        x = TT.from_levels(1, [[0.0], [0.9]])
        y = TT.from_levels(1, [[0.0], [1.1]])
        v = PiecewiseVelocity(1, grid, [x])
        vt = PiecewiseVelocity(1, grid, [y])
        g = unigrid(65)
        surf = solve_truncated_system(v, vt, 1, 1, g, g)
        ref = solve_goursat_scalar((lambda s: 0.9, lambda t: 1.1), g, g)
        assert np.abs(surf.w - ref.w).max() < 1e-12

    def test_oracle_equivalence_and_order(self, rng):
        grid = np.array([0.0, 0.3, 0.7, 1.0])
        v = random_velocity(rng, 2, 3, grid, scale=0.12)
        vt = random_velocity(rng, 2, 3, grid, scale=0.12)
        depth = next(dd for dd in range(6, 30)
                     if bound_outer_truncation(v, 0, 1, 3, dd + 1) < 1e-8)
        oracle = development_oracle(v, vt, 3, 3, 1.0, depth)
        errs = []
        for n in (33, 65, 129):
            g = make_grid(1.0, n, grid)
            surf = solve_truncated_system(v, vt, 3, 3, g, g)
            errs.append(abs(surf.value() - oracle))
        orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
        assert errs[-1] / abs(oracle) < 1e-3
        assert min(orders) > 1.7, (errs, orders)

    def test_asymmetric_levels_match_oracle(self, rng):
        # M != N exercises the corrected cross-term truncation levels
        grid = np.array([0.0, 0.6, 1.0])
        for m, n in [(1, 2), (2, 1), (2, 3), (3, 2)]:
            v = random_velocity(rng, 2, 3, grid, scale=0.3)
            vt = random_velocity(rng, 2, 3, grid, scale=0.3)
            oracle = development_oracle(v, vt, m, n, 1.0, 16)
            g = make_grid(1.0, 129, grid)
            surf = solve_truncated_system(v, vt, m, n, g, g)
            assert abs(surf.value() - oracle) / abs(oracle) < 1e-4, (m, n)

    def test_symmetry_under_swap(self, rng):
        grid = np.array([0.0, 0.4, 1.0])
        v = random_velocity(rng, 2, 2, grid, scale=0.5)
        vt = random_velocity(rng, 2, 2, grid, scale=0.5)
        g1, g2 = make_grid(1.0, 17, grid), make_grid(1.0, 25, grid)
        a = solve_truncated_system(v, vt, 2, 2, g1, g2)
        b = solve_truncated_system(vt, v, 2, 2, g2, g1)
        assert np.abs(a.w - b.w.T).max() < 1e-12

    def test_grid_must_refine_breakpoints(self, rng):
        grid = np.array([0.0, 0.37, 1.0])
        v = random_velocity(rng, 1, 2, grid, scale=0.5)
        with pytest.raises(GridMismatch):
            solve_truncated_system(v, v, 2, 2, unigrid(11), unigrid(11))
        with pytest.raises(InvalidParameter):
            solve_truncated_system(v, v, 0, 2, make_grid(1, 11, grid),
                                   make_grid(1, 11, grid))

    def test_richardson_improves_value(self, rng):
        grid = np.array([0.0, 1.0])
        v = random_velocity(rng, 1, 2, grid, scale=0.8)
        vt = random_velocity(rng, 1, 2, grid, scale=0.8)
        oracle = development_oracle(v, vt, 2, 2, 1.0, 30)
        g = unigrid(33)
        plain = solve_truncated_system(v, vt, 2, 2, g, g)
        extrap = solve_truncated_system(v, vt, 2, 2, g, g, richardson=True)
        assert abs(extrap.value() - oracle) < abs(plain.value() - oracle) / 4

    def test_apriori_bound_holds(self, rng):
        grid = np.array([0.0, 0.5, 1.0])
        v = random_velocity(rng, 2, 3, grid, scale=0.8)
        vt = random_velocity(rng, 2, 3, grid, scale=0.8)
        g = make_grid(1.0, 33, grid)
        surf = solve_truncated_system(v, vt, 3, 3, g, g)
        assert surf.apriori_margin() <= 1e-12


class TestCertificate:
    def test_continuous_triplet_certificate_zero(self):
        trip = LevyTriplet.brownian(2, 1.0)
        v = characteristic_velocity(trip, 6)
        assert truncation_certificate(v, v, 2, 2, 1.0, 1.0) == 0.0

    def test_zero_velocity(self):
        v = PiecewiseVelocity(1, [0.0, 1.0], [TT.zero(1, 4)])
        assert truncation_certificate(v, v, 2, 2, 1.0, 1.0) == 0.0

    def test_overflowing_mass(self):
        # zero tail: 0.0 rather than inf * 0 = nan; positive tail: inf
        x = TT.from_levels(1, [[0.0], [900.0], [900.0]])
        v = PiecewiseVelocity(1, [0.0, 1.0], [x])
        assert truncation_certificate(v, v, 2, 2, 1.0, 1.0) == 0.0
        assert truncation_certificate(v, v, 1, 1, 1.0, 1.0) == math.inf

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @settings(max_examples=60, deadline=500)
    @given(scale=st.floats(min_value=0.0, max_value=1e300),
           level=st.integers(min_value=1, max_value=3),
           s=st.floats(min_value=0.0, max_value=1.0))
    def test_total_on_extreme_input(self, scale, level, s):
        x = TT.from_levels(1, [[0.0], [scale], [-scale], [0.5 * scale]])
        v = PiecewiseVelocity(1, [0.0, 1.0], [x])
        cert = truncation_certificate(v, v, level, level, s, 1.0)
        assert isinstance(cert, float) and cert >= 0.0

    def test_certificate_bounds_true_gap(self):
        from levy_sigkernel.characteristics import GaussianJumps
        trip = LevyTriplet.homogeneous(
            1, 1.0, jumps=GaussianJumps(1.0, np.array([[1.0]])))
        v_full = characteristic_velocity(trip, 30)
        for m in (2, 4):
            u_ref = ta.inner_product(develop(v_full, 0, 1, 40),
                                     develop(v_full, 0, 1, 40))
            w_trunc = development_oracle(v_full, v_full, m, m, 1.0, 40)
            cert = truncation_certificate(v_full, v_full, m, m, 1.0, 1.0)
            assert abs(u_ref - w_trunc) <= cert

    def test_certificate_decay_matches_tail_bound_trend(self):
        from levy_sigkernel.characteristics import GaussianJumps
        from levy_sigkernel.development import gaussian_jump_tail_bound
        trip = LevyTriplet.homogeneous(
            1, 1.0, jumps=GaussianJumps(1.0, np.array([[1.0]])))
        v = characteristic_velocity(trip, 30)
        certs = [truncation_certificate(v, v, m, m, 1.0, 1.0) for m in (2, 4, 6, 8)]
        bounds = [2 * math.exp(2 * v.mass(0, 1))
                  * gaussian_jump_tail_bound(np.array([[1.0]]), 1.0, 1.0, m // 2)
                  for m in (2, 4, 6, 8)]
        cert_ratios = np.array(certs[1:]) / np.array(certs[:-1])
        bound_ratios = np.array(bounds[1:]) / np.array(bounds[:-1])
        assert np.all(np.diff(cert_ratios) < 0)
        assert np.all(cert_ratios < 1.0)
        # certified decay is at least as fast as the Example-style bound decay
        assert np.all(cert_ratios <= bound_ratios * 1.5)


class TestSurfaces:
    def test_csv_round_trip(self, rng, tmp_path):
        grid = np.array([0.0, 1.0])
        v = random_velocity(rng, 1, 2, grid, scale=0.7)
        surf = solve_truncated_system(v, v, 2, 2, unigrid(9), unigrid(9))
        path = tmp_path / "surface.csv"
        surf.to_csv(path, include_fields=True)
        rows = path.read_text().strip().split("\n")
        assert rows[0] == "s,t,w,f_norm,ftilde_norm"
        for i, s in enumerate(surf.s_grid):
            for j, t in enumerate(surf.t_grid):
                cells = rows[1 + i * len(surf.t_grid) + j].split(",")
                assert float(cells[0]) == s and float(cells[1]) == t
                assert float(cells[2]) == surf.w[i, j]

    def test_field_accessors(self, rng):
        grid = np.array([0.0, 1.0])
        v = random_velocity(rng, 2, 2, grid, scale=0.7)
        surf = solve_truncated_system(v, v, 2, 2, unigrid(9), unigrid(9))
        f = surf.f_tensor(4, 4)
        assert f.dim == 2 and f.depth == 1 and f.scalar() == 0.0

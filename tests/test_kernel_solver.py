import copy
import json
import math
import os
import signal
import threading
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from levy_sigkernel import _forks, _shortest, cli
from levy_sigkernel import tensor_algebra as ta
from levy_sigkernel.characteristics import (LevyTriplet, PiecewiseVelocity,
                                            characteristic_velocity)
from levy_sigkernel.development import bound_outer_truncation, develop
from levy_sigkernel.errors import GridMismatch, InvalidParameter, NumericalInconsistency
from levy_sigkernel import mmd
from levy_sigkernel import kernel_solver
from levy_sigkernel.kernel_solver import (_CORRECTOR_PASSES, KernelSurface, _apply_maps,
                                          _cell_increments, _cell_intervals,
                                          _coefficients, _refine, _side_tables,
                                          _solve_truncated_batch, _step_classes,
                                          _Tables, _takes_maps, _transfer_maps,
                                          apriori_psi, bessel_i0,
                                          log_apriori_psi, make_grid,
                                          solve_goursat_scalar,
                                          solve_truncated_system,
                                          truncation_certificate)
from levy_sigkernel.mmd import AugmentedPathEnsemble, WienerSpec, mmd_to_wiener
from levy_sigkernel.tensor_algebra import TruncatedTensor as TT

from conftest import (benchmark_workloads, gamma, mixed_corner_batch, open_fds,
                      random_velocity)

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

    def test_log_psi_finite_where_psi_overflows(self):
        # log psi(400, 400) = 800 + log I_0(800), frozen from a 40-digit evaluation
        assert apriori_psi(400.0, 400.0) == math.inf
        assert log_apriori_psi(400.0, 400.0) == pytest.approx(1595.738911950745, rel=1e-14)
        assert log_apriori_psi(0.0, 0.0) == 0.0
        with pytest.raises(InvalidParameter):
            log_apriori_psi(-1.0, 1.0)
        with pytest.raises(InvalidParameter):
            log_apriori_psi(np.array([0.0, math.nan]), 1.0)

    def test_log_psi_finite_where_xy_overflows(self):
        # x y = 1e400 overflows; log psi = x + y + z + log i0e(z) with
        # z = 2 sqrt(x y) = 2e200, where log i0e(z) is about -230
        assert log_apriori_psi(1e200, 1e200) == pytest.approx(4e200, rel=1e-15)
        assert log_apriori_psi(1e300, 1e10) == pytest.approx(1e300, rel=1e-15)
        # the entries whose x y is finite keep the bits they have alone
        x, y = np.array([1e200, 2.0, 1e150]), np.array([1e200, 3.0, 1e150])
        table = log_apriori_psi(x, y)
        assert np.all(np.isfinite(table))
        assert table[1] == log_apriori_psi(2.0, 3.0)
        assert table[2] == log_apriori_psi(1e150, 1e150)

    def test_exp_log_psi_matches_psi(self):
        # exp turns the rounding of its argument L = log psi into a relative
        # error of up to |L| eps (1.2e-13 at L near 700), so the tolerance is
        # 1e-14 plus that conditioning; log psi itself agrees to 2 eps relative
        eps = np.finfo(float).eps
        xs = np.concatenate([[0.0, 1e-3, 0.5, 1.0, 300.0], np.linspace(0.0, 300.0, 31)])
        for x in xs:
            for y in xs:
                psi = apriori_psi(x, y)
                if not math.isfinite(psi):
                    continue
                log_psi = log_apriori_psi(x, y)
                assert math.exp(log_psi) == pytest.approx(psi, rel=1e-14 + 2 * eps * log_psi)
                assert log_psi == pytest.approx(math.log(psi), rel=2 * eps, abs=1e-15)

    def test_log_psi_broadcasts_as_in_the_margin(self):
        x, y = np.array([0.0, 0.3, 2.0]), np.array([0.0, 1.5, 400.0, 700.0])
        table = log_apriori_psi(x[:, None], y[None, :])
        assert table.shape == (3, 4) and np.all(np.isfinite(table))
        for i, j in np.ndindex(table.shape):
            assert table[i, j] == log_apriori_psi(x[i], y[j])

    @settings(max_examples=60, deadline=500)
    @given(x=st.floats(min_value=0.0, max_value=1e300),
           y=st.floats(min_value=0.0, max_value=1e300))
    def test_log_psi_total_on_extreme_input(self, x, y):
        val = log_apriori_psi(x, y)
        assert val >= 0.0 and not math.isnan(val)

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

    @pytest.mark.parametrize("n_s, n_t", [(1, 2), (2, 1), (1, 1)])
    def test_single_node_grid_has_no_cells(self, n_s, n_t):
        surf = solve_goursat_scalar((lambda s: 1.0, lambda t: 1.0), unigrid(n_s), unigrid(n_t))
        assert surf.w.shape == (n_s, n_t) and np.all(surf.w == 1.0)
        assert surf.meta["cells"] == surf.meta["maps"] == 0

    @pytest.mark.parametrize("grid", [
        np.array([0.0, 0.5, 0.2]), np.array([0.0, 0.5, 0.5]), np.array([[0.0, 0.5, 1.0]]),
        np.array([0.0, math.nan, 1.0]), np.array([0.0, 0.5, math.inf]), np.array([])],
        ids=["decreasing", "repeated", "2-d", "nan", "inf", "empty"])
    def test_bad_grid_raises(self, grid):
        for s_grid, t_grid in ((grid, unigrid(5)), (unigrid(5), grid)):
            with pytest.raises(GridMismatch):
                solve_goursat_scalar((lambda s: 1.0, lambda t: 1.0), s_grid, t_grid)

    def test_grid_need_not_start_at_zero(self):
        # u = I_0(2 sqrt((s - s0) t)) for constant alpha = 1
        s_grid, t_grid = 0.5 + unigrid(129, 0.5), unigrid(129)
        surf = solve_goursat_scalar((lambda s: 1.0, lambda t: 1.0), s_grid, t_grid)
        assert surf.value() == pytest.approx(bessel_i0(2 * math.sqrt(0.5)), rel=1e-4)
        assert np.all(surf.w[0] == 1.0) and np.all(surf.w[:, 0] == 1.0)

    def test_nan_alpha_raises(self):
        cells = np.full((8, 8), 0.5)
        cells[3, 4] = math.nan
        with pytest.raises(NumericalInconsistency):
            solve_goursat_scalar(cells, unigrid(9), unigrid(9))

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


def coefficients(v, vt, M, N):
    """The nine coefficient tables of one truncated system."""
    return _coefficients(_side_tables(v, M, N), _side_tables(vt, N, M))


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
        # the fields hold only their always-zero scalar slot, which the
        # state leaves out: the sweep is the scalar one, bit for bit
        assert surf.meta["state_width"] == 1
        assert surf.f.shape[-1] == surf.ftilde.shape[-1] == 0
        assert np.array_equal(surf.w, ref.w)

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

    def test_pair_with_itself_rounds_as_with_a_copy(self):
        # (v, v) shares one side table on both sides; numpy's matmul takes
        # syrk on operands that view one buffer and gemm otherwise, and on
        # these draws the two differed in the last bits of 2 of the 6
        # surfaces before A's right operand was copied
        rng = np.random.default_rng(2)
        for _ in range(6):
            n = int(rng.integers(3, 9))
            grid = np.concatenate([[0.0], np.sort(rng.uniform(0.05, 0.95, n - 1)), [1.0]])
            v = random_velocity(rng, 3, 3, grid, scale=0.6)
            g = make_grid(1.0, 41, grid)
            a = solve_truncated_system(v, v, 3, 3, g, g)
            b = solve_truncated_system(v, copy.deepcopy(v), 3, 3, g, g)
            for field in ("w", "f", "ftilde"):
                assert getattr(a, field).tobytes() == getattr(b, field).tobytes()

    def test_grid_must_refine_breakpoints(self, rng):
        grid = np.array([0.0, 0.37, 1.0])
        v = random_velocity(rng, 1, 2, grid, scale=0.5)
        with pytest.raises(GridMismatch):
            solve_truncated_system(v, v, 2, 2, unigrid(11), unigrid(11))
        with pytest.raises(InvalidParameter):
            solve_truncated_system(v, v, 0, 2, make_grid(1, 11, grid),
                                   make_grid(1, 11, grid))

    def test_richardson_improves_value(self, rng):
        # the scheme is second order: extrapolating the coarse and the
        # midpoint-refined solves at the call site beats the coarse value
        grid = np.array([0.0, 1.0])
        v = random_velocity(rng, 1, 2, grid, scale=0.8)
        vt = random_velocity(rng, 1, 2, grid, scale=0.8)
        oracle = development_oracle(v, vt, 2, 2, 1.0, 30)
        g = unigrid(33)
        plain = solve_truncated_system(v, vt, 2, 2, g, g)
        fine = solve_truncated_system(v, vt, 2, 2, _refine(g), _refine(g))
        assert fine.meta["cells"] == 64 * 64
        extrap = (4.0 * fine.value() - plain.value()) / 3.0
        assert abs(extrap - oracle) < abs(plain.value() - oracle) / 4

    def test_apriori_bound_holds(self, rng):
        grid = np.array([0.0, 0.5, 1.0])
        v = random_velocity(rng, 2, 3, grid, scale=0.8)
        vt = random_velocity(rng, 2, 3, grid, scale=0.8)
        g = make_grid(1.0, 33, grid)
        surf = solve_truncated_system(v, vt, 3, 3, g, g)
        assert surf.apriori_margin() <= 1e-12

    def test_apriori_margin_equals_the_per_node_bound(self, rng):
        grid = np.array([0.0, 0.5, 1.0])
        v = random_velocity(rng, 2, 3, grid, scale=2.0)
        vt = random_velocity(rng, 2, 3, grid, scale=3.0)
        g = make_grid(1.0, 17, grid)
        surf = solve_truncated_system(v, vt, 3, 3, g, g)
        psi = np.array([[apriori_psi(cs, ct) for ct in surf.t_mass]
                        for cs in surf.s_mass])
        assert surf.apriori_margin() == pytest.approx(
            float((np.abs(surf.w) - psi).max()), rel=0, abs=1e-13 * psi.max())

    def test_apriori_margin_where_psi_overflows(self):
        # apriori_psi(400, 400) is inf; the log-space margin neither warns
        # nor turns it into NaN
        mass = np.array([0.0, 400.0])
        surf = KernelSurface(mass, mass, np.ones((2, 2)), s_mass=mass, t_mass=mass)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert surf.apriori_margin() == 0.0


def lexicographic_sweep(ds, dt, sidx, tidx, A, B, C, qx, RX, AX, qy, RY, AY):
    """Reference: the cell-by-cell sweep in lexicographic order that the
    anti-diagonal sweep replaced, on one surface's coefficient tables."""
    n_i, n_j = len(ds), len(dt)
    df, dg = qx.shape[1], qy.shape[1]
    w = np.ones((n_i + 1, n_j + 1))
    F = np.zeros((n_i + 1, n_j + 1, df))
    G = np.zeros((n_i + 1, n_j + 1, dg))
    for i in range(n_i):
        a, h = sidx[i], ds[i]
        f0 = F[i, 0]
        d0 = qx[a] + RX[a] @ f0
        f1 = f0 + h * d0
        for _ in range(_CORRECTOR_PASSES):
            f1 = f0 + 0.5 * h * (d0 + qx[a] + RX[a] @ f1)
        F[i + 1, 0] = f1
    for j in range(n_j):
        b, k = tidx[j], dt[j]
        g0 = G[0, j]
        d0 = qy[b] + RY[b] @ g0
        g1 = g0 + k * d0
        for _ in range(_CORRECTOR_PASSES):
            g1 = g0 + 0.5 * k * (d0 + qy[b] + RY[b] @ g1)
        G[0, j + 1] = g1
    for i in range(n_i):
        a, h = sidx[i], ds[i]
        qxa, RXa, AXa = qx[a], RX[a], AX[a]
        wp, wn = w[i], w[i + 1]
        Fp, Fn = F[i], F[i + 1]
        Gp, Gn = G[i], G[i + 1]
        Arow, Brow, Crow = A[a, tidx], B[a, tidx], C[a, tidx]
        fb0 = np.einsum("jd,jd->j", Fp[:-1], Brow)
        gc0 = np.einsum("jd,jd->j", Gp[:-1], Crow)
        fb1 = np.einsum("jd,jd->j", Fp[1:], Brow)
        gc1 = np.einsum("jd,jd->j", Gp[1:], Crow)
        phi00 = wp[:-1] * Arow + fb0 + gc0
        phi01 = wp[1:] * Arow + fb1 + gc1
        Fd01 = wp[1:, None] * qxa + Fp[1:] @ RXa.T + Gp[1:] @ AXa.T
        for j in range(n_j):
            b, k = tidx[j], dt[j]
            hk = h * k
            Aab, Bab, Cab = Arow[j], Brow[j], Crow[j]
            qyb, RYb, AYb = qy[b], RY[b], AY[b]
            wn_j, Fn_j, Gn_j = wn[j], Fn[j], Gn[j]
            phi10 = wn_j * Aab + Fn_j @ Bab + Gn_j @ Cab
            cross = wp[j + 1] - wp[j]
            Gd10 = wn_j * qyb + RYb @ Gn_j + AYb @ Fn_j
            w11 = wn_j + cross + hk * phi00[j]
            F11 = Fp[j + 1] + h * Fd01[j]
            G11 = Gn_j + k * Gd10
            for _ in range(_CORRECTOR_PASSES):
                phi11 = w11 * Aab + F11 @ Bab + G11 @ Cab
                Fd11 = w11 * qxa + RXa @ F11 + AXa @ G11
                Gd11 = w11 * qyb + RYb @ G11 + AYb @ F11
                w11 = wn_j + cross + 0.25 * hk * (phi00[j] + phi10 + phi01[j] + phi11)
                F11 = Fp[j + 1] + 0.5 * h * (Fd01[j] + Fd11)
                G11 = Gn_j + 0.5 * k * (Gd10 + Gd11)
            wn[j + 1] = w11
            Fn[j + 1] = F11
            Gn[j + 1] = G11
    return w, F, G


U = np.finfo(float).eps / 2


def reference_cells(x00, x01, x10, h, k, A, B, C, qx, RX, AX, qy, RY, AY, sign=-1.0):
    """Reference: the cell update of ``lexicographic_sweep`` for a stack of
    cells (leading axis) with corner states x = (w, F, G).  Returns the
    structural part of the far corner, (w10 + (w01 - w00), F01, G10), and
    the increment over it; the far corner is their sum.  Called on
    magnitudes with ``sign=+1`` every subtraction becomes an addition, so
    the increment is then the sum of the magnitudes of all its terms, which
    bounds the rounding of any evaluation order (Higham, Accuracy and
    Stability of Numerical Algorithms, Ch. 3)."""
    df = qx.shape[-1]
    (w00, F00, G00), (w01, F01, G01), (w10, F10, G10) = (
        (x[:, 0], x[:, 1:1 + df], x[:, 1 + df:]) for x in (x00, x01, x10))
    A00, A01, A10, A11 = A
    hk, hc, kc = h * k, h[:, None], k[:, None]

    def dot(x, y):
        return np.einsum("cd,cd->c", x, y)

    def mv(mat, x):
        return np.einsum("cij,cj->ci", mat, x)

    phi00 = w00 * A00 + dot(F00, B) + dot(G00, C)
    phi01 = w01 * A01 + dot(F01, B) + dot(G01, C)
    phi10 = w10 * A10 + dot(F10, B) + dot(G10, C)
    base_w = w10 + (w01 + sign * w00)
    Fd01 = w01[:, None] * qx + mv(RX, F01) + mv(AX, G01)
    Gd10 = w10[:, None] * qy + mv(RY, G10) + mv(AY, F10)
    dw, dF, dG = hk * phi00, hc * Fd01, kc * Gd10
    for _ in range(_CORRECTOR_PASSES):
        w11, F11, G11 = base_w + dw, F01 + dF, G10 + dG
        phi11 = w11 * A11 + dot(F11, B) + dot(G11, C)
        Fd11 = w11[:, None] * qx + mv(RX, F11) + mv(AX, G11)
        Gd11 = w11[:, None] * qy + mv(RY, G11) + mv(AY, F11)
        dw = 0.25 * hk * (phi00 + phi10 + phi01 + phi11)
        dF = 0.5 * hc * (Fd01 + Fd11)
        dG = 0.5 * kc * (Gd10 + Gd11)
    return np.column_stack([base_w, F01, G10]), np.column_stack([dw, dF, dG])


def cell_coefficients(tables, ds, dt, sidx, tidx, i, j, magnitudes=False):
    """Per-cell coefficient arguments of ``reference_cells`` for cells
    (i, j) of one surface with tables (A00, A01, A10, A11), B, ..., AY."""
    A4, B, C, qx, RX, AX, qy, RY, AY = tables
    a, b = sidx[i], tidx[j]
    out = (ds[i], dt[j], tuple(x[a, b] for x in A4), B[a, b], C[a, b],
           qx[a], RX[a], AX[a], qy[b], RY[b], AY[b])
    if magnitudes:
        out = tuple(tuple(map(np.abs, c)) if isinstance(c, tuple) else np.abs(c)
                    for c in out)
    return out


def update_roundings(D):
    """Roundings along any path of one cell update: the predictor and each
    corrector pass are dot products of length at most D followed by at
    most 8 further operations."""
    return (1 + _CORRECTOR_PASSES) * (D + 8)


def local_bound(D, far, ref_far, delta_abs):
    """Largest difference between the solver's far corner and the reference
    update, both from the same corner states.  Both add the same structural
    part a to an increment, so they differ by the two increments' errors
    plus one rounding of each sum, u (|far| + |ref_far|).  The reference
    increment is within gamma_K of the increment on magnitudes, K =
    ``update_roundings(D)``.  The solver's map entries are the same update
    on unit inputs (gamma_K each), applied by a dot product of length 3D
    (gamma_3D more).  Together: gamma_{2K + 3D}.  The full map of
    [X00, X01, X10] to X11 has no such bound: its entries near +-1 round
    by u, which is not small against the increment."""
    K = update_roundings(D)
    return U * (np.abs(far) + np.abs(ref_far)) + gamma(2 * K + 3 * D) * delta_abs


def assert_sweep_within_rounding(X, X_ref, tables, ds, dt, sidx, tidx):
    """Check the solver's node states X = (w, F, G) against the reference
    sweep's X_ref, from rounding bounds of the increment form.

    Locally, every cell of X must match the reference update of its own
    corner states within ``local_bound``.  Globally, X - X_ref obeys the
    scheme's linear recursion with a source per cell: the local difference,
    plus the reference update's own rounding at the two sets of corner
    states (u for each of fl(w01 - w00), the structural sum and the far
    corner, and gamma_K on the increment).  The w-error at a node is the sum
    over the cells below it of the increment errors, F and G errors add up
    along s and t; bounding each increment error by the magnitudes of the
    increment map applied to the error majorant E gives |X - X_ref| <= E.
    The boundary rows of E start from the measured boundary differences."""
    n_i, n_j, D = len(ds), len(dt), X.shape[-1]
    df = tables[3].shape[-1]
    K = update_roundings(D)
    i, j = (a.ravel() for a in np.meshgrid(np.arange(n_i), np.arange(n_j), indexing="ij"))
    corners = X[i, j], X[i, j + 1], X[i + 1, j]
    base, delta = reference_cells(
        *corners, *cell_coefficients(tables, ds, dt, sidx, tidx, i, j))
    ref_far, far = base + delta, X[i + 1, j + 1]
    base_abs, delta_abs = reference_cells(
        *map(np.abs, corners), *cell_coefficients(tables, ds, dt, sidx, tidx, i, j, True),
        sign=1.0)
    assert np.all(np.abs(far - ref_far) <= local_bound(D, far, ref_far, delta_abs))
    source = np.zeros_like(X)
    source[i + 1, j + 1] = (U * (4 * np.abs(far) + 4 * base_abs)
                            + gamma(4 * K + 3 * D) * delta_abs)
    err = np.abs(X - X_ref)
    E = np.zeros_like(X)
    E[:, 0, 1:1 + df] = err[:, 0, 1:1 + df]
    E[0, :, 1 + df:] = err[0, :, 1 + df:]
    for diag in range(n_i + n_j - 1):
        i = np.arange(max(0, diag - n_j + 1), min(diag, n_i - 1) + 1)
        j = diag - i
        E00, E01, E10 = E[i, j], E[i, j + 1], E[i + 1, j]
        _, grow = reference_cells(
            E00, E01, E10, *cell_coefficients(tables, ds, dt, sidx, tidx, i, j, True),
            sign=1.0)
        E[i + 1, j + 1] = (np.column_stack([E10[:, 0] + E01[:, 0] - E00[:, 0],
                                            E01[:, 1:1 + df], E10[:, 1 + df:]])
                           + grow + source[i + 1, j + 1])
    assert np.all(err <= E)


def assert_fields_close(F, G, F_ref, G_ref):
    # the sweep's mat-vecs sum in another order than the reference's
    # row-wise products, so the fields may differ in the last bits
    tol = 1e-14 * max(1.0, np.abs(F_ref).max(), np.abs(G_ref).max())
    assert np.abs(F - F_ref).max() <= tol
    assert np.abs(G - G_ref).max() <= tol


class TestAntiDiagonalSweep:
    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("M,N", [(2, 3), (3, 2)])
    @pytest.mark.parametrize("n_s,n_t", [(2, 2), (2, 9), (9, 2), (17, 25)])
    def test_matches_lexicographic_sweep(self, rng, d, M, N, n_s, n_t):
        grid = np.array([0.0, 0.375, 1.0]) if min(n_s, n_t) > 2 else np.array([0.0, 1.0])
        v = random_velocity(rng, d, 3, grid, scale=0.8)
        vt = random_velocity(rng, d, 3, grid, scale=0.8)
        s_grid, t_grid = make_grid(1.0, n_s, grid), make_grid(1.0, n_t, grid)
        surf = solve_truncated_system(v, vt, M, N, s_grid, t_grid)
        ds, dt = np.diff(s_grid), np.diff(t_grid)
        sidx, tidx = _cell_intervals(s_grid, grid), _cell_intervals(t_grid, grid)
        A, *tables = coefficients(v, vt, M, N)
        w, F, G = lexicographic_sweep(ds, dt, sidx, tidx, A, *tables)
        assert surf.w.shape == (len(s_grid), len(t_grid))
        assert_sweep_within_rounding(
            np.concatenate([surf.w[..., None], surf.f, surf.ftilde], axis=-1),
            np.concatenate([w[..., None], F, G], axis=-1),
            ((A,) * 4, *tables), ds, dt, sidx, tidx)
        assert_fields_close(surf.f, surf.ftilde, F, G)

    @pytest.mark.parametrize("d, M, N", [(1, 3, 3), (2, 3, 3), (2, 2, 2)])
    def test_direct_cells_match_lexicographic_sweep(self, rng, d, M, N):
        # random grids: a class per step, so maps would outgrow the state
        # and every cell is evaluated directly
        grid = np.array([0.0, 0.375, 1.0])
        v = random_velocity(rng, d, 3, grid, scale=0.8)
        vt = random_velocity(rng, d, 3, grid, scale=0.8)
        s_grid, t_grid = (np.sort(np.concatenate([grid, rng.uniform(0.0, 1.0, n)]))
                          for n in (15, 22))
        surf = solve_truncated_system(v, vt, M, N, s_grid, t_grid)
        assert surf.meta["maps"] == 0
        ds, dt = np.diff(s_grid), np.diff(t_grid)
        sidx, tidx = _cell_intervals(s_grid, grid), _cell_intervals(t_grid, grid)
        A, *tables = coefficients(v, vt, M, N)
        w, F, G = lexicographic_sweep(ds, dt, sidx, tidx, A, *tables)
        assert_sweep_within_rounding(
            np.concatenate([surf.w[..., None], surf.f, surf.ftilde], axis=-1),
            np.concatenate([w[..., None], F, G], axis=-1),
            ((A,) * 4, *tables), ds, dt, sidx, tidx)
        assert_fields_close(surf.f, surf.ftilde, F, G)

    def test_batch_matches_single_solves(self, rng):
        # state width 9: one GEMM per run of cells sharing a map
        self.check_batch_matches_single_solves(rng, 2, 3)

    def test_gathered_batch_matches_single_solves(self, rng):
        # state width 3: one gathered product per diagonal
        self.check_batch_matches_single_solves(rng, 2, 1)

    def test_mixed_batch_matches_single_solves(self, rng):
        # a velocity with a breakpoint at every grid node gives a class per
        # step, so its surfaces are evaluated directly; the others take maps
        # (state width 13, the GEMM contraction)
        grid = make_grid(1.0, 41, np.array([0.25, 0.5, 0.75]))
        batch = self.check_batch_matches_single_solves(
            rng, 3, 3, [np.array([0.0, 0.25, 1.0]), grid, np.array([0.0, 1.0])], 41)
        assert sorted(surf.meta["maps"] > 0 for surf in batch) == [False, True, True]

    @staticmethod
    def check_batch_matches_single_solves(rng, M, N, grids=None, n_points=21):
        # surfaces with different interval counts share one padded sweep
        if grids is None:
            grids = [np.array([0.0, 0.25, 1.0]), np.array([0.0, 0.5, 0.75, 1.0]),
                     np.array([0.0, 1.0])]
        vels = [random_velocity(rng, 2, 3, g, scale=0.8) for g in grids]
        pairs = [(vels[0], vels[1]), (vels[2], vels[0]), (vels[1], vels[1])]
        grid = make_grid(1.0, n_points, np.concatenate(grids))
        batch = _solve_truncated_batch(pairs, M, N, grid, grid)
        assert len(batch) == len(pairs)
        for (v, vt), surf in zip(pairs, batch):
            ref = solve_truncated_system(v, vt, M, N, grid, grid)
            assert np.array_equal(surf.w, ref.w)
            assert np.array_equal(surf.f, ref.f)
            assert np.array_equal(surf.ftilde, ref.ftilde)
            assert np.array_equal(surf.s_mass, ref.s_mass)
            assert np.array_equal(surf.t_mass, ref.t_mass)
            assert surf.meta == ref.meta
        return batch

    def test_batch_checks_every_pair(self, rng):
        fine = np.array([0.0, 0.5, 1.0])
        v = random_velocity(rng, 2, 2, fine, scale=0.5)
        odd = random_velocity(rng, 2, 2, np.array([0.0, 0.37, 1.0]), scale=0.5)
        other_dim = random_velocity(rng, 1, 2, fine, scale=0.5)
        g = make_grid(1.0, 9, fine)
        with pytest.raises(GridMismatch):
            _solve_truncated_batch([(v, v), (v, odd)], 2, 2, g, g)
        with pytest.raises(GridMismatch):
            _solve_truncated_batch([(v, v), (odd, v)], 2, 2, g, g)
        with pytest.raises(InvalidParameter):
            _solve_truncated_batch([(v, v), (other_dim, other_dim)], 2, 2, g, g)
        with pytest.raises(InvalidParameter):
            _solve_truncated_batch([(v, v)], 2, 0, g, g)
        with pytest.raises(InvalidParameter):
            _solve_truncated_batch([], 2, 2, g, g)


class TestBoundaryRows:
    """The boundary rows are the far corners of the ghost cells, whose steps
    are 0: w = 1 + (1 - 1) + 0 and the field along the zero step gets a
    zero increment, on every path, exactly."""

    @staticmethod
    def assert_unit_boundary(w, F=None, G=None):
        assert np.all(w[0] == 1.0) and np.all(w[:, 0] == 1.0)
        if F is not None:
            # f on s = 0 and g on t = 0
            assert np.all(F[0] == 0.0) and np.all(G[:, 0] == 0.0)

    @pytest.mark.parametrize("M, N, kind", [(2, 2, "make_grid"), (3, 3, "make_grid"),
                                            (2, 2, "random"), (3, 3, "random")])
    def test_truncated(self, rng, M, N, kind):
        # make_grid: maps (gathered at D = 5, GEMM at 13); random: direct
        grid = np.array([0.0, 0.375, 1.0])
        v = random_velocity(rng, 2, 3, grid, scale=2.0)
        vt = random_velocity(rng, 2, 3, grid, scale=2.0)
        if kind == "make_grid":
            s_grid, t_grid = make_grid(1.0, 25, grid), make_grid(1.0, 18, grid)
        else:
            s_grid, t_grid = (np.sort(np.concatenate([grid, rng.uniform(0.0, 1.0, n)]))
                              for n in (15, 22))
        surf = solve_truncated_system(v, vt, M, N, s_grid, t_grid)
        assert (surf.meta["maps"] > 0) == (kind == "make_grid")
        assert np.abs(surf.f[1:, 1:]).min() > 0.0 and np.abs(surf.w - 1.0).max() > 0.1
        self.assert_unit_boundary(surf.w, surf.f, surf.ftilde)

    @pytest.mark.parametrize("alpha", ["nodes", "cells"])
    def test_scalar(self, rng, alpha):
        s_grid, t_grid = (np.sort(np.concatenate([[0.0, 1.0], rng.uniform(0, 1, n)]))
                          for n in (19, 30))
        if alpha == "cells":
            alpha = rng.normal(size=(len(s_grid) - 1, len(t_grid) - 1)) * 3.0
        else:
            alpha = lambda s, t: 3.0 * math.sin(3.0 * s) * math.cos(2.0 * t) - 2.0
        self.assert_unit_boundary(solve_goursat_scalar(alpha, s_grid, t_grid).w)

    def test_batch(self, rng):
        # the mixed batch of an MMD's corner sweep: surfaces taking maps and
        # surfaces evaluated directly, swept together with their nodes
        g = make_grid(1.0, 41, np.array([0.25, 0.5, 0.75]))
        vels = [random_velocity(rng, 2, 3, grid, scale=0.8)
                for grid in (np.array([0.0, 0.25, 1.0]), g, np.array([0.0, 1.0]))]
        batch = _solve_truncated_batch([(vels[0], vels[1]), (vels[2], vels[0]),
                                        (vels[1], vels[1])], 3, 3, g, g)
        assert sorted(surf.meta["maps"] > 0 for surf in batch) == [False, True, True]
        for surf in batch:
            self.assert_unit_boundary(surf.w, surf.f, surf.ftilde)


def full_array_sweep(ds, dt, sidx, tidx, s_cls, t_cls, tables):
    """Reference: the sweep over the full node array that the rolling
    diagonals replaced, on the same ghost grid: a row and a column of cells
    of step 0 on interval 0 whose outer nodes hold (w, f, g) = (1, 0, 0),
    so that their far corners are the boundary nodes.  Each cell gathers
    its corners from the node array; maps, contractions and cell updates
    are the solver's own, so every cell sees the same inputs in the same
    order and the bits must agree."""
    n_s, n_i, n_j = len(sidx), len(ds), len(dt)
    df, dg = tables.qx.shape[-1], tables.qy.shape[-1]
    D = 1 + df + dg
    use = _takes_maps(s_cls, t_cls, D)
    mapped, direct = np.flatnonzero(use), np.flatnonzero(~use)
    ds, dt = np.concatenate([[0.0], ds]), np.concatenate([[0.0], dt])
    sidx, tidx, s_cls, t_cls = (
        np.concatenate([np.zeros((n_s, 1), dtype=a.dtype), a + shift], axis=1)
        for a, shift in ((sidx, 0), (tidx, 0), (s_cls, 1), (t_cls, 1)))
    maps, S, T = _transfer_maps(ds, dt, sidx[mapped], tidx[mapped], s_cls[mapped],
                                t_cls[mapped], tables.at(mapped))
    X = np.zeros((n_s, n_i + 2, n_j + 2, D))
    X[..., 0] = 1.0
    nodes = X.reshape(n_s, -1, D)
    known = np.array([0, 1, n_j + 2])
    for diag in range(n_i + n_j + 1):
        i = np.arange(max(0, diag - n_j), min(diag, n_i) + 1)
        j = diag - i
        node = i * (n_j + 2) + j
        x = nodes.take(node[:, None] + known, axis=1)
        delta = np.empty((n_s, len(i), D))
        if len(mapped):
            delta[mapped] = _apply_maps(maps, S[:, i] + T[:, j],
                                        x[mapped].reshape(len(mapped), len(i), 3 * D))
        if len(direct):
            pc = np.repeat(direct, len(i))
            ic, jc = np.tile(i, len(direct)), np.tile(j, len(direct))
            xd = x[direct].reshape(-1, 3, 1, D)
            delta[direct] = _cell_increments(
                xd[:, 0], xd[:, 1], xd[:, 2], ds[ic], dt[jc],
                tables.at(pc, sidx[pc, ic], tidx[pc, jc])).reshape(len(direct), len(i), D)
        x00, far, x10 = x[:, :, 0], x[:, :, 1], x[:, :, 2]
        far[..., 0] = x10[..., 0] + (far[..., 0] - x00[..., 0])
        far[..., 1 + df:] = x10[..., 1 + df:]
        nodes[:, node + n_j + 3] = far + delta
    # every map the sweep builds, the ghost cells' included
    n_built = np.zeros(n_s, dtype=int)
    n_built[mapped] = [len(np.unique(S[p][:, None] + T[p][None])) for p in range(len(mapped))]
    return X[:, 1:, 1:], n_built


def captured_sweep_args(monkeypatch, solve):
    """The inputs (grid steps, cell intervals, step classes, tables) of
    every ``_sweep`` call that ``solve()`` makes."""
    calls = []
    sweep = kernel_solver._sweep

    def recording(*args, **kwargs):
        calls.append(args[:7])
        return sweep(*args, **kwargs)

    monkeypatch.setattr(kernel_solver, "_sweep", recording)
    solve()
    monkeypatch.setattr(kernel_solver, "_sweep", sweep)
    return calls


class TestStreamedSweep:
    """The sweep rolls over three anti-diagonals; with ``keep_nodes`` it
    copies each into the node array.  Both must give the bits of the
    full-array sweep it replaced: nodes everywhere, and the far corner
    without nodes.  A diagonal read from the wrong buffer breaks both."""

    @staticmethod
    def truncated(rng, M, N, grids, s_grid, t_grid, pairs):
        vels = [random_velocity(rng, 2, 3, g, scale=0.8) for g in grids]
        return lambda: _solve_truncated_batch(
            [(vels[a], vels[b]) for a, b in pairs], M, N, s_grid, t_grid)

    # the state width D, then the path: gathered or GEMM contraction of
    # maps, direct cell updates, or a mix of surfaces taking maps or not
    @pytest.mark.parametrize("case, mapped", [
        ("D5-gather", [True]), ("D13-gemm", [True]), ("D5-direct", [False]),
        ("D1-scalar", [True]), ("D13-mixed", [True, True, False, True])])
    def test_corners_and_nodes_match_full_array_sweep(self, rng, monkeypatch, case,
                                                      mapped):
        grid = np.array([0.0, 0.375, 1.0])
        if case in ("D5-gather", "D13-gemm"):
            M = N = 2 if case == "D5-gather" else 3
            g = make_grid(1.0, 25, grid)
            solve = self.truncated(rng, M, N, [grid], g, make_grid(1.0, 18, grid),
                                   [(0, 0)])
        elif case == "D5-direct":
            # random grids: a class per step, so every cell is evaluated directly
            s_grid, t_grid = (np.sort(np.concatenate([grid, rng.uniform(0.0, 1.0, n)]))
                              for n in (15, 22))
            solve = self.truncated(rng, 2, 2, [grid], s_grid, t_grid, [(0, 0)])
        elif case == "D1-scalar":
            s_grid, t_grid = (np.sort(np.concatenate([[0.0, 1.0], rng.uniform(0, 1, n)]))
                              for n in (19, 30))
            solve = lambda: solve_goursat_scalar(
                lambda s, t: math.sin(3.0 * s) * math.cos(2.0 * t) + s * t, s_grid, t_grid)
        else:
            # as in test_mixed_batch_matches_single_solves: one velocity has
            # a breakpoint at every node, so its surfaces are direct
            g = make_grid(1.0, 41, np.array([0.25, 0.5, 0.75]))
            solve = self.truncated(rng, 3, 3, [np.array([0.0, 0.25, 1.0]), g,
                                               np.array([0.0, 1.0])], g, g,
                                   [(0, 1), (2, 0), (1, 1), (2, 2)])
        (args,) = captured_sweep_args(monkeypatch, solve)
        X_ref, n_maps_ref = full_array_sweep(*args)
        D = X_ref.shape[-1]
        assert case.startswith(f"D{D}-")
        assert (n_maps_ref > 0).tolist() == mapped
        assert (D <= kernel_solver._GATHER_MAX_WIDTH) == (D != 13)
        w, F, G, n_maps = kernel_solver._sweep(*args)
        assert np.array_equal(np.concatenate([w[..., None], F, G], axis=-1), X_ref)
        assert np.array_equal(n_maps, n_maps_ref)
        w, F, G, n_maps = kernel_solver._sweep(*args, keep_nodes=False)
        assert np.array_equal(np.concatenate([w[..., None], F, G], axis=-1),
                              X_ref[:, -1, -1])
        assert np.array_equal(n_maps, n_maps_ref)

    def test_corner_batch_is_the_full_batch_corner_in_any_chunking(self, rng, monkeypatch):
        # one group: every chunk is swept in this process
        monkeypatch.setattr(_forks, "cpu_count", lambda: 1)
        pairs, g = mixed_corner_batch(rng)
        full = [surf.value() for surf in _solve_truncated_batch(pairs, 3, 3, g, g)]
        whole = _solve_truncated_batch(pairs, 3, 3, g, g, corners=True)
        assert whole.tolist() == full
        sizes = []
        sweep = kernel_solver._sweep
        monkeypatch.setattr(kernel_solver, "_sweep", lambda ds, dt, sidx, *rest:
                            sizes.append(len(sidx)) or sweep(ds, dt, sidx, *rest))
        monkeypatch.setattr(kernel_solver, "_SWEEP_CHUNK_FLOATS", 1)
        assert _solve_truncated_batch(pairs, 3, 3, g, g, corners=True).tolist() == full
        assert sizes == [1] * len(pairs)

    @pytest.mark.parametrize("cap", [None, 1], ids=["one_chunk", "chunk_per_surface"])
    def test_forked_groups_give_the_full_batch_corner(self, rng, monkeypatch, forks, cap):
        # two groups: this process sweeps group 0 only, in its own chunks,
        # and a child the rest
        monkeypatch.setattr(_forks, "cpu_count", lambda: 2)
        monkeypatch.setattr(kernel_solver, "_GROUP_COST_FLOATS", 0)
        pairs, g = mixed_corner_batch(rng)
        full = [surf.value() for surf in _solve_truncated_batch(pairs, 3, 3, g, g)]
        if cap is not None:
            monkeypatch.setattr(kernel_solver, "_SWEEP_CHUNK_FLOATS", cap)
        parent, groups, sizes = os.getpid(), [], []
        sweep, corners = kernel_solver._sweep, kernel_solver._sweep_corners

        def record(to, what):
            return to.append(what) if os.getpid() == parent else None
        monkeypatch.setattr(kernel_solver, "_sweep", lambda ds, dt, sidx, *rest:
                            record(sizes, len(sidx)) or sweep(ds, dt, sidx, *rest))
        monkeypatch.setattr(kernel_solver, "_sweep_corners", lambda *args:
                            record(groups, args[-2:]) or corners(*args))
        assert _solve_truncated_batch(pairs, 3, 3, g, g, corners=True).tolist() == full
        assert len(forks) == 1
        ((lo, hi),) = groups
        assert lo == 0 and 0 < hi < len(pairs)
        assert sizes == ([hi] if cap is None else [1] * hi)


def map_problem(rng, kind):
    """Steps, cell intervals, step classes and tables of a two-surface
    batch for ``_transfer_maps``, and the per-surface tables and steps of
    ``reference_cells``.  ``kind`` is a pair of truncation levels (d = 2)
    or ``"scalar"`` (random alpha per cell corner).  The s-grid repeats a
    few step sizes; the t-grid is random, so each of its steps is a class
    of its own."""
    grid = np.array([0.0, 0.375, 1.0])
    s_grid = make_grid(1.0, 9, grid)
    t_grid = np.sort(np.concatenate([[0.0, 0.375, 1.0], rng.uniform(0, 1, 6)]))
    ds, dt = np.diff(s_grid), np.diff(t_grid)
    if kind == "scalar":
        n_i, n_j = len(ds), len(dt)
        sidx, tidx = np.arange(n_i), np.arange(n_j)
        fields = scalar_tables(np.zeros((n_i, n_j)), s_grid, t_grid)[1:]
        per_surface = [(tuple(rng.normal(size=(n_i, n_j)) for _ in range(4)), *fields)
                       for _ in range(2)]
    else:
        M, N = kind
        sidx, tidx = _cell_intervals(s_grid, grid), _cell_intervals(t_grid, grid)
        per_surface = []
        for _ in range(2):
            v = random_velocity(rng, 2, 3, grid, scale=0.8)
            vt = random_velocity(rng, 2, 3, grid, scale=0.8)
            A, *rest = coefficients(v, vt, M, N)
            per_surface.append(((A,) * 4, *rest))
    # corners (A00, A01, A10, A11) become the record's trailing 2 x 2 axes
    A = np.stack([np.stack(A4, axis=-1).reshape(*A4[0].shape, 2, 2)
                  for A4, *_ in per_surface])
    fields = (np.stack(parts) for parts in list(zip(*per_surface))[1:])
    args = (ds, dt, np.stack([sidx] * 2), np.stack([tidx] * 2),
            np.stack([_step_classes(ds, sidx)] * 2), np.stack([_step_classes(dt, tidx)] * 2),
            _Tables(A, *fields))
    return args, per_surface, sidx, tidx


class TestTransferMaps:
    # D = 3 and 13 with their own contraction and the other one forced;
    # D = 1 for the scalar problem
    @pytest.mark.parametrize("kind, gather_max", [
        ((2, 1), None), ((2, 1), 0), ((3, 3), None), ((3, 3), 100), ("scalar", None)],
        ids=["D3-gather", "D3-gemm", "D13-gemm", "D13-gather", "D1-gather"])
    def test_maps_match_reference_cell_update(self, rng, monkeypatch, request, kind,
                                              gather_max):
        if gather_max is not None:
            monkeypatch.setattr(kernel_solver, "_GATHER_MAX_WIDTH", gather_max)
        args, per_surface, sidx, tidx = map_problem(rng, kind)
        ds, dt = args[:2]
        maps, S, T = _transfer_maps(*args)
        D = maps.shape[-1]
        # the width and the contraction that the case's id names
        gather = D <= kernel_solver._GATHER_MAX_WIDTH
        assert request.node.callspec.id == f"D{D}-{'gather' if gather else 'gemm'}"
        i, j = (a.ravel() for a in np.meshgrid(np.arange(len(ds)), np.arange(len(dt)),
                                                indexing="ij"))
        x = rng.normal(size=(2, len(i), 3, D))
        delta = _apply_maps(maps, S[:, i] + T[:, j], x.reshape(2, len(i), 3 * D))
        for p, tables in enumerate(per_surface):
            x00, x01, x10 = x[p, :, 0], x[p, :, 1], x[p, :, 2]
            structural = np.column_stack([x10[:, 0] + (x01[:, 0] - x00[:, 0]),
                                          x01[:, 1:1 + tables[3].shape[-1]],
                                          x10[:, 1 + tables[3].shape[-1]:]])
            far = structural + delta[p]
            base, ref_delta = reference_cells(
                x00, x01, x10, *cell_coefficients(tables, ds, dt, sidx, tidx, i, j))
            ref_far = base + ref_delta
            _, delta_abs = reference_cells(
                *map(np.abs, (x00, x01, x10)),
                *cell_coefficients(tables, ds, dt, sidx, tidx, i, j, True), sign=1.0)
            assert np.all(np.abs(far - ref_far) <= local_bound(D, far, ref_far, delta_abs))
            # one map per distinct (interval, step bits) pair on each axis,
            # numbered from the surface's first
            s_keys = {(a, h) for a, h in zip(sidx.tolist(), ds.tolist())}
            t_keys = {(b, k) for b, k in zip(tidx.tolist(), dt.tolist())}
            used = np.unique(S[p][:, None] + T[p][None])
            assert np.array_equal(used, p * len(used) + np.arange(len(s_keys) * len(t_keys)))

    @pytest.mark.parametrize("kind", [(3, 3), "scalar"])
    def test_memory_cap_does_not_change_maps(self, rng, monkeypatch, kind):
        args, _, _, _ = map_problem(rng, kind)
        whole = _transfer_maps(*args)
        monkeypatch.setattr(kernel_solver, "_MAP_CHUNK_FLOATS", 1)
        for a, b in zip(whole, _transfer_maps(*args)):
            assert np.array_equal(a, b)

    def test_solve_metadata(self, rng):
        grid = np.array([0.0, 0.5, 1.0])
        v = random_velocity(rng, 2, 3, grid, scale=0.8)
        s_grid = make_grid(1.0, 17, grid)
        surf = solve_truncated_system(v, v, 3, 2, s_grid, make_grid(1.0, 9, grid))
        # without the scalar slots df = flat_size(2, 1) - 1 = 2 and
        # dg = flat_size(2, 2) - 1 = 6; uniform steps, so one class per
        # interval on each axis, and one more for the ghost cells of step 0
        # that step the boundary rows: 3 x 3 maps
        assert surf.meta == {"system": "truncated", "M": 3, "N": 2, "scheme_order": 2,
                             "cells": 128, "state_width": 9, "maps": 9}
        # a random t-grid has a class per step: 2 x 8 maps of width 9 would
        # hold more floats than the state, so the cells are evaluated directly
        t_grid = np.sort(np.concatenate([grid, rng.uniform(0.0, 1.0, 6)]))
        surf = solve_truncated_system(v, v, 3, 2, s_grid, t_grid)
        assert surf.meta["maps"] == 0 and surf.meta["cells"] == 128

    @pytest.mark.parametrize("horizon, n_points", [
        (1.0, 2.5), (1.0, 1), (1.0, True), (1.0, "9"), (math.nan, 5), (math.inf, 5),
        (-1.0, 5), (0.0, 5)],
        ids=["float-count", "one-point", "bool-count", "str-count", "nan-horizon",
             "inf-horizon", "negative-horizon", "zero-horizon"])
    def test_make_grid_rejects_bad_input(self, horizon, n_points):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidParameter):
                make_grid(horizon, n_points)

    @pytest.mark.parametrize("horizon", [1e-9, 1e-12])
    def test_make_grid_keeps_its_points_at_tiny_horizons(self, horizon):
        # near-duplicates are measured against the horizon, not against 1
        g = make_grid(horizon, 2001)
        assert len(g) == 2001 and np.all(np.diff(g) > 0) and g[-1] == horizon
        g = make_grid(horizon, 11, [0.37 * horizon])
        assert len(g) == 12 and 0.37 * horizon in g

    def test_breakpoint_check_scales_with_the_horizon(self, rng):
        # a breakpoint 1e-13 from a node is 1e-4 of this grid's step away
        horizon = 1e-9
        cut = (0.3 + 1e-4) * horizon
        v = random_velocity(rng, 1, 2, np.array([0.0, cut, horizon]), scale=0.5)
        with pytest.raises(GridMismatch, match="breakpoint"):
            solve_truncated_system(v, v, 2, 2, unigrid(11, horizon), unigrid(11, horizon))
        g = make_grid(horizon, 11, [cut])
        assert solve_truncated_system(v, v, 2, 2, g, g).w.shape == (12, 12)

    @pytest.mark.parametrize("cut, grid", [(1e-13, [0.0, 1e-13, 0.5, 1.0]),
                                           (0.5 + 1e-13, [0.0, 0.5, 1.0]),
                                           (1.0 - 1e-13, [0.0, 0.5, 1.0])])
    def test_breakpoint_stays_on_the_grid(self, rng, cut, grid):
        # a breakpoint is a node to within 1e-12 of its own size, or the end:
        # 1e-13 beside node 0 is a node of its own
        assert make_grid(1.0, 3, [cut]).tolist() == grid
        v = random_velocity(rng, 1, 2, np.array([0.0, cut, 1.0]), scale=0.5)
        g = make_grid(1.0, 3, [cut])
        assert solve_truncated_system(v, v, 2, 2, g, g).w.shape == (len(grid),) * 2
        if len(grid) == 4:
            # without it the first cell would straddle the breakpoint
            with pytest.raises(GridMismatch, match="breakpoint"):
                solve_truncated_system(v, v, 2, 2, unigrid(3), unigrid(3))

    def test_make_grid_takes_numpy_integers(self):
        assert np.array_equal(make_grid(0.3, np.int64(65), [0.1]), make_grid(0.3, 65, [0.1]))
        assert np.array_equal(make_grid(np.float64(2.0), np.int32(9)), make_grid(2.0, 9))

    def test_make_grid_steps_are_bitwise_equal_between_breakpoints(self):
        # dyadic steps: np.linspace exactly
        assert np.array_equal(make_grid(1.0, 257, ()), np.linspace(0.0, 1.0, 257))
        for horizon, n, cuts in [(1.0, 100, [0.25, 0.5, 0.75]), (0.3, 65, []),
                                 (3.0, 1000, [1.7])]:
            g = make_grid(horizon, n, cuts)
            assert g[0] == 0.0 and g[-1] == horizon
            assert np.all(np.isin(cuts, g))
            steps = np.diff(g)
            # every step but the last and those beside a cut equals the first
            split = np.flatnonzero(np.isin(g[1:], cuts) | np.isin(g[:-1], cuts))
            odd = np.setdiff1d(np.flatnonzero(steps != steps[0]), split)
            assert odd.tolist() in ([], [len(steps) - 1])
            base = np.linspace(0.0, horizon, n)
            near = np.abs(g[:, None] - base[None]).min(axis=1)
            assert near[~np.isin(g, cuts)].max() <= horizon * 2.0**((n - 1).bit_length() - 53)


class TestMapsOrDirect:
    """Step classes are found once per velocity and side of a batch, and one
    rule, ``_takes_maps``, decides maps or direct updates from them."""

    def test_step_classes_number_by_interval_then_step(self):
        steps = np.array([0.5, 0.25, 0.5, 0.25, 0.125, 0.25])
        assert _step_classes(steps, np.array([1, 1, 0, 0, 1, 1])).tolist() == [
            4, 3, 1, 0, 2, 3]

    def test_rule_at_the_map_count_boundary(self):
        # 10 x 10 cells at D = 5 (the gathered contraction, where runs do
        # not count): 4 x 5 maps hold D x cells floats, 5 x 5 more
        D = 5
        assert D <= kernel_solver._GATHER_MAX_WIDTH
        alternating = np.arange(10) % 4
        s_cls = np.stack([alternating, np.arange(10) % 5])
        t_cls = np.stack([np.arange(10) % 5] * 2)
        assert 4 * 5 * D == 10 * 10
        assert _takes_maps(s_cls, t_cls, D).tolist() == [True, False]

    def test_rule_at_the_run_count_boundary(self):
        # 10 x 10 cells at D = 6 (one GEMM per run): classes changing once on
        # each axis leave 8 x 8 cells continuing a run, so 36 runs, and
        # runs x _GEMM_RUN_COST = cells x D^2; one more change on t makes 44
        D, cells = 6, 100
        assert D > kernel_solver._GATHER_MAX_WIDTH
        assert 36 * kernel_solver._GEMM_RUN_COST == cells * D * D
        halves = np.repeat([0, 1], 5)
        s_cls = np.stack([halves, halves])
        t_cls = np.stack([halves, np.repeat([0, 1, 2], [3, 3, 4])])
        assert _takes_maps(s_cls, t_cls, D).tolist() == [True, False]
        # the same classes at the gathered width take maps either way
        assert _takes_maps(s_cls, t_cls, kernel_solver._GATHER_MAX_WIDTH).tolist() == [
            True, True]

    @staticmethod
    def count_step_classes(monkeypatch):
        """Calls of ``_step_classes``, each recorded with whether it came
        from inside ``_sweep``."""
        calls, inside = [], []
        step_classes, sweep = kernel_solver._step_classes, kernel_solver._sweep

        def counted(*args):
            calls.append(bool(inside))
            return step_classes(*args)

        def sweeping(*args, **kwargs):
            inside.append(None)
            try:
                return sweep(*args, **kwargs)
            finally:
                inside.pop()
        monkeypatch.setattr(kernel_solver, "_step_classes", counted)
        monkeypatch.setattr(kernel_solver, "_sweep", sweeping)
        return calls

    def test_once_per_velocity_and_side(self, rng, monkeypatch, tmp_path, capsys):
        calls = self.count_step_classes(monkeypatch)
        grid = np.array([0.0, 0.375, 1.0])
        v, vt = (random_velocity(rng, 2, 3, grid, scale=0.8) for _ in range(2))
        g = make_grid(1.0, 33, grid)
        solve_truncated_system(v, vt, 3, 3, g, g)
        assert calls == [False, False]
        # the MMD batch of the benchmark's mmd workload (seed 2): 8 paths and
        # a Wiener measure, one classification per velocity and side
        calls.clear()
        path = tmp_path / "config.json"
        path.write_text(json.dumps(benchmark_workloads().CONFIGS["mmd-area-m8"](2)))
        assert cli.main(["--config", str(path), "--output", str(tmp_path / "out")]) == 0
        assert capsys.readouterr().out.startswith("mmd = ")
        assert calls == [False] * 18


def reference_goursat_scalar(alpha, s_grid, t_grid):
    """Reference: the cell-by-cell loop of the scalar Goursat solver that
    the anti-diagonal sweep replaced; returns w."""
    n_i, n_j = len(s_grid) - 1, len(t_grid) - 1
    cellwise = False
    if isinstance(alpha, tuple):
        fvals = np.array([float(alpha[0](s)) for s in s_grid])
        gvals = np.array([float(alpha[1](t)) for t in t_grid])
        nodes = np.outer(fvals, gvals)
    elif callable(alpha):
        nodes = np.array([[float(alpha(s, t)) for t in t_grid] for s in s_grid])
    else:
        cells = np.asarray(alpha, dtype=float)
        cellwise = True
    w = np.ones((n_i + 1, n_j + 1))
    ds = np.diff(s_grid)
    dtl = np.diff(t_grid).tolist()
    row_prev = w[0].tolist()
    for i in range(n_i):
        h = ds[i]
        if cellwise:
            arow = cells[i].tolist()
        else:
            a0 = nodes[i].tolist()
            a1 = nodes[i + 1].tolist()
        row_new = [1.0] * (n_j + 1)
        for j in range(n_j):
            hk = h * dtl[j]
            if cellwise:
                v00 = v10 = v01 = v11 = arow[j]
            else:
                v00, v01 = a0[j], a0[j + 1]
                v10, v11 = a1[j], a1[j + 1]
            p00, p01, q10 = row_prev[j], row_prev[j + 1], row_new[j]
            cross = p01 - p00
            phi_known = p00 * v00 + q10 * v10 + p01 * v01
            w11 = q10 + cross + hk * p00 * v00
            for _ in range(_CORRECTOR_PASSES):
                w11 = q10 + cross + 0.25 * hk * (phi_known + w11 * v11)
            row_new[j + 1] = w11
        w[i + 1] = row_new
        row_prev = row_new
    return w


def scalar_tables(alpha, s_grid, t_grid):
    """The scalar problem as one system of ``reference_cells``: cell (i, j)
    is interval pair (i, j) with alpha at its four corners and coupled
    fields of width zero."""
    n_i, n_j = len(s_grid) - 1, len(t_grid) - 1
    if isinstance(alpha, tuple):
        nodes = np.outer([alpha[0](s) for s in s_grid], [alpha[1](t) for t in t_grid])
    elif callable(alpha):
        nodes = np.array([[alpha(s, t) for t in t_grid] for s in s_grid])
    else:
        nodes = None
    A4 = ((np.asarray(alpha, dtype=float),) * 4 if nodes is None else
          (nodes[:-1, :-1], nodes[:-1, 1:], nodes[1:, :-1], nodes[1:, 1:]))
    B = np.zeros((n_i, n_j, 0))
    q, R = np.zeros((max(n_i, n_j), 0)), np.zeros((max(n_i, n_j), 0, 0))
    return A4, B, B, q, R, R, q, R, R


def zero_scalar(x):
    """``x`` with its scalar coordinate (slot 0) set to 0, in place."""
    x.levels[0][..., 0] = 0.0
    return x


def reference_coefficients(v, vt, M, N):
    """Reference: the coefficient assembly that the batched identities
    replaced, with one tensor_mul / adjoint_left per basis vector, the
    adjoints' scalar slot zeroed."""
    d = v.dim
    P = min(M, N)
    Q = min(M, N - 1)
    Qt = min(N, M - 1)
    depth_f, depth_g = N - 1, M - 1
    df, dg = ta.flat_size(d, depth_f), ta.flat_size(d, depth_g)
    xs = [ta.truncate(x, M) for x in v.tensors]
    ys = [ta.truncate(y, N) for y in vt.tensors]
    na, nb = len(xs), len(ys)

    def basis_vectors(depth):
        size = ta.flat_size(d, depth)
        for col in range(size):
            e = np.zeros(size)
            e[col] = 1.0
            yield col, ta.unflatten(e, d, depth)

    A = np.empty((na, nb))
    B = np.empty((na, nb, df))
    C = np.empty((na, nb, dg))
    qx = np.empty((na, df))
    RX = np.empty((na, df, df))
    AX = np.empty((na, df, dg))
    for a, x in enumerate(xs):
        xQ = ta.truncate(x, Q)
        qx[a] = ta.flatten(xQ, depth_f)
        for col, e in basis_vectors(depth_f):
            RX[a][:, col] = ta.flatten(ta.tensor_mul(e, xQ, depth_f), depth_f)
        for col, e in basis_vectors(depth_g):
            AX[a][:, col] = ta.flatten(zero_scalar(ta.adjoint_left(e, x)), depth_f)
    qy = np.empty((nb, dg))
    RY = np.empty((nb, dg, dg))
    AY = np.empty((nb, dg, df))
    for b, y in enumerate(ys):
        yQt = ta.truncate(y, Qt)
        qy[b] = ta.flatten(yQt, depth_g)
        for col, e in basis_vectors(depth_g):
            RY[b][:, col] = ta.flatten(ta.tensor_mul(e, yQt, depth_g), depth_g)
        for col, e in basis_vectors(depth_f):
            AY[b][:, col] = ta.flatten(zero_scalar(ta.adjoint_left(e, y)), depth_g)
    for a, x in enumerate(xs):
        xP, xQ = ta.truncate(x, P), ta.truncate(x, Q)
        for b, y in enumerate(ys):
            A[a, b] = ta.inner_product(xP, ta.truncate(y, P))
            B[a, b] = ta.flatten(zero_scalar(ta.adjoint_right(xQ, y)), depth_f)
            C[a, b] = ta.flatten(zero_scalar(ta.adjoint_right(ta.truncate(y, Qt), x)),
                                 depth_g)
    return A, B, C, qx, RX, AX, qy, RY, AY


def reference_node_mass(grid, v):
    """Reference: the cumulative node masses that the per-interval cumsum
    replaced, one ``PiecewiseVelocity.mass`` per cell."""
    out = np.zeros(len(grid))
    for k in range(1, len(grid)):
        out[k] = out[k - 1] + v.mass(grid[k - 1], grid[k])
    return out


def reference_wiener_self_kernel(wiener, grid):
    """Reference: the MMD's former Wiener self-kernel, the scalar Goursat
    problem with alpha(s, t) = <a(s), a(t)>/4 per cell, by the cell loop."""
    idx = np.searchsorted(wiener.time_grid, 0.5 * (grid[:-1] + grid[1:]),
                          side="right") - 1
    idx = np.clip(idx, 0, len(wiener.covs) - 1)
    gram = np.array([[0.25 * np.sum(ai * aj) for aj in wiener.covs]
                     for ai in wiener.covs])
    return reference_goursat_scalar(gram[np.ix_(idx, idx)], grid, grid), gram


class TestSweepReferences:
    """Every Goursat solve runs through ``_sweep``; each case is checked
    against the code it replaced.  The scalar cases are held to the
    rounding bounds of ``assert_sweep_within_rounding``: the sweep applies
    each cell's increment as a precomputed map, which rounds in another
    order than the loop."""

    @pytest.mark.parametrize("alpha, n_s, n_t", [
        ((lambda s: 1.0, lambda t: 1.0), 513, 513),
        ((lambda s: 2.0 * s, lambda t: 1.0), 513, 513),
        ((lambda s: -1.0, lambda t: 1.0), 129, 129),
        (lambda s, t: math.sin(3.0 * s) * math.cos(2.0 * t) + s * t, 65, 65),
        (lambda s, t: math.exp(s - 2.0 * t) - 0.5, 33, 57),
        ((lambda s: math.cos(5.0 * s), lambda t: 1.0 + t * t), 41, 17),
        ("cells", 65, 65),
        ("cells", 57, 33),
    ], ids=["one-513", "2s-513", "minus-one-129", "callable-65", "callable-33x57",
            "separable-41x17", "cells-65", "cells-57x33"])
    def test_scalar_goursat_matches_cell_loop(self, rng, alpha, n_s, n_t):
        if isinstance(alpha, tuple) and n_s >= 129:
            # the uniform grids of the Bessel tests
            s_grid = t_grid = unigrid(n_s)
        else:
            s_grid = np.sort(np.concatenate([[0.0, 1.0], rng.uniform(0, 1, n_s - 2)]))
            t_grid = np.sort(np.concatenate([[0.0, 1.0], rng.uniform(0, 1, n_t - 2)]))
        if alpha == "cells":
            alpha = rng.normal(size=(n_s - 1, n_t - 1))
        surf = solve_goursat_scalar(alpha, s_grid, t_grid)
        w_ref = reference_goursat_scalar(alpha, s_grid, t_grid)
        n_i, n_j = len(s_grid) - 1, len(t_grid) - 1
        # a map per cell, and per ghost cell of the boundary rows
        assert surf.meta["cells"] == n_i * n_j
        assert surf.meta["maps"] == (n_i + 1) * (n_j + 1)
        assert surf.meta["state_width"] == 1
        assert_sweep_within_rounding(
            surf.w[..., None], w_ref[..., None], scalar_tables(alpha, s_grid, t_grid),
            np.diff(s_grid), np.diff(t_grid), np.arange(n_i), np.arange(n_j))

    @pytest.mark.parametrize("d, M, N", [
        (1, 3, 5), (1, 1, 2), (2, 5, 3), (2, 2, 2), (2, 1, 3), (3, 4, 4), (3, 2, 3)])
    def test_side_tables_match_per_basis_vector_assembly(self, rng, d, M, N):
        grid = np.array([0.0, 0.3, 1.0])
        v = random_velocity(rng, d, max(M, N) + 1, grid, scale=0.8)
        vt = random_velocity(rng, d, max(M, N), np.array([0.0, 0.6, 0.8, 1.0]), scale=0.8)
        tables = coefficients(v, vt, M, N)
        A, B, C, qx, RX, AX, qy, RY, AY = reference_coefficients(v, vt, M, N)
        # the reference keeps the fields' scalar slot.  Every table's
        # slot-0 output is exactly 0.0, so slot 0 of f and g stays 0 and the
        # slot-0 inputs act on zero: the solver's tables drop both
        for out in (B[..., 0], C[..., 0], qx[:, 0], RX[:, 0], AX[:, 0],
                    qy[:, 0], RY[:, 0], AY[:, 0]):
            assert np.all(out == 0.0)
        reference = (A, B[..., 1:], C[..., 1:], qx[:, 1:], RX[:, 1:, 1:], AX[:, 1:, 1:],
                     qy[:, 1:], RY[:, 1:, 1:], AY[:, 1:, 1:])
        assert len(tables) == 9
        for got, want in zip(tables, reference):
            assert got.shape == want.shape
        # the field tables copy or map basis vectors, as the reference does
        for got, want in zip(tables[3:], reference[3:]):
            assert np.array_equal(got, want)
        # A, B and C sum the same exact products as the reference, in
        # another order.  For a contraction of length n, each of the two
        # lies within gamma_n of the exact sum, relative to the sum of the
        # products' magnitudes: the same contraction on magnitudes, which
        # itself rounds down by at most a factor (1 - gamma_n)
        P, Q, Qt = min(M, N), min(M, N - 1), min(N, M - 1)

        def mag(x, depth):
            return TT(d, [np.abs(lev) for lev in ta.truncate(x, depth).levels])

        xs, ys = v.tensors, vt.tensors
        magnitudes = (
            np.array([[ta.inner_product(mag(x, P), mag(y, P)) for y in ys] for x in xs]),
            np.array([[ta.flatten(ta.adjoint_right(mag(x, Q), mag(y, N)), N - 1)[1:]
                       for y in ys] for x in xs]),
            np.array([[ta.flatten(ta.adjoint_right(mag(y, Qt), mag(x, M)), M - 1)[1:]
                       for y in ys] for x in xs]))
        for got, want, bound, depth in zip(tables, reference, magnitudes, (P, N, M)):
            g = gamma(ta.flat_size(d, depth))
            assert np.all(np.abs(got - want) <= 2 * g * bound / (1 - g))

    @pytest.mark.parametrize("kind", ["make_grid", "random"])
    def test_node_masses_match_per_cell_mass(self, rng, kind):
        # grids holding every breakpoint; velocities deeper than the levels,
        # so the masses are those of the truncated velocities
        grids = [np.array([0.0, 0.25, 1.0]), np.array([0.0, 0.5, 0.75, 1.0]),
                 np.array([0.0, 0.3, 0.7, 1.0])]
        vels = [random_velocity(rng, 2, 4, g, scale=0.8) for g in grids]
        pairs = [(vels[0], vels[1]), (vels[2], vels[0]), (vels[1], vels[1])]
        cuts = np.concatenate(grids)
        if kind == "make_grid":
            s_grid, t_grid = make_grid(1.0, 33, cuts), make_grid(1.0, 20, cuts)
        else:
            s_grid, t_grid = (np.unique(np.concatenate([cuts, rng.uniform(0.0, 1.0, n)]))
                              for n in (30, 17))
        M, N = 3, 2
        batch = _solve_truncated_batch(pairs, M, N, s_grid, t_grid)
        for (v, vt), surf in zip(pairs, batch):
            single = solve_truncated_system(v, vt, M, N, s_grid, t_grid)
            s_ref = reference_node_mass(s_grid, v.truncated(M))
            t_ref = reference_node_mass(t_grid, vt.truncated(N))
            for got in (surf, single):
                assert np.array_equal(got.s_mass, s_ref)
                assert np.array_equal(got.t_mass, t_ref)

    def test_tables_are_built_per_velocity_not_per_pair(self, rng, monkeypatch):
        grid = np.array([0.0, 0.25, 0.5, 1.0])
        v = random_velocity(rng, 2, 3, grid, scale=0.8)
        vt = random_velocity(rng, 2, 3, grid, scale=0.8)
        g = make_grid(1.0, 9, grid)
        calls = {}
        for module, name in ((ta, "tensor_mul"), (ta, "adjoint_left"), (ta, "adjoint_right"),
                             (kernel_solver, "_validate_grid"),
                             (kernel_solver, "_cell_intervals")):
            def counted(*args, _name=name, _wrapped=getattr(module, name), **kwargs):
                calls[_name] = calls.get(_name, 0) + 1
                return _wrapped(*args, **kwargs)
            monkeypatch.setattr(module, name, counted)
        counts = []
        for copies in (1, 12):
            for corners in (False, True):
                calls.clear()
                _solve_truncated_batch([(v, vt)] * copies, 3, 3, g, g, corners=corners)
                counts.append(dict(calls))
        assert counts[0]["tensor_mul"] > 0 and counts[0]["adjoint_left"] > 0
        # the grid checks and cell intervals run once per velocity and side
        assert counts[0]["_validate_grid"] == counts[0]["_cell_intervals"] == 2
        assert counts[1:] == counts[:1] * 3

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_batched_adjoint_left_rows_match_single_calls(self, rng, d):
        rows = 5
        for depth_x, depth_z in [(0, 3), (2, 3), (3, 2), (2, 4)]:
            x = TT(d, [rng.normal(size=(rows, d**n)) for n in range(depth_x + 1)])
            x.levels[-1][1] = 0.0    # a zero row within a live level
            z = TT(d, [rng.normal(size=d**n) for n in range(depth_z + 1)])
            zb = TT(d, [rng.normal(size=(rows, d**n)) for n in range(depth_z + 1)])
            out, outb = ta.adjoint_left(x, z), ta.adjoint_left(x, zb)
            flat, flatb = ta.flatten(out, depth_z), ta.flatten(outb, depth_z)
            for p in range(rows):
                xp = TT(d, [lev[p] for lev in x.levels])
                zp = TT(d, [lev[p] for lev in zb.levels])
                single = ta.adjoint_left(xp, z)
                for lev, ref in zip(out.levels, single.levels):
                    assert np.array_equal(lev[p], ref)
                assert np.array_equal(flat[p], ta.flatten(single, depth_z))
                single = ta.adjoint_left(xp, zp)
                assert np.array_equal(flatb[p], ta.flatten(single, depth_z))
                back = ta.unflatten(flatb, d, depth_z)
                for lev, ref in zip(back.levels, single.levels):
                    assert np.array_equal(lev[p], ref)

    @pytest.mark.parametrize("d", [1, 2])
    def test_mmd_wiener_surface_is_the_old_scalar_goursat(self, rng, monkeypatch, d):
        m = 3
        ens = AugmentedPathEnsemble(
            dim=d, time_grid=np.array([0.0, 0.5, 1.0]),
            derivs=[rng.uniform(-1, 1, size=(2, d)) for _ in range(m)],
            area_derivs=[None] * m)
        covs = []
        for _ in range(3):
            f = rng.uniform(-1, 1, size=(d, d))
            covs.append(f @ f.T + 0.3 * np.eye(d))
        wiener = WienerSpec(d, np.array([0.0, 0.25, 0.7, 1.0]), covs)
        calls = []

        def counted(pairs, *args, **kwargs):
            calls.append((len(pairs), kwargs))
            return _solve_truncated_batch(pairs, *args, **kwargs)

        monkeypatch.setattr(mmd, "_solve_truncated_batch", counted)
        _, report = mmd_to_wiener(ens, wiener, 65)
        # one corner-only batch of every surface; reading a surface solves
        # it alone, in full
        assert calls == [(1 + m + m * (m + 1) // 2, {"corners": True})]
        surf = report.surfaces["wiener"]
        assert len(calls) == 1
        assert surf.value() == report.wiener_term
        assert np.all(surf.f == 0.0) and np.all(surf.ftilde == 0.0)
        w_ref, gram = reference_wiener_self_kernel(wiener, surf.s_grid)
        if d == 1:
            # alpha is one product either way: the same bits
            assert np.array_equal(surf.w, w_ref)
        else:
            # the solver rounds alpha as the dot <a_i/2, a_j/2>, the old
            # code as 0.25 * sum(a_i * a_j): both lie within gamma_{d^2} of
            # sum |a_i a_j|/4 <= abar.  A coefficient change delta moves w by
            # at most delta * s * t * max|w|^2 (alpha >= 0), and the two
            # runs' own roundings, a few eps per cell at most, add up over
            # the n_i * n_j cells of the rectangle below each node
            abar = max(0.25 * np.sum(np.abs(ai * aj)) for ai in covs for aj in covs)
            wmax = np.abs(w_ref).max()
            n_cells = (len(surf.s_grid) - 1) ** 2
            tol = (2 * gamma(d * d) * abar * wmax + 4 * n_cells * np.finfo(float).eps) * wmax
            assert np.abs(surf.w - w_ref).max() <= tol
            assert np.all(gram >= 0.0)


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


def reference_to_csv(surface, path, include_fields=False):
    """One f-string and one write per node."""
    fields = include_fields and surface.f is not None
    if fields:
        f_norm, ftilde_norm = (
            np.sqrt(np.matmul(X[..., None, :], X[..., :, None])[..., 0, 0])
            for X in (surface.f, surface.ftilde))
    with open(path, "w") as fh:
        cols = "s,t,w"
        if fields:
            cols += ",f_norm,ftilde_norm"
        fh.write(cols + "\n")
        for i, s in enumerate(surface.s_grid):
            for j, t in enumerate(surface.t_grid):
                row = f"{float(s)!r},{float(t)!r},{float(surface.w[i, j])!r}"
                if fields:
                    row += f",{float(f_norm[i, j])!r},{float(ftilde_norm[i, j])!r}"
                fh.write(row + "\n")


class TestSurfaces:
    @pytest.mark.parametrize("case, include_fields", [
        ("truncated", True), ("truncated", False), ("scalar", True),
        ("scalar", False), ("breakpoints", True)])
    def test_csv_bytes_equal_per_node_writer(self, rng, tmp_path, case, include_fields):
        grid = np.array([0.0, 0.375, 1.0])
        v = random_velocity(rng, 2, 3, grid, scale=0.7)
        vt = random_velocity(rng, 2, 3, grid, scale=0.7)
        if case == "truncated":
            surf = solve_truncated_system(v, vt, 3, 3, unigrid(17), unigrid(17))
        elif case == "scalar":
            surf = solve_goursat_scalar((lambda s: 1.0 + s, lambda t: -0.3), unigrid(13),
                                        make_grid(1.0, 6, [0.1]))
            assert surf.f is None
        else:
            surf = solve_truncated_system(v, vt, 2, 3, make_grid(1.0, 7, grid),
                                          make_grid(1.0, 10, grid))
            assert len(surf.s_grid) != len(surf.t_grid)
        surf.to_csv(tmp_path / "got.csv", include_fields=include_fields)
        reference_to_csv(surf, tmp_path / "ref.csv", include_fields=include_fields)
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

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

    def test_csv_field_norms_match_per_node_norm(self, rng, tmp_path):
        grid = np.array([0.0, 0.5, 1.0])
        v = random_velocity(rng, 2, 3, grid, scale=0.7)
        vt = random_velocity(rng, 2, 3, grid, scale=0.7)
        surf = solve_truncated_system(v, vt, 3, 3, make_grid(1.0, 9, grid),
                                      make_grid(1.0, 7, grid))
        path = tmp_path / "surface.csv"
        surf.to_csv(path, include_fields=True)
        lines = ["s,t,w,f_norm,ftilde_norm"]
        for i, s in enumerate(surf.s_grid):
            for j, t in enumerate(surf.t_grid):
                lines.append(f"{float(s)!r},{float(t)!r},{float(surf.w[i, j])!r},"
                             f"{float(np.linalg.norm(surf.f[i, j]))!r},"
                             f"{float(np.linalg.norm(surf.ftilde[i, j]))!r}")
        assert path.read_text() == "\n".join(lines) + "\n"

    def test_field_accessors(self, rng):
        grid = np.array([0.0, 1.0])
        v = random_velocity(rng, 2, 2, grid, scale=0.7)
        surf = solve_truncated_system(v, v, 2, 2, unigrid(9), unigrid(9))
        f = surf.f_tensor(4, 4)
        assert f.dim == 2 and f.depth == 1 and f.scalar() == 0.0
        # the stored field leaves out the scalar slot; the accessor puts it back
        assert np.array_equal(ta.flatten(f, 1), [0.0, *surf.f[4, 4]])


def split_surface(rng, case, n_rows):
    """A surface with ``n_rows`` s-rows for the split writer."""
    t_grid = unigrid(5)
    if case == "scalar":
        surf = solve_goursat_scalar((lambda s: 1.0 + s, lambda t: -0.3), unigrid(n_rows),
                                    t_grid)
        assert surf.f is None
        return surf
    grid = np.array([0.0, 1.0])
    v = random_velocity(rng, 2, 3, grid, scale=0.7)
    surf = solve_truncated_system(v, random_velocity(rng, 2, 3, grid, scale=0.7), 3, 3,
                                  unigrid(n_rows), t_grid)
    if case == "special":
        # non-finite values and a signed zero in w and in both fields' norms
        surf.w[0, 1], surf.w[-1, 0], surf.w[n_rows // 2, 2] = math.nan, -math.inf, -0.0
        surf.f[0, 2], surf.ftilde[-1, 3] = math.inf, math.nan
        surf.f[n_rows // 2, 4] = -0.0
    return surf


class TestSplitWriter:
    """``to_csv`` in row blocks written by forked children gives the bytes
    of the per-node writer, by every path, and leaves no part file and no
    child process behind."""

    def write_and_compare(self, surf, tmp_path, include_fields=True):
        fds = open_fds()
        surf.to_csv(tmp_path / "got.csv", include_fields=include_fields)
        assert open_fds() == fds
        reference_to_csv(surf, tmp_path / "ref.csv", include_fields=include_fields)
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["got.csv", "ref.csv"]
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @staticmethod
    def force_blocks(monkeypatch, blocks):
        """Have ``to_csv`` cut ``blocks`` blocks (fewer on fewer rows)."""
        monkeypatch.setattr(_forks, "cpu_count", lambda: blocks)
        monkeypatch.setattr(kernel_solver, "_BLOCK_COST_NODES", 0)

    @pytest.fixture
    def sigchld_ignored(self):
        """SIGCHLD set to SIG_IGN, so the kernel reaps every child and
        ``waitpid`` on it fails with ``ChildProcessError``."""
        old = signal.signal(signal.SIGCHLD, signal.SIG_IGN)
        yield
        signal.signal(signal.SIGCHLD, old)

    @pytest.mark.parametrize("blocks", [1, 2, 3])
    @pytest.mark.parametrize("case, n_rows, include_fields", [
        ("truncated", 7, True), ("truncated", 8, True), ("truncated", 7, False),
        ("truncated", 2, True), ("scalar", 7, True), ("special", 9, True)])
    def test_blocks_give_the_same_bytes(self, rng, tmp_path, monkeypatch, forks, blocks,
                                        case, n_rows, include_fields):
        surf = split_surface(rng, case, n_rows)
        self.force_blocks(monkeypatch, blocks)
        self.write_and_compare(surf, tmp_path, include_fields)
        assert len(forks) == min(blocks, n_rows) - 1

    @pytest.mark.parametrize("chunk", [1, 7, 45])
    def test_chunks_give_the_same_bytes(self, rng, tmp_path, monkeypatch, chunk):
        # chunks of one node, ending inside an s-row, or a whole block; the
        # longest reprs (24 bytes) take a fourth word in their column
        surf = split_surface(rng, "special", 9)
        surf.w[4, 3], surf.w[7, 1] = -2.2250738585072014e-308, 1.7976931348623157e308
        monkeypatch.setattr(kernel_solver, "_CHUNK_NODES", chunk)
        self.force_blocks(monkeypatch, 2)
        self.write_and_compare(surf, tmp_path)

    def test_blocks_follow_the_cpus_and_the_block_cost(self, rng, tmp_path, monkeypatch,
                                                       forks):
        surf = split_surface(rng, "truncated", 8)   # 8 rows of 5 nodes
        # block b + 1 is cut while b (b + 1) * cost < 40 nodes
        for cost, cpus, want in [(2, 1, 1), (2, 3, 3), (2, 8, 4), (7, 8, 2), (20, 8, 1)]:
            monkeypatch.setattr(kernel_solver, "_BLOCK_COST_NODES", cost)
            monkeypatch.setattr(_forks, "cpu_count", lambda: cpus)
            forks.clear()
            self.write_and_compare(surf, tmp_path)
            assert len(forks) == want - 1

    def test_without_fork(self, rng, tmp_path, monkeypatch):
        monkeypatch.delattr(os, "fork")
        self.force_blocks(monkeypatch, 3)
        self.write_and_compare(split_surface(rng, "special", 9), tmp_path)

    def test_fork_raising(self, rng, tmp_path, monkeypatch):
        def fork():
            raise OSError(11, "Resource temporarily unavailable")
        monkeypatch.setattr(os, "fork", fork)
        self.force_blocks(monkeypatch, 3)
        self.write_and_compare(split_surface(rng, "special", 9), tmp_path)

    @pytest.mark.parametrize("failing", [1, 2])
    def test_child_exiting_with_1(self, rng, tmp_path, monkeypatch, failing):
        real_fork, calls = os.fork, []

        def fork():
            calls.append(None)
            pid = real_fork()
            if pid == 0 and len(calls) == failing:
                os._exit(1)
            return pid
        monkeypatch.setattr(os, "fork", fork)
        self.force_blocks(monkeypatch, 3)
        self.write_and_compare(split_surface(rng, "special", 9), tmp_path)

    def test_children_reaped_by_sigchld_ignore(self, rng, tmp_path, monkeypatch, forks,
                                               sigchld_ignored):
        # waitpid cannot see the children's status: the parent writes their
        # blocks itself and removes their part files
        self.force_blocks(monkeypatch, 3)
        self.write_and_compare(split_surface(rng, "special", 9), tmp_path)
        assert len(forks) == 2

    def test_no_fork_beside_another_python_thread(self, rng, tmp_path, monkeypatch, forks):
        self.force_blocks(monkeypatch, 3)
        stop = threading.Event()
        other = threading.Thread(target=stop.wait)
        other.start()
        try:
            self.write_and_compare(split_surface(rng, "special", 9), tmp_path)
        finally:
            stop.set()
            other.join()
        assert forks == []

    def test_bytes_path_puts_part_files_beside_the_output(self, rng, tmp_path, monkeypatch,
                                                          forks):
        # each block's part file exists, beside the output, when its child
        # is started
        real_start, parts = _forks.start, []

        def start(*args):
            parts.append(sorted(p.name for p in tmp_path.iterdir()
                                if p.name.endswith(".part")))
            return real_start(*args)
        monkeypatch.setattr(_forks, "start", start)
        self.force_blocks(monkeypatch, 3)
        surf = split_surface(rng, "truncated", 7)
        surf.to_csv(os.fsencode(tmp_path / "got.csv"), include_fields=True)
        reference_to_csv(surf, tmp_path / "ref.csv", include_fields=True)
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
        names = [f"got.csv.{os.getpid()}.{b}.part" for b in (1, 2)]
        assert parts == [names[:1], names]
        assert len(forks) == 2
        assert sorted(p.name for p in tmp_path.iterdir()) == ["got.csv", "ref.csv"]

    def test_existing_part_file_is_left_alone(self, rng, tmp_path, monkeypatch, forks):
        part = tmp_path / f"got.csv.{os.getpid()}.1.part"
        part.write_text("not ours")
        self.force_blocks(monkeypatch, 3)
        surf = split_surface(rng, "truncated", 7)
        surf.to_csv(tmp_path / "got.csv", include_fields=True)
        reference_to_csv(surf, tmp_path / "ref.csv", include_fields=True)
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
        assert part.read_text() == "not ours" and len(forks) == 1
        part.unlink()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["got.csv", "ref.csv"]

    @pytest.mark.parametrize("reaping", ["waitpid", "sigchld-ignore"])
    @pytest.mark.parametrize("where", ["join", "append"])
    def test_parent_error_kills_and_removes(self, rng, tmp_path, monkeypatch, forks,
                                            request, where, reaping):
        # the parent raises with both children unreaped, or with one
        # reaped and its part file not yet appended; under SIGCHLD =
        # SIG_IGN the kill or the reap finds a child gone
        if reaping == "sigchld-ignore":
            request.getfixturevalue("sigchld_ignored")
            real_join = _forks.Child.join

            def join(child):   # lets the append be reached
                real_join(child)
                return []
            monkeypatch.setattr(_forks.Child, "join", join)
        if where == "join":
            target, name = _forks.Child, "join"
        else:
            target, name = _forks.shutil, "copyfileobj"

        def fail(*args):
            raise KeyboardInterrupt
        monkeypatch.setattr(target, name, fail)
        self.force_blocks(monkeypatch, 3)
        fds = open_fds()
        with pytest.raises(KeyboardInterrupt):
            split_surface(rng, "truncated", 7).to_csv(tmp_path / "got.csv")
        # no part file, no partial got.csv and no open pipe
        assert list(tmp_path.iterdir()) == [] and open_fds() == fds
        assert len(forks) == 2
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("blocks", [1, 3])
    def test_error_leaves_an_existing_file_as_it_was(self, rng, tmp_path, monkeypatch,
                                                     forks, blocks):
        # the parent raises in its second row, its first one written: a
        # chunk is one row, and the s and t text come first
        (tmp_path / "got.csv").write_text("an earlier run")
        calls, real_reprs = [], _shortest.reprs

        def fail_on_second_row(x):
            calls.append(None)
            if len(calls) == 4:
                raise KeyboardInterrupt
            return real_reprs(x)
        surf = split_surface(rng, "truncated", 7)
        monkeypatch.setattr(kernel_solver, "_CHUNK_NODES", len(surf.t_grid))
        monkeypatch.setattr(_shortest, "reprs", fail_on_second_row)
        self.force_blocks(monkeypatch, blocks)
        with pytest.raises(KeyboardInterrupt):
            surf.to_csv(tmp_path / "got.csv")
        monkeypatch.undo()
        assert len(calls) == 4 and len(forks) == blocks - 1
        assert [p.name for p in tmp_path.iterdir()] == ["got.csv"]
        assert (tmp_path / "got.csv").read_text() == "an earlier run"
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        # a run that completes replaces it
        surf.to_csv(tmp_path / "got.csv")
        reference_to_csv(surf, tmp_path / "ref.csv")
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    def test_existing_temporary_name_is_left_alone(self, rng, tmp_path):
        other = tmp_path / f"got.csv.{os.getpid()}.tmp"
        other.write_text("not ours")
        with pytest.raises(FileExistsError):
            split_surface(rng, "truncated", 7).to_csv(tmp_path / "got.csv")
        assert [p.name for p in tmp_path.iterdir()] == [other.name]
        assert other.read_text() == "not ours"

    def test_no_warning_where_fork_warns_about_threads(self, rng, tmp_path, monkeypatch):
        # Python 3.12+ warns in the parent after forking a process with more
        # than one thread; under warnings as errors the writer still gives
        # the same bytes, shows nothing and leaves no child behind
        real_fork = os.fork

        def fork():
            pid = real_fork()
            if pid:
                warnings.warn(f"This process (pid={os.getpid()}) is multi-threaded, use of "
                              "fork() may lead to deadlocks in the child.",
                              DeprecationWarning, stacklevel=2)
            return pid
        monkeypatch.setattr(os, "fork", fork)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            self.force_blocks(monkeypatch, 2)
            self.write_and_compare(split_surface(rng, "truncated", 8), tmp_path)

import itertools
import math
import time

import numpy as np
import pytest

from levy_sigkernel import tensor_algebra as ta
from levy_sigkernel.characteristics import (GaussianJumps, LevyTriplet,
                                            PiecewiseVelocity,
                                            characteristic_velocity)
from levy_sigkernel.development import (bell_polynomials,
                                        bound_gronwall,
                                        bound_inner_truncation, bound_level,
                                        bound_lipschitz,
                                        bound_outer_truncation, develop,
                                        expected_signature,
                                        gaussian_jump_tail_bound,
                                        gaussian_mgf_moment,
                                        remainder_diagnostics)
from levy_sigkernel.errors import InvalidParameter, OutOfRange
from levy_sigkernel.tensor_algebra import TruncatedTensor as TT

from conftest import gamma, random_velocity_tensor, reference_mul_exp


def velocity(dim, grid, tensors):
    return PiecewiseVelocity(dim, np.asarray(grid, dtype=float), tensors)


def random_velocity(rng, dim, depth, n_intervals=2, scale=0.4, horizon=1.0):
    cuts = np.sort(rng.uniform(0.1, 0.9, size=n_intervals - 1)) * horizon
    grid = np.concatenate([[0.0], cuts, [horizon]])
    tensors = [random_velocity_tensor(rng, dim, depth, scale)
               for _ in range(n_intervals)]
    return velocity(dim, grid, tensors)


def count_set_partitions(n):
    """Brute-force oracle: number of partitions of {1..n}."""
    if n == 0:
        return 1
    total = 0
    # place element n in a block with each subset of {1..n-1}
    for k in range(n):
        total += math.comb(n - 1, k) * count_set_partitions(n - 1 - k)
    return total


class TestDevelop:
    def test_constant_velocity_is_exponential(self, rng):
        x = random_velocity_tensor(rng, 2, 3, scale=0.8)
        v = velocity(2, [0.0, 2.0], [x])
        out = develop(v, 0.3, 1.7, 4)
        ref = ta.exp_tensor(x.with_depth(4) * 1.4)
        assert ta.norm_p(out - ref, "max") < 1e-14

    def test_zero_velocity(self):
        v = velocity(1, [0.0, 1.0], [TT.zero(1, 2)])
        out = develop(v, 0.0, 1.0, 3)
        assert ta.norm_p(out - TT.unit(1, 3), 1) == 0.0

    def test_two_interval_product_and_chen(self, rng):
        x = random_velocity_tensor(rng, 2, 2, scale=0.7)
        y = random_velocity_tensor(rng, 2, 2, scale=0.7)
        v = velocity(2, [0.0, 0.4, 1.0], [x, y])
        whole = develop(v, 0.0, 1.0, 4)
        ref = ta.tensor_mul(ta.exp_tensor(x.with_depth(4) * 0.4),
                            ta.exp_tensor(y.with_depth(4) * 0.6), 4)
        assert ta.norm_p(whole - ref, "max") < 1e-14
        # Chen splitting at arbitrary midpoints, exact to 1e-12
        for u in (0.2, 0.4, 0.77):
            left = develop(v, 0.0, u, 4)
            right = develop(v, u, 1.0, 4)
            assert ta.norm_p(whole - ta.tensor_mul(left, right, 4), "max") < 1e-12

    def test_dilation_equivariance(self, rng):
        v = random_velocity(rng, 2, 3, n_intervals=3)
        lam = 1.3
        lhs = ta.dilate(develop(v, 0.0, 1.0, 4), lam)
        scaled = velocity(2, v.time_grid, [ta.dilate(x, lam) for x in v.tensors])
        rhs = develop(scaled, 0.0, 1.0, 4)
        assert ta.norm_p(lhs - rhs, "max") < 1e-12

    def test_out_of_range(self, rng):
        v = random_velocity(rng, 1, 2)
        with pytest.raises(OutOfRange):
            develop(v, 0.0, 1.5, 3)
        with pytest.raises(OutOfRange):
            develop(v, 0.9, 0.1, 3)

    @pytest.mark.parametrize("depth", [-1, 2.0, 1.5, None, True])
    def test_depth_must_be_nonnegative_integer(self, rng, depth):
        v = random_velocity(rng, 2, 2)
        with pytest.raises(InvalidParameter):
            develop(v, 0.0, 1.0, depth)

    def test_depth_zero_and_numpy_integer(self, rng):
        v = random_velocity(rng, 2, 2)
        zero = develop(v, 0.0, 1.0, 0)
        assert zero.depth == 0 and zero.levels[0].tolist() == [1.0]
        a, b = develop(v, 0.0, 1.0, np.int64(3)), develop(v, 0.0, 1.0, 3)
        assert all(x.tobytes() == y.tobytes() for x, y in zip(a.levels, b.levels))


def exp_then_multiply(v, s, t, depth):
    """Reference: the development as the ordered product of tensor
    exponentials, each formed by ``exp_tensor`` and multiplied on."""
    out = TT.unit(v.dim, depth)
    for i, dt in v.overlaps(s, t):
        out = ta.tensor_mul(out, ta.exp_tensor((v.tensors[i] * dt).with_depth(depth)), depth)
    return out


def develop_bound(v, depth):
    """Forward bound on |develop - exp_then_multiply| per coefficient, for
    a velocity on two intervals.

    A term of output level n takes r_i <= n letters from interval i, built
    from the L_i <= n live levels of that interval's tensor (those up to n);
    let L = max L_i.  In ``develop``, each fused step costs interval i at
    most L_i + r_i (L_i + 2) roundings (see ``general_mul_exp_bound`` in
    conftest), 2 L + n (L + 2) in all.  In the reference, each
    exponential costs r_i (L_i + 3) and each of the two products one
    multiplication and at most n additions, n (L + 3) + 2 (n + 1) in all.
    With L <= n both are at most K = (L + 5) n + 2.  Each lies within
    gamma_K T of the exact development, T being the development of |v|
    (levels in absolute value), evaluated in floating point on nonnegative
    data and so low by at most a factor 1 - gamma_K, divided out.
    """
    absolute = velocity(v.dim, v.time_grid,
                        [TT(v.dim, [np.abs(lev) for lev in x.levels]) for x in v.tensors])
    t = exp_then_multiply(absolute, 0.0, v.time_grid[-1], depth)
    live = sorted({j for x in v.tensors for j in range(1, x.depth + 1) if x.levels[j].any()})
    bounds = []
    for n, lev in enumerate(t.levels):
        g = gamma((sum(j <= n for j in live) + 5) * n + 2)
        bounds.append(2 * g / (1 - g) * lev)
    return bounds


class TestDevelopAtOracleDepth:
    """``develop`` at the depth of the validate oracles (19, d = 2) on a
    Gaussian-jump velocity followed by a diffusion one."""

    @pytest.fixture(scope="class")
    def jump_velocity(self):
        trip = LevyTriplet(
            dim=2, time_grid=np.array([0.0, 0.45, 1.0]),
            drifts=[np.array([0.2, -0.1]), np.array([-0.15, 0.25])],
            covs=[np.array([[0.09, 0.02], [0.02, 0.05]]), np.array([[0.06, -0.01], [-0.01, 0.08]])],
            jumps=[GaussianJumps(1.5, np.array([[0.08, 0.01], [0.01, 0.05]])), None])
        v = characteristic_velocity(trip, 19)
        assert [j for j in range(1, 20) if v.tensors[0].levels[j].any()] \
            == [1, 2, 4, 6, 8, 10, 12, 14, 16, 18]
        return v

    def test_matches_exp_then_multiply(self, jump_velocity):
        got = develop(jump_velocity, 0.0, 1.0, 19)
        want = exp_then_multiply(jump_velocity, 0.0, 1.0, 19)
        assert got.depth == 19
        for n, (a, b, tol) in enumerate(zip(got.levels, want.levels,
                                            develop_bound(jump_velocity, 19))):
            assert np.all(np.abs(a - b) <= tol), n

    @pytest.mark.parametrize("depth", [12, 19])
    def test_bitwise_equal_with_reference_mul_exp(self, jump_velocity, depth, monkeypatch):
        got = develop(jump_velocity, 0.0, 1.0, depth)
        monkeypatch.setattr(ta, "mul_exp", reference_mul_exp)
        want = develop(jump_velocity, 0.0, 1.0, depth)
        assert got.depth == want.depth == depth
        for a, b in zip(got.levels, want.levels):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()

    def test_chen_splitting(self, jump_velocity):
        whole = develop(jump_velocity, 0.0, 1.0, 19)
        for u in (0.3, 0.7):
            split = ta.tensor_mul(develop(jump_velocity, 0.0, u, 19),
                                  develop(jump_velocity, u, 1.0, 19), 19)
            assert ta.norm_p(whole - split, "max") < 1e-12


class TestExpectedSignature:
    def test_fawcett_formula(self):
        bm = LevyTriplet.brownian(1, 2.0)
        out = expected_signature(bm, 2.0, 4)
        # exp(t a/2) with t = 2, a = e_11: levels 1, 0, 1, 0, 1/2
        assert out.levels[0][0] == 1.0
        assert out.levels[2][0] == pytest.approx(1.0, abs=1e-14)
        assert out.levels[4][0] == pytest.approx(0.5, abs=1e-14)
        assert out.levels[1][0] == 0.0 and out.levels[3][0] == 0.0

    def test_zero_triplet(self):
        trip = LevyTriplet.homogeneous(2, 1.0)
        out = expected_signature(trip, 1.0, 3)
        assert ta.norm_p(out - TT.unit(2, 3), 1) == 0.0

    def test_gaussian_cp_development(self):
        trip = LevyTriplet.homogeneous(
            1, 1.0, jumps=GaussianJumps(1.0, np.array([[1.0]])))
        out = expected_signature(trip, 1.0, 4)
        # develop of velocity levels (0, 0, 1/2, 0, 1/8):
        # level 2 = 1/2, level 4 = (1/2)^2/2! + 1/8 = 1/4
        assert out.levels[2][0] == pytest.approx(0.5, abs=1e-14)
        assert out.levels[4][0] == pytest.approx(0.25, abs=1e-14)


class TestBellPolynomials:
    def test_b2_expansion(self):
        # oracle: exp(y1 x + y2 x^2/2) expanded to order 2 gives
        # B_2 = y1^2 + y2
        y1, y2 = 0.7, -0.3
        vals = bell_polynomials([y1, y2])
        assert vals[0] == pytest.approx(y1)
        assert vals[1] == pytest.approx(y1**2 + y2)

    def test_zero_arguments(self):
        assert np.all(bell_polynomials(np.zeros(5)) == 0.0)

    def test_bell_numbers_vs_set_partition_count(self):
        # all arguments 1 give the Bell numbers
        got = bell_polynomials(np.ones(5))
        expected = [count_set_partitions(n) for n in range(1, 6)]
        assert expected == [1, 2, 5, 15, 52]
        assert np.allclose(got, expected)

    @pytest.mark.parametrize("ys", [np.ones(1100), np.tile([0.0, 1.0], 550)],
                             ids=["ones", "zeros-between"])
    def test_past_the_float_range_is_inf(self, ys):
        # B_n overflows near n = 218 and C(m, k) near m = 1030; warnings are
        # errors here, and the values up to the overflow keep their bits
        got = bell_polynomials(ys)
        assert not np.isnan(got).any() and got[-1] == math.inf
        top = int(np.argmax(np.isinf(got)))
        assert top > 100 and np.isfinite(got[:top]).all()
        assert got[:top].tobytes() == bell_polynomials(ys[:top]).tobytes()


class TestBounds:
    def test_level_bound_dominates(self, rng):
        for _ in range(30):
            v = random_velocity(rng, 2, 3, scale=0.6)
            dev = develop(v, 0.0, 1.0, 5)
            for n in range(1, 6):
                exact = np.linalg.norm(dev.levels[n])
                assert exact <= bound_level(v, 0.0, 1.0, n) * (1 + 1e-12)

    def test_level_bound_equality_1d_nonnegative(self, rng):
        # d = 1, constant non-negative velocity: attained exactly
        levels = [np.zeros(1)] + [rng.uniform(0.0, 0.8, size=1) / 2**n
                                  for n in range(1, 4)]
        v = velocity(1, [0.0, 1.0], [TT(1, levels)])
        dev = develop(v, 0.0, 1.0, 6)
        for n in range(1, 7):
            exact = float(np.linalg.norm(dev.levels[n]))
            assert exact == pytest.approx(bound_level(v, 0.0, 1.0, n), abs=1e-12)

    def test_gronwall_bound(self, rng):
        for _ in range(30):
            v = random_velocity(rng, 2, 3, scale=0.8)
            dev = develop(v, 0.0, 1.0, 8)
            assert ta.norm_p(dev, 1) <= bound_gronwall(v, 0.0, 1.0) * (1 + 1e-12)
        assert bound_gronwall(velocity(1, [0, 1], [TT.zero(1, 1)]), 0, 1) == 1.0

    def test_lipschitz_bound(self, rng):
        for _ in range(20):
            v = random_velocity(rng, 2, 2, scale=0.5)
            w = random_velocity(rng, 2, 2, scale=0.5)
            lhs = ta.norm_p(develop(v, 0, 1, 8) - develop(w, 0, 1, 8), 1)
            assert lhs <= bound_lipschitz(v, w, 0.0, 1.0) * (1 + 1e-12)

    def test_inner_truncation_bound(self, rng):
        for _ in range(20):
            v = random_velocity(rng, 2, 3, scale=0.5)
            bound = bound_inner_truncation(v, 0.0, 1.0, 1)
            if bound == 0.0:
                continue
            # evaluation depth chosen so the outer remainder is negligible
            depth = next(dd for dd in range(4, 15)
                         if bound_outer_truncation(v, 0, 1, 3, dd + 1) < 0.01 * bound)
            lhs = ta.norm_p(develop(v, 0, 1, depth)
                            - develop(v.truncated(1), 0, 1, depth), 1)
            assert lhs <= bound * (1 + 1e-12)

    def test_outer_truncation_scalar_exponential_tail(self):
        # d = 1, constant c e_1: the development is exp(cT e_1) and the bound
        # must dominate the exact tail sum_{n >= M} (cT)^n / n!
        c, horizon = 0.9, 1.0
        v = velocity(1, [0.0, horizon], [TT.from_levels(1, [[0.0], [c]])])
        for m in (2, 4, 6):
            exact_tail = sum((c * horizon)**n / math.factorial(n)
                             for n in range(m, 60))
            bound = bound_outer_truncation(v, 0.0, horizon, 1, m)
            assert exact_tail <= bound * (1 + 1e-12)
            # V-valued case reduces to e^L L^M / M!
            load = c * horizon
            assert bound == pytest.approx(
                math.exp(load) * load**m / math.factorial(m), rel=1e-14)

    def test_outer_truncation_dominates_computed_tail(self, rng):
        for _ in range(10):
            v = random_velocity(rng, 2, 3, scale=0.5)
            vN = v.truncated(2)
            dev = develop(vN, 0.0, 1.0, 8)
            for m in (3, 5):
                tail = sum(float(np.linalg.norm(dev.levels[n]))
                           for n in range(m, 9))
                assert tail <= bound_outer_truncation(v, 0, 1, 2, m) * (1 + 1e-12)

    def test_all_bounds_zero_velocity(self):
        v = velocity(1, [0.0, 1.0], [TT.zero(1, 2)])
        assert bound_level(v, 0, 1, 3) == 0.0
        assert bound_gronwall(v, 0, 1) == 1.0
        assert bound_inner_truncation(v, 0, 1, 1) == 0.0
        assert bound_outer_truncation(v, 0, 1, 1, 2) == 0.0

    def test_level_bound_pieces(self):
        # V_k integrals are exact for piecewise-constant velocities
        v = velocity(1, [0.0, 0.5, 1.0],
                     [TT.from_levels(1, [[0.0], [2.0]]),
                      TT.from_levels(1, [[0.0], [4.0]])])
        # level 1 of the development: integral of velocity = 3
        dev = develop(v, 0.0, 1.0, 2)
        assert dev.levels[1][0] == pytest.approx(3.0)
        assert bound_level(v, 0.0, 1.0, 1) == pytest.approx(3.0)

    def test_bounds_past_170_factorial_are_finite(self):
        # level masses (0, c): exp(c x^2) has the coefficients c^j / j! at
        # x^{2j} and 0 at odd powers; the Bell form needs 171! as a float
        v = characteristic_velocity(LevyTriplet.brownian(2, 1.0), 2)
        c = v.level_mass(0.0, 1.0, 2)
        assert bound_level(v, 0, 1, 170) == pytest.approx(c**85 / math.factorial(85),
                                                          rel=1e-12)
        assert bound_level(v, 0, 1, 171) == 0.0
        assert bound_level(v, 0, 1, 172) == pytest.approx(
            math.exp(86 * math.log(c) - math.lgamma(87)), rel=1e-12)
        # no level-1 mass: no load, so no tail at any level
        assert bound_outer_truncation(v, 0, 1, 1, 400) == 0.0
        # level masses (a, 0): exp(a x) has the coefficients a^n / n!; at
        # a = 300 the Bell form's B_170 = a^170 overflows, the bound does not
        for a in (3.0, 300.0):
            v = velocity(1, [0.0, 1.0], [TT.from_levels(1, [[0.0], [a]])])
            for n in (170, 171, 300):
                assert bound_level(v, 0, 1, n) == pytest.approx(
                    math.exp(n * math.log(a) - math.lgamma(n + 1)), rel=1e-12)
            assert bound_outer_truncation(v, 0, 1, 1, 400) == pytest.approx(
                math.exp(a + 400 * math.log(a) - math.lgamma(401)), rel=1e-12)
        big = velocity(1, [0.0, 1.0], [TT.from_levels(1, [[0.0], [1e3]])])
        assert bound_outer_truncation(big, 0, 1, 1, 400) == math.inf
        # at a = 800 the coefficient a^j / j! overflows near j = 800, while
        # a_1500 (about e^552) and a_3000 (about e^-298) are finite; with a
        # zero level-2 mass an inf coefficient once made the bound nan
        v = velocity(1, [0.0, 1.0], [TT.from_levels(1, [[0.0], [800.0], [0.0]])])
        for n in (1500, 3000):
            assert bound_level(v, 0, 1, n) == pytest.approx(
                math.exp(n * math.log(800.0) - math.lgamma(n + 1)), rel=1e-11)
        assert bound_level(v, 0, 1, 800) == math.inf


def direct_remainder(rho, m, mode):
    """Reference: the remainder sums with every term evaluated directly, a_n
    = B_n/n! by its recursion and beta_n by its binomial sum, as the rows of
    remainder.csv were first computed."""
    def factorial_terms():
        a = [1.0]
        for n in itertools.count():
            a.append(sum(a[k] / math.factorial(n - k)
                          for k in range(max(0, n - 170), n + 1)) / (n + 1))
            if n + 1 >= m:
                yield a[n + 1] * rho**(n + 1)

    def geometric_terms():
        for n in itertools.count(m):
            yield sum(math.comb(n - 1, k - 1) / math.factorial(k)
                      for k in range(1, n + 1)) * rho**n

    if mode == "factorial-jumps":
        terms = factorial_terms()
        estimate = total = next(terms)
    else:
        terms = geometric_terms()
        estimate = math.exp(2 * math.sqrt(m)) \
            / (2 * m**0.75 * math.sqrt(math.pi * math.e)) * rho**m / (1 - rho)
        total = 0.0
    for term in terms:
        total += term
        if term == 0.0 or term < 1e-16 * total:
            break
    return total, estimate


class TestRemainderDiagnostics:
    def test_factorial_mode_generating_function_value(self):
        # sum_{n>=1} B_n / n! = e^{e-1} - 1 (generating function at 1)
        exact, _ = remainder_diagnostics(1.0, 1, "factorial-jumps")
        assert exact == pytest.approx(math.exp(math.e - 1.0) - 1.0, rel=1e-12)

    def test_geometric_mode_direct_double_sum(self):
        rho = 0.5
        # oracle: direct double sum of beta_n rho^n
        direct = sum(sum(math.comb(n - 1, k - 1) / math.factorial(k)
                         for k in range(1, n + 1)) * rho**n
                     for n in range(1, 200))
        exact, _ = remainder_diagnostics(rho, 1, "geometric-jumps")
        assert exact == pytest.approx(direct, rel=1e-12)

    def test_ratio_trend_toward_one(self):
        for mode, rho in (("factorial-jumps", 1.0), ("geometric-jumps", 0.5)):
            ratios = []
            for m in range(20, 61, 10):
                exact, asym = remainder_diagnostics(rho, m, mode)
                ratios.append(exact / asym)
            diffs = np.abs(np.array(ratios) - 1.0)
            assert np.all(np.diff(diffs) <= 1e-12), (mode, ratios)

    @pytest.mark.parametrize("mode", ["factorial-jumps", "geometric-jumps"])
    def test_underflowing_terms_end_the_sum(self, mode):
        # rho^2 underflows to 0: the sum used to run on forever (geometric)
        # or until math.factorial overflowed (factorial)
        assert remainder_diagnostics(1e-300, 2, mode) == (0.0, 0.0)
        exact, estimate = remainder_diagnostics(1e-300, 1, mode)
        assert exact == 1e-300 and type(exact) is float and type(estimate) is float

    def test_factorial_mode_past_171_terms(self):
        # the series at rho = 3 needs terms past n = 171, where (n - k)!
        # leaves the float range: sum_{n>=1} B_n 3^n / n! = e^{e^3 - 1} - 1
        exact, _ = remainder_diagnostics(3.0, 1, "factorial-jumps")
        assert exact == pytest.approx(math.exp(math.exp(3.0) - 1.0) - 1.0, rel=1e-12)

    @pytest.mark.parametrize("rho", [6.6, 50.0, 1e300])
    def test_factorial_terms_beyond_the_float_range(self, rho):
        # sum_n B_n rho^n / n! = e^{e^rho - 1} - 1 leaves the float range
        # from rho = 6.57 on
        with pytest.raises(InvalidParameter, match="float range"):
            remainder_diagnostics(rho, 2, "factorial-jumps")

    def test_factorial_mode_where_rho_to_the_n_overflows(self):
        # 4**n overflows at n = 512 and a_n = B_n/n! underflows near n = 545
        # while the terms, peaking near n = 220, still count
        exact, _ = remainder_diagnostics(4.0, 1, "factorial-jumps")
        assert exact == pytest.approx(math.expm1(math.e**4 - 1.0), rel=1e-12)

    @pytest.mark.parametrize("rho", [0.9, 0.97, 0.99])
    def test_geometric_mode_generating_function_value(self, rho):
        # sum_{n>=1} beta_n z^n = exp(z/(1-z)) - 1
        exact, _ = remainder_diagnostics(rho, 1, "geometric-jumps")
        assert exact == pytest.approx(math.expm1(rho / (1.0 - rho)), rel=1e-12)

    @pytest.mark.parametrize("rho,finite", [(0.998, True), (0.999, False)])
    def test_geometric_mode_near_one_ends_in_time(self, rho, finite):
        # the terms peak near n = (1/(1-rho))^2: 2.5e5 terms at rho = 0.998,
        # whose sum e^499 is finite; at 0.999 the sum e^999 is not
        start = time.perf_counter()
        if finite:
            exact, _ = remainder_diagnostics(rho, 1, "geometric-jumps")
            assert exact == pytest.approx(math.expm1(rho / (1.0 - rho)), rel=1e-10)
        else:
            with pytest.raises(InvalidParameter, match="float range"):
                remainder_diagnostics(rho, 1, "geometric-jumps")
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("mode,rho", [("factorial-jumps", 1.0),
                                          ("geometric-jumps", 0.5)])
    def test_printed_rows_keep_the_direct_terms(self, mode, rho):
        # the rows of remainder.csv, bitwise against the direct evaluation
        for m in range(1, 13):
            assert remainder_diagnostics(rho, m, mode) == direct_remainder(rho, m, mode)

    def test_parameter_validation(self):
        with pytest.raises(InvalidParameter):
            remainder_diagnostics(1.5, 3, "geometric-jumps")
        with pytest.raises(InvalidParameter):
            remainder_diagnostics(1.0, 0, "factorial-jumps")
        with pytest.raises(InvalidParameter):
            remainder_diagnostics(1.0, 1, "unknown")


class TestGaussianMgf:
    def test_d1_m0_closed_form(self):
        # cross-check: int e^{x^2/4} phi(x) dx = (1 - 1/2)^{-1/2} = sqrt(2)
        assert gaussian_mgf_moment(1, 0) == pytest.approx(math.sqrt(2.0), abs=1e-15)

    def test_d2_m0_quadrature(self):
        from scipy import integrate
        val, _ = integrate.quad(
            lambda r: math.exp(r * r / 4) * r * math.exp(-r * r / 2), 0, 30)
        assert gaussian_mgf_moment(2, 0) == pytest.approx(val, rel=1e-10)
        assert gaussian_mgf_moment(2, 0) == pytest.approx(2.0, rel=1e-14)

    def test_d1_m2_gamma_ratio(self):
        # Gamma(2.5)/Gamma(0.5) = (3/2)(1/2) = 3/4
        assert gaussian_mgf_moment(1, 2) == pytest.approx(2**4.5 * 0.75, rel=1e-14)

    @pytest.mark.parametrize("d, m, expected", [
        (400, 0, 2.0**200), (400, 10, 2.0**220 * math.prod(range(200, 210))),
        (2, 400, math.inf), (1, 171, math.inf)])
    def test_past_the_gamma_range(self, d, m, expected):
        # Gamma(d/2 + m) or Gamma(d/2) overflows a float; the value may not
        assert gaussian_mgf_moment(d, m) == pytest.approx(expected, rel=1e-12, abs=0.0)

    def test_monte_carlo_agreement(self, rng):
        for d in (1, 2, 3):
            for m in (0, 1, 2):
                draws = rng.standard_normal((400_000, d))
                sq = np.sum(draws * draws, axis=1)
                samples = np.exp(sq / 4) * sq**m
                se = samples.std(ddof=1) / math.sqrt(len(samples))
                assert abs(samples.mean() - gaussian_mgf_moment(d, m)) <= 4 * se

    def test_jump_tail_bound_dominates_velocity_tail(self):
        # d = 1, unit covariance and intensity: velocity tail above 2m is
        # sum_{2n > 2m} (2n-1)!! / (2n)! = sum 1/(2^n n!)
        for m in (1, 2, 3):
            tail = sum(1.0 / (2**n * math.factorial(n)) for n in range(m + 1, 40))
            bound = gaussian_jump_tail_bound(np.array([[1.0]]), 1.0, 1.0, m)
            assert tail <= bound * (1 + 1e-12)

    def test_jump_tail_bound_factorial_decay(self):
        vals = [gaussian_jump_tail_bound(np.array([[1.0]]), 1.0, 1.0, m)
                for m in (1, 2, 3, 4)]
        ratios = [vals[i + 1] / vals[i] for i in range(3)]
        assert all(r2 < r1 for r1, r2 in zip(ratios, ratios[1:]))

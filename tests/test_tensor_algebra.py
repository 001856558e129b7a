import itertools
import math

import numpy as np
import pytest

from levy_sigkernel import tensor_algebra as ta
from levy_sigkernel.characteristics import PiecewiseVelocity
from levy_sigkernel.development import develop
from levy_sigkernel.errors import (DimMismatch, InvalidParameter, InvalidWord,
                                   LevySigKernelError, ScalarPartError,
                                   Unsupported)
from levy_sigkernel.tensor_algebra import TruncatedTensor as TT

from conftest import (dense_exp_tensor, dense_tensor_mul, gamma, general_mul_exp_bound,
                      random_tensor, reference_mul_exp)


def enumerate_words(dim, length):
    """Independent oracle: all words of a length in lexicographic order."""
    return list(itertools.product(range(1, dim + 1), repeat=length))


class TestWordIndex:
    def test_first_basis_word(self):
        assert ta.word_index((1,), 2) == 0

    def test_base_two_encoding(self):
        assert ta.word_index((1, 2), 2) == 1

    def test_length_three_matches_enumeration(self):
        words = enumerate_words(2, 3)
        assert words.index((2, 2, 1)) == 6
        for i, w in enumerate(words):
            assert ta.word_index(w, 2) == i

    def test_bijection_various_dims(self):
        for dim, length in [(1, 4), (3, 3), (4, 2)]:
            words = enumerate_words(dim, length)
            assert [ta.word_index(w, dim) for w in words] == list(range(dim**length))

    def test_letter_out_of_range(self):
        with pytest.raises(InvalidWord):
            ta.word_index((1, 3), 2)
        with pytest.raises(InvalidWord):
            ta.word_index((0,), 2)


class TestTensorMul:
    def test_unit_plus_letter_product(self):
        x = TT.unit(2, 2) + TT.from_word((1,), 2, 2)
        y = TT.unit(2, 2) + TT.from_word((2,), 2, 2)
        out = ta.tensor_mul(x, y, 2)
        expected = (TT.unit(2, 2) + TT.from_word((1,), 2, 2)
                    + TT.from_word((2,), 2, 2) + TT.from_word((1, 2), 2, 2))
        assert ta.norm_p(out - expected, 1) == 0.0

    def test_identity_element(self, rng):
        x = random_tensor(rng, 2, 3)
        out = ta.tensor_mul(x, TT.unit(2, 3), 3)
        assert ta.norm_p(out - x, 1) == 0.0
        out = ta.tensor_mul(TT.unit(2, 3), x, 3)
        assert ta.norm_p(out - x, 1) == 0.0

    def test_word_concatenation(self):
        # e_1 (x) e_21 = e_121, located via the word_index oracle
        out = ta.tensor_mul(TT.from_word((1,), 2), TT.from_word((2, 1), 2), 3)
        expected = np.zeros(8)
        expected[ta.word_index((1, 2, 1), 2)] = 1.0
        assert np.array_equal(out.levels[3], expected)

    def test_truncation_drops_high_levels(self):
        out = ta.tensor_mul(TT.from_word((1,), 2), TT.from_word((2, 1), 2), 2)
        assert out.depth == 2
        assert ta.norm_p(out, 1) == 0.0

    def test_dim_mismatch(self):
        with pytest.raises(DimMismatch):
            ta.tensor_mul(TT.unit(2, 1), TT.unit(3, 1), 1)

    def test_heterogeneous_depths(self, rng):
        x = random_tensor(rng, 2, 1)
        y = random_tensor(rng, 2, 3)
        out = ta.tensor_mul(x, y, 4)
        ref = ta.tensor_mul(x.with_depth(4), y.with_depth(4), 4)
        assert ta.norm_p(out - ref, 1) < 1e-15


class TestInnerProduct:
    def test_coordinate_sum(self):
        x = TT.unit(1, 1) + TT.from_word((1,), 1, 1)
        y = TT.unit(1, 1) + 2.0 * TT.from_word((1,), 1, 1)
        assert ta.inner_product(x, y) == 3.0

    def test_zero_element(self, rng):
        x = random_tensor(rng, 2, 3)
        assert ta.inner_product(x, TT.zero(2, 3)) == 0.0

    def test_distinct_words_orthogonal(self):
        assert ta.inner_product(TT.from_word((1, 2), 2), TT.from_word((2, 1), 2)) == 0.0

    def test_dim_mismatch(self):
        with pytest.raises(DimMismatch):
            ta.inner_product(TT.unit(2, 1), TT.unit(3, 1))


class TestNorms:
    def test_two_unit_levels(self):
        assert ta.norm_p(TT.unit(1, 1) + TT.from_word((1,), 1, 1), 1) == 2.0

    def test_single_level(self):
        assert ta.norm_p(3.0 * TT.from_word((1, 1), 1), 2) == 3.0

    def test_mixed_levels(self):
        x = (TT.from_word((1,), 2, 2) + TT.from_word((2,), 2, 2)
             + TT.from_word((1, 2), 2, 2))
        assert abs(ta.norm_p(x, 1) - (math.sqrt(2) + 1)) < 1e-15

    def test_max_mode(self):
        x = TT.from_word((1,), 2, 2) + 3.0 * TT.from_word((1, 2), 2, 2)
        assert ta.norm_p(x, "max") == 3.0
        assert ta.max_level_norm(x) == 3.0

    def test_monotone_in_p(self, rng):
        for _ in range(100):
            x = random_tensor(rng, 2, 3)
            assert ta.norm_p(x, 1) >= ta.norm_p(x, 2) - 1e-14

    @pytest.mark.parametrize("scale", [0.5, 5.0, 1e-100, 1e100])
    def test_large_p_is_finite(self, scale):
        # one level norm: 0.5^2000 underflows and 5^2000 overflows unscaled
        x = scale * TT.from_word((1,), 1, 2)
        assert ta.norm_p(x, 2000) == scale
        y = x + 0.5 * scale * TT.from_word((1, 1), 1, 2)
        assert ta.norm_p(y, 2000) == pytest.approx(scale, rel=1e-15)
        assert ta.norm_p(0.0 * x, 2000) == 0.0

    @pytest.mark.parametrize("p", [0.5, math.nan, -math.inf])
    def test_invalid_p(self, p):
        with pytest.raises(InvalidParameter):
            ta.norm_p(TT.unit(1, 1), p)

    def test_level_norms_zero_iff_zero(self, rng):
        x = random_tensor(rng, 2, 2)
        x.levels[1][:] = 0.0
        norms = ta.level_norms(x)
        assert norms[1] == 0.0 and norms[2] > 0.0

    @pytest.mark.parametrize("scale", [1e200, 1e-200, 1e300, 1e-300])
    def test_norms_past_the_squares_float_range(self, scale):
        # the squares overflow (1e400) or underflow (1e-400) where the norm
        # does not; warnings are errors, so an overflow warning fails too
        x = scale * TT.from_word((1,), 2, 2) + scale * TT.from_word((2,), 2, 2)
        expected = scale * math.sqrt(2.0)
        assert ta.level_norms(x)[1] == pytest.approx(expected, rel=1e-15, abs=0.0)
        assert list(ta.level_norms(x).values[[0, 2]]) == [0.0, 0.0]
        for p in (1, 2, "max"):
            assert ta.norm_p(x, p) == pytest.approx(expected, rel=1e-15, abs=0.0)

    def test_norm_past_the_float_range_is_inf(self):
        x = TT(3, [np.zeros(1), np.zeros(3), np.full(9, 1e308)])
        assert ta.level_norms(x)[2] == math.inf
        assert ta.level_norms(TT(1, [np.zeros(1), np.array([math.inf])]))[1] == math.inf


class TestDilate:
    def test_definition(self):
        x = TT.unit(1, 2) + TT.from_word((1,), 1, 2) + TT.from_word((1, 1), 1, 2)
        out = ta.dilate(x, 2.0)
        assert out.scalar() == 1.0
        assert out.levels[1][0] == 2.0 and out.levels[2][0] == 4.0

    def test_identity(self, rng):
        x = random_tensor(rng, 2, 3)
        assert ta.norm_p(ta.dilate(x, 1.0) - x, 1) == 0.0

    def test_algebra_morphism(self, rng):
        for _ in range(50):
            x = random_tensor(rng, 2, 3)
            y = random_tensor(rng, 2, 3)
            lam = float(rng.uniform(0.2, 2.0))
            lhs = ta.dilate(ta.tensor_mul(x, y, 3), lam)
            rhs = ta.tensor_mul(ta.dilate(x, lam), ta.dilate(y, lam), 3)
            assert ta.norm_p(lhs - rhs, 1) < 1e-12


class TestExpLog:
    def test_scalar_exponential_coefficients(self):
        out = ta.exp_tensor(TT.from_word((1,), 1, 3))
        expected = [1.0, 1.0, 0.5, 1.0 / 6.0]
        for n, val in enumerate(expected):
            assert abs(out.levels[n][0] - val) < 1e-15

    def test_round_trip(self, rng):
        for dim, depth in [(1, 8), (2, 5), (4, 3)]:
            for _ in range(20):
                x = random_tensor(rng, dim, depth, zero_scalar=True)
                back = ta.log_tensor(ta.exp_tensor(x))
                assert ta.norm_p(back - x, "max") < 1e-12

    def test_exp_matches_constant_development(self, rng):
        # deferred cross-check lives in test_development; here: exp(t x) via
        # scaling equals exp applied to the scaled argument
        x = random_tensor(rng, 2, 4, zero_scalar=True)
        direct = ta.exp_tensor(x * 0.7)
        assert direct.scalar() == 1.0

    def test_scalar_part_errors(self):
        with pytest.raises(ScalarPartError):
            ta.exp_tensor(TT.unit(2, 2))
        with pytest.raises(ScalarPartError):
            ta.log_tensor(TT.zero(2, 2))

    def test_batched_scalar_part_is_typed_error(self):
        x = TT(2, [np.ones((2, 1)), np.zeros((2, 2))])
        for op in (lambda t: t.scalar(), ta.log_tensor):
            with pytest.raises(LevySigKernelError):
                op(x)


class TestBatchRejected:
    """Operations that reduce a tensor to numbers take single tensors."""

    @pytest.mark.parametrize("op", [
        lambda x, y: x + y, lambda x, y: y + x, lambda x, y: x - y,
        lambda x, y: y - x, lambda x, y: ta.inner_product(x, y),
        lambda x, y: ta.inner_product(y, x), lambda x, y: ta.level_norms(x),
        lambda x, y: ta.norm_p(x, 1), lambda x, y: ta.norm_p(x, 2),
        lambda x, y: ta.max_level_norm(x), lambda x, y: x.scalar(),
        lambda x, y: ta.adjoint_right(y, x),
    ], ids=["add", "radd", "sub", "rsub", "inner", "rinner", "level_norms",
            "norm_1", "norm_2", "norm_max", "scalar", "adjoint_right"])
    @pytest.mark.parametrize("batched_level", [0, 1])
    def test_batch_is_unsupported(self, op, batched_level):
        x = TT(2, [np.ones(1), np.ones(2)])
        x.levels[batched_level] = np.ones((3, 2**batched_level))
        with pytest.raises(Unsupported):
            op(x, TT(2, [np.ones(1), np.ones(2)]))

    def test_single_results_unchanged(self):
        x = TT(2, [np.ones(1), np.array([3.0, 4.0])])
        assert ta.norm_p(x, 1) == 6.0 and ta.inner_product(x, x) == 26.0
        assert ta.norm_p(x + x - x, "max") == 5.0


def assert_exp_is_mul_exp(x):
    """``exp_tensor(x)`` is ``mul_exp(1, x)`` bit for bit, and within
    rounding of the dense Horner scheme, which multiplies x on the left."""
    unit = TT.unit(x.dim, x.depth)
    got = ta.exp_tensor(x)
    assert_bitwise(got, reference_mul_exp(unit, x))
    for lev, want, tol in zip(got.levels, dense_exp_tensor(x).levels,
                              general_mul_exp_bound(unit, x)):
        assert np.all(np.abs(lev - want) <= tol)


def assert_bitwise(a, b):
    assert a.dim == b.dim and a.depth == b.depth
    for la, lb in zip(a.levels, b.levels):
        assert la.shape == lb.shape and la.tobytes() == lb.tobytes()


def row_of(t, p):
    """Row p of a batch; levels without the batch axis are shared."""
    return TT(t.dim, [lev[p] if lev.ndim == 2 else lev for lev in t.levels])


def sparse_tensor(rng, dim, depth, zero_levels=(), rows=None):
    """Random tensor with the given levels all zero, optionally batched."""
    lead = () if rows is None else (rows,)
    return TT(dim, [np.zeros(lead + (dim**n,)) if n in zero_levels
                    else rng.normal(size=lead + (dim**n,)) / (n + 1)
                    for n in range(depth + 1)])


class TestLevelSparseProducts:
    """The level-sparse, truncated products against the dense references:
    bitwise equal on finite inputs, and batched rows equal to single calls."""

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("x_depth,y_depth", [(3, 3), (1, 4), (4, 2), (0, 3),
                                                 (10, 1), (10, 2)])
    @pytest.mark.parametrize("signed_zeros", [False, True])
    def test_mul_matches_dense(self, rng, d, x_depth, y_depth, signed_zeros):
        # at d = 2 a depth-10 x has levels of 512 words and more, which the
        # product loops over against y's levels of at most 4
        for zx, zy in [((), ()), ((0,), (2,)), ((1, 3), (0,)), ((2,), (1, 2))]:
            x = sparse_tensor(rng, d, x_depth, zx)
            y = sparse_tensor(rng, d, y_depth, zy)
            if signed_zeros:
                # every third entry -0.0, so the scalar parts and every
                # level at d = 1 are -0.0 throughout
                for lev in (*x.levels, *y.levels):
                    lev[::3] = -0.0
            before = [lev.copy() for lev in (*x.levels, *y.levels)]
            top = max(x_depth, y_depth)
            for out_depth in (None, max(top - 1, 0), top, top + 2):
                assert_bitwise(ta.tensor_mul(x, y, out_depth),
                               dense_tensor_mul(x, y, out_depth))
            assert all(np.array_equal(a, b)
                       for a, b in zip(before, (*x.levels, *y.levels)))

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_exp_matches_dense(self, rng, d):
        for depth, zero_levels in [(0, ()), (1, ()), (4, ()), (6, (3, 4, 5, 6)),
                                   (7, (1, 5, 6, 7)), (5, (2,))]:
            assert_exp_is_mul_exp(sparse_tensor(rng, d, depth, (0, *zero_levels)))

    def test_velocity_like_exp_at_depth(self, rng):
        # a truncated velocity: levels 1..4 of a depth-12 tensor
        assert_exp_is_mul_exp(sparse_tensor(rng, 2, 12, (0, *range(5, 13))))

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_batched_rows_match_single(self, rng, d):
        rows = 5
        x = sparse_tensor(rng, d, 3, (0,), rows)
        x.levels[2][1] = 0.0                       # one zero row in a live level
        x.levels[3] = rng.normal(size=d**3)        # a level shared by all rows
        y = sparse_tensor(rng, d, 4, (2,), rows)
        y.levels[3] = np.zeros(d**3)               # a shared all-zero level

        for out_depth in (2, 4, 6):
            prod = ta.tensor_mul(x, y, out_depth)
            mixed = ta.tensor_mul(row_of(x, 0), y, out_depth)
            swapped = ta.tensor_mul(y, x, out_depth)     # a live batched scalar on the left
            for p in range(rows):
                assert_bitwise(row_of(prod, p), ta.tensor_mul(row_of(x, p), row_of(y, p), out_depth))
                assert_bitwise(row_of(prod, p), dense_tensor_mul(row_of(x, p), row_of(y, p),
                                                              out_depth))
                assert_bitwise(row_of(swapped, p), dense_tensor_mul(row_of(y, p), row_of(x, p),
                                                                 out_depth))
                assert_bitwise(row_of(mixed, p), ta.tensor_mul(row_of(x, 0), row_of(y, p), out_depth))
        ex = ta.exp_tensor(x)
        for p in range(rows):
            assert ex.levels[0].shape == (rows, 1)
            assert_bitwise(row_of(ex, p), ta.exp_tensor(row_of(x, p)))

    def test_batched_scalar_part_rejected(self):
        x = TT(2, [np.zeros((3, 1)), np.ones((3, 2))])
        x.levels[0][2, 0] = 1e-300
        with pytest.raises(ScalarPartError):
            ta.exp_tensor(x)


def unfused_mul_exp(s, x1):
    """``tensor_mul(s, dense_exp_tensor(x))`` for the increment x with level 1
    ``x1``; a batch is taken row by row, as the dense scheme is single."""
    rows = np.broadcast_shapes(x1.shape[:-1], *(lev.shape[:-1] for lev in s.levels))
    if rows:
        out = [unfused_mul_exp(row_of(s, p), x1[p] if x1.ndim == 2 else x1)
               for p in range(rows[0])]
        return TT(s.dim, [np.stack(levs) for levs in zip(*(t.levels for t in out))])
    levels = [np.zeros(1), x1] + [np.zeros(s.dim**n) for n in range(2, s.depth + 1)]
    return ta.tensor_mul(s, dense_exp_tensor(TT(s.dim, levels[:s.depth + 1])), s.depth)


def mul_exp_bound(s, x1):
    """Forward bound on |fused - unfused| per coefficient of ``s (x) exp(x)``.

    Both evaluations sum the exact terms ``s^j (x) x^(n-j) / (n-j)!`` of
    output level n, each computed term carrying at most K = 4n + 1 roundings:
    - fused Horner: the s^0 term takes n scalings ``x/k``, n products and n
      additions (3n); a term s^j, j >= 1, takes 3(n - j) + 1;
    - unfused: level m of ``dense_exp_tensor`` multiplies m factors
      ``x * (1/k)`` (two roundings each: ``1/k`` and the product) through m
      products (3m);
      ``tensor_mul`` adds one product and, adding its n + 1 terms into zeros
      in increasing j, at most n additions (4n + 1 for j = 0, fewer above).
    So each result lies within gamma_K * T of the exact value, T being
    ``|s| (x) exp(|x|)``, and the two within 2 gamma_K T.  T is evaluated in
    floating point on nonnegative data, below the exact T by at most a factor
    1 - gamma_K, which the bound divides out.
    """
    t = unfused_mul_exp(TT(s.dim, [np.abs(lev) for lev in s.levels]), np.abs(x1))
    return [2 * gamma(4 * n + 1) / (1 - gamma(4 * n + 1)) * lev
            for n, lev in enumerate(t.levels)]


def level1_mul_exp(s, x1):
    """Reference: the level-1 fusion that the batched ``mul_exp`` replaced.

    ``s (x) exp(x)`` for the increment x whose only level is ``x1``; output
    level n is evaluated in Horner form, ``((s^0 x/n + s^1) x/(n-1) + ...)
    x/1 + s^n``, with the batch axis last.  ``s`` and ``x1`` may carry a
    leading batch axis.
    """
    d = s.dim
    batch = np.broadcast_shapes(x1.shape[:-1], *(lev.shape[:-1] for lev in s.levels))
    width = batch[0] if batch else 1

    def columns(lev):
        return lev.reshape(-1, lev.shape[-1]).T

    scaled = [None] + [columns(x1) / k for k in range(1, s.depth + 1)]
    levels = [np.broadcast_to(columns(s.levels[0]), (1, width)).copy()]
    for n in range(1, s.depth + 1):
        acc = columns(s.levels[0])
        for j in range(1, n + 1):
            prod = np.empty((d**(j - 1), d, width))
            np.multiply(acc[:, None, :], scaled[n - j + 1][None, :, :], out=prod)
            acc = prod.reshape(d**j, width)
            acc += columns(s.levels[j])
        levels.append(acc)
    if not batch:
        return TT(d, [lev.reshape(-1) for lev in levels])
    return TT(d, [lev.T for lev in levels])


def velocity_like(rng, d, live, scale=0.8):
    """Zero-scalar tensor whose nonzero levels are ``live`` (stored up to the
    highest); ``{1, 2, 4, 6}`` is the shape of a Gaussian-jump velocity."""
    return TT(d, [np.zeros(1)] + [rng.normal(size=d**j) * scale / j if j in live
                                  else np.zeros(d**j) for j in range(1, max(live) + 1)])


class TestMulExp:
    """``mul_exp`` against ``tensor_mul(s, dense_exp_tensor(x))``, against the
    level-1 fusion it replaced, and batched rows against single calls."""

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("live", [{1}, {1, 2}, {1, 2, 4, 6}],
                             ids=["l1", "l12", "l1246"])
    def test_matches_unfused_within_rounding(self, rng, d, live):
        for depth in range(9):
            s = random_tensor(rng, d, depth, scale=2.0)
            x = velocity_like(rng, d, live)
            got = ta.mul_exp(s, x)
            want = ta.tensor_mul(s, dense_exp_tensor(x.with_depth(depth)), depth)
            assert got.depth == depth
            for n, (a, b, tol) in enumerate(zip(got.levels, want.levels,
                                                general_mul_exp_bound(s, x))):
                assert a.shape == b.shape == (d**n,)
                assert np.all(np.abs(a - b) <= tol), (depth, n)

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("depth", [0, 1, 2, 3, 4, 5])
    def test_level1_batch_matches_unfused_within_rounding(self, rng, d, depth):
        rows = 6
        s = TT(d, [rng.normal(size=(rows, d**n)) * 2.0 / (n + 1) for n in range(depth + 1)])
        x1 = rng.normal(size=(rows, d))
        fused = ta.mul_exp(s, TT(d, [np.zeros(1), x1]))
        ref = unfused_mul_exp(s, x1)
        assert fused.depth == depth
        for n, (got, want, tol) in enumerate(zip(fused.levels, ref.levels,
                                                 mul_exp_bound(s, x1))):
            assert got.shape == want.shape == (rows, d**n)
            assert np.all(np.abs(got - want) <= tol)

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("rows", [None, 1, 6])
    def test_bitwise_equal_to_level1_fusion(self, rng, d, rows):
        lead = () if rows is None else (rows,)
        for depth in range(7):
            s = TT(d, [rng.normal(size=lead + (d**n,)) * 2.0 / (n + 1)
                       for n in range(depth + 1)])
            batched = rng.normal(size=lead + (d,))
            for x1 in (batched, batched.reshape(-1, d)[0]):     # and shared
                x = TT(d, [np.zeros(1), x1])
                want = level1_mul_exp(s, x1)
                assert_bitwise(ta.mul_exp(s, x), want)
                # stored all-zero levels above level 1 are skipped
                assert_bitwise(ta.mul_exp(s, x.with_depth(depth + 2)), want)

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("s_batched", [True, False], ids=["s_batch", "s_shared"])
    @pytest.mark.parametrize("x_batched", [True, False], ids=["x_batch", "x_shared"])
    def test_batched_rows_match_single(self, rng, d, s_batched, x_batched):
        depth, rows = 5, 4
        s = sparse_tensor(rng, d, depth, rows=rows if s_batched else None)
        x = velocity_like(rng, d, {1, 2, 3})
        if s_batched:
            s.levels[2] = s.levels[2][0]                # a level shared by every row
            for lev in s.levels[1:]:
                if lev.ndim == 2:
                    lev[3] = 0.0                        # a zero row above level 0
        if x_batched:
            for j in (1, 2):
                x.levels[j] = rng.normal(size=(rows, d**j)) * 0.8 / j
                x.levels[j][1] = 0.0                    # a zero row
            # level 3 stays shared by every row
        out = ta.mul_exp(s, x)
        if not (s_batched or x_batched):
            assert all(lev.shape == (d**n,) for n, lev in enumerate(out.levels))
            assert_bitwise(out, ta.mul_exp(row_of(s, 0), row_of(x, 0)))
            return
        assert all(lev.shape == (rows, d**n) for n, lev in enumerate(out.levels))
        for p in range(rows):
            assert_bitwise(row_of(out, p), ta.mul_exp(row_of(s, p), row_of(x, p)))

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("live", [{1}, {1, 2}, {1, 2, 4, 6}],
                             ids=["l1", "l12", "l1246"])
    def test_bitwise_equal_to_reference(self, rng, d, live):
        # depths 0-19, single and in a batch of 4 rows, up to 2**19
        # coefficients in the top level (2**14 per row in the batch): d = 3
        # reaches depth 11 single and 8 batched.  The batch holds a zero row,
        # a row of -0.0 and a NaN, and its level 2 of s is shared.
        rows = 4
        for depth in range(20):
            if d**depth > 2**19:
                break
            s = TT(d, [rng.normal(size=d**n) * 2.0 / (n + 1) for n in range(depth + 1)])
            x = velocity_like(rng, d, live)
            assert_bitwise(ta.mul_exp(s, x), reference_mul_exp(s, x))
            if d**depth > 2**14:
                continue
            s = TT(d, [rng.normal(size=(rows, d**n)) * 2.0 / (n + 1)
                       for n in range(depth + 1)])
            if depth >= 2:
                s.levels[2] = s.levels[2][0]
            for lev in s.levels[1:]:
                if lev.ndim == 2:
                    lev[1] = -0.0
            top = s.levels[-1] if s.levels[-1].ndim == 2 else s.levels[1]
            top[2, -1] = np.nan
            x.levels[1] = rng.normal(size=(rows, d)) * 0.8
            x.levels[1][0] = 0.0
            x.levels[1][3] = -0.0
            for shared_x in (False, True):
                if shared_x:
                    x.levels[1] = x.levels[1][2]
                assert_bitwise(ta.mul_exp(s, x), reference_mul_exp(s, x))

    def test_depth_zero_returns_copy(self, rng):
        s = TT(2, [np.array([1.7])])
        out = ta.mul_exp(s, velocity_like(rng, 2, {1, 2}))
        assert_bitwise(out, s)
        out.levels[0][0] = 7.0
        assert s.levels[0][0] == 1.7

    @pytest.mark.parametrize("x_depth", [0, 1, 3, 6])
    def test_zero_x_leaves_s_unchanged(self, rng, x_depth):
        s = random_tensor(rng, 3, 4)
        out = ta.mul_exp(s, TT.zero(3, x_depth))
        assert_bitwise(out, s)
        assert all(a is not b for a, b in zip(out.levels, s.levels))

    @pytest.mark.parametrize("rows", [None, 3])
    @pytest.mark.parametrize("live", [set(), {1}, {1, 2}])
    def test_does_not_alias_its_argument(self, rng, rows, live):
        s = sparse_tensor(rng, 2, 2, rows=rows)
        x = velocity_like(rng, 2, live) if live else TT.zero(2, 1)
        before = s.copy()
        out = ta.mul_exp(s, x)
        for lev in out.levels:
            lev[...] = 7.0
        assert_bitwise(s, before)

    def test_typed_errors(self, rng):
        s = random_tensor(rng, 2, 3)
        x = velocity_like(rng, 2, {1})
        x.levels[0][0] = 1e-300
        with pytest.raises(ScalarPartError):
            ta.mul_exp(s, x)
        with pytest.raises(DimMismatch):
            ta.mul_exp(s, velocity_like(rng, 3, {1}))


class TestAdjoints:
    def test_left_strips_prefix(self):
        # brute force: <e_12, e_1 (x) e_w> is nonzero only at w = (2)
        z = TT.from_word((1, 2), 2)
        x = TT.from_word((1,), 2)
        for w in [(1,), (2,), (1, 1), (1, 2), (2, 1), (2, 2)]:
            pairing = ta.inner_product(z, ta.tensor_mul(x, TT.from_word(w, 2), 2))
            expected = 1.0 if w == (2,) else 0.0
            assert pairing == expected
        out = ta.adjoint_left(x, z)
        assert out.coeff((2,)) == 1.0
        assert ta.norm_p(out, 1) == 1.0

    def test_right_strips_suffix(self):
        z = TT.from_word((1, 2), 2)
        y = TT.from_word((2,), 2)
        for w in [(1,), (2,)]:
            pairing = ta.inner_product(z, ta.tensor_mul(TT.from_word(w, 2), y, 2))
            assert pairing == (1.0 if w == (1,) else 0.0)
        out = ta.adjoint_right(y, z)
        assert out.coeff((1,)) == 1.0 and ta.norm_p(out, 1) == 1.0

    def test_unit_acts_trivially(self, rng):
        z = random_tensor(rng, 2, 3)
        one = TT.unit(2, 0)
        assert ta.norm_p(ta.adjoint_left(one, z) - z, 1) == 0.0
        assert ta.norm_p(ta.adjoint_right(one, z) - z, 1) == 0.0

    def test_duality_identity(self, rng):
        # depths arranged so no truncation discards products
        for _ in range(100):
            x = random_tensor(rng, 2, 2)
            y = random_tensor(rng, 2, 2)
            z = random_tensor(rng, 2, 4)
            lhs = ta.inner_product(z, ta.tensor_mul(x, y, 4))
            assert abs(lhs - ta.inner_product(ta.adjoint_left(x, z), y)) < 1e-12
            assert abs(lhs - ta.inner_product(ta.adjoint_right(y, z), x)) < 1e-12

    def test_homogeneous_pairing_identity(self, rng):
        # <x (x) a, y (x) b> = <x adj-left y, b adj-right a> for a, b
        # homogeneous of levels n >= k
        for n, k in [(2, 1), (3, 2), (2, 2), (3, 1)]:
            for _ in range(25):
                d = 2
                x = random_tensor(rng, d, 2)
                y = random_tensor(rng, d, 2)
                a = TT(d, [np.zeros(d**m) if m != n else rng.normal(size=d**n)
                           for m in range(n + 1)])
                b = TT(d, [np.zeros(d**m) if m != k else rng.normal(size=d**k)
                           for m in range(k + 1)])
                lhs = ta.inner_product(ta.tensor_mul(x, a, 2 + n),
                                       ta.tensor_mul(y, b, 2 + k))
                rhs = ta.inner_product(ta.adjoint_left(x, y),
                                       ta.adjoint_right(b, a))
                assert abs(lhs - rhs) < 1e-12

    def test_homogeneity_vanishing(self, rng):
        # level-n argument stripped by a deeper level-k tensor vanishes (n < k)
        d = 2
        a = TT(d, [np.zeros(1), rng.normal(size=d)])
        b = TT(d, [np.zeros(1), np.zeros(d), rng.normal(size=d * d)])
        assert ta.norm_p(ta.adjoint_left(b, a), 1) == 0.0
        assert ta.norm_p(ta.adjoint_right(b, a), 1) == 0.0



class TestProjections:
    def test_scalar_projection(self, rng):
        x = random_tensor(rng, 2, 3)
        assert ta.truncate(x, 0).scalar() == x.scalar()

    def test_truncation_is_algebra_morphism(self, rng):
        for _ in range(50):
            x = random_tensor(rng, 2, 4)
            y = random_tensor(rng, 2, 4)
            lhs = ta.truncate(ta.tensor_mul(x, y, 4), 2)
            rhs = ta.tensor_mul(ta.truncate(x, 2), ta.truncate(y, 2), 2)
            assert ta.norm_p(lhs - rhs, 1) < 1e-13


class TestYoung:
    def test_young_inequality_p1(self, rng):
        for _ in range(200):
            x = random_tensor(rng, 2, 3)
            y = random_tensor(rng, 2, 3)
            # full product depth so no mass is dropped from the left side
            prod = ta.tensor_mul(x, y, 6)
            assert ta.norm_p(prod, 1) <= ta.norm_p(x, 1) * ta.norm_p(y, 1) + 1e-12

    def test_cross_norm_compatibility(self, rng):
        # |x^(n) (x) y^(k)| <= |x^(n)| |y^(k)| for homogeneous pieces
        d = 3
        for n, k in [(1, 1), (2, 1), (2, 2)]:
            for _ in range(50):
                xn = rng.normal(size=d**n)
                yk = rng.normal(size=d**k)
                prod = np.multiply.outer(xn, yk).ravel()
                assert np.linalg.norm(prod) <= (np.linalg.norm(xn)
                                                * np.linalg.norm(yk)) + 1e-12


class TestFlatLayout:
    def test_round_trip(self, rng):
        x = random_tensor(rng, 3, 2)
        vec = ta.flatten(x, 2)
        assert vec.shape == (ta.flat_size(3, 2),)
        back = ta.unflatten(vec, 3, 2)
        assert ta.norm_p(back - x, 1) == 0.0

    def test_unflatten_checks_length(self):
        for vec in (np.zeros(5), np.zeros(8), np.zeros((3, 5)), np.float64(1.0)):
            with pytest.raises(InvalidParameter):
                ta.unflatten(vec, 2, 2)

    def test_from_levels_validation(self):
        with pytest.raises(InvalidParameter):
            TT.from_levels(2, [np.zeros(1), np.zeros(3)])
        with pytest.raises(InvalidParameter):
            TT.from_levels(2, [np.array([np.nan])])


class TestDepthArguments:
    """Every depth or level argument is checked alike."""

    @pytest.mark.parametrize("op", [
        lambda x, v, depth: develop(v, 0.0, 1.0, depth),
        lambda x, v, depth: ta.tensor_mul(x, x, depth),
        lambda x, v, depth: ta.truncate(x, depth),
        lambda x, v, depth: ta.flatten(x, depth),
        lambda x, v, depth: ta.unflatten(np.zeros(7), 2, depth),
        lambda x, v, depth: ta.flat_size(2, depth),
        lambda x, v, depth: TT.zero(2, depth),
        lambda x, v, depth: TT.unit(2, depth),
        lambda x, v, depth: TT.from_word((), 2, depth),
        lambda x, v, depth: x.with_depth(depth),
    ], ids=["develop", "tensor_mul", "truncate", "flatten", "unflatten",
            "flat_size", "zero", "unit", "from_word", "with_depth"])
    @pytest.mark.parametrize("depth", [-1, 2.5])
    def test_invalid_depth(self, op, depth):
        x = TT.from_word((1, 2), 2)
        v = PiecewiseVelocity(2, [0.0, 1.0], [TT.from_word((1,), 2, 2)])
        with pytest.raises(InvalidParameter):
            op(x, v, depth)

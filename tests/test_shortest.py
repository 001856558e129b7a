"""``_shortest.reprs`` writes the bytes of ``repr(float(x))`` for every
element of a float64 array."""

import math

import numpy as np
import pytest

from levy_sigkernel import _shortest


def written(values):
    """The formatter's bytes of ``values``, one line each."""
    rows = np.zeros((len(values), _shortest.WIDTH + 1), dtype=np.uint8)
    for a in range(0, len(values), 1 << 16):
        rows[a:a + (1 << 16), :-1] = _shortest.reprs(values[a:a + (1 << 16)])
    rows[:, -1] = ord("\n")
    return rows.tobytes().translate(None, b"\0")


def assert_reprs(values):
    values = np.asarray(values, dtype=np.float64)
    want = "".join(f"{v!r}\n" for v in values.tolist()).encode()
    got = written(values)
    if got != want:
        bad = [(v, w, g) for v, w, g in zip(values.tolist(), want.split(), got.split())
               if w != g]
        pytest.fail(f"{len(bad)} of {len(values)} differ, e.g. {bad[:5]}"
                    if bad else "line counts differ")


def neighbours(x):
    x = np.asarray(x, dtype=np.float64)
    return np.concatenate([x, np.nextafter(x, -np.inf), np.nextafter(x, np.inf)])


class TestReprs:
    def test_random_bit_patterns(self):
        # every exponent and sign, subnormals, infinities and NaNs included
        bits = np.random.default_rng(20181).integers(0, 1 << 64, 1_000_000, dtype=np.uint64)
        assert_reprs(bits.view(np.float64))

    def test_powers_of_two(self):
        # the halved lower gap of a power of two, from 2^-1074 to 2^1023
        twos = neighbours(np.ldexp(1.0, np.arange(-1074, 1024)))
        assert_reprs(np.concatenate([twos, -twos]))

    def test_powers_of_ten(self):
        tens = np.array([float(f"1e{k}") for k in range(-323, 309)])
        assert_reprs(neighbours(np.concatenate([tens, 3 * tens[:-1], -tens])))

    def test_integers(self):
        rng = np.random.default_rng(53)
        top = 2.0 ** 53
        assert_reprs(np.concatenate([
            np.arange(1 << 16), rng.integers(0, 1 << 53, 100_000),
            top - np.arange(1000), top + 2 * np.arange(1000)]).astype(np.float64))

    def test_layout_switch_points(self):
        # fixed notation for 1e-4 <= |x| < 1e16, the exponent form outside
        assert_reprs(neighbours([1e-4, 1e-5, 1e15, 1e16, 1e17, 9.999999999999999e-05,
                                 9999999999999998.0, 0.5, 1.0, 10.0, 123.456]))
        assert_reprs(np.arange(-1000, 100_000) * 1e-3)

    def test_zeros_subnormals_and_non_finite(self):
        tiny = np.ldexp(1.0, -1074)
        subnormals = np.random.default_rng(1074).integers(1, 1 << 52, 1000) * tiny
        assert_reprs([0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan, tiny, -tiny,
                      2.225073858507201e-308, *subnormals, *-subnormals])

    def test_shape(self):
        x = np.array([[1.5, -2.0, 0.0], [1e300, math.nan, 1e-7]])
        out = _shortest.reprs(x)
        assert out.shape == (2, 3, _shortest.WIDTH) and out.dtype == np.uint8
        assert [bytes(r).replace(b"\0", b"").decode() for r in out.reshape(-1, 24)] == [
            repr(v) for v in x.reshape(-1).tolist()]
        assert _shortest.reprs(np.zeros((0, 3))).shape == (0, 3, _shortest.WIDTH)
        assert bytes(_shortest.reprs(2.5)).rstrip(b"\0") == b"\x002.5"

    def test_powers_of_ten_are_computed_when_first_needed(self):
        # those from the least to the greatest decimal exponent asked for
        powers = _shortest._Powers()
        assert not powers.known.any()
        powers.take(np.array([3, -7, 3]))
        assert np.flatnonzero(powers.known).tolist() == list(
            range(-7 - _shortest._K_MIN, 4 - _shortest._K_MIN))

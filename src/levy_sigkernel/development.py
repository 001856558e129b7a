"""Free developments of piecewise-constant velocities and quantitative bounds.

A development is the solution of the linear tensor ODE ``S' = S (x) v``
started at 1.  For piecewise-constant velocities it is the ordered product
of tensor exponentials over the covered intervals, so no time stepping is
involved: all approximation error lives in the depth truncation, which the
bound functions below control.
"""

from __future__ import annotations

import itertools
import math
import warnings

import numpy as np

from . import tensor_algebra as ta
from .characteristics import (LevyTriplet, PiecewiseVelocity,
                              characteristic_velocity,
                              exponential_moment_value)
from .errors import InvalidParameter
from .tensor_algebra import TruncatedTensor

__all__ = [
    "develop",
    "development_inner_product",
    "expected_signature",
    "bell_polynomials",
    "bound_level",
    "bound_gronwall",
    "bound_lipschitz",
    "bound_inner_truncation",
    "bound_outer_truncation",
    "velocity_difference_mass",
    "remainder_diagnostics",
    "gaussian_mgf_moment",
    "gaussian_jump_tail_bound",
]


def develop(v: PiecewiseVelocity, s: float, t: float, depth: int) -> TruncatedTensor:
    """Free development of the velocity over [s, t], truncated at ``depth``.

    The ordered product of ``exp(v_i dt_i)`` over the covered intervals,
    each factor applied by one fused :func:`tensor_algebra.mul_exp`
    (left Horner form, no exponential and no full product is formed): at
    d = 2, depth 19 a factor costs what one exponential costs, about
    ``live * 2**(depth + 2)`` multiply-adds for a velocity with ``live``
    nonzero levels.  Satisfies the multiplicative splitting identity
    ``develop(v, s, t) = develop(v, s, u) (x) develop(v, u, t)`` up to
    rounding.  ``depth`` must be a nonnegative integer.
    """
    ta._check_depth(depth)
    out = TruncatedTensor.unit(v.dim, depth)
    for i, dt in v.overlaps(s, t):
        out = ta.mul_exp(out, v.tensors[i] * dt)
    return out


INNER_PRODUCT_RTOL = 1e-14


def _log_remainder_bounds(v: PiecewiseVelocity, w: PiecewiseVelocity,
                          s: float, t: float, depths) -> np.ndarray:
    """log of min over z > 1 of G_v(z) G_w(z) z^(-2(K+1)) / (1 - z^-2), per K.

    G(z) = exp(sum_k level_mass_k z^k) is the generating function of
    :func:`bound_level`, whose coefficients are nonnegative, so the level-n
    norm of a development is at most G(z) z^-n for every z >= 1 and
    sum_{n > K} |A_n| |B_n| <= G_v(z) G_w(z) sum_{n > K} z^(-2n), which is
    the bracket above.  The minimum is taken over a fixed geometric grid of
    log z; every grid point gives a valid bound.
    """
    masses = np.array([v.level_mass(s, t, k) + w.level_mass(s, t, k)
                       for k in range(1, max(v.depth, w.depth) + 1)])
    live = np.flatnonzero(masses)                 # 0 * inf would give NaN
    u = np.geomspace(1e-4, 60.0, 800)             # u = log z
    with np.errstate(over="ignore"):
        gen = masses[live] @ np.exp(np.outer(live + 1, u))
        base = gen - np.log1p(-np.exp(-2.0 * u))
        return np.array([np.min(base - 2.0 * (k + 1) * u) for k in depths])


def development_inner_product(v: PiecewiseVelocity, w: PiecewiseVelocity,
                              s: float, t: float, min_depth: int, max_depth: int
                              ) -> tuple[float, int, float]:
    """``<develop(v), develop(w)>`` over [s, t] at a depth chosen by need.

    The depth K is the smallest one in [min_depth, max_depth] whose bound on
    the omitted levels, sum_{n > K} |A_n| |B_n|, is at most
    ``INNER_PRODUCT_RTOL * exp(mass_v + mass_w)`` (max_depth if none is).
    The bound is the Bell generating-function bound of
    :func:`_log_remainder_bounds`; it bounds the truncation of the
    developments of the given (stored) velocities, not of levels a velocity
    leaves out.  Returns ``(value, K, bound)``.
    """
    if min_depth > max_depth:
        raise InvalidParameter("need min_depth <= max_depth")
    depths = range(min_depth, max_depth + 1)
    logs = _log_remainder_bounds(v, w, s, t, depths)
    limit = math.log(INNER_PRODUCT_RTOL) + v.mass(s, t) + w.mass(s, t)
    k = next((i for i, lb in enumerate(logs) if lb <= limit), len(logs) - 1)
    depth = depths[k]
    value = ta.inner_product(develop(v, s, t, depth), develop(w, s, t, depth))
    with np.errstate(over="ignore"):
        return value, depth, float(np.exp(logs[k]))


def expected_signature(triplet: LevyTriplet, t: float, depth: int) -> TruncatedTensor:
    """Expected signature at time t: development of the characteristic velocity."""
    if triplet.has_jumps() and not math.isfinite(exponential_moment_value(triplet, 1.0, t)):
        warnings.warn("jump exponential moment is not finite; expected "
                      "signature may not be summable", stacklevel=2)
    return develop(characteristic_velocity(triplet, depth), 0.0, t, depth)


def bell_polynomials(ys) -> np.ndarray:
    """Complete exponential Bell polynomials B_1..B_n at the given arguments.

    Uses the binomial recursion B_{m+1} = sum_k C(m, k) B_{m-k} y_{k+1}
    with B_0 = 1, leaving out the terms with a zero factor (which change no
    finite sum), so that nonnegative arguments give ``inf``, not NaN or a
    warning, where a value or a binomial coefficient leaves the float range.
    """
    ys = np.asarray(ys, dtype=float)
    n = len(ys)
    if n < 1:
        raise InvalidParameter("need at least one argument")
    ys = ys.tolist()
    b = [1.0]
    for m in range(n):
        total, comb = 0.0, 1              # comb = C(m, k)
        for k in range(m + 1):
            if ys[k] and b[m - k]:
                total += _float(comb) * b[m - k] * ys[k]
            comb = comb * (m - k) // (k + 1)
        b.append(total)
    return np.array(b[1:])


def _float(i: int) -> float:
    """An integer as a float, ``inf`` past the float range."""
    try:
        return float(i)
    except OverflowError:
        return math.inf


def bound_level(v: PiecewiseVelocity, s: float, t: float, n: int) -> float:
    """Bell-polynomial bound on the level-n norm of the development,
    ``B_n(1! m_1, ..., n! m_n) / n!`` for the level masses ``m_k``.  Where
    that form leaves the float range (a factorial past 170! or a polynomial
    value past the largest float), the same number comes from its
    generating function ``exp(sum_k m_k x^k)``, whose coefficients obey
    ``(j + 1) a_{j+1} = sum_k (k + 1) m_{k+1} a_{j-k}``.  A coefficient
    before ``a_n`` may leave the float range where ``a_n`` does not
    (masses ``(a, 0, ...)`` give ``a^j / j!``, largest near ``j = a``), so
    they are decimals of the widest exponent range; the bound is ``inf``
    only where ``a_n`` itself overflows a float."""
    masses = [v.level_mass(s, t, k) for k in range(1, n + 1)]
    if 0 < n <= _MAX_FLOAT_FACTORIAL:
        with np.errstate(over="ignore", invalid="ignore"):
            ys = np.array([math.factorial(k) * m for k, m in enumerate(masses, 1)])
            bound = float(bell_polynomials(ys)[-1]) / math.factorial(n)
        if math.isfinite(bound):
            return bound
    # loaded on first use: the Bell form above serves all but extreme input
    from decimal import MAX_EMAX, MIN_EMIN, Context, Decimal, localcontext
    terms = [(k, (k + 1) * Decimal(m)) for k, m in enumerate(masses) if m]
    a = [Decimal(1)]
    with localcontext(Context(Emax=MAX_EMAX, Emin=MIN_EMIN)):
        for j in range(n):
            a.append(sum((c * a[j - k] for k, c in terms if k <= j), Decimal(0)) / (j + 1))
    return float(a[n])


def bound_gronwall(v: PiecewiseVelocity, s: float, t: float) -> float:
    """Exponential bound on the T^1 norm of the development."""
    return math.exp(v.mass(s, t))


def velocity_difference_mass(v: PiecewiseVelocity, w: PiecewiseVelocity,
                             s: float, t: float) -> float:
    """Integral of the T^1 norm of (v - w) over [s, t], exact for
    piecewise-constant velocities on possibly different grids."""
    if v.dim != w.dim:
        raise InvalidParameter("velocity dims differ")
    # sort and drop exact duplicates: np.unique would import numpy.ma
    cuts = np.sort(np.concatenate([
        v.time_grid[(v.time_grid > s) & (v.time_grid < t)],
        w.time_grid[(w.time_grid > s) & (w.time_grid < t)],
        [s, t]]))
    cuts = cuts[np.concatenate([[True], cuts[1:] != cuts[:-1]])]
    depth = max(v.depth, w.depth)
    total = 0.0
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        mid = 0.5 * (lo + hi)
        diff = v.tensors[v.interval_of(mid)].with_depth(depth) \
            - w.tensors[w.interval_of(mid)].with_depth(depth)
        total += (hi - lo) * ta.norm_p(diff, 1)
    return total


def bound_lipschitz(v: PiecewiseVelocity, w: PiecewiseVelocity,
                    s: float, t: float) -> float:
    """Stability bound on the T^1 distance of two developments."""
    return math.exp(v.mass(s, t) + w.mass(s, t)) * velocity_difference_mass(v, w, s, t)


def bound_inner_truncation(v: PiecewiseVelocity, s: float, t: float, depth: int) -> float:
    """Bound on the effect of truncating the velocity at ``depth``."""
    return math.exp(v.mass(s, t)) * v.tail_mass(s, t, depth)


def bound_outer_truncation(v: PiecewiseVelocity, s: float, t: float,
                           inner_depth: int, outer_level: int) -> float:
    """Bound on the T^1 norm of levels >= ``outer_level`` of the development
    of the depth-``inner_depth`` truncated velocity.

    A development computed at depth D therefore carries an outer error of at
    most ``bound_outer_truncation(v, s, t, N, D + 1)``.
    """
    if inner_depth < 1 or outer_level < inner_depth:
        raise InvalidParameter("need outer_level >= inner_depth >= 1")
    load = v.truncated(inner_depth).mass(s, t)
    k = math.ceil(outer_level / inner_depth)
    try:
        return math.exp(load) * load**k / math.factorial(k)
    except OverflowError:
        # a factor past the float range (k! beyond 170!, say): the bound in logs
        with np.errstate(over="ignore", divide="ignore"):
            return float(np.exp(load + k * np.log(load) - math.lgamma(k + 1)))


def remainder_diagnostics(rho: float, m: int, mode: str = "factorial-jumps"):
    """Exact Taylor remainder of the two reference jump-size laws together
    with its leading-order estimate.

    ``factorial-jumps`` corresponds to level masses rho^n/n! (Gaussian-type
    compound Poisson), where the remainder terms are rho^n B_n/n! with Bell
    numbers B_n.  ``geometric-jumps`` corresponds to masses rho^n with
    rho < 1, where the terms are rho^n sum_k C(n-1, k-1)/k!.

    Returns ``(exact, estimate)`` as Python floats; the estimate omits the
    unspecified constants of the asymptotic statement, so only trends
    should be read from the ratio.  The sum stops at a term below 1e-16 of
    it, or at the first term that underflows to 0; a series whose terms or
    sum leave the float range before that raises ``InvalidParameter``.
    """
    if m < 1:
        raise InvalidParameter("m must be >= 1")
    if rho <= 0:
        raise InvalidParameter("rho must be > 0")
    if mode not in ("factorial-jumps", "geometric-jumps"):
        raise InvalidParameter(f"unknown mode {mode!r}")
    if mode == "geometric-jumps" and rho >= 1:
        raise InvalidParameter("geometric mode needs rho < 1")
    beyond = InvalidParameter(f"the {mode} remainder at rho={rho!r}, m={m} "
                              "needs terms beyond the float range")
    try:
        if mode == "factorial-jumps":
            terms = _factorial_mode_terms(rho, m)
            # the leading term a_m rho^m, a_m = B_m/m!, is the estimate
            estimate = total = next(terms)
        else:
            terms = _geometric_mode_terms(rho, m)
            estimate = math.exp(2 * math.sqrt(m)) \
                / (2 * m**0.75 * math.sqrt(math.pi * math.e)) * rho**m / (1 - rho)
            total = 0.0
        for term in terms:
            total += term
            if not math.isfinite(total):
                raise beyond
            if term == 0.0 or term < 1e-16 * total:
                break
    except OverflowError:
        raise beyond from None
    return total, estimate


# the largest n whose n! is a finite float
_MAX_FLOAT_FACTORIAL = 170
# both modes evaluate the terms up to this n directly, in the arithmetic
# whose bits remainder.csv prints (its rows read terms up to n = 78), and
# the later terms by a recurrence that stays in range while the terms do
_DIRECT_TERMS = 100


def _factorial_mode_terms(rho: float, m: int):
    # stream of rho^n B_n/n! for n = m, m+1, ...  Up to _DIRECT_TERMS,
    # a_n = B_n/n! by the stable recursion a_{n+1} = (1/(n+1)) sum_k
    # a_k/(n-k)!, times rho^n; beyond it the terms t_n = a_n rho^n
    # themselves, t_{n+1} = rho/(n+1) sum_k t_k rho^(n-k)/(n-k)!, as a_n
    # underflows and rho^n overflows where the terms need not (rho = 4 sums
    # past n = 512).  Both sums leave out the k with n - k > 170, whose
    # a_k/(n-k)! <= 1/171! and weights rho^(n-k)/(n-k)! are below 1e-306
    # (below 1e-168 for every rho whose sum is finite, rho < 6.57)
    a = [1.0]
    for n in range(1, _DIRECT_TERMS + 1):
        a.append(sum(a[k] / math.factorial(n - 1 - k)
                     for k in range(max(0, n - 1 - _MAX_FLOAT_FACTORIAL), n)) / n)
        if n >= m:
            yield a[n] * rho**n
    weights = [1.0]
    for j in range(1, _MAX_FLOAT_FACTORIAL + 1):
        weights.append(weights[-1] * rho / j)
    t = [a_n * rho**n for n, a_n in enumerate(a)]
    for n in itertools.count(_DIRECT_TERMS + 1):
        t.append(rho / n * sum(t[k] * weights[n - 1 - k]
                               for k in range(max(0, n - 1 - _MAX_FLOAT_FACTORIAL), n)))
        if n >= m:
            yield t[n]


def _geometric_mode_terms(rho: float, m: int):
    # stream of beta_n rho^n for n = m, m+1, ..., beta_n = sum_k C(n-1, k-1)/k!.
    # Beyond _DIRECT_TERMS, whose direct sums cost O(n) big-integer work
    # each: beta_n = L_{n-1}(-1)/n for the generalised Laguerre L_j = L_j^(1),
    # so u_j = L_j rho^(j+1) follows (j+1) L_{j+1} = (2j+3) L_j - (j+1) L_{j-1}
    # (L_{-1} = 0, L_0 = 1), scaled by rho^(j+1) so that it stays in range
    # while the terms do, and beta_n rho^n = u_{n-1}/n
    prev, cur = 0.0, rho                  # u_{-1}, u_0
    for n in itertools.count(1):
        if n >= m:
            if n <= _DIRECT_TERMS:
                yield sum(math.comb(n - 1, k - 1) / math.factorial(k)
                          for k in range(1, n + 1)) * rho**n
            else:
                yield cur / n
        prev, cur = cur, ((2 * n + 1) * rho * cur - n * rho * rho * prev) / n


def gaussian_mgf_moment(d: int, m: int) -> float:
    """Closed form of E[e^{|xi|^2/4} |xi|^{2m}] for xi ~ N(0, I_d),
    ``2^(2m + d/2) Gamma(d/2 + m) / Gamma(d/2)``: in logs where a factor
    leaves the float range, and ``inf`` where the value does."""
    if d < 1 or m < 0:
        raise InvalidParameter("need d >= 1 and m >= 0")
    try:
        value = 2.0 ** (2 * m + d / 2) * math.gamma(d / 2 + m) / math.gamma(d / 2)
    except OverflowError:
        value = math.inf
    if value < math.inf:
        return value
    log = (2 * m + d / 2) * math.log(2.0) + math.lgamma(d / 2 + m) - math.lgamma(d / 2)
    try:
        return math.exp(log)
    except OverflowError:
        return math.inf


def gaussian_jump_tail_bound(cov: np.ndarray, intensity: float, t: float,
                             half_level: int) -> float:
    """Velocity-tail certificate for centered Gaussian compound Poisson jumps.

    Bounds the integrated T^1 mass of the characteristic velocity above
    level ``2 * half_level``; decays factorially in the half level.  It is
    loose, 1e4-1e6x above the exact tail on the benchmark's jump laws: the
    tight bound, the one the CLI chooses velocity depths and certificates
    by, is ``characteristics.velocity_tail_bound``.
    """
    cov = np.asarray(cov, dtype=float)
    if half_level < 1:
        raise InvalidParameter("half_level must be >= 1")
    d = cov.shape[0]
    sigma2 = float(np.linalg.eigvalsh(cov).max())
    m = half_level
    return math.exp(sigma2) * sigma2**m * gaussian_mgf_moment(d, m) \
        / math.factorial(2 * m) * intensity * t

"""Finite-dimensional Goursat PDE-ODE systems for expected signature kernels.

The solver marches the coupled integral system

    w(s,t)  = 1 + int int { w <y^P, z^P> + <f, y^Q adj z^N> + <g, z^Q' adj y^M> }
    f(s,t)  = int_0^s { w y^Q + f (x) y^Q + proj(g adj-left y^M) }
    g(s,t)  = int_0^t { w z^Q' + g (x) z^Q' + proj(f adj-left z^N) }

over a 2D grid, cell by cell in lexicographic order: an explicit
rectangle-rule predictor followed by trapezoidal corrector sweeps
(second order).  Two corrector passes are used: the second re-evaluates
the far-corner integrand at corrected values, which keeps the scheme's
second-order error constant clean (a single pass leaves an O(h^3) defect
from the first-order predictor that can dominate on coarse grids).
Boundary rows are one-dimensional ODEs with w = 1 and the opposite
coupling term zero.  Grids must contain every velocity breakpoint so
that all interval integrals are exact.

Cross-term truncation levels are Q = min(M, N-1) on the first slot and
Q' = min(N, M-1) on the second; for M = N both equal min(M, N) - 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import tensor_algebra as ta
from .characteristics import PiecewiseVelocity
from .errors import GridMismatch, InvalidParameter, Unsupported
from .tensor_algebra import TruncatedTensor

__all__ = [
    "KernelSurface",
    "bessel_i0",
    "apriori_psi",
    "make_grid",
    "solve_goursat_scalar",
    "solve_truncated_system",
    "truncation_certificate",
]


def bessel_i0(z: float) -> float:
    """Modified Bessel function I_0 by its even power series.

    Terms are accumulated until the next one drops below 1e-17 of the
    partial sum, so the truncation error is below the last retained term.
    Returns ``inf`` once the partial sum overflows (z above about 714).
    """
    if not z >= 0:
        raise InvalidParameter("bessel_i0 requires z >= 0")
    q = 0.25 * z * z
    total, term, k = 1.0, 1.0, 0
    while True:
        k += 1
        term *= q / (k * k)
        total += term
        if term < 1e-17 * total or math.isinf(total):
            return total


def apriori_psi(x: float, y: float) -> float:
    """A priori kernel bound psi(x, y) = e^{x+y} I_0(2 sqrt(xy)), ``inf``
    where it overflows."""
    if not (x >= 0 and y >= 0):
        raise InvalidParameter("apriori_psi requires non-negative arguments")
    try:
        growth = math.exp(x + y)
    except OverflowError:
        return math.inf
    return growth * bessel_i0(2.0 * math.sqrt(x * y))


def make_grid(horizon: float, n_points: int, breakpoints: Sequence[float] = ()) -> np.ndarray:
    """Uniform grid on [0, horizon] merged with the given breakpoints."""
    if n_points < 2:
        raise InvalidParameter("need at least two grid points")
    base = np.linspace(0.0, horizon, n_points)
    cuts = np.asarray([b for b in np.atleast_1d(breakpoints)
                       if 0.0 < b < horizon], dtype=float)
    grid = np.union1d(base, cuts)
    # drop near-duplicates introduced by the merge
    keep = np.concatenate([[True], np.diff(grid) > 1e-12 * max(horizon, 1.0)])
    return grid[keep]


@dataclass
class KernelSurface:
    """Solution surface of one kernel system on a 2D grid.

    ``w`` holds the kernel values at the grid nodes; ``f`` and ``ftilde``
    hold the flattened coupled fields (scalar slot first), when present.
    ``s_mass``/``t_mass`` are the cumulative 1-variation masses of the two
    velocities at the grid nodes, used by the a priori certificate.
    """

    s_grid: np.ndarray
    t_grid: np.ndarray
    w: np.ndarray
    dim: int = 0
    f: np.ndarray | None = None
    ftilde: np.ndarray | None = None
    f_depth: int = 0
    ftilde_depth: int = 0
    s_mass: np.ndarray | None = None
    t_mass: np.ndarray | None = None
    meta: dict = field(default_factory=dict)

    def value(self) -> float:
        """Kernel value at the far corner of the grid."""
        return float(self.w[-1, -1])

    def f_tensor(self, i: int, j: int) -> TruncatedTensor:
        if self.f is None:
            raise Unsupported("surface carries no coupled field")
        return ta.unflatten(self.f[i, j], self.dim, self.f_depth)

    def ftilde_tensor(self, i: int, j: int) -> TruncatedTensor:
        if self.ftilde is None:
            raise Unsupported("surface carries no coupled field")
        return ta.unflatten(self.ftilde[i, j], self.dim, self.ftilde_depth)

    def apriori_margin(self) -> float | None:
        """max over nodes of |w| - psi(C_s, C_t); non-positive when the
        a priori bound holds.  None when velocity masses are unknown."""
        if self.s_mass is None or self.t_mass is None:
            return None
        psi = np.array([[apriori_psi(cs, ct) for ct in self.t_mass]
                        for cs in self.s_mass])
        return float((np.abs(self.w) - psi).max())

    def to_csv(self, path, include_fields: bool = False) -> None:
        """Serialize as ``s,t,w`` rows (plus field magnitudes on request)."""
        with open(path, "w") as fh:
            cols = "s,t,w"
            if include_fields and self.f is not None:
                cols += ",f_norm,ftilde_norm"
            fh.write(cols + "\n")
            for i, s in enumerate(self.s_grid):
                for j, t in enumerate(self.t_grid):
                    row = f"{float(s)!r},{float(t)!r},{float(self.w[i, j])!r}"
                    if include_fields and self.f is not None:
                        row += f",{float(np.linalg.norm(self.f[i, j]))!r}"
                        row += f",{float(np.linalg.norm(self.ftilde[i, j]))!r}"
                    fh.write(row + "\n")


def _validate_grid(grid: np.ndarray, breakpoints: np.ndarray, what: str) -> np.ndarray:
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or len(grid) < 2:
        raise GridMismatch(f"{what} grid needs at least two points")
    if grid[0] != 0.0 or not np.all(np.diff(grid) > 0):
        raise GridMismatch(f"{what} grid must be strictly increasing from 0")
    end = grid[-1]
    if end > breakpoints[-1] + 1e-12:
        raise GridMismatch(f"{what} grid extends past the velocity horizon")
    tol = 1e-12 * max(1.0, end)
    for b in breakpoints:
        if 0.0 < b < end - tol and np.abs(grid - b).min() > tol:
            raise GridMismatch(f"{what} grid misses velocity breakpoint {b}")
    return grid


def _cell_intervals(grid: np.ndarray, vel_grid: np.ndarray) -> np.ndarray:
    mids = 0.5 * (grid[:-1] + grid[1:])
    idx = np.searchsorted(vel_grid, mids, side="right") - 1
    return np.clip(idx, 0, len(vel_grid) - 2)


def _cumulative_mass(grid: np.ndarray, v: PiecewiseVelocity) -> np.ndarray:
    out = np.zeros(len(grid))
    for k in range(1, len(grid)):
        out[k] = out[k - 1] + v.mass(grid[k - 1], grid[k])
    return out


_CORRECTOR_PASSES = 2


def _sweep(ds, dt, sidx, tidx, A, B, C, qx, RX, AX, qy, RY, AY):
    """Generic lexicographic predictor-corrector sweep.

    ``A[a, b]`` is the scalar coefficient for velocity-interval pair
    (a, b); ``B[a, b]``/``C[a, b]`` the vectors paired with the coupled
    fields in the w-update; ``qx/RX/AX`` (per s-interval) and
    ``qy/RY/AY`` (per t-interval) define the two field ODE integrands.
    Returns (w, f, g) node arrays.
    """
    n_i, n_j = len(ds), len(dt)
    df, dg = qx.shape[1], qy.shape[1]
    w = np.ones((n_i + 1, n_j + 1))
    F = np.zeros((n_i + 1, n_j + 1, df))
    G = np.zeros((n_i + 1, n_j + 1, dg))

    # t = 0 boundary: f solves its ODE with w = 1 and g = 0
    for i in range(n_i):
        a, h = sidx[i], ds[i]
        f0 = F[i, 0]
        d0 = qx[a] + RX[a] @ f0
        f1 = f0 + h * d0
        for _ in range(_CORRECTOR_PASSES):
            f1 = f0 + 0.5 * h * (d0 + qx[a] + RX[a] @ f1)
        F[i + 1, 0] = f1
    # s = 0 boundary: g solves its ODE with w = 1 and f = 0
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
        Arow = A[a, tidx]                       # (n_j,)
        Brow = B[a, tidx]                       # (n_j, df)
        Crow = C[a, tidx]                       # (n_j, dg)
        # w-integrand at the two row-i corners of each cell
        fb0 = np.einsum("jd,jd->j", Fp[:-1], Brow)
        gc0 = np.einsum("jd,jd->j", Gp[:-1], Crow)
        fb1 = np.einsum("jd,jd->j", Fp[1:], Brow)
        gc1 = np.einsum("jd,jd->j", Gp[1:], Crow)
        phi00 = wp[:-1] * Arow + fb0 + gc0
        phi01 = wp[1:] * Arow + fb1 + gc1
        # f-integrand along row i at t_{j+1} (left end of each s-step)
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
            # rectangle-rule predictor at the far corner
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


def solve_goursat_scalar(alpha, s_grid, t_grid,
                         s_mass=None, t_mass=None) -> KernelSurface:
    """Scalar Goursat problem: d^2 u/ds dt = u * alpha, unit boundary data.

    ``alpha`` may be a callable ``alpha(s, t)``, a separable pair of
    callables ``(f, g)`` meaning ``alpha(s,t) = f(s) g(t)``, or a per-cell
    array of shape (len(s_grid)-1, len(t_grid)-1) for piecewise-constant
    coefficients.  Optional ``s_mass``/``t_mass`` node arrays feed the
    a priori certificate; for a separable pair they default to the
    cumulative trapezoidal integrals of |f| and |g|.
    """
    s_grid = np.asarray(s_grid, dtype=float)
    t_grid = np.asarray(t_grid, dtype=float)
    n_i, n_j = len(s_grid) - 1, len(t_grid) - 1
    cellwise = False
    if isinstance(alpha, tuple):
        fvals = np.array([float(alpha[0](s)) for s in s_grid])
        gvals = np.array([float(alpha[1](t)) for t in t_grid])
        nodes = np.outer(fvals, gvals)
        if s_mass is None:
            s_mass = np.concatenate([[0.0], np.cumsum(
                0.5 * (np.abs(fvals[:-1]) + np.abs(fvals[1:])) * np.diff(s_grid))])
        if t_mass is None:
            t_mass = np.concatenate([[0.0], np.cumsum(
                0.5 * (np.abs(gvals[:-1]) + np.abs(gvals[1:])) * np.diff(t_grid))])
    elif callable(alpha):
        nodes = np.array([[float(alpha(s, t)) for t in t_grid] for s in s_grid])
    else:
        cells = np.asarray(alpha, dtype=float)
        if cells.shape != (n_i, n_j):
            raise InvalidParameter("cell-wise alpha must have one value per grid cell")
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
    return KernelSurface(
        s_grid=s_grid, t_grid=t_grid, w=w,
        s_mass=None if s_mass is None else np.asarray(s_mass, dtype=float),
        t_mass=None if t_mass is None else np.asarray(t_mass, dtype=float),
        meta={"system": "goursat-scalar", "scheme_order": 2})


def solve_truncated_system(v: PiecewiseVelocity, vt: PiecewiseVelocity,
                           M: int, N: int, s_grid, t_grid,
                           richardson: bool = False) -> KernelSurface:
    """Truncated kernel system for velocities cut at levels M (left) and
    N (right); w approximates the inner product of the two truncated
    developments with empirical grid convergence order about 2.

    With ``richardson=True`` the system is re-solved on the midpoint-refined
    grid and the two w-surfaces are Richardson-extrapolated.
    """
    if M < 1 or N < 1:
        raise InvalidParameter("levels M, N must be >= 1")
    if v.dim != vt.dim:
        raise InvalidParameter("velocity dims differ")
    d = v.dim
    s_grid = _validate_grid(np.asarray(s_grid, float), v.time_grid, "s")
    t_grid = _validate_grid(np.asarray(t_grid, float), vt.time_grid, "t")
    if richardson:
        coarse = solve_truncated_system(v, vt, M, N, s_grid, t_grid)
        fine = solve_truncated_system(v, vt, M, N,
                                      _refine(s_grid), _refine(t_grid))
        w = (4.0 * fine.w[::2, ::2] - coarse.w) / 3.0
        out = KernelSurface(
            s_grid=s_grid, t_grid=t_grid, w=w, dim=d,
            f=fine.f[::2, ::2], ftilde=fine.ftilde[::2, ::2],
            f_depth=fine.f_depth, ftilde_depth=fine.ftilde_depth,
            s_mass=coarse.s_mass, t_mass=coarse.t_mass,
            meta=dict(coarse.meta, richardson=True))
        return out

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
            AX[a][:, col] = ta.flatten(ta.adjoint_left_zero(e, x), depth_f)
    qy = np.empty((nb, dg))
    RY = np.empty((nb, dg, dg))
    AY = np.empty((nb, dg, df))
    for b, y in enumerate(ys):
        yQt = ta.truncate(y, Qt)
        qy[b] = ta.flatten(yQt, depth_g)
        for col, e in basis_vectors(depth_g):
            RY[b][:, col] = ta.flatten(ta.tensor_mul(e, yQt, depth_g), depth_g)
        for col, e in basis_vectors(depth_f):
            AY[b][:, col] = ta.flatten(ta.adjoint_left_zero(e, y), depth_g)
    for a, x in enumerate(xs):
        xP, xQ = ta.truncate(x, P), ta.truncate(x, Q)
        for b, y in enumerate(ys):
            A[a, b] = ta.inner_product(xP, ta.truncate(y, P))
            B[a, b] = ta.flatten(ta.adjoint_right_zero(xQ, y), depth_f)
            C[a, b] = ta.flatten(ta.adjoint_right_zero(ta.truncate(y, Qt), x), depth_g)

    sidx = _cell_intervals(s_grid, v.time_grid)
    tidx = _cell_intervals(t_grid, vt.time_grid)
    w, F, G = _sweep(np.diff(s_grid), np.diff(t_grid), sidx, tidx,
                     A, B, C, qx, RX, AX, qy, RY, AY)
    return KernelSurface(
        s_grid=s_grid, t_grid=t_grid, w=w, dim=d,
        f=F, ftilde=G, f_depth=depth_f, ftilde_depth=depth_g,
        s_mass=_cumulative_mass(s_grid, v.truncated(M)),
        t_mass=_cumulative_mass(t_grid, vt.truncated(N)),
        meta={"system": "truncated", "M": M, "N": N, "scheme_order": 2})


def _refine(grid: np.ndarray) -> np.ndarray:
    mids = 0.5 * (grid[:-1] + grid[1:])
    out = np.empty(2 * len(grid) - 1)
    out[::2] = grid
    out[1::2] = mids
    return out


def truncation_certificate(v: PiecewiseVelocity, vt: PiecewiseVelocity,
                           M: int, N: int, s: float, t: float) -> float:
    """Exact evaluation of the kernel truncation-error certificate.

    Uses the stored velocity levels as "full depth": the bound is
    exp(mass_v) * exp(mass_vt) * (tail of v above M + tail of vt above N)
    with all integrals exact for piecewise-constant velocities.  A zero
    tail gives 0.0 whatever the masses; a positive tail whose exponential
    factor overflows gives ``inf``.
    """
    tail = v.tail_mass(0.0, s, M) + vt.tail_mass(0.0, t, N)
    if tail == 0.0:
        return 0.0
    try:
        cs = math.exp(v.mass(0.0, s))
        ct = math.exp(vt.mass(0.0, t))
    except OverflowError:
        return math.inf
    return float(cs * ct * tail)

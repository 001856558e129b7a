"""Finite-dimensional Goursat PDE-ODE systems for expected signature kernels.

The solver marches the coupled integral system

    w(s,t)  = 1 + int int { w <y^P, z^P> + <f, y^Q adj z^N> + <g, z^Q' adj y^M> }
    f(s,t)  = int_0^s { w y^Q + f (x) y^Q + proj(g adj-left y^M) }
    g(s,t)  = int_0^t { w z^Q' + g (x) z^Q' + proj(f adj-left z^N) }

over a 2D grid.  Each cell takes an explicit rectangle-rule predictor
followed by trapezoidal corrector passes (second order).  Two corrector
passes are used: the second re-evaluates the far-corner integrand at
corrected values, which keeps the scheme's second-order error constant
clean (a single pass leaves an O(h^3) defect from the first-order
predictor that can dominate on coarse grids).  A cell needs only its
three nodes nearer the origin, so the sweep advances one anti-diagonal
i + j = const at a time and updates all of its cells, for a batch of
surfaces on the same grid, with stacked numpy operations.  The scalar
Goursat problem d^2 u/ds dt = alpha u is the same sweep with no fields.
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
    grid = np.sort(np.concatenate([base, cuts]))
    # drop duplicates and near-duplicates introduced by the merge
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
        fields = include_fields and self.f is not None
        if fields:
            # the same bits as np.linalg.norm of each node's vector (a BLAS
            # dot); norm(axis=-1) and einsum sum in another order
            f_norm, ftilde_norm = (
                np.sqrt(np.matmul(X[..., None, :], X[..., :, None])[..., 0, 0])
                for X in (self.f, self.ftilde))
        with open(path, "w") as fh:
            cols = "s,t,w"
            if fields:
                cols += ",f_norm,ftilde_norm"
            fh.write(cols + "\n")
            for i, s in enumerate(self.s_grid):
                for j, t in enumerate(self.t_grid):
                    row = f"{float(s)!r},{float(t)!r},{float(self.w[i, j])!r}"
                    if fields:
                        row += f",{float(f_norm[i, j])!r},{float(ftilde_norm[i, j])!r}"
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
    """Anti-diagonal predictor-corrector sweep over a batch of surfaces.

    Every table has a leading surface axis ``p``.  ``sidx[p]``/``tidx[p]``
    map grid cells to velocity intervals.  ``A = (A00, A01, A10, A11)``
    holds the scalar coefficient of w at the four corners of a cell:
    ``A00[p, a, b]`` at node (i, j) of a cell in velocity-interval pair
    (a, b), ``A01`` at (i, j+1), ``A10`` at (i+1, j) and ``A11`` at
    (i+1, j+1).  Truncated systems pass one table four times; the scalar
    Goursat problem passes node values of alpha.  ``B[p, a, b]`` and
    ``C[p, a, b]`` are the vectors paired with the coupled fields in the
    w-update; ``qx/RX/AX`` (per s-interval) and ``qy/RY/AY`` (per
    t-interval) define the two field ODE integrands.  Fields may have
    width zero.

    Cell (i+1, j+1) needs only nodes (i, j), (i+1, j) and (i, j+1), so the
    cells of one anti-diagonal i + j = const are independent and are
    updated together, for all surfaces at once.  Every cell runs the
    predictor and the corrector passes as one fixed sequence of
    operations: mat-vecs and the dots at nodes (i+1, j) and (i+1, j+1) are
    one BLAS call per cell through ``np.matmul``, and the dots at nodes
    (i, j) and (i, j+1) one ``einsum`` row each.  A cell's bits therefore do
    not depend on which other cells or surfaces share its diagonal.
    Returns (w, f, g) node arrays with the surface axis first.
    """
    n_s = len(sidx)
    n_i, n_j = len(ds), len(dt)
    df, dg = qx.shape[-1], qy.shape[-1]
    w = np.ones((n_s, n_i + 1, n_j + 1))
    F = np.zeros((n_s, n_i + 1, n_j + 1, df))
    G = np.zeros((n_s, n_i + 1, n_j + 1, dg))

    def mv(mat, vec):
        return np.matmul(mat, vec[..., None])[..., 0]

    def dot(x, y):
        return np.matmul(x[..., None, :], y[..., :, None])[..., 0, 0]

    p = np.arange(n_s)
    # t = 0 boundary: f solves its ODE with w = 1 and g = 0
    for i in range(n_i):
        a, h = sidx[:, i], ds[i]
        qxa, RXa = qx[p, a], RX[p, a]
        f0 = F[:, i, 0]
        d0 = qxa + mv(RXa, f0)
        f1 = f0 + h * d0
        for _ in range(_CORRECTOR_PASSES):
            f1 = f0 + 0.5 * h * (d0 + qxa + mv(RXa, f1))
        F[:, i + 1, 0] = f1
    # s = 0 boundary: g solves its ODE with w = 1 and f = 0
    for j in range(n_j):
        b, k = tidx[:, j], dt[j]
        qyb, RYb = qy[p, b], RY[p, b]
        g0 = G[:, 0, j]
        d0 = qyb + mv(RYb, g0)
        g1 = g0 + k * d0
        for _ in range(_CORRECTOR_PASSES):
            g1 = g0 + 0.5 * k * (d0 + qyb + mv(RYb, g1))
        G[:, 0, j + 1] = g1

    p = p[:, None]  # broadcasts against the (surface, cell) index arrays
    for diag in range(n_i + n_j - 1):
        i = np.arange(max(0, diag - n_j + 1), min(diag, n_i - 1) + 1)
        j = diag - i
        h, k = ds[i], dt[j]
        hk = h * k
        a, b = sidx[:, i], tidx[:, j]
        A00, A01, A10, A11 = (corner[p, a, b] for corner in A)
        Bab, Cab = B[p, a, b], C[p, a, b]
        qxa, RXa, AXa = qx[p, a], RX[p, a], AX[p, a]
        qyb, RYb, AYb = qy[p, b], RY[p, b], AY[p, b]
        w00, w01, w10 = w[:, i, j], w[:, i, j + 1], w[:, i + 1, j]
        F00, F01, F10 = F[:, i, j], F[:, i, j + 1], F[:, i + 1, j]
        G00, G01, G10 = G[:, i, j], G[:, i, j + 1], G[:, i + 1, j]
        # w-integrand at the three known corners of each cell
        phi00 = (w00 * A00 + np.einsum("...d,...d->...", F00, Bab)
                 + np.einsum("...d,...d->...", G00, Cab))
        phi01 = (w01 * A01 + np.einsum("...d,...d->...", F01, Bab)
                 + np.einsum("...d,...d->...", G01, Cab))
        phi10 = w10 * A10 + dot(F10, Bab) + dot(G10, Cab)
        cross = w01 - w00
        # field integrands at the left end of each cell's s- and t-step
        Fd01 = w01[..., None] * qxa + mv(RXa, F01) + mv(AXa, G01)
        Gd10 = w10[..., None] * qyb + mv(RYb, G10) + mv(AYb, F10)
        h, k = h[:, None], k[:, None]
        # rectangle-rule predictor at the far corner
        w11 = w10 + cross + hk * phi00
        F11 = F01 + h * Fd01
        G11 = G10 + k * Gd10
        for _ in range(_CORRECTOR_PASSES):
            phi11 = w11 * A11 + dot(F11, Bab) + dot(G11, Cab)
            Fd11 = w11[..., None] * qxa + mv(RXa, F11) + mv(AXa, G11)
            Gd11 = w11[..., None] * qyb + mv(RYb, G11) + mv(AYb, F11)
            w11 = w10 + cross + 0.25 * hk * (phi00 + phi10 + phi01 + phi11)
            F11 = F01 + 0.5 * h * (Fd01 + Fd11)
            G11 = G10 + 0.5 * k * (Gd10 + Gd11)
        w[:, i + 1, j + 1] = w11
        F[:, i + 1, j + 1] = F11
        G[:, i + 1, j + 1] = G11
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
        nodes = None
    corners = ((cells,) * 4 if nodes is None else
               (nodes[:-1, :-1], nodes[:-1, 1:], nodes[1:, :-1], nodes[1:, 1:]))
    # one surface whose cell (i, j) is interval pair (i, j), with alpha at
    # the cell's corners and coupled fields of width zero
    B = np.zeros((1, n_i, n_j, 0))
    qx, RX = np.zeros((1, n_i, 0)), np.zeros((1, n_i, 0, 0))
    qy, RY = np.zeros((1, n_j, 0)), np.zeros((1, n_j, 0, 0))
    w, _, _ = _sweep(np.diff(s_grid), np.diff(t_grid),
                     np.arange(n_i)[None], np.arange(n_j)[None],
                     tuple(c[None] for c in corners), B, B, qx, RX, RX, qy, RY, RY)
    return KernelSurface(
        s_grid=s_grid, t_grid=t_grid, w=w[0],
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
    if not richardson:
        return _solve_truncated_batch([(v, vt)], M, N, s_grid, t_grid)[0]
    coarse = solve_truncated_system(v, vt, M, N, s_grid, t_grid)
    fine = solve_truncated_system(v, vt, M, N,
                                  _refine(coarse.s_grid), _refine(coarse.t_grid))
    w = (4.0 * fine.w[::2, ::2] - coarse.w) / 3.0
    return KernelSurface(
        s_grid=coarse.s_grid, t_grid=coarse.t_grid, w=w, dim=coarse.dim,
        f=fine.f[::2, ::2], ftilde=fine.ftilde[::2, ::2],
        f_depth=fine.f_depth, ftilde_depth=fine.ftilde_depth,
        s_mass=coarse.s_mass, t_mass=coarse.t_mass,
        meta=dict(coarse.meta, richardson=True))


def _solve_truncated_batch(pairs, M: int, N: int, s_grid, t_grid) -> list[KernelSurface]:
    """``solve_truncated_system`` for each velocity pair ``(v, vt)`` in
    ``pairs``, all on the same grids and levels, swept together."""
    if M < 1 or N < 1:
        raise InvalidParameter("levels M, N must be >= 1")
    if not pairs:
        raise InvalidParameter("need at least one velocity pair")
    d = pairs[0][0].dim
    if any(v.dim != d or vt.dim != d for v, vt in pairs):
        raise InvalidParameter("velocity dims differ")
    for v, vt in pairs:
        s_grid = _validate_grid(s_grid, v.time_grid, "s")
        t_grid = _validate_grid(t_grid, vt.time_grid, "t")
    memo = {}

    def once(key, make):
        # a velocity may sit in many pairs of a batch: work on it once
        if key not in memo:
            memo[key] = make()
        return memo[key]

    def side(v, M, N):
        return once(("side", id(v), M, N), lambda: _side_tables(v, M, N))

    def mass(grid, v, level):
        return once(("mass", id(grid), id(v), level),
                    lambda: _cumulative_mass(grid, v.truncated(level)))

    tables = zip(*((*_cross_tables(v, vt, M, N), *side(v, M, N), *side(vt, N, M))
                   for v, vt in pairs))
    sidx = np.stack([_cell_intervals(s_grid, v.time_grid) for v, _ in pairs])
    tidx = np.stack([_cell_intervals(t_grid, vt.time_grid) for _, vt in pairs])
    A, *fields = map(_stack_padded, tables)
    w, F, G = _sweep(np.diff(s_grid), np.diff(t_grid), sidx, tidx, (A,) * 4, *fields)
    return [KernelSurface(
        s_grid=s_grid, t_grid=t_grid, w=w[p], dim=d,
        f=F[p], ftilde=G[p], f_depth=N - 1, ftilde_depth=M - 1,
        s_mass=mass(s_grid, v, M), t_mass=mass(t_grid, vt, N),
        meta={"system": "truncated", "M": M, "N": N, "scheme_order": 2})
        for p, (v, vt) in enumerate(pairs)]


def _stack_padded(arrays) -> np.ndarray:
    """Stack per-surface tables along a new leading axis, zero-padding
    each axis to its largest length (padding is never indexed)."""
    shape = np.max([a.shape for a in arrays], axis=0)
    out = np.zeros((len(arrays), *shape))
    for p, a in enumerate(arrays):
        out[(p, *map(slice, a.shape))] = a
    return out


def _coefficients(v: PiecewiseVelocity, vt: PiecewiseVelocity, M: int, N: int):
    """Per-interval coefficient tables (A, B, C, qx, RX, AX, qy, RY, AY) of
    one truncated system, in the layout ``_sweep`` takes per surface."""
    return (*_cross_tables(v, vt, M, N), *_side_tables(v, M, N),
            *_side_tables(vt, N, M))


def _cross_tables(v: PiecewiseVelocity, vt: PiecewiseVelocity, M: int, N: int):
    """Tables (A, B, C) of the w-integrand per velocity-interval pair."""
    P, Q, Qt = min(M, N), min(M, N - 1), min(N, M - 1)
    xs = [ta.truncate(x, M) for x in v.tensors]
    ys = [ta.truncate(y, N) for y in vt.tensors]
    A = np.empty((len(xs), len(ys)))
    B = np.empty((len(xs), len(ys), ta.flat_size(v.dim, N - 1)))
    C = np.empty((len(xs), len(ys), ta.flat_size(v.dim, M - 1)))
    for a, x in enumerate(xs):
        xP, xQ = ta.truncate(x, P), ta.truncate(x, Q)
        for b, y in enumerate(ys):
            A[a, b] = ta.inner_product(xP, ta.truncate(y, P))
            B[a, b] = ta.flatten(ta.adjoint_right_zero(xQ, y), N - 1)
            C[a, b] = ta.flatten(ta.adjoint_right_zero(ta.truncate(y, Qt), x), M - 1)
    return A, B, C


def _side_tables(v: PiecewiseVelocity, M: int, N: int):
    """Tables (q, R, Adj) per interval of v for the field ODE
    f' = w q + R f + Adj g of the side cut at M against one cut at N:
    q = x^Q, R f = f (x) x^Q, Adj g = adjoint_left_zero(g, x), with x = v
    cut at M and Q = min(M, N - 1).  Sides are ``(v, M, N)`` and
    ``(vt, N, M)``.  R and Adj map a batched identity, one basis vector
    per row."""
    Q = min(M, N - 1)
    ef, eg = (ta.unflatten(np.eye(ta.flat_size(v.dim, n)), v.dim, n)
              for n in (N - 1, M - 1))
    q, R, adj = [], [], []
    for x in v.tensors:
        x = ta.truncate(x, M)
        xQ = ta.truncate(x, Q)
        q.append(ta.flatten(xQ, N - 1))
        R.append(ta.flatten(ta.tensor_mul(ef, xQ, N - 1), N - 1).T)
        adj.append(ta.flatten(ta.adjoint_left_zero(eg, x), N - 1).T)
    return np.array(q), np.array(R), np.array(adj)


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

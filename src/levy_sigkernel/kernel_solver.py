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
predictor that can dominate on coarse grids).

The velocities have zero scalar part and proj drops the adjoint terms'
scalar coordinate, so that of f and g is identically zero ((f (x) y^Q)_0 =
f_0 y_0 = 0) and the state leaves it out: df = flat(N-1) - 1 and
dg = flat(M-1) - 1 count the fields' other coordinates.

The scheme is linear, so a cell's predictor and corrector passes are a
transfer map: a (3D, D) matrix taking the states X = (w, f, g) (width
D = 1 + df + dg) at its three nodes nearer the origin to the increments
of the far corner over its structural part, w11 - (w10 + (w01 - w00)),
f11 - f01 and g11 - g10.  A map depends only on the surface, the cell's
velocity-interval pair and its exact step sizes, so each distinct one is
built once, by running the cell update on unit inputs.  The sweep then
advances one anti-diagonal i + j = const at a time, for a batch of
surfaces on the same grid: one contraction gives the increments of all
its cells, and the structural part is added as in the cell update, so
the maps' rounding scales with the small increments, not with w.  A
surface whose cells share too few maps (a random grid, say) has each
diagonal's cell updates evaluated directly instead.  The
scalar Goursat problem d^2 u/ds dt = alpha u is the same sweep with no
fields (D = 1, one map per cell when alpha is given at nodes).  The
boundary rows f(., 0) and g(0, .) are cells of the same sweep: a ghost row
and column of cells with step 0 on interval 0, whose outer nodes hold
(w, f, g) = (1, 0, 0), have the boundary nodes as far corners.  Their
update is the boundary ODE step: w = 1 + (1 - 1) + 0, the field along the
zero step gets a zero increment, and the other one its predictor and
corrector passes with w = 1 and the opposite coupling term zero.  Grids
must contain every velocity breakpoint so that all interval integrals are
exact.

The sweep's state rolls over three node anti-diagonals per surface,
O((n_i + n_j) D) floats.  Callers that keep the surface (the kernel CSV,
the a priori margin) have each finished diagonal copied into the full node
array; callers that need only the far corner (the MMD) keep no node and
sweep a large batch in chunks of surfaces whose tables, maps, diagonals
and per-diagonal gathers stay under ``_SWEEP_CHUNK_FLOATS`` floats, and
on two or more CPUs in groups of chunks, each group past the first in a
forked child.  So their memory is flat in the number of surfaces, and the
maps, which off dyadic grids (breakpoints splitting cells, about 11 step
classes per axis) can hold more floats than a surface's diagonals, are
bounded by the cap too, not by three times the full state of every
surface in the batch.

Cross-term truncation levels are Q = min(M, N-1) on the first slot and
Q' = min(N, M-1) on the second; for M = N both equal min(M, N) - 1.  As
<f, y^Q adj z^N> = <f (x) y^Q, z^N>, one map K: f -> f (x) y^Q per
velocity interval serves both the field ODE and the w-integrand, so
coefficient tables take one pass over each velocity's intervals.
"""

from __future__ import annotations

import functools
import math
from collections import namedtuple
from dataclasses import dataclass, field
from itertools import repeat
from typing import Sequence

import numpy as np

from . import _forks
from . import tensor_algebra as ta
from .characteristics import PiecewiseVelocity
from .errors import GridMismatch, InvalidParameter, NumericalInconsistency, Unsupported
from .tensor_algebra import TruncatedTensor

__all__ = [
    "KernelSurface",
    "bessel_i0",
    "apriori_psi",
    "log_apriori_psi",
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
    where it overflows (:func:`log_apriori_psi` stays finite there)."""
    if not (x >= 0 and y >= 0):
        raise InvalidParameter("apriori_psi requires non-negative arguments")
    try:
        growth = math.exp(x + y)
    except OverflowError:
        return math.inf
    return growth * bessel_i0(2.0 * math.sqrt(x * y))


def log_apriori_psi(x, y):
    """log psi(x, y) = x + y + z + log i0e(z), with z = 2 sqrt(xy) and
    i0e(z) = e^-z I_0(z): finite wherever x + y + z is, also where psi or
    xy overflows, and ``inf`` beyond.  Elementwise (broadcast) on arrays."""
    if not (np.all(np.greater_equal(x, 0)) and np.all(np.greater_equal(y, 0))):
        raise InvalidParameter("log_apriori_psi requires non-negative arguments")
    # scipy is imported here only: importing the CLI must not load it
    from scipy.special import i0e

    with np.errstate(over="ignore"):
        z = 2.0 * np.sqrt(x * y)
        # only where x y overflows, so that the other entries keep their bits
        z = np.where(np.isinf(z), 2.0 * np.sqrt(x) * np.sqrt(y), z)
        # i0e(inf) is 0; at the largest float it is finite, so z = inf gives inf
        return x + y + z + np.log(i0e(np.minimum(z, np.finfo(float).max)))


def make_grid(horizon: float, n_points: int, breakpoints: Sequence[float] = ()) -> np.ndarray:
    """Uniform grid on [0, horizon] merged with the given breakpoints.

    The step ``horizon / (n_points - 1)`` is rounded to
    ``53 - bit_length(n_points - 1)`` significant bits, so every node
    ``i * h`` is exact and the steps between breakpoints are bitwise equal
    (the sweep shares one transfer map among cells with equal steps); the
    last node is ``horizon``.  Where the step is a power of two this is
    ``np.linspace``; elsewhere a node moves from it by at most
    ``horizon * 2**(bit_length(n_points - 1) - 53)``.  ``n_points`` must
    be an integer >= 2 (not a bool) and ``horizon`` finite and > 0, else
    ``InvalidParameter``.
    """
    if (isinstance(n_points, bool) or not isinstance(n_points, (int, np.integer))
            or n_points < 2):
        raise InvalidParameter(f"need an integer of at least two grid points, got {n_points!r}")
    if not 0.0 < horizon < math.inf:
        raise InvalidParameter(f"need a finite horizon > 0, got {horizon!r}")
    n_points = int(n_points)
    h = horizon / (n_points - 1)
    if math.isfinite(h) and h != 0.0:
        mant, exp = math.frexp(h)
        bits = 53 - (n_points - 1).bit_length()
        h = math.ldexp(round(math.ldexp(mant, bits)), exp - bits)
    base = np.arange(n_points) * h
    base[-1] = horizon
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
    hold the flattened coupled fields, when present, without the
    always-zero scalar slot; ``f_tensor`` restores it.
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
        return ta.unflatten(np.concatenate([[0.0], self.f[i, j]]), self.dim, self.f_depth)

    def apriori_margin(self) -> float | None:
        """max over nodes of |w| - psi(C_s, C_t); non-positive when the
        a priori bound holds.  None when velocity masses are unknown.

        One array expression over all nodes, in log space
        (:func:`log_apriori_psi`); psi is ``inf`` where it overflows.
        """
        if self.s_mass is None or self.t_mass is None:
            return None
        log_psi = log_apriori_psi(self.s_mass[:, None], self.t_mass[None, :])
        with np.errstate(over="ignore"):
            psi = np.exp(log_psi)
        return float((np.abs(self.w) - psi).max())

    def to_csv(self, path, include_fields: bool = False) -> None:
        """Serialize as ``s,t,w`` rows (plus field magnitudes on request).

        Every number is ``repr`` of its Python float, one row per node, s
        major; the field magnitudes are each node's BLAS dot, the bits of
        ``np.linalg.norm`` per node.  The s-rows are cut into contiguous
        blocks, one per CPU the process may run on while another block
        still pays for itself (``_BLOCK_COST_NODES``).  The calling process
        writes the first block; this method forks (``os.fork``) a child
        for each other block (``_forks.write_blocks``).  Each block is
        written one row at a time, each row joined into one string, so the
        bytes are those of a per-node ``f"{float(x)!r}"`` writer whatever
        the split, and memory stays one row wide in every process.
        """
        cols = [self.w]
        if include_fields and self.f is not None:
            # the same bits as np.linalg.norm of each node's vector (a BLAS
            # dot); norm(axis=-1) and einsum sum in another order
            cols += (np.sqrt(np.matmul(X[..., None, :], X[..., :, None])[..., 0, 0])
                     for X in (self.f, self.ftilde))
        header = "s,t,w" if len(cols) == 1 else "s,t,w,f_norm,ftilde_norm"
        fmt = ",".join(["{}"] * (2 + len(cols))) + "\n"
        s_txt = list(map(repr, self.s_grid.tolist()))
        t_txt = list(map(repr, self.t_grid.tolist()))

        def write_rows(fh, lo: int, hi: int) -> None:
            for s, *rows in zip(s_txt[lo:hi], *(c[lo:hi] for c in cols)):
                fh.write("".join(map(fmt.format, repeat(s, len(t_txt)), t_txt,
                                     *(map(repr, row.tolist()) for row in rows))))

        n_rows, nodes = len(s_txt), len(s_txt) * len(t_txt)
        blocks, most = 1, min(ta._cpu_count(), n_rows)
        # block b + 1 saves nodes / (b (b + 1)) nodes' formatting
        while blocks < most and blocks * (blocks + 1) * _BLOCK_COST_NODES < nodes:
            blocks += 1
        _forks.write_blocks(path, header + "\n", write_rows,
                            [n_rows * b // blocks for b in range(blocks + 1)])


# What a block of KernelSurface.to_csv past the first costs the calling
# process (a fork, a reap and an append), in nodes formatted in that time.
# On a 2-core x86 host, with fields, one block against two took 4.6 against
# 4.8 ms at 1600 nodes, 5.3 against 5.1 ms at 2304, 9.2 against 7.4 ms at
# 4096 and 11.4 against 8.6 ms at 5184 (medians of 41, 40 MiB process):
# 1.8 us a node and 1.7-2.0 ms a block.  The parent pays the blocks one
# after another, so more blocks stop paying at about sqrt(nodes / this):
# 8 blocks on 258^2 nodes, whatever the CPUs.  Counts past 2 blocks follow
# from this model and were not measured.
_BLOCK_COST_NODES = 1024


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


_CORRECTOR_PASSES = 2
# states up to this width contract each diagonal as one gathered product;
# wider ones as one GEMM per run of cells that share a map.  On the
# 45-surface MMD batch (65^2) the two took the same time at width 7, where
# the gather's per-cell copy of the maps cost 3 MiB of peak memory; at
# width 5, the MMD's state, the gather took 0.066 s against 0.107 s
_GATHER_MAX_WIDTH = 5
# cap, in floats, on one chunk's unit-input block when building maps
_MAP_CHUNK_FLOATS = 1 << 13
# cap, in floats, on one chunk of a corner-only batch (``_corner_floats``):
# 4 MiB holds the 45 surfaces of an 8-path MMD on 65^2 (up to 9965 floats
# each) in one chunk.  On the 561 surfaces of a 32-path MMD, chunks of 1/4,
# 1, 4 and 16 times this cap swept in about the same time (0.7-1.1 s, noisy
# host), while peak RSS rose from 33 to 83 MiB
_SWEEP_CHUNK_FLOATS = 1 << 19
# What a group of a corner-only batch past the first costs (a fork, the
# child's copy-on-write faults, a pipe and a reap), in ``_corner_floats``
# swept in that time.  On a 2-core x86 host, MMD batches of d = 2 (medians
# of 30 alternating in-process calls, 1 group against 2) broke even at
# about 190 000 floats on 17^2 (45 surfaces: 29.8 against 30.9 ms), 170 000
# on 33^2 (28 surfaces: 30.0 against 28.2 ms) and 95 000-145 000 on 65^2
# (10 surfaces: 20.4 against 23.9 ms; 15: 31.9 against 29.8 ms); 3
# surfaces lost 4.0 ms on 17^2 and 3.4 ms on 65^2, and the 45 surfaces of
# 65^2 (439 000 floats) won 95.3 against 66.4 ms.  So a second group needs
# twice this; counts past 2 groups follow from the model, unmeasured.
_GROUP_COST_FLOATS = 1 << 16
# on the GEMM contraction, a surface takes maps only while runs x this
# <= cells x D^2: a GEMM call per run costs about as much as a direct cell
# update of width 10.  On linspace grids of 100 and 250 points (mean run
# 1.1 cells) GEMM per run lost at D = 7 in a 45-surface batch (1.9 s
# against 1.1 s direct) and won at D = 15 (0.25 s against 0.36 s)
_GEMM_RUN_COST = 100


class _Tables(namedtuple("_Tables", "A B C qx RX AX qy RY AY")):
    """Coefficient tables of a batch of surfaces, each with a leading
    surface axis ``p``.  ``A[p, a, b, di, dj]`` is the scalar coefficient
    of w at corner (i + di, j + dj) of a cell (i, j) in velocity-interval
    pair (a, b); truncated systems broadcast one value to the four
    corners, the scalar Goursat problem takes alpha at the nodes.
    ``B[p, a, b]`` and ``C[p, a, b]`` are the vectors paired with the
    coupled fields in the w-update; ``qx/RX/AX`` (per s-interval) and
    ``qy/RY/AY`` (per t-interval) define the two field ODE integrands.
    Fields may have width zero."""

    def at(self, p, a=slice(None), b=slice(None)):
        """The tables of surfaces ``p`` at s-intervals ``a`` and
        t-intervals ``b``: one entry per cell for index arrays, whole
        interval axes by default."""
        pab, pa, pb = (p, a, b), (p, a), (p, b)
        return _Tables(*(t[pab] for t in self[:3]), *(t[pa] for t in self[3:6]),
                       *(t[pb] for t in self[6:]))


def _cell_increments(X00, X01, X10, h, k, tables):
    """One cell's predictor and corrector passes, in increment form.

    ``X00``, ``X01``, ``X10`` (shape ``(m, n, D)``, or ``(1, n, D)`` for
    inputs shared by all cells) are ``n`` states ``(w, F, G)`` at the known
    corners (i, j), (i, j+1), (i+1, j) of each of ``m`` cells; ``h`` and
    ``k`` have shape ``(m,)`` and ``tables`` holds one entry per cell
    (``_Tables.at``).  Returns ``(m, n, D)`` increments over the structural
    part of the far corner: ``dw = w11 - (w10 + (w01 - w00))``,
    ``dF = F11 - F01`` and ``dG = G11 - G10``.
    """
    A, B, C, qx, RX, AX, qy, RY, AY = tables
    df = qx.shape[-1]
    (w00, F00, G00), (w01, F01, G01), (w10, F10, G10) = (
        (X[..., 0], X[..., 1:1 + df], X[..., 1 + df:]) for X in (X00, X01, X10))
    (A00, A01), (A10, A11) = np.moveaxis(A, 0, -1)[..., None]
    hk = (h * k)[:, None]
    h, k = h[:, None, None], k[:, None, None]
    qx, qy = qx[:, None], qy[:, None]

    # products over a width-zero field are zero; skipping them saves the
    # scalar problem a per-cell loop inside matmul
    def dot(x, y):
        return np.matmul(x, y[..., None])[..., 0] if x.shape[-1] else 0.0

    def mv(mat, x):
        return np.matmul(x, np.swapaxes(mat, -1, -2)) if x.shape[-1] else 0.0

    # w-integrand at the three known corners of each cell
    phi00 = w00 * A00 + dot(F00, B) + dot(G00, C)
    phi01 = w01 * A01 + dot(F01, B) + dot(G01, C)
    phi10 = w10 * A10 + dot(F10, B) + dot(G10, C)
    cross = w01 - w00
    # field integrands at the left end of each cell's s- and t-step
    Fd01 = w01[..., None] * qx + mv(RX, F01) + mv(AX, G01)
    Gd10 = w10[..., None] * qy + mv(RY, G10) + mv(AY, F10)
    # rectangle-rule predictor, then trapezoidal corrector passes
    dw, dF, dG = hk * phi00, h * Fd01, k * Gd10
    for _ in range(_CORRECTOR_PASSES):
        w11, F11, G11 = w10 + cross + dw, F01 + dF, G10 + dG
        phi11 = w11 * A11 + dot(F11, B) + dot(G11, C)
        Fd11 = w11[..., None] * qx + mv(RX, F11) + mv(AX, G11)
        Gd11 = w11[..., None] * qy + mv(RY, G11) + mv(AY, F11)
        dw = 0.25 * hk * (phi00 + phi10 + phi01 + phi11)
        dF = 0.5 * h * (Fd01 + Fd11)
        dG = 0.5 * k * (Gd10 + Gd11)
    return np.concatenate([dw[..., None], dF, dG], axis=-1)


def _step_classes(steps, idx):
    """Distinct ``(interval, exact step)`` pairs of each surface along one
    grid axis, found by sort and mask.  Classes are numbered surface by
    surface; returns each cell's class and the surface and cell of each
    class's first member."""
    n_s, n = idx.shape
    keys = np.stack([np.repeat(np.arange(n_s), n), idx.ravel(),
                     np.tile(steps.view(np.int64), n_s)])
    order = np.lexsort(keys[::-1])
    keys = keys[:, order]
    new = np.ones(n_s * n, dtype=bool)
    new[1:] = np.any(keys[:, 1:] != keys[:, :-1], axis=0)
    cls = np.empty(n_s * n, dtype=np.intp)
    cls[order] = np.cumsum(new) - 1
    first = order[new]
    return cls.reshape(n_s, n), first // n, first % n


def _map_counts(ds, dt, sidx, tidx):
    """Per surface, the number of distinct maps and the number of runs of
    cells that share a map along the anti-diagonals.  Cell (i, j) continues
    the run of (i-1, j+1) when both have the same s- and t-class, so the
    cells that continue a run number (equal s-neighbours) x (equal
    t-neighbours)."""
    n_surf = len(sidx)
    (s_cls, s_surf, _), (t_cls, t_surf, _) = (
        _step_classes(ds, sidx), _step_classes(dt, tidx))
    count = (np.bincount(s_surf, minlength=n_surf)
             * np.bincount(t_surf, minlength=n_surf))
    same_s = np.count_nonzero(s_cls[:, 1:] == s_cls[:, :-1], axis=1)
    same_t = np.count_nonzero(t_cls[:, 1:] == t_cls[:, :-1], axis=1)
    return count, len(ds) * len(dt) - same_s * same_t


def _transfer_maps(ds, dt, sidx, tidx, tables):
    """The distinct increment maps of a batch of surfaces.

    A cell's increments are linear in its three known corner states, with
    a ``(3D, D)`` map ``L`` (``delta = [X00, X01, X10] @ L``) that depends
    only on the surface, its interval pair and its exact step sizes.  Each
    distinct map is built once by running ``_cell_increments`` on the
    ``3D`` unit inputs, in chunks of bounded size.  Returns the maps and
    ``(S, T)`` such that cell (i, j) of surface p uses map
    ``S[p, i] + T[p, j]``.
    """
    s_cls, s_surf, s_cell = _step_classes(ds, sidx)
    t_cls, t_surf, t_cell = _step_classes(dt, tidx)
    n_t = np.bincount(t_surf, minlength=len(sidx))
    t_first = np.cumsum(n_t) - n_t
    # maps are numbered by s-class, then by t-class of the same surface
    per_s = n_t[s_surf]
    s_first = np.cumsum(per_s) - per_s
    map_s = np.repeat(np.arange(len(per_s)), per_s)
    map_t = t_first[s_surf[map_s]] + np.arange(len(map_s)) - s_first[map_s]
    p, i, j = s_surf[map_s], s_cell[map_s], t_cell[map_t]
    a, b = sidx[p, i], tidx[p, j]
    D = 1 + tables.qx.shape[-1] + tables.qy.shape[-1]
    unit = np.eye(3 * D)[None]
    corners = unit[..., :D], unit[..., D:2 * D], unit[..., 2 * D:]
    maps = np.empty((len(map_s), 3 * D, D))
    chunk = max(1, _MAP_CHUNK_FLOATS // (3 * D * D))
    for lo in range(0, len(maps), chunk):
        c = slice(lo, lo + chunk)
        maps[c] = _cell_increments(*corners, ds[i[c]], dt[j[c]],
                                   tables.at(p[c], a[c], b[c]))
    return maps, s_first[s_cls], t_cls - t_first[:, None]


def _apply_maps(maps, idx, xc):
    """Increments ``xc[p, c] @ maps[idx[p, c]]`` of a diagonal's cells.

    States of width up to ``_GATHER_MAX_WIDTH`` take one gathered
    ``einsum``, whose sums do not depend on the BLAS build; wider ones one
    GEMM (``np.matmul``, whose sums do) per run of consecutive cells with
    the same map.  Maps are keyed by surface, so runs never cross surfaces.
    """
    D = maps.shape[-1]
    if D <= _GATHER_MAX_WIDTH:
        return np.einsum("pcm,pcmd->pcd", xc, maps[idx])
    flat, rows = idx.ravel(), xc.reshape(-1, 3 * D)
    delta = np.empty((len(flat), D))
    cuts = [0, *(np.flatnonzero(flat[1:] != flat[:-1]) + 1), len(flat)]
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        np.matmul(rows[lo:hi], maps[flat[lo]], out=delta[lo:hi])
    return delta.reshape(*idx.shape, D)


@np.errstate(over="ignore", invalid="ignore")
def _sweep(ds, dt, sidx, tidx, tables, keep_nodes=True):
    """Anti-diagonal sweep over a batch of surfaces, by transfer maps.

    ``tables`` is a ``_Tables`` record; ``sidx[p]``/``tidx[p]`` map grid
    cells to velocity intervals.  Each cell's predictor and corrector
    passes are a linear map from its three known corner states
    ``X = (w, F, G)`` (width ``D = 1 + df + dg``) to its increments
    (``_cell_increments``).  One map serves every cell with the same key
    (surface, s-class, t-class), where an s-class is a distinct pair
    (interval, exact bits of the step h) along s and a t-class the same
    along t; ``_transfer_maps`` builds each distinct map once.  Cell
    (i+1, j+1) needs only nodes (i, j), (i+1, j) and (i, j+1), so each
    anti-diagonal takes one contraction for all surfaces (``_apply_maps``:
    a gathered product for ``D`` up to ``_GATHER_MAX_WIDTH``, the scalar
    problem included, one GEMM per run of cells sharing a map above it).
    The far corner is the structural part plus the increment,
    ``w11 = w10 + (w01 - w00) + dw``, ``F11 = F01 + dF``, ``G11 = G10 + dG``.

    The grid is swept with a ghost row and column of cells in front: steps
    0, interval 0, and outer nodes in the constant state (1, 0, 0), so the
    far corner of ghost-grid cell (i, j) is node (i, j) and the boundary
    rows come out of the same maps or direct updates as every other cell.
    The state rolls over three node anti-diagonals of the ghost grid, each
    ``(surfaces, n_i + 2, D)`` and indexed by i, so one ``take`` per
    diagonal gathers every cell's three known corners and each cell sees
    the inputs and order of a full-array sweep.  With ``keep_nodes`` each
    finished diagonal is also copied into the full node array, and the
    sweep returns (w, f, g) node arrays with the surface axis first, views
    of one state array; without it, state per surface is O((n_i + n_j) D)
    and the sweep returns (w, f, g) at the far corner only, shapes
    ``(surfaces,)``, ``(surfaces, df)`` and ``(surfaces, dg)``.  Either
    way it also returns the number of maps of each surface, the ghost
    cells' included (0 where cells were evaluated directly).  A w holding
    NaN raises ``NumericalInconsistency``; an infinite w is returned as it
    is.  Both say what numpy's overflow and invalid-value warnings would,
    so the sweep runs with them off.

    Maps pay only when cells share them.  A surface takes maps when the
    maps of its own cells hold at most ``D x cells`` floats (three times
    its own full state: building them costs at most three cell updates per
    cell) and, for the GEMM contraction, when its cells form at most
    ``cells x D^2 / _GEMM_RUN_COST`` runs of equal maps along the
    diagonals (``_map_counts``); the ghost cells add one class of step 0
    per axis to the maps built, not to this choice.  Uniform grids from
    ``make_grid`` have few classes per axis (one per interval, plus the
    cells split by breakpoints) and long runs.  Other surfaces, e.g. on random grids,
    evaluate ``_cell_increments`` directly on each diagonal's states, so
    the maps never outgrow the full state.  The choice, like the
    contraction, depends on the surface alone and runs never cross
    surfaces, so a surface's bits do not depend on which surfaces share
    its batch; callers that keep only corners sweep a large batch in
    chunks (``_solve_truncated_batch``).  Those chunks count each
    surface's maps in ``_corner_floats``, so the maps of a corner-only
    chunk stay under ``_SWEEP_CHUNK_FLOATS`` floats even off dyadic grids,
    where breakpoints split cells into about 11 step classes per axis.
    """
    n_s = len(sidx)
    n_i, n_j = len(ds), len(dt)
    df, dg = tables.qx.shape[-1], tables.qy.shape[-1]
    D = 1 + df + dg
    cells = n_i * n_j
    n_maps, runs = _map_counts(ds, dt, sidx, tidx)
    use = (n_maps * D <= cells) & ((D <= _GATHER_MAX_WIDTH)
                                   | (runs * _GEMM_RUN_COST <= cells * D * D))
    n_mapped, direct = np.count_nonzero(use), np.flatnonzero(~use)
    # a mapped group that is the whole batch is a slice, so nothing is copied
    mapped = slice(None) if use.all() else np.flatnonzero(use)
    # the ghost row and column of cells: steps 0 on interval 0
    ds, dt = np.concatenate([[0.0], ds]), np.concatenate([[0.0], dt])
    sidx, tidx = (np.pad(idx, ((0, 0), (1, 0))) for idx in (sidx, tidx))
    maps, S, T = _transfer_maps(ds, dt, sidx[mapped], tidx[mapped], tables.at(mapped))
    # surface p's maps are numbered from S[p].min() to S[p].max() + T[p].max()
    n_maps = np.zeros(n_s, dtype=np.intp)
    n_maps[mapped] = S.max(axis=1) - S.min(axis=1) + T.max(axis=1) + 1
    if keep_nodes:
        X = np.empty((n_s, n_i + 1, n_j + 1, D))
        nodes = X.reshape(n_s, -1, D)
    # node i of ghost-grid anti-diagonal k is row (k % 3) * (n_i + 2) + i of
    # the ring.  Every row starts as the ghost state (1, 0, 0): no far
    # corner is written to row 0, nor to row k before anti-diagonal k
    stride = n_i + 2
    ring = np.zeros((n_s, 3 * stride, D))
    ring[..., 0] = 1.0
    # ring offsets of corners (i, j), (i, j+1), (i+1, j) of a cell on
    # diagonal diag, from its i, for each diag % 3
    known = [np.array([r * stride, (r + 1) % 3 * stride, (r + 1) % 3 * stride + 1])
             for r in range(3)]
    for diag in range(n_i + n_j + 1):
        lo, hi = max(0, diag - n_j), min(diag, n_i) + 1
        i = np.arange(lo, hi)
        j = diag - i
        x = ring.take(i[:, None] + known[diag % 3], axis=1)
        delta = np.empty((n_s, len(i), D))
        if n_mapped:
            delta[mapped] = _apply_maps(maps, S[:, i] + T[:, j],
                                        x[mapped].reshape(n_mapped, len(i), 3 * D))
        if len(direct):
            # surfaces whose maps would not pay: each cell's update on its
            # own corner states, the cells of all such surfaces in one stack
            pc = np.repeat(direct, len(i))
            ic, jc = np.tile(i, len(direct)), np.tile(j, len(direct))
            xd = x[direct].reshape(-1, 3, 1, D)
            delta[direct] = _cell_increments(
                xd[:, 0], xd[:, 1], xd[:, 2], ds[ic], dt[jc],
                tables.at(pc, sidx[pc, ic], tidx[pc, jc])).reshape(len(direct), len(i), D)
        x00, far, x10 = x[:, :, 0], x[:, :, 1], x[:, :, 2]
        # structural part of the far corner: w10 + (w01 - w00), F01, G10
        far[..., 0] = x10[..., 0] + (far[..., 0] - x00[..., 0])
        far[..., 1 + df:] = x10[..., 1 + df:]
        far += delta
        # far corners of ghost-grid cells (i, j) are the nodes (i, j):
        # consecutive rows of the ring, and nodes n_j apart in the node array
        base = (diag + 2) % 3 * stride
        ring[:, base + lo + 1:base + hi + 1] = far
        if keep_nodes:
            nodes[:, lo * n_j + diag:(hi - 1) * n_j + diag + 1:n_j] = far
    out = X if keep_nodes else ring[:, (n_i + n_j + 2) % 3 * stride + n_i + 1]
    if np.isnan(out[..., 0]).any():
        raise NumericalInconsistency(
            "the kernel surface w holds NaN (an overflow or a NaN coefficient)")
    return out[..., 0], out[..., 1:1 + df], out[..., 1 + df:], n_maps


def solve_goursat_scalar(alpha, s_grid, t_grid,
                         s_mass=None, t_mass=None) -> KernelSurface:
    """Scalar Goursat problem: d^2 u/ds dt = u * alpha, unit boundary data.

    ``alpha`` may be a callable ``alpha(s, t)``, a separable pair of
    callables ``(f, g)`` meaning ``alpha(s,t) = f(s) g(t)``, or a per-cell
    array of shape (len(s_grid)-1, len(t_grid)-1) for piecewise-constant
    coefficients.  Optional ``s_mass``/``t_mass`` node arrays feed the
    a priori certificate; for a separable pair they default to the
    cumulative trapezoidal integrals of |f| and |g|.  The grids need not
    start at 0 and may be single nodes (then w is 1); one that is not 1-D,
    finite and strictly increasing raises ``GridMismatch``.
    """
    s_grid, t_grid = _check_scalar_grid(s_grid, "s"), _check_scalar_grid(t_grid, "t")
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
    if n_i and n_j:
        # one surface whose cell (i, j) is interval pair (i, j), with alpha
        # at the cell's corners (views of the node array) and coupled fields
        # of width zero
        A = (np.broadcast_to(cells[..., None, None], (n_i, n_j, 2, 2)) if nodes is None
             else np.lib.stride_tricks.as_strided(nodes, (n_i, n_j, 2, 2),
                                                  nodes.strides * 2, writeable=False))
        B = np.zeros((1, n_i, n_j, 0))
        qx, RX = np.zeros((1, n_i, 0)), np.zeros((1, n_i, 0, 0))
        qy, RY = np.zeros((1, n_j, 0)), np.zeros((1, n_j, 0, 0))
        w, _, _, n_maps = _sweep(np.diff(s_grid), np.diff(t_grid),
                                 np.arange(n_i)[None], np.arange(n_j)[None],
                                 _Tables(A[None], B, B, qx, RX, RX, qy, RY, RY))
        w, n_maps = w[0], int(n_maps[0])
    else:
        # no cell on one axis, so no interval for a ghost cell to read
        w, n_maps = np.ones((n_i + 1, n_j + 1)), 0
    return KernelSurface(
        s_grid=s_grid, t_grid=t_grid, w=w,
        s_mass=None if s_mass is None else np.asarray(s_mass, dtype=float),
        t_mass=None if t_mass is None else np.asarray(t_mass, dtype=float),
        meta={"system": "goursat-scalar", "scheme_order": 2, "cells": n_i * n_j,
              "state_width": 1, "maps": n_maps})


def _check_scalar_grid(grid, what: str) -> np.ndarray:
    """``grid`` as a float array; ``GridMismatch`` unless it is 1-D,
    finite and strictly increasing, with at least one node."""
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or len(grid) == 0:
        raise GridMismatch(f"{what} grid must be a 1-D array of at least one node")
    if not (np.all(np.isfinite(grid)) and np.all(np.diff(grid) > 0)):
        raise GridMismatch(f"{what} grid must be finite and strictly increasing")
    return grid


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
        # the counts cover both solves
        meta=dict(coarse.meta, richardson=True,
                  cells=coarse.meta["cells"] + fine.meta["cells"],
                  maps=coarse.meta["maps"] + fine.meta["maps"]))


@np.errstate(over="ignore", invalid="ignore")
def _solve_truncated_batch(pairs, M: int, N: int, s_grid, t_grid, corners=False):
    """``solve_truncated_system`` for each velocity pair ``(v, vt)`` in
    ``pairs``, all on the same grids and levels, swept together.

    With ``corners=True`` returns only each pair's far-corner value
    w(s_end, t_end), as an array: pairs are swept without nodes, in chunks
    of consecutive pairs whose estimated floats (``_corner_floats``) stay
    under ``_SWEEP_CHUNK_FLOATS``, at least one pair a chunk
    (``_sweep_corners``).  The pairs are first split into contiguous
    groups of about equal floats (``_group_edges``), one per CPU while
    group g + 1 takes more floats off this process than a fork costs
    (``_GROUP_COST_FLOATS``); this process sweeps group 0 and a forked
    child each other group (``_forks.map_groups``), which sweeps it again
    itself where no child can be made or a child fails.  A surface's bits
    do not depend on its batch, so neither chunks nor groups change a bit.
    Tables that overflow end in a w that ``_sweep`` reports (NaN) or
    returns (inf), so they are built with numpy's overflow warnings off
    too, in the children as in this process.
    """
    if M < 1 or N < 1:
        raise InvalidParameter("levels M, N must be >= 1")
    if not pairs:
        raise InvalidParameter("need at least one velocity pair")
    d = pairs[0][0].dim
    if any(v.dim != d or vt.dim != d for v, vt in pairs):
        raise InvalidParameter("velocity dims differ")
    s_grid, t_grid = np.asarray(s_grid, dtype=float), np.asarray(t_grid, dtype=float)
    tabulated, located = {}, {}

    def side(v, grid, what, M, N):
        # a velocity may sit in many pairs of a batch: check the grid
        # against it, find its cells' intervals and step classes and
        # tabulate it once.  A pair (v, v) at M = N takes one table object
        # on both sides; _coefficients copies A's right operand, so that
        # its bits are those of a pair of equal but distinct velocities
        if (id(v), what) not in located:
            _validate_grid(grid, v.time_grid, what)
            idx = _cell_intervals(grid, v.time_grid)
            located[id(v), what] = idx, len(_step_classes(np.diff(grid), idx[None])[1])
        if (id(v), M, N) not in tabulated:
            tabulated[id(v), M, N] = _side_tables(v, M, N)
        return _Side(tabulated[id(v), M, N], *located[id(v), what])

    sides = [(side(v, s_grid, "s", M, N), side(vt, t_grid, "t", N, M)) for v, vt in pairs]
    ds, dt = np.diff(s_grid), np.diff(t_grid)
    if corners:
        D = ta.flat_size(d, N - 1) + ta.flat_size(d, M - 1) - 1
        costs = [_corner_floats(len(ds), len(dt), D, len(left.tables[0]),
                                len(right.tables[0]), left.classes, right.classes)
                 for left, right in sides]
        groups, most = 1, min(ta._cpu_count(), len(sides))
        # group g + 1 takes sum(costs) / (g (g + 1)) floats off this process
        while groups < most and groups * (groups + 1) * _GROUP_COST_FLOATS < sum(costs):
            groups += 1
        return _forks.map_groups(functools.partial(_sweep_corners, sides, costs, ds, dt),
                                 _group_edges(costs, groups))
    w, F, G, n_maps, sidx, tidx = _sweep_sides(sides, ds, dt, keep_nodes=True)
    cells = len(ds) * len(dt)
    width = 1 + F.shape[-1] + G.shape[-1]
    # node masses: grids hold every breakpoint, so a cell has one interval
    return [KernelSurface(
        s_grid=s_grid, t_grid=t_grid, w=w[p], dim=d,
        f=F[p], ftilde=G[p], f_depth=N - 1, ftilde_depth=M - 1,
        s_mass=np.concatenate([[0.0], np.cumsum(ds * left.tables[0][sidx[p]])]),
        t_mass=np.concatenate([[0.0], np.cumsum(dt * right.tables[0][tidx[p]])]),
        meta={"system": "truncated", "M": M, "N": N, "scheme_order": 2,
              "cells": cells, "state_width": width, "maps": int(n_maps[p])})
        for p, (left, right) in enumerate(sides)]


# one velocity on one side of a batch: its ``_side_tables``, its cells'
# intervals on that side's grid and the number of its step classes there
_Side = namedtuple("_Side", "tables idx classes")


def _sweep_sides(sides, ds, dt, keep_nodes):
    """``_sweep`` of the surfaces whose ``_Side`` pairs are ``sides``; also
    returns the stacked cell intervals."""
    sidx = np.stack([left.idx for left, _ in sides])
    tidx = np.stack([right.idx for _, right in sides])
    A, *fields = map(_stack_padded, zip(*(_coefficients(left.tables, right.tables)
                                          for left, right in sides)))
    tables = _Tables(np.broadcast_to(A[..., None, None], (*A.shape, 2, 2)), *fields)
    return (*_sweep(ds, dt, sidx, tidx, tables, keep_nodes), sidx, tidx)


def _sweep_corners(sides, costs, ds, dt, lo: int, hi: int) -> np.ndarray:
    """Far-corner w of the surfaces ``sides[lo:hi]``, swept without nodes
    in chunks of consecutive surfaces whose ``costs`` (``_corner_floats``)
    stay under ``_SWEEP_CHUNK_FLOATS``, at least one surface a chunk."""
    out, start, total = np.empty(hi - lo), lo, 0
    for k in range(lo, hi):
        if k > start and total + costs[k] > _SWEEP_CHUNK_FLOATS:
            out[start - lo:k - lo] = _sweep_sides(sides[start:k], ds, dt, keep_nodes=False)[0]
            start, total = k, 0
        total += costs[k]
    out[start - lo:] = _sweep_sides(sides[start:hi], ds, dt, keep_nodes=False)[0]
    return out


def _group_edges(costs, groups: int) -> list[int]:
    """Edges of ``groups`` contiguous, non-empty groups of the items with
    ``costs``: edge g sits where the running cost comes nearest g / groups
    of the total, as far as every group keeps an item."""
    running = np.concatenate([[0], np.cumsum(costs)])
    edges = [0]
    for g in range(1, groups):
        nearest = int(np.abs(running - running[-1] * g / groups).argmin())
        edges.append(min(max(nearest, edges[-1] + 1), len(costs) - groups + g))
    return edges + [len(costs)]


def _corner_floats(n_i, n_j, D, n_a, n_b, s_classes, t_classes):
    """Estimated floats one surface holds in a corner-only sweep on an
    ``n_i x n_j``-cell grid, for velocities of ``n_a`` and ``n_b``
    intervals with ``s_classes`` and ``t_classes`` step classes: its tables
    (each at most D^2 per interval and D per interval pair), its maps (3D x
    D each; a map per pair of classes, the ghost cells' class of step 0
    included, and none once the grid's own maps would outgrow the state),
    three rolling diagonals of the ghost grid (``n_i + 2`` nodes of D
    each), and per diagonal of at most ``min(n_i, n_j) + 1`` cells the
    gathered maps (3D x D) and corner states, increments and far corners
    (5D)."""
    cells = min(n_i, n_j) + 1
    maps = ((s_classes + 1) * (t_classes + 1)
            if s_classes * t_classes * D <= n_i * n_j else 0)
    return ((n_a + n_b + n_a * n_b + 3 * maps + 3 * cells) * D * D
            + (3 * (n_i + 2) + 5 * cells) * D)


def _stack_padded(arrays) -> np.ndarray:
    """Stack per-surface tables along a new leading axis, zero-padding
    each axis to its largest length (padding is never indexed)."""
    shape = np.max([a.shape for a in arrays], axis=0)
    out = np.zeros((len(arrays), *shape))
    for p, a in enumerate(arrays):
        out[(p, *map(slice, a.shape))] = a
    return out


def _coefficients(left, right):
    """Tables (A, B, C, qx, RX, AX, qy, RY, AY) of one truncated system, in
    the layout of ``_Tables`` per surface (A without its corner axes),
    from its side tables ``_side_tables(v, M, N)`` and
    ``_side_tables(vt, N, M)``: A pairs x and y up to level min(M, N), and
    as ``<f, adjoint_right(x^Q, y)> = <f (x) x^Q, y>``, B = K_x y and
    C = K_y x.  The fields' coordinates exclude the scalar slot; R is the
    block of K on them, transposed.  Formed per pair, so a surface's bits
    do not depend on its batch."""
    (_, X, qx, KX, AX), (_, Y, qy, KY, AY) = left, right
    P = min(X.shape[-1], Y.shape[-1])
    # a copy: on operands that share one buffer numpy takes syrk, whose
    # bits differ from gemm's, so (v, v) would not round as (v, copy(v))
    A = X[:, :P] @ Y[:, :P].T.copy()
    B = Y @ np.swapaxes(KX, 1, 2)
    C = np.swapaxes(X @ np.swapaxes(KY, 1, 2), 0, 1)
    RX, RY = (np.swapaxes(K[:, :, 1:1 + K.shape[1]], 1, 2) for K in (KX, KY))
    return A, B, C, qx, RX, AX, qy, RY, AY


def _side_tables(v: PiecewiseVelocity, M: int, N: int):
    """Tables (norm, X, q, K, Adj) per interval of v for the side cut at M
    against one cut at N: with x = v cut at M and Q = min(M, N - 1), the
    T^1 norm of x, x flattened at M, q = x^Q, the (flat(N-1) - 1, flat(N))
    matrix K of f -> f (x) x^Q and Adj g = proj(adjoint_left(g, x)).  The
    fields f (depth N - 1) and g (depth M - 1) leave out their scalar slot,
    which stays zero (q_0 = x_0 = 0, (f (x) x^Q)_0 = 0 and proj drops
    Adj's), so q, Adj and the inputs of K have none; K keeps output slot 0
    so that it pairs with all of y.  K serves the
    field ODE f' = w q + R f + Adj g (``_coefficients``) and the
    w-integrand.  Sides are ``(v, M, N)`` and ``(vt, N, M)``; K and Adj map
    a batched identity."""
    Q = min(M, N - 1)
    ef, eg = (ta.unflatten(np.eye(ta.flat_size(v.dim, n))[1:], v.dim, n)
              for n in (N - 1, M - 1))
    norm, X, q, K, adj = [], [], [], [], []
    for x in v.tensors:
        x = ta.truncate(x, M)
        xQ = ta.truncate(x, Q)
        norm.append(ta.norm_p(x, 1))
        X.append(ta.flatten(x, M))
        q.append(ta.flatten(xQ, N - 1)[1:])
        K.append(ta.flatten(ta.tensor_mul(ef, xQ, N), N))
        adj.append(ta.flatten(ta.adjoint_left(eg, x), N - 1)[:, 1:].T)
    return tuple(map(np.array, (norm, X, q, K, adj)))


def _refine(grid: np.ndarray) -> np.ndarray:
    mids = 0.5 * (grid[:-1] + grid[1:])
    out = np.empty(2 * len(grid) - 1)
    out[::2] = grid
    out[1::2] = mids
    return out


def truncation_certificate(v: PiecewiseVelocity, vt: PiecewiseVelocity,
                           M: int, N: int, s: float, t: float) -> float:
    """Bound on |u(s, t) - w(s, t)|, u the kernel of the full velocities and
    w that of their depth-M/N truncations, exact for piecewise-constant
    velocities.

    exp(mass_v + omit_v) * exp(mass_vt + omit_vt) * (tail of v above M +
    omit_v + tail of vt above N + omit_vt), where mass and tail integrate
    the stored levels exactly and ``omit`` is each velocity's bound on the
    levels it does not store (``PiecewiseVelocity.omitted_mass``; 0 for a
    velocity without tail rates).  The certificate is tight in the tail:
    the stored part is exact and the omitted part is the closed form of
    ``characteristics.velocity_tail_bound``, within a few times the levels
    it bounds; the exponential factor is the Gronwall growth and is the
    loose part.  A zero tail gives 0.0 whatever the masses; a positive
    tail whose exponential factor overflows gives ``inf``.
    """
    omit_s = v.omitted_mass(0.0, s)
    omit_t = vt.omitted_mass(0.0, t)
    tail = v.tail_mass(0.0, s, M) + omit_s + vt.tail_mass(0.0, t, N) + omit_t
    if tail == 0.0:
        return 0.0
    try:
        cs = math.exp(v.mass(0.0, s) + omit_s)
        ct = math.exp(vt.mass(0.0, t) + omit_t)
    except OverflowError:
        return math.inf
    return float(cs * ct * tail)

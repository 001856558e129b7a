import importlib.util
import os

import numpy as np
import pytest

from levy_sigkernel.characteristics import PiecewiseVelocity
from levy_sigkernel.kernel_solver import make_grid
from levy_sigkernel.tensor_algebra import TruncatedTensor, exp_tensor, tensor_mul


REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def benchmark_workloads():
    """``perfbench/workloads.py``: the benchmark's seeded CLI configs
    (``CONFIGS[name](seed, small=...)``)."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", os.path.join(REPO, "perfbench", "workloads.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def rng():
    return np.random.default_rng(20240901)


@pytest.fixture
def forks(monkeypatch):
    """Count the children forked; return the list of their pids."""
    real_fork, pids = os.fork, []

    def fork():
        pid = real_fork()
        if pid:
            pids.append(pid)
        return pid
    monkeypatch.setattr(os, "fork", fork)
    return pids


def open_fds():
    """This process's open file descriptors."""
    return sorted(os.listdir("/proc/self/fd"))


def random_tensor(rng, dim, depth, scale=0.5, zero_scalar=False):
    levels = [rng.normal(size=dim**n) * scale / (n + 1) for n in range(depth + 1)]
    if zero_scalar:
        levels[0][:] = 0.0
    return TruncatedTensor(dim, levels)


def random_velocity_tensor(rng, dim, depth, scale=0.4):
    """Zero-scalar tensor with per-level scaling that keeps T^1 mass ~ scale."""
    levels = [np.zeros(1)]
    for n in range(1, depth + 1):
        arr = rng.uniform(-1.0, 1.0, size=dim**n)
        norm = np.linalg.norm(arr)
        if norm > 0:
            arr *= scale / (norm * 2**n)
        levels.append(arr)
    return TruncatedTensor(dim, levels)


def gamma(k):
    """Higham's gamma_k = k u / (1 - k u), u the unit roundoff: a product of
    k factors (1 + delta_i), |delta_i| <= u, lies within gamma_k of 1."""
    u = np.finfo(float).eps / 2
    return k * u / (1 - k * u)


def dense_tensor_mul(x, y, out_depth=None):
    """Reference: the dense product that the level-sparse one replaced; it
    multiplies every stored level pair, zero or not."""
    if out_depth is None:
        out_depth = max(x.depth, y.depth)
    d = x.dim
    out = TruncatedTensor.zero(d, out_depth)
    for n in range(out_depth + 1):
        acc = out.levels[n]
        for k in range(max(0, n - y.depth), min(n, x.depth) + 1):
            xk = x.levels[k]
            ym = y.levels[n - k]
            if k == 0:
                acc += xk[0] * ym
            elif k == n:
                acc += xk * ym[0]
            else:
                acc += np.multiply.outer(xk, ym).ravel()
    return out


def dense_exp_tensor(x):
    """Reference: the Horner scheme with every step kept at full depth."""
    depth = x.depth
    acc = TruncatedTensor.unit(x.dim, depth)
    for k in range(depth, 0, -1):
        acc = dense_tensor_mul(x * (1.0 / k), acc, depth)
        acc.levels[0][0] += 1.0
    return acc


def general_mul_exp_bound(s, x):
    """Forward bound on |mul_exp - unfused| per coefficient of ``s (x) exp(x)``.

    A term of output level n with r <= n factors of x, taken from L live
    levels of x (those up to n), carries at most K = (L + 4) n + 1
    roundings in either evaluation:
    - ``mul_exp``: s^m enters at step r + 1 and meets at most L additions
      there; each of the r steps scales ``x/k`` (1), multiplies (1) and adds
      into a sum of at most L + 1 terms (L): L + r (L + 2);
    - unfused, ``tensor_mul(s, dense_exp_tensor(x))``: each of the r steps
      of the dense Horner scheme, x on the left, scales by ``* (1/k)`` (2),
      multiplies (1) and adds into zeros a sum of at most L nonzero
      products (L - 1); level 0 adds 1 to 0, exact since x has no scalar
      part.  ``tensor_mul`` adds one product and at most n additions:
      r (L + 2) + n + 1.
    With r, L <= n both are at most (L + 4) n + 1; ``exp_tensor``, which is
    ``mul_exp(1, x)``, against ``dense_exp_tensor`` is the case s = 1.
    Each result lies within gamma_K T of the exact one, T being
    ``|s| (x) exp(|x|)``, which is evaluated on nonnegative data and so low
    by at most a factor 1 - gamma_K, divided out.
    """
    absolute_x = TruncatedTensor(x.dim, [np.abs(lev) for lev in x.levels])
    t = tensor_mul(TruncatedTensor(s.dim, [np.abs(lev) for lev in s.levels]),
                   exp_tensor(absolute_x.with_depth(s.depth)), s.depth)
    live = [j for j in range(1, x.depth + 1) if x.levels[j].any()]
    bounds = []
    for n, lev in enumerate(t.levels):
        g = gamma((sum(j <= n for j in live) + 4) * n + 1)
        bounds.append(2 * g / (1 - g) * lev)
    return bounds


def _reference_add_outer(acc, u, v, add, short_axis=4):
    """``tensor_algebra._add_outer`` as it stood when ``mul_exp`` allocated
    every level of every Horner step (part of ``reference_mul_exp``)."""
    block = acc.reshape(len(u), len(v), acc.shape[-1])
    if acc.shape[-1] == 1 and len(v) <= short_axis:
        for c, vc in enumerate(v):
            if add:
                block[:, c] += u * vc
            else:
                np.multiply(u, vc, out=block[:, c])
    elif add:
        block += u[:, None] * v[None]
    else:
        np.multiply(u[:, None], v[None], out=block)


def reference_mul_exp(s, x):
    """Reference: ``tensor_algebra.mul_exp`` before its Horner steps wrote
    into buffers allocated once per call.  Each (step, level) takes a fresh
    accumulator; the arithmetic and its order are those of ``mul_exp``."""
    batch = np.broadcast_shapes(*(lev.shape[:-1] for t in (s, x) for lev in t.levels))
    width = batch[0] if batch else 1

    def columns(lev):
        return lev.reshape(-1, lev.shape[-1]).T

    depth = s.depth
    s_cols = [columns(lev) for lev in s.levels]
    live = [(j, columns(x.levels[j])) for j in range(1, min(x.depth, depth) + 1)
            if x.levels[j].any()]
    q = [np.broadcast_to(s_cols[0], (1, width)).copy()]
    for k in range(depth, 0, -1):
        top = depth - k + 1
        scaled = [(j, xj / k) for j, xj in live if j <= top]
        # from the top down, so that level n reads the previous step's q
        q.append(None)
        for n in range(top, 0, -1):
            terms = [(q[n - j], xj) for j, xj in scaled if j <= n]
            acc = np.empty((len(s_cols[n]), width))
            if terms:
                _reference_add_outer(acc, *terms[0], add=False)
                acc += s_cols[n]
            else:
                acc[...] = s_cols[n]
            for u, xj in terms[1:]:
                _reference_add_outer(acc, u, xj, add=True)
            q[n] = acc
    if not batch:
        return TruncatedTensor(s.dim, [lev.reshape(-1) for lev in q])
    return TruncatedTensor(s.dim, [lev.T for lev in q])


def random_velocity(rng, dim, depth, grid, scale):
    return PiecewiseVelocity(dim, grid, [random_velocity_tensor(rng, dim, depth, scale)
                                         for _ in range(len(grid) - 1)])


def mixed_corner_batch(rng):
    """Four velocity pairs (d = 2, depth 3) and their 41-point grid, to be
    solved at M = N = 3 (state width 13): one velocity has a breakpoint at
    every node, so its surfaces are evaluated directly; the others take
    maps."""
    g = make_grid(1.0, 41, np.array([0.25, 0.5, 0.75]))
    vels = [random_velocity(rng, 2, 3, grid, scale=0.8)
            for grid in (np.array([0.0, 0.25, 1.0]), g, np.array([0.0, 1.0]))]
    pairs = [(vels[0], vels[1]), (vels[2], vels[0]), (vels[1], vels[1]),
             (vels[2], vels[2])]
    return pairs, g

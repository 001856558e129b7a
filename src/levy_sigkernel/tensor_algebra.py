"""Dense truncated tensor algebra over R^d.

Elements of the truncated algebra are stored level by level: level ``n``
holds the d^n coefficients of all words of length ``n``, flattened with the
base-d positional encoding (see :func:`word_index`).  All operations are
pure functions of immutable inputs that ask nothing of the host (the CPU
count is ``_forks.cpu_count``) and return fresh objects; values may be
shared freely between threads.

:func:`tensor_mul`, :func:`exp_tensor` and :func:`mul_exp` also accept
batches: a level may carry one leading batch axis, shape ``(P, d**n)``, and
a level without it is shared by every batch element (broadcast), so an
all-zero level need not be materialised per element.  Row p of a batched
result is bitwise equal to the single-tensor call on row p.
:func:`adjoint_left`, :func:`flatten` and :func:`unflatten` take the same
batch axis; ``scalar()``, ``+``, ``-``, :func:`inner_product`,
:func:`adjoint_right` and :func:`level_norms` (so :func:`norm_p`) raise
``Unsupported`` on a batch.  A depth or level that is not a nonnegative
integer raises ``InvalidParameter``.

One routine forms every truncated product, on batch-last ``(d**n, P)``
columns: :func:`tensor_mul` sums level pairs into zeros, :func:`mul_exp`
fuses ``s (x) exp(x)`` in Horner form (developments and pathwise
signatures), and :func:`exp_tensor` is ``mul_exp(1, x)``.  Pairs with an
all-zero level are skipped, which leaves finite results unchanged: the
surviving terms are added in the same order as in the dense sum.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np

from .errors import (DimMismatch, InvalidParameter, InvalidWord, ScalarPartError,
                     Unsupported)

__all__ = [
    "TruncatedTensor",
    "LevelNorms",
    "word_index",
    "tensor_mul",
    "inner_product",
    "level_norms",
    "norm_p",
    "max_level_norm",
    "dilate",
    "exp_tensor",
    "mul_exp",
    "log_tensor",
    "adjoint_left",
    "adjoint_right",
    "truncate",
    "flat_size",
    "flatten",
    "unflatten",
]


def word_index(word: Sequence[int], dim: int) -> int:
    """Flat index of a word within its level array.

    The word ``i_1 .. i_n`` (letters in ``1..dim``) sits at
    ``sum_k (i_k - 1) * dim**(n - k)``, i.e. words of equal length are
    ordered lexicographically.
    """
    idx = 0
    for letter in word:
        if not 1 <= letter <= dim:
            raise InvalidWord(f"letter {letter} outside alphabet 1..{dim}")
        idx = idx * dim + (letter - 1)
    return idx


class TruncatedTensor:
    """Element of the level-``depth`` truncated tensor algebra over R^dim.

    ``levels[n]`` is a float64 array of length ``dim**n``, or of shape
    ``(P, dim**n)`` in a batch of P elements (see the module docstring).
    Instances are treated as immutable; operations never mutate their
    arguments.
    """

    __slots__ = ("dim", "depth", "levels")

    def __init__(self, dim: int, levels: list[np.ndarray]):
        self.dim = dim
        self.depth = len(levels) - 1
        self.levels = levels

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, dim: int, depth: int) -> "TruncatedTensor":
        _check_depth(depth)
        return cls(dim, [np.zeros(dim**n) for n in range(depth + 1)])

    @classmethod
    def unit(cls, dim: int, depth: int) -> "TruncatedTensor":
        x = cls.zero(dim, depth)
        x.levels[0][0] = 1.0
        return x

    @classmethod
    def from_word(cls, word: Sequence[int], dim: int, depth: int | None = None,
                  coeff: float = 1.0) -> "TruncatedTensor":
        """Basis element ``coeff * e_w``, optionally padded to ``depth``."""
        n = len(word)
        if depth is None:
            depth = n
        if depth < n:
            raise InvalidParameter("depth smaller than word length")
        x = cls.zero(dim, depth)
        x.levels[n][word_index(word, dim)] = coeff
        return x

    @classmethod
    def from_levels(cls, dim: int, levels: Iterable[np.ndarray | Sequence[float]]) -> "TruncatedTensor":
        """Build from per-level coefficient arrays, validating their sizes."""
        arrays = []
        for n, lev in enumerate(levels):
            arr = np.asarray(lev, dtype=float).ravel()
            if arr.size != dim**n:
                raise InvalidParameter(
                    f"level {n} has {arr.size} entries, expected {dim ** n}")
            if not np.all(np.isfinite(arr)):
                raise InvalidParameter(f"level {n} contains non-finite entries")
            arrays.append(arr.copy())
        return cls(dim, arrays)

    # -- basic accessors ----------------------------------------------

    def coeff(self, word: Sequence[int]) -> float:
        n = len(word)
        if n > self.depth:
            return 0.0
        return float(self.levels[n][word_index(word, self.dim)])

    def scalar(self) -> float:
        """Scalar part of a single tensor; a batch has one per element."""
        _check_single("scalar()", self)
        return float(self.levels[0][0])

    def copy(self) -> "TruncatedTensor":
        return TruncatedTensor(self.dim, [lev.copy() for lev in self.levels])

    def with_depth(self, depth: int) -> "TruncatedTensor":
        """Same element, zero-padded or truncated to the requested depth."""
        _check_depth(depth)
        levels = [self.levels[n].copy() if n <= self.depth else np.zeros(self.dim**n)
                  for n in range(depth + 1)]
        return TruncatedTensor(self.dim, levels)

    # -- arithmetic conveniences ----------------------------------------

    def __add__(self, other: "TruncatedTensor") -> "TruncatedTensor":
        _check_dims(self, other)
        _check_single("+", self, other)
        depth = max(self.depth, other.depth)
        out = self.with_depth(depth)
        for n in range(other.depth + 1):
            out.levels[n] += other.levels[n]
        return out

    def __sub__(self, other: "TruncatedTensor") -> "TruncatedTensor":
        return self + (other * -1.0)

    def __mul__(self, scalar: float) -> "TruncatedTensor":
        return TruncatedTensor(self.dim, [lev * scalar for lev in self.levels])

    __rmul__ = __mul__

    def __repr__(self) -> str:
        return f"TruncatedTensor(dim={self.dim}, depth={self.depth})"


class LevelNorms:
    """Per-level Euclidean norms ``values[n] = |x^(n)|`` of a tensor."""

    __slots__ = ("values",)

    def __init__(self, values: np.ndarray):
        self.values = np.asarray(values, dtype=float)

    def __getitem__(self, n: int) -> float:
        return float(self.values[n])

    def __len__(self) -> int:
        return len(self.values)


def _check_dims(x: TruncatedTensor, y: TruncatedTensor) -> None:
    if x.dim != y.dim:
        raise DimMismatch(f"dim {x.dim} vs {y.dim}")


def _check_depth(depth: int, name: str = "depth") -> None:
    if isinstance(depth, bool) or not isinstance(depth, (int, np.integer)) or depth < 0:
        raise InvalidParameter(f"{name} must be a nonnegative integer, got {depth!r}")


def _check_single(op: str, *tensors: TruncatedTensor) -> None:
    batched = [lev.shape[0] for x in tensors for lev in x.levels if lev.ndim != 1]
    if batched:
        raise Unsupported(f"{op} of a batch of {batched[0]} tensors")


def _batch_shape(*tensors: TruncatedTensor) -> tuple[int, ...]:
    return np.broadcast_shapes(*(lev.shape[:-1] for x in tensors for lev in x.levels))


def tensor_mul(x: TruncatedTensor, y: TruncatedTensor,
               out_depth: int | None = None) -> TruncatedTensor:
    """Truncated tensor (concatenation) product of ``x`` and ``y``.

    Output level n sums ``x^(k) (x) y^(n-k)`` over all stored level pairs,
    in increasing k, into zeros, skipping pairs with an all-zero level;
    levels above ``out_depth`` are dropped.  Batched levels broadcast
    (module docstring).
    """
    _check_dims(x, y)
    if out_depth is None:
        out_depth = max(x.depth, y.depth)
    _check_depth(out_depth, "out_depth")
    d = x.dim
    batch = _batch_shape(x, y)
    x_cols = [_columns(lev) if lev.any() else None for lev in x.levels[:out_depth + 1]]
    y_cols = [_columns(lev) if lev.any() else None for lev in y.levels[:out_depth + 1]]
    q = [np.zeros((d**n, batch[0] if batch else 1)) for n in range(out_depth + 1)]
    for n, acc in enumerate(q):
        for k in range(max(0, n - y.depth), min(n, x.depth) + 1):
            if x_cols[k] is not None and y_cols[n - k] is not None:
                _add_outer(acc, x_cols[k], y_cols[n - k], add=True)
    return _from_columns(d, q, batch)


def _columns(lev: np.ndarray) -> np.ndarray:
    """A level as batch-last columns, ``(d**n, P)`` or shared ``(d**n, 1)``."""
    return lev.reshape(-1, lev.shape[-1]).T


def _from_columns(dim: int, q: list[np.ndarray], batch: tuple[int, ...]) -> TruncatedTensor:
    """The tensor of batch-last levels ``q`` (transposed views in a batch)."""
    if not batch:
        return TruncatedTensor(dim, [lev.reshape(-1) for lev in q])
    return TruncatedTensor(dim, [lev.T for lev in q])


# _add_outer loops over the columns of v on a single tensor when v has at
# most _SHORT_AXIS rows and u at least _LONG_AXIS.  On a 2-core x86 host,
# writing a (2**18, 1) x (1, 2) product into its block takes 1.8-2.0 ms by
# broadcasting and 0.4-0.6 ms by the loop; the two break even near
# len(u) = 256, and below it the loop's per-column calls cost more (2.4
# against 1.1 us at len(u) = 1).  Develop time in the bounds command (kernel-jumps-d2
# triplets, depth 19), seeds 1-3: 72-74 ms with this rule, 77-78 ms with the
# loop at every length, 104-105 ms without it.  cmd_validate took 161-164 ms
# against 168-173 ms with the loop at every length.  The loop also serves
# single tensor_mul products (a depth-10 tensor times a level 1 at d = 2).
_SHORT_AXIS = 4
_LONG_AXIS = 512


def _add_outer(acc: np.ndarray, u: np.ndarray, v: np.ndarray, add: bool) -> None:
    """``acc += u (x) v`` in place, or ``acc = u (x) v`` unless ``add``: the
    one place where a truncated product is formed, for :func:`tensor_mul`
    and for the Horner steps of :func:`mul_exp`.

    The operands are batch-last columns: ``u`` of shape ``(a, w)``, ``v`` of
    shape ``(b, w)`` and ``acc`` of shape ``(a * b, W)``, where a width-1
    operand is shared by all W columns.  On a single tensor (W = 1) a short
    ``v`` (at most ``_SHORT_AXIS`` rows) against a long ``u`` (at least
    ``_LONG_AXIS``) is looped over, so that numpy runs along the long axis
    without broadcasting a temporary of the whole block; a batch runs along
    its batch axis.  Each entry takes one product, and one addition if
    ``add``, either way, so the two forms agree bit for bit.
    """
    block = acc.reshape(len(u), len(v), acc.shape[-1])
    if acc.shape[-1] == 1 and len(v) <= _SHORT_AXIS and len(u) >= _LONG_AXIS:
        for c, vc in enumerate(v):
            if add:
                block[:, c] += u * vc
            else:
                np.multiply(u, vc, out=block[:, c])
    elif add:
        block += u[:, None] * v[None]
    else:
        np.multiply(u[:, None], v[None], out=block)


def mul_exp(s: TruncatedTensor, x: TruncatedTensor) -> TruncatedTensor:
    """``s (x) exp(x)`` for a zero-scalar x, truncated at ``s.depth``.

    Left Horner form: starting from ``q = s^0``, ``q <- s + q (x) x/k`` for
    k = depth down to 1, so that no exponential and no full product is
    formed.  Step k keeps only levels <= depth - k + 1 of q (the k - 1
    later steps append at least one letter each), all-zero levels of x are
    skipped, and x is scaled as ``x.levels[j] / k``.  Output level n sums,
    in increasing j, the products ``p_j = q^(n-j) (x) x^j / k`` onto
    ``s^n``, as ``((p_1 + s^n) + p_2) + ...``, which is ``((s^n + p_1) +
    p_2) + ...`` bit for bit.  Against ``tensor_mul(s, exp_tensor(x))`` it
    agrees to rounding.  Levels of x above ``s.depth`` are ignored.

    s and x may carry a leading batch axis (module docstring); row p of the
    result is bitwise equal to the call on row p.  The work runs with the
    batch axis last (:func:`_mul_exp_into`), where numpy's inner loops are
    long, so the batched levels of the result are transposed views.
    """
    _check_dims(s, x)
    if x.levels[0].any():
        raise ScalarPartError("the exponent x must have a zero scalar part")
    batch = _batch_shape(s, x)
    live = [(j, _columns(x.levels[j])) for j in range(1, min(x.depth, s.depth) + 1)
            if x.levels[j].any()]
    q = [np.empty((s.dim**n, batch[0] if batch else 1)) for n in range(s.depth + 1)]
    _mul_exp_into([_columns(lev) for lev in s.levels], live, q)
    return _from_columns(s.dim, q, batch)


def _mul_exp_into(s_cols: list[np.ndarray], x_cols: list[tuple[int, np.ndarray]],
                  q: list[np.ndarray]) -> None:
    """The Horner steps of :func:`mul_exp` on batch-last columns, into ``q``.

    ``s_cols[n]`` has shape ``(d**n, w)`` and ``x_cols`` lists the live
    levels ``(j, x^j)`` of x, each of shape ``(d**j, w)``, in increasing j;
    w is the batch width W or 1 (shared).  ``q[n]``, of shape ``(d**n, W)``
    for n = 0..depth, receives the result and must not overlap the inputs.
    Each step overwrites q in place from the top level down: level n reads
    only levels below n of the previous step, so no level is allocated
    twice.
    """
    depth = len(q) - 1
    q[0][...] = s_cols[0]
    for k in range(depth, 0, -1):
        top = depth - k + 1
        scaled = [(j, xj / k) for j, xj in x_cols if j <= top]
        for n in range(top, 0, -1):
            terms = [(q[n - j], xj) for j, xj in scaled if j <= n]
            acc = q[n]
            if terms:
                _add_outer(acc, *terms[0], add=False)
                acc += s_cols[n]
            else:
                acc[...] = s_cols[n]
            for u, xj in terms[1:]:
                _add_outer(acc, u, xj, add=True)


def inner_product(x: TruncatedTensor, y: TruncatedTensor) -> float:
    """Dual pairing: sum of coefficient products over common words."""
    _check_dims(x, y)
    _check_single("inner_product", x, y)
    depth = min(x.depth, y.depth)
    return float(sum(np.dot(x.levels[n], y.levels[n]) for n in range(depth + 1)))


def level_norms(x: TruncatedTensor) -> LevelNorms:
    """Euclidean norm of each level, ``np.linalg.norm``'s bits.  Where that
    squares past the float range, to ``inf`` or to 0 on a nonzero level,
    the level is scaled by its largest entry first, so a norm is ``inf``
    or 0 only where its value is."""
    _check_single("level_norms", x)
    with np.errstate(over="ignore"):
        return LevelNorms(np.array([_level_norm(lev) for lev in x.levels]))


def _level_norm(lev: np.ndarray) -> float:
    norm = np.linalg.norm(lev)
    if norm == math.inf or (norm == 0.0 and lev.any()):
        top = np.abs(lev).max()
        if top < math.inf:
            norm = top * np.linalg.norm(lev / top)
    return norm


def norm_p(x: TruncatedTensor, p: float | str = 1.0) -> float:
    """The p-summability norm ``(sum_n |x^(n)|^p)^(1/p)`` over stored levels.

    ``p="max"`` (or ``math.inf``) returns the maximum level norm instead.
    Other p are summed relative to the largest level norm, so that no power
    under- or overflows where the norm itself is a finite positive float.
    """
    norms = level_norms(x).values
    if isinstance(p, str) and p != "max":
        raise InvalidParameter(f"unknown norm mode {p!r}")
    top = norms.max()
    if p == "max" or p == math.inf:
        return float(top)
    if not p >= 1:
        raise InvalidParameter(f"p must be >= 1, got {p!r}")
    if p == 1 or not 0.0 < top < math.inf:
        return float(norms.sum())
    return float(top * ((norms / top) ** p).sum() ** (1.0 / p))


def max_level_norm(x: TruncatedTensor) -> float:
    """Maximum level norm, the topology-defining norm on the truncated algebra."""
    return norm_p(x, "max")


def dilate(x: TruncatedTensor, lam: float) -> TruncatedTensor:
    """Grading automorphism: level n is scaled by ``lam**n``."""
    return TruncatedTensor(x.dim, [lev * lam**n for n, lev in enumerate(x.levels)])


def exp_tensor(x: TruncatedTensor) -> TruncatedTensor:
    """Tensor exponential of a zero-scalar element (finite sum at fixed
    depth): ``mul_exp(1, x)``.  Batched x gives a batched result."""
    return mul_exp(TruncatedTensor.unit(x.dim, x.depth), x)


def log_tensor(x: TruncatedTensor) -> TruncatedTensor:
    """Tensor logarithm of a unit-scalar element."""
    if x.scalar() != 1.0:
        raise ScalarPartError("log_tensor requires scalar part 1")
    depth = x.depth
    y = x.copy()
    y.levels[0][0] = 0.0
    term = y
    out = y.copy()
    for n in range(2, depth + 1):
        term = tensor_mul(term, y, depth)
        sign = 1.0 if n % 2 else -1.0
        for m in range(depth + 1):
            out.levels[m] += (sign / n) * term.levels[m]
    return out


def adjoint_left(x: TruncatedTensor, z: TruncatedTensor) -> TruncatedTensor:
    """Adjoint of left multiplication: coefficient at w is sum_v x^v z^{vw}.

    Only stored levels contribute; callers needing the exact duality
    ``<z, x (x) y> = <adjoint_left(x, z), y>`` must allocate
    ``z.depth >= x.depth + y.depth``.  Either factor may carry a batch axis
    (module docstring); each row is its own vector-matrix product, so row p
    of the result is bitwise equal to the call on row p.
    """
    _check_dims(x, z)
    d = x.dim
    batch = _batch_shape(x, z)
    out = TruncatedTensor(d, [np.zeros(batch + (d**n,)) for n in range(z.depth + 1)])
    for k in range(min(x.depth, z.depth) + 1):
        xk = x.levels[k]
        if not xk.any():
            continue
        for n in range(k, z.depth + 1):
            zn = z.levels[n]
            zn = zn.reshape(zn.shape[:-1] + (d**k, d**(n - k)))
            out.levels[n - k] += np.matmul(xk[..., None, :], zn)[..., 0, :]
    return out


def adjoint_right(y: TruncatedTensor, z: TruncatedTensor) -> TruncatedTensor:
    """Adjoint of right multiplication: coefficient at w is sum_v y^v z^{wv}."""
    _check_dims(y, z)
    _check_single("adjoint_right", y, z)
    d = y.dim
    out = TruncatedTensor.zero(d, z.depth)
    for k in range(min(y.depth, z.depth) + 1):
        yk = y.levels[k]
        if not yk.any():
            continue
        for n in range(k, z.depth + 1):
            m = n - k
            if k == 0:
                out.levels[m] += yk[0] * z.levels[n]
            else:
                out.levels[m] += z.levels[n].reshape(d**m, d**k) @ yk
    return out


def truncate(x: TruncatedTensor, depth: int) -> TruncatedTensor:
    """Drop all levels above ``depth`` (no-op above the stored depth)."""
    _check_depth(depth)
    return TruncatedTensor(x.dim, [x.levels[n].copy()
                                   for n in range(min(depth, x.depth) + 1)])


# -- flat coefficient layout (used by the PDE solver) ------------------


def flat_size(dim: int, depth: int) -> int:
    _check_depth(depth)
    if dim == 1:
        return depth + 1
    return (dim ** (depth + 1) - 1) // (dim - 1)


def flatten(x: TruncatedTensor, depth: int) -> np.ndarray:
    """Concatenate levels 0..depth into one vector (zero-padded), or into
    one row per element of a batch (module docstring)."""
    _check_depth(depth)
    batch = _batch_shape(x)
    parts = [np.broadcast_to(x.levels[n], batch + (x.dim**n,)) if n <= x.depth
             else np.zeros(batch + (x.dim**n,)) for n in range(depth + 1)]
    return np.concatenate(parts, axis=-1)


def unflatten(vec: np.ndarray, dim: int, depth: int) -> TruncatedTensor:
    """Inverse of :func:`flatten`, for one vector or a batch of rows."""
    _check_depth(depth)
    vec = np.asarray(vec, dtype=float)
    if vec.ndim == 0 or vec.shape[-1] != flat_size(dim, depth):
        raise InvalidParameter("vector length does not match dim/depth")
    levels, pos = [], 0
    for n in range(depth + 1):
        levels.append(vec[..., pos:pos + dim**n].copy())
        pos += dim**n
    return TruncatedTensor(dim, levels)


"""Exact integer linear algebra over lattices.

One matrix is carried as a 2-D numpy array of ``dtype=object`` holding
Python ints, so every computation in this module is exact.  There are two
exact algorithms: the Smith normal form, from which ranks, cokernel
torsion, solution sets of ``M x in Z^m`` and restrictions to sublattices
are read off, and fraction-free (Bareiss) elimination for determinants.
Both also take a (k, m, n) stack, reduced in lockstep in int64 with
every step bounded first, so past the int64 range they raise
OverflowError instead of wrapping.
Coset representatives are enumerated as int64 numerators over one common
denominator; Fractions appear only when they are handed out as rational
points.

It also owns every conversion into exact integers (:func:`int_array`,
:func:`as_matrix`, ``_as_int``, ``_exact``) and the one int64 product
bound (:func:`int_matmul`): nothing is truncated or wrapped.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import prod

import numpy as np

__all__ = [
    "InfiniteSolutionSetError",
    "FiniteAbelianGroup",
    "SmithDecomposition",
    "Matrix",
    "int_array",
    "as_matrix",
    "int_matmul",
    "intmat",
    "zeros",
    "smith_normal_form",
    "rank",
    "cokernel",
    "solve_mod_lattice",
    "in_image_lattice",
    "det",
    "restrict_to_sublattice",
]


INT64_MAX = int(np.iinfo(np.int64).max)

Matrix = tuple[tuple[int, ...], ...]


class InfiniteSolutionSetError(ValueError):
    """Raised when a point enumeration is requested but the transverse
    solution set is a positive-dimensional family."""


def _exact(x):
    """x as a Python int when integral, else as a Fraction (1.5 stays 3/2);
    ValueError unless x is a rational number."""
    if isinstance(x, (int, np.integer)):
        return int(x)
    try:
        q = Fraction(None if isinstance(x, str) else x)  # Fraction parses strings
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"expected a rational number, got {x!r}") from exc
    return q.numerator if q.denominator == 1 else q


def _as_int(x) -> int:
    """x as a Python int; ValueError unless x is an integer value, so 1.5
    or Fraction(3, 2) is rejected, not truncated."""
    if type(x) is int:
        return x
    i = _exact(x)
    if type(i) is not int:
        raise ValueError(f"expected an integer, got {x!r}")
    return i


def int_array(a, dtype=np.int64) -> np.ndarray:
    """a (nested sequences or an array of integer values) as an array of
    the integer dtype.  A non-integral entry raises ValueError and one
    outside +-iinfo(dtype).max OverflowError; the bound is symmetric, so
    -128 fails int8 and negation never wraps.  A narrower integer dtype
    only widens, so it skips the range scan."""
    arr = np.asarray(a)
    size = np.dtype(dtype).itemsize
    if arr.dtype.kind in "iu" and arr.dtype.itemsize < size:
        return arr.astype(dtype)
    limit = (1 << (8 * size - 1)) - 1  # iinfo(dtype).max
    if arr.dtype.kind not in "iu":
        arr = np.array([_as_int(x) for x in arr.flat], dtype=object).reshape(arr.shape)
    if arr.size and not -limit <= int(arr.min()) <= int(arr.max()) <= limit:
        raise OverflowError(f"integer entry outside +-{limit}")
    return arr.astype(dtype)


def as_matrix(m) -> Matrix:
    """m as a tuple of tuples of Python ints, checked by int_array."""
    return tuple(map(tuple, int_array(m).tolist()))


def _max_abs(a: np.ndarray) -> int:
    """The largest absolute entry of an integer array, at least 1, in
    Python ints (np.abs would wrap -2^63)."""
    return max(1, -int(a.min(initial=0)), int(a.max(initial=0)))


def int_matmul(a, b) -> np.ndarray:
    """a @ b in int64 (stacks broadcast), exactly.  An int64 operand is
    used as it is and any other goes through :func:`int_array`; the
    largest entry the product or a partial sum can reach, at most
    k max|a| max|b| for an inner dimension k, is bounded first, and past
    the int64 range this raises OverflowError instead of wrapping."""
    a, b = (x if isinstance(x, np.ndarray) and x.dtype == np.int64 else int_array(x)
            for x in (a, b))
    if a.shape[-1] * _max_abs(a) * _max_abs(b) > INT64_MAX:
        raise OverflowError("integer product could pass the int64 range")
    return a @ b


def intmat(rows) -> np.ndarray:
    """Build an immutable exact integer matrix from nested sequences."""
    arr = np.array(rows, dtype=object)
    if arr.ndim != 2:
        raise ValueError("expected a 2-D array of integers")
    out = np.array([[_as_int(x) for x in row] for row in arr], dtype=object)
    return _freeze(out.reshape(arr.shape))


def zeros(m: int, n: int) -> np.ndarray:
    return intmat(np.zeros((m, n), dtype=int))


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class FiniteAbelianGroup:
    """Finite abelian group as an invariant-factor chain d1 | d2 | ...

    The empty chain is the trivial group.
    """

    invariant_factors: tuple[int, ...] = ()

    def __post_init__(self):
        fs = tuple(_as_int(f) for f in self.invariant_factors)
        object.__setattr__(self, "invariant_factors", fs)
        for f in fs:
            if f < 2:
                raise ValueError("invariant factors must be >= 2")
        for a, b in zip(fs, fs[1:]):
            if b % a != 0:
                raise ValueError("each invariant factor must divide the next")

    @property
    def order(self) -> int:
        n = 1
        for f in self.invariant_factors:
            n *= f
        return n

    @property
    def is_trivial(self) -> bool:
        return not self.invariant_factors

    def __str__(self) -> str:
        if self.is_trivial:
            return "trivial"
        return " x ".join(f"Z/{f}" for f in self.invariant_factors)


@dataclass(frozen=True)
class SmithDecomposition:
    """Unimodular U, V and diagonal D with U @ M @ V = D and d1 | d2 | ...

    v_inv is the exact inverse of V, kept in step with the column
    operations that build V, so no separate inversion is needed.
    diagonal and rank are computed on first access and kept.  For a
    (k, m, n) stack every field is a stack of int64 arrays, diagonal is a
    (k, min(m, n)) array and rank a (k,) array.
    """

    u: np.ndarray
    d: np.ndarray
    v: np.ndarray
    v_inv: np.ndarray

    @cached_property
    def diagonal(self):
        diag = np.diagonal(self.d, axis1=-2, axis2=-1)
        return diag if self.d.ndim == 3 else tuple(int(x) for x in diag)

    @cached_property
    def rank(self):
        if self.d.ndim == 3:
            return np.count_nonzero(self.diagonal, axis=1)
        return sum(1 for x in self.diagonal if x != 0)


def smith_normal_form(mat) -> SmithDecomposition:
    """Smith normal form with transform matrices.

    Uses smallest-nonzero-absolute-value pivoting, first in row-major
    order, which keeps intermediate entries small at the ranks this
    library works at.  Total function: any rectangular integer matrix is
    accepted.  One matrix is reduced in Python ints by a list-based loop;
    a (k, m, n) stack is reduced by :func:`_smith_stack`, all k matrices
    in lockstep in int64, each slice by the same steps as one matrix.
    The choice is made by input ndim: for one small matrix the loop is
    several times faster, for a whole group the lockstep is.
    """
    a = mat if isinstance(mat, np.ndarray) else np.asarray(mat, dtype=object)
    if a.ndim == 3:
        return _smith_stack(int_array(a))
    if a.ndim != 2:
        raise ValueError("expected a 2-D matrix or a stack of them")
    m, n = a.shape
    work = [[_as_int(x) for x in row] for row in a.tolist()]
    u = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    v = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    v_inv = [row[:] for row in v]

    def swap_rows(i, j):
        work[i], work[j] = work[j], work[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in work:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]
        v_inv[i], v_inv[j] = v_inv[j], v_inv[i]

    def negate_row(i):
        work[i] = [-x for x in work[i]]
        u[i] = [-x for x in u[i]]

    def add_row(src, dst, q):
        # row_dst += q * row_src
        wsrc, wdst = work[src], work[dst]
        for k in range(n):
            wdst[k] += q * wsrc[k]
        usrc, udst = u[src], u[dst]
        for k in range(m):
            udst[k] += q * usrc[k]

    def add_col(src, dst, q):
        # col_dst += q * col_src, so row_src of V^-1 loses q * row_dst
        for row in work:
            row[dst] += q * row[src]
        for row in v:
            row[dst] += q * row[src]
        vsrc, vdst = v_inv[src], v_inv[dst]
        for k in range(n):
            vsrc[k] -= q * vdst[k]

    def pivot_position(t):
        best = None
        for i in range(t, m):
            for j in range(t, n):
                x = work[i][j]
                if x != 0 and (best is None or abs(x) < abs(work[best[0]][best[1]])):
                    best = (i, j)
        return best

    t = 0
    while t < min(m, n):
        pos = pivot_position(t)
        if pos is None:
            break
        swap_rows(t, pos[0])
        swap_cols(t, pos[1])
        while True:
            if work[t][t] < 0:
                negate_row(t)
            p = work[t][t]
            dirty = False
            for i in range(t + 1, m):
                if work[i][t] != 0:
                    add_row(t, i, -(work[i][t] // p))
                    dirty = dirty or work[i][t] != 0
            for j in range(t + 1, n):
                if work[t][j] != 0:
                    add_col(t, j, -(work[t][j] // p))
                    dirty = dirty or work[t][j] != 0
            if dirty:
                pos = pivot_position(t)
                swap_rows(t, pos[0])
                swap_cols(t, pos[1])
                continue
            # cross is clear; enforce divisibility of the remaining block
            culprit = None
            for i in range(t + 1, m):
                for j in range(t + 1, n):
                    if work[i][j] % p != 0:
                        culprit = i
                        break
                if culprit is not None:
                    break
            if culprit is None:
                break
            add_row(culprit, t, 1)
        t += 1

    return SmithDecomposition(
        _freeze(np.array(u, dtype=object).reshape(m, m)),
        _freeze(np.array(work, dtype=object).reshape(m, n)),
        _freeze(np.array(v, dtype=object).reshape(n, n)),
        _freeze(np.array(v_inv, dtype=object).reshape(n, n)),
    )


def _add_product(dst: np.ndarray, a: np.ndarray, b: np.ndarray) -> None:
    """dst += a @ b in int64 in place, bounded first: past the int64 range
    this raises OverflowError instead of wrapping."""
    if _max_abs(dst) + a.shape[-1] * _max_abs(a) * _max_abs(b) > INT64_MAX:
        raise OverflowError("integer elimination could pass the int64 range")
    dst += a @ b


def _smith_stack(a: np.ndarray) -> SmithDecomposition:
    """The Smith forms of a (k, m, n) int64 stack, all k in lockstep.

    Each slice takes the steps of the one-matrix loop of
    :func:`smith_normal_form` in the same order, so its U, D, V, V^-1
    are the same.  Each pass of the loop at pivot t is taken by the
    slices still reducing there, gathered into one stack.  D and U share
    their rows and D and V their columns in one array [[D, U], [V, 0]],
    so a row step updates D and U and a column step D and V at once.
    Every step is bounded by :func:`_add_product`.
    """
    k, m, n = a.shape
    big = np.zeros((k, m + n, n + m), dtype=np.int64)
    big[:, :m, :n], big[:, :m, n:], big[:, m:, :n] = a, np.eye(m), np.eye(n)
    v_inv = np.zeros((k, n, n), dtype=np.int64) + np.eye(n, dtype=np.int64)
    for t in range(min(m, n)):
        live = np.flatnonzero(big[:, t:m, t:n].any(axis=(1, 2)))
        repivot = np.ones(len(live), dtype=bool)  # the slices that need a pivot
        while len(live):
            g, vi = big[live], v_inv[live]
            w = g[:, :m, :n]
            # move the smallest nonzero |x| of the block, first in
            # row-major order, to (t, t)
            block = w[repivot, t:, t:]
            key = np.where(block == 0, np.iinfo(np.uint64).max, np.abs(block).astype(np.uint64))
            i, j = np.divmod(key.reshape(len(block), (m - t) * (n - t)).argmin(axis=1), n - t)
            sel = np.flatnonzero(repivot)
            g[sel, t], g[sel, i + t] = g[sel, i + t], g[sel, t]
            g[sel, :, t], g[sel, :, j + t] = g[sel, :, j + t], g[sel, :, t]
            vi[sel, t], vi[sel, j + t] = vi[sel, j + t], vi[sel, t]
            g[w[:, t, t] < 0, t] *= -1
            p = w[:, t, t, None]
            _add_product(g[:, t + 1:m], -(w[:, t + 1:, t, None] // p[:, :, None]), g[:, t:t + 1])
            cols = -(w[:, t, None, t + 1:] // p[:, :, None])
            _add_product(g[:, :, t + 1:n], g[:, :, t:t + 1], cols)
            # column t + 1 + j gained q_j column t, so row t of V^-1 loses q_j row t + 1 + j
            _add_product(vi[:, t:t + 1], -cols, vi[:, t + 1:])
            repivot = w[:, t + 1:, t].any(axis=1) | w[:, t, t + 1:].any(axis=1)
            # cross clear: add the first row with a block entry p does not divide (p = 1 divides all)
            keep = repivot.copy()
            c = np.flatnonzero(~repivot & (p[:, 0] > 1))
            bad = (w[c, t + 1:, t + 1:] % p[c, :, None] != 0).any(axis=2)
            c, bad = c[bad.any(axis=1)], bad[bad.any(axis=1)]
            if len(c):
                if 2 * _max_abs(g) > INT64_MAX:
                    raise OverflowError("integer elimination could pass the int64 range")
                g[c, t] += g[c, bad.argmax(axis=1) + t + 1]
                keep[c] = True
            big[live], v_inv[live] = g, vi
            live, repivot = live[keep], repivot[keep]
    return SmithDecomposition(
        *(_freeze(np.ascontiguousarray(x))
          for x in (big[:, :m, n:], big[:, :m, :n], big[:, m:, :n], v_inv))
    )


def rank(mat) -> int:
    return smith_normal_form(mat).rank


def cokernel(mat) -> tuple[int, FiniteAbelianGroup]:
    """Cokernel of M : Z^cols -> Z^rows as (free rank, torsion)."""
    a = np.asarray(mat, dtype=object)
    snf = smith_normal_form(a)
    m, _ = a.shape
    free_rank = m - snf.rank
    torsion = tuple(int(x) for x in snf.diagonal if x not in (0, 1))
    return free_rank, FiniteAbelianGroup(torsion)


def det(mat):
    """Exact determinant by fraction-free (Bareiss) elimination.

    One matrix is reduced in Python ints.  A (k, d, d) stack goes to
    :func:`_det_stack` and gives a (k,) int64 array.
    """
    a = mat if isinstance(mat, np.ndarray) else np.asarray(mat, dtype=object)
    if a.ndim == 3:
        return _det_stack(int_array(a))
    m, n = a.shape
    if m != n:
        raise ValueError("determinant requires a square matrix")
    if n == 0:
        return 1
    w = [[_as_int(x) for x in row] for row in a.tolist()]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if w[k][k] == 0:
            for i in range(k + 1, n):
                if w[i][k] != 0:
                    w[k], w[i] = w[i], w[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                w[i][j] = (w[i][j] * w[k][k] - w[i][k] * w[k][j]) // prev
            w[i][k] = 0
        prev = w[k][k]
    return sign * w[n - 1][n - 1]


def _det_stack(a: np.ndarray) -> np.ndarray:
    """Determinants of a (k, d, d) int64 stack by Bareiss in lockstep.

    Every entry Bareiss forms is a minor, so it is at most the Hadamard
    bound H = prod_i max(1, |row_i|), and every product it takes at most
    H^2.  2 H^2 <= 2^62 is checked before the first step (in floating
    point; the factor 2 covers its rounding), else OverflowError.  A slice
    with no pivot in its column has determinant 0; its remaining block is
    set to the identity so that it rides along without dividing by zero.
    """
    k, n, _ = a.shape
    rows = np.maximum((a.astype(np.float64) ** 2).sum(axis=2), 1.0)
    if 2.0 * np.prod(rows, axis=1).max(initial=1.0) > 2.0 ** 62:
        raise OverflowError("determinant could pass the int64 range")
    w, s = a.copy(), np.arange(k)
    sign, prev, alive = np.ones(k, dtype=np.int64), np.ones(k, dtype=np.int64), np.ones(k, dtype=bool)
    for j in range(n - 1):
        nonzero = w[:, j:, j] != 0
        alive &= nonzero.any(axis=1)
        w[~alive, j:, j:], prev[~alive] = np.eye(n - j, dtype=np.int64), 1
        i = nonzero.argmax(axis=1) + j  # first pivot row at or below j
        w[s, j], w[s, i] = w[s, i], w[s, j]
        sign[i != j] *= -1
        pivot = w[:, j, j].copy()
        w[:, j + 1:, j + 1:] = (w[:, j + 1:, j + 1:] * pivot[:, None, None]
                                - w[:, j + 1:, j:j + 1] * w[:, j:j + 1, j + 1:]) // prev[:, None, None]
        prev = pivot
    return np.where(alive, sign * w[:, -1, -1], 0) if n else np.ones(k, dtype=np.int64)


def restrict_to_sublattice(mat, basis) -> np.ndarray:
    """Exact integer matrix R with basis @ R = mat @ basis, for one matrix
    or a (k, n, n) stack of them.

    Solved through the Smith form U B V = D of the n x d basis B, taken
    once for the whole stack.  B must be saturated (every d_i = 1, as for
    the columns of a unimodular matrix); then B R = A B holds exactly when
    D V^-1 R = U A B, so the rows d and beyond of U A B must vanish and
    R = V (U A B)[:d], and B R = A B is checked in Python ints.  The result
    is (d, d), or (k, d, d) for a stack, of Python ints.  Raises ValueError
    when the basis does not have full column rank or is not saturated, or
    a matrix does not preserve its span.
    """
    b = np.asarray(basis, dtype=object)
    a = np.asarray(mat, dtype=object)
    d = b.shape[1]
    snf = smith_normal_form(b)
    if snf.rank < d:
        raise ValueError("basis does not have full column rank")
    if max(snf.diagonal, default=1) > 1:
        raise ValueError("basis spans a sublattice that is not saturated")
    ab = a @ b
    image = snf.u @ ab
    if (image[..., d:, :] != 0).any():
        raise ValueError("matrix does not preserve the sublattice span")
    num = snf.v @ image[..., :d, :]
    if not np.array_equal(b @ num, ab):
        raise ValueError("matrix does not preserve the sublattice span")
    return _freeze(num)


def in_image_lattice(snf: SmithDecomposition, vec) -> bool:
    """Whether an integer vector lies in the image lattice M Z^n, for the
    Smith decomposition of M."""
    b = [Fraction(x) for x in vec]
    if any(x.denominator != 1 for x in b):
        return False
    ub = snf.u @ np.array([int(x) for x in b], dtype=object)
    diag = snf.diagonal
    m = snf.d.shape[0]
    for i in range(m):
        di = diag[i] if i < len(diag) else 0
        if di == 0:
            if ub[i] != 0:
                return False
        elif ub[i] % di != 0:
            return False
    return True


def solve_mod_lattice(mat, *, modulo_kernel: bool = True) -> list[tuple[Fraction, ...]]:
    """Rational coset representatives of {x : M x in Z^m}, from the Smith
    form of M.

    With ``modulo_kernel=True`` the cosets are taken modulo (Q-kernel of M)
    + Z^n and the list is always finite, one representative per coset,
    entries reduced to [0, 1).  With ``modulo_kernel=False`` genuine points
    modulo Z^n are requested and a nonzero Q-kernel raises
    :class:`InfiniteSolutionSetError`.  The list is sorted.
    """
    snf = smith_normal_form(mat)
    return _as_fractions(*_coset_numerators(snf, modulo_kernel=modulo_kernel))


def _coset_numerators(snf: SmithDecomposition, *,
                      modulo_kernel: bool) -> tuple[np.ndarray, int]:
    """The cosets of solve_mod_lattice as numerators over one denominator.

    Returns (X, q): q is the largest invariant factor d_r of the Smith form
    U M V = D of rank r (1 when r = 0), and X is an n x k int64 array with
    entries in [0, q), one column per coset, the columns in lexicographic
    order.  y = V^-1 x must satisfy d_i y_i in Z, so y_i = k_i (q / d_i) / q
    for 0 <= k_i < d_i and q x = V[:, :r] (k_i q / d_i) mod q, one
    :func:`int_matmul` product: past the int64 range it raises
    OverflowError instead of wrapping.
    """
    r, n = snf.rank, snf.v.shape[0]
    if not modulo_kernel and r < n:
        raise InfiniteSolutionSetError(
            "solution set is positive-dimensional transverse to Z^n"
        )
    steps, q = _coset_steps(snf.diagonal[:r])
    x = int_matmul(snf.v[:, :r], steps) % q
    return x[:, np.lexsort(x[::-1])], q


def _coset_steps(diag) -> tuple[np.ndarray, int]:
    """(S, q) for nonzero invariant factors d_1 | ... | d_r: q = d_r (1
    when r = 0) and S the r x prod(d) int64 columns k_i q / d_i over all
    0 <= k_i < d_i, so that the coset numerators are V[:, :r] S mod q."""
    diag = tuple(int(x) for x in diag)
    q = max(diag, default=1)
    steps = np.indices(diag, dtype=np.int64).reshape(len(diag), prod(diag))
    return steps * np.array([q // di for di in diag], dtype=np.int64).reshape(-1, 1), q


def _as_fractions(x: np.ndarray, q: int) -> list[tuple[Fraction, ...]]:
    """The columns of the numerators x over q as tuples of Fractions."""
    frac = {v: Fraction(v, q) for v in np.unique(x).tolist()}
    return [tuple(frac[v] for v in col) for col in x.T.tolist()]

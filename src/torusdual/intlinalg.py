"""Exact integer linear algebra over lattices.

Two exact integer eliminations, one implementation each, on int64
stacks: the Smith normal form, from which ranks, cokernel torsion,
solution sets of ``M x in Z^m`` and restrictions to sublattices are
read off, and the determinant by fraction-free elimination (Bareiss,
Math. Comp. 22, 1968).  A (k, m, n) stack is reduced in lockstep and
one matrix is its k = 1 slice; every step is bounded first, so past the
int64 range they raise OverflowError instead of wrapping.  Coset
representatives are enumerated as int64 numerators over one common
denominator; Fractions appear only when they are handed out as rational
points.

It owns the one integer-matrix format, checked int64 arrays (read-only
where returned; tuples only as hashable data), with every conversion
into it (:func:`int_array`, :func:`as_matrix`, ``_as_int``, ``_exact``),
the one int64 product bound (:func:`int_matmul`) and the one
breadth-first :func:`closure`, of root systems and Weyl groups alike.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import prod

import numpy as np

__all__ = [
    "GroupTooLargeError",
    "InfiniteSolutionSetError",
    "FiniteAbelianGroup",
    "SmithDecomposition",
    "Matrix",
    "int_array",
    "as_matrix",
    "int_matmul",
    "closure",
    "smith_normal_form",
    "cokernel",
    "solve_mod_lattice",
    "in_image_lattice",
    "det",
    "restrict_to_sublattice",
]


INT64_MAX = int(np.iinfo(np.int64).max)

Matrix = tuple[tuple[int, ...], ...]


class GroupTooLargeError(RuntimeError):
    """Closure exceeded the configured cap on its number of elements."""


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


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def _keys(mats: np.ndarray) -> list[bytes]:
    """Hash keys of a stack of matrices: the bytes of each one."""
    flat = np.ascontiguousarray(mats).reshape(len(mats), mats.shape[1] * mats.shape[2])
    return flat.view(np.dtype((np.void, flat.shape[1] * flat.itemsize))).ravel().tolist()


def closure(start, gens, cap: int) -> np.ndarray:
    """The orbit of a (s, a, b) start stack under right multiplication by a
    (g, b, b) generator stack, breadth first: each level multiplies its
    whole frontier by every generator (frontier-major) and keeps the
    products not seen before, in first-seen order.

    Products are checked by :func:`int_matmul` and cast back into the
    start's dtype by :func:`int_array`, so past its range this raises
    OverflowError instead of wrapping.  Returns the elements as one
    (N, a, b) array of that dtype, its rows distinct; GroupTooLargeError
    once N would pass cap.  The elements seen so far are kept as a set
    of their bytes, for the duplicate test only.
    """
    seen: set[bytes] = set()
    gens, levels, stack = int_array(gens), [], start
    while len(stack):
        fresh = []
        for i, key in enumerate(_keys(stack)):
            if key not in seen:
                seen.add(key)
                fresh.append(i)
                if len(seen) > cap:
                    raise GroupTooLargeError(f"closure exceeded the cap of {cap} elements")
        levels.append(stack[fresh])
        stack = int_array(int_matmul(levels[-1][:, None], gens), start.dtype)
        stack = stack.reshape(-1, *start.shape[1:])
    return np.concatenate(levels)


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
    operations that build V, so no separate inversion is needed.  The
    factors are int64 arrays.  diagonal and rank are computed on first
    access and kept: for one matrix a tuple of ints and an int, for a
    (k, m, n) stack a (k, min(m, n)) array and a (k,) array.
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
    """Smith normal form with transform matrices, of one integer matrix
    or of a (k, m, n) stack of them.

    Uses smallest-nonzero-absolute-value pivoting, first in row-major
    order, which keeps intermediate entries small at the ranks this
    library works at.  Total function: any rectangular integer matrix is
    accepted.  A stack is reduced by :func:`_smith_stack`, all k matrices
    in lockstep in int64; one matrix is its k = 1 slice.  Past the int64
    range this raises OverflowError instead of wrapping.
    """
    a = int_array(mat)
    if a.ndim == 2:
        return SmithDecomposition(*(x[0] for x in _smith_stack(a[None])))
    if a.ndim != 3:
        raise ValueError("expected a 2-D matrix or a stack of them")
    return SmithDecomposition(*_smith_stack(a))


def _add_product(dst: np.ndarray, a: np.ndarray, b: np.ndarray) -> None:
    """dst += a @ b in int64 in place, bounded first: past the int64 range
    this raises OverflowError instead of wrapping."""
    if _max_abs(dst) + a.shape[-1] * _max_abs(a) * _max_abs(b) > INT64_MAX:
        raise OverflowError("integer elimination could pass the int64 range")
    dst += a @ b


def _smith_stack(a: np.ndarray) -> tuple[np.ndarray, ...]:
    """(U, D, V, V^-1) of a (k, m, n) int64 stack, all k in lockstep.

    At pivot t a slice moves its smallest nonzero block entry to (t, t),
    clears row and column t by floor-quotient steps, and repeats until
    the cross is clear; then, unless the pivot divides the remaining
    block, it adds the first row holding an entry the pivot does not
    divide to row t and goes on.  Each pass of that loop is taken by the
    slices still reducing at t, gathered into one stack.  D and U share
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
    return tuple(_freeze(np.ascontiguousarray(x))
                 for x in (big[:, :m, n:], big[:, :m, :n], big[:, m:, :n], v_inv))


def cokernel(mat) -> tuple[int, FiniteAbelianGroup]:
    """Cokernel of M : Z^cols -> Z^rows as (free rank, torsion)."""
    a = int_array(mat)
    snf = smith_normal_form(a)
    free_rank = a.shape[0] - snf.rank
    torsion = tuple(int(x) for x in snf.diagonal if x not in (0, 1))
    return free_rank, FiniteAbelianGroup(torsion)


def det(mat):
    """Exact determinant by fraction-free (Bareiss) elimination: a Python
    int for one square matrix, a (k,) int64 array for a (k, d, d) stack.
    A stack is reduced by :func:`_det_stack`; one matrix is its k = 1
    slice.  Past the int64 range this raises OverflowError.
    """
    a = int_array(mat)
    if a.ndim not in (2, 3) or a.shape[-1] != a.shape[-2]:
        raise ValueError("determinant requires a square matrix or a stack of them")
    return int(_det_stack(a[None])[0]) if a.ndim == 2 else _det_stack(a)


def _det_stack(a: np.ndarray) -> np.ndarray:
    """Determinants of a (k, d, d) int64 stack by Bareiss in lockstep.

    The stack axis is moved innermost, so each step is one contiguous
    operation over all k.  Every entry Bareiss forms is a minor, so it is
    at most the Hadamard bound H = prod_i max(1, |row_i|), and every
    product it takes at most H^2.  2 H^2 <= 2^62 is checked before the
    first step (in floating point; the factor 2 covers its rounding),
    else OverflowError.  A slice with no pivot in its column has
    determinant 0; its remaining block is set to the identity so that it
    rides along without dividing by zero.
    """
    k, n, _ = a.shape
    rows = np.maximum(np.einsum("kij,kij->ki", a, a, dtype=np.float64), 1.0)
    if 2.0 * np.prod(rows, axis=1).max(initial=1.0) > 2.0 ** 62:
        raise OverflowError("determinant could pass the int64 range")
    if n == 0:
        return np.ones(k, dtype=np.int64)
    w = np.ascontiguousarray(a.transpose(1, 2, 0))  # slice s is w[:, :, s]
    sign, prev, alive = np.ones(k, dtype=np.int64), np.ones(k, dtype=np.int64), np.ones(k, dtype=bool)
    for j in range(n - 1):
        nonzero = w[j:, j] != 0
        dead = ~nonzero.any(axis=0)
        if dead.any():
            w[j:, j:, dead], prev[dead] = np.eye(n - j, dtype=np.int64)[:, :, None], 1
            alive &= ~dead
        i = nonzero.argmax(axis=0) + j  # first pivot row at or below j (j for a dead slice)
        s = np.flatnonzero(i != j)
        w[j, :, s], w[i[s], :, s] = w[i[s], :, s], w[j, :, s]
        sign[s] *= -1
        pivot, block = w[j, j].copy(), w[j + 1:, j + 1:]
        block *= pivot
        block -= w[j + 1:, j, None] * w[j, None, j + 1:]
        if j:  # prev is 1 at the first step
            block //= prev
        prev = pivot
    return np.where(alive, sign * w[-1, -1], 0)


def restrict_to_sublattice(mat, basis) -> np.ndarray:
    """Exact integer matrix R with basis @ R = mat @ basis, for one matrix
    or a (k, n, n) stack of them: :func:`_restrict` with the one n x d
    basis.  The result is (d, d), or (k, d, d) for a stack, in int64.
    """
    a = int_array(mat)
    zs = a.reshape(-1, *a.shape[-2:])
    r = _restrict(int_array(basis)[None], np.zeros(len(zs), dtype=np.int64), zs)
    return r.reshape(*a.shape[:-2], *r.shape[1:])


def _restrict(basis, owner, z):
    """R with B R = z B for each z and its basis B = basis[owner[p]], in int64.

    One Smith form U B V = D of the whole (b, n, d) stack of bases: each
    B must have full column rank and be saturated (every d_i = 1, as for
    the columns of a unimodular matrix); then B R = z B holds exactly
    when the rows d and beyond of U z B vanish and R = V (U z B)[:d], and
    B R = z B is checked.  ValueError when a basis fails or a z does not
    preserve its span; every product is checked by :func:`int_matmul`.
    """
    snf, d = smith_normal_form(basis), basis.shape[2]
    if (snf.rank < d).any():
        raise ValueError("basis does not have full column rank")
    if (snf.diagonal > 1).any():
        raise ValueError("basis spans a sublattice that is not saturated")
    bo = basis[owner]
    zb = int_matmul(z, bo)
    image = int_matmul(snf.u[owner], zb)
    if image[:, d:].any():
        raise ValueError("matrix does not preserve the sublattice span")
    num = int_matmul(snf.v[owner], image[:, :d])
    if not np.array_equal(int_matmul(bo, num), zb):
        raise ValueError("matrix does not preserve the sublattice span")
    return _freeze(num)


def in_image_lattice(snf: SmithDecomposition, vec) -> bool:
    """Whether an integer vector v lies in the image lattice M Z^n, for the
    Smith decomposition U M V = D of M of rank r: exactly when d_i divides
    (U v)_i for i < r and (U v)_i = 0 beyond, tested in int64.  A
    non-integral v is not in it; an entry or a product past the int64
    range raises OverflowError."""
    try:
        v = int_array(vec)
    except ValueError:
        return False
    uv, r = int_matmul(snf.u, v), snf.rank
    return not uv[r:].any() and not (uv[:r] % np.array(snf.diagonal[:r], dtype=np.int64)).any()


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

"""Finite-difference verification of the harmonic-oscillator spectrum of
the duality operator.

The operator d/dy tensor eps - 2*pi*i*y tensor e acts on spinor-valued
functions; in the real matrix model its square decomposes into ladder
blocks whose union of spectra is {4 pi k} with multiplicity 1 at k = 0
and 2 at every k >= 1 (1D), and the 2D spectrum is the two-fold
convolution of that pattern.

Discretization uses central differences on a *staggered* uniform grid:
the even spinor component lives on the n nodes of [-L, L], the odd one on
the n-1 midpoints, and the derivative couples them with the two-point
stencil (f_{i+1} - f_i)/h, second-order accurate at the midpoint.  The
position term averages the products y_i f_i onto midpoints.  The grid is
staggered because a collocated 3-point stencil doubles the whole spectrum
through lattice doublers.

Q is never assembled.  The 1D axis operator A (node -> midpoint) is
bidiagonal and is kept as its two diagonals; Q is applied from them.  In
1D, Q = [[0, A^T], [A, 0]], so Q^2 = diag(A^T A, A A^T): two grading
sectors, tridiagonal because A is bidiagonal.  In 2D the sectors are nn,
mn, nm, mm (node or midpoint per axis) and sector (p, q) of Q^2 is
B_p (x) I + I (x) B_q with B_n = A^T A, B_m = A A^T.  So only the two 1D
blocks are solved; sector levels are sums and vectors Kronecker products.
Each level's vector is built from its 1D factors and verified against the
applied Q on its own, so the check holds a few grid-sized vectors however
many levels are asked for.

The two tridiagonal ladders are solved by block shift-invert iteration
on B + 2 pi, each solve by odd-even cyclic reduction (Buzbee, Golub and
Nielson, SIAM J. Numer. Anal. 7, 1970), and a Sturm count (Parlett, The
Symmetric Eigenvalue Problem, ch. 3) certifies that no level below the
reported ones was missed.  Everything runs on numpy alone.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from math import prod

import numpy as np

__all__ = [
    "AxisOperator",
    "DualityOperator",
    "OscillatorDiscretization",
    "SpectralReport",
    "build_q0",
    "spectral_check",
    "expected_levels",
    "spectral_report_to_json",
    "KERNEL_THRESHOLD",
]

# eigenvalues below half the first excited level 4*pi count as kernel
KERNEL_THRESHOLD = 2.0 * np.pi
# B + SHIFT is positive definite, since B = A^T A or A A^T is semidefinite
SHIFT = 2.0 * np.pi
# block size beyond the wanted pairs (16 lets the finer grids converge in
# one or two steps per ladder), and the cap on shift-invert steps
EXTRA_VECTORS = 16
MAX_STEPS = 1000


@dataclass(frozen=True)
class AxisOperator:
    """A = d/dy + 2*pi*y from the n nodes to the n-1 midpoints, as its two
    diagonals: (A f)_i = alpha_i f_i + beta_i f_{i+1}."""

    alpha: np.ndarray
    beta: np.ndarray

    def apply(self, f: np.ndarray, out: np.ndarray, axis: int, transpose: bool = False,
              sign: float = 1.0) -> None:
        """Add sign * A f (or sign * A^T f) along `axis` into out."""
        f = f.reshape(prod(f.shape[:axis]), f.shape[axis], -1)
        out = out.reshape(f.shape[0], -1, f.shape[2])
        alpha, beta = sign * self.alpha[:, None], sign * self.beta[:, None]
        if transpose:
            out[:, :-1] += alpha * f
            out[:, 1:] += beta * f
        else:
            out += alpha * f[:, :-1]
            out += beta * f[:, 1:]

    def squares(self) -> tuple:
        """(diagonal, off-diagonal) of the tridiagonal A^T A and A A^T."""
        alpha, beta = self.alpha, self.beta
        return ((np.pad(alpha**2, (0, 1)) + np.pad(beta**2, (1, 0)), alpha * beta),
                (alpha**2 + beta**2, beta[:-1] * alpha[1:]))


@dataclass(frozen=True)
class DualityOperator:
    """Q on the staggered grid, applied from its axis operator.

    Component s (0 <= s < 2**dimension) sits on midpoints along the axes
    whose bit is set in s and on nodes along the others; components are
    stacked in order of s, each flattened with the first axis slowest.
    Along axis k, A takes s to s + 2**k and A^T takes it back, both with
    the sign (-1)^(number of midpoint axes before k), so that Q is
    symmetric and anticommutes with the grading (-1)^(midpoint axes).
    """

    dimension: int
    axis: AxisOperator

    @property
    def components(self) -> list:
        n = len(self.axis.alpha) + 1
        return [tuple(n - (s >> k & 1) for k in range(self.dimension))
                for s in range(2**self.dimension)]

    @property
    def shape(self) -> tuple:
        size = sum(prod(c) for c in self.components)
        return size, size

    @functools.cached_property
    def _plan(self) -> tuple:
        """([(start, stop, shape)] per component, [(source, target, axis,
        transpose, sign)] per step of the application)."""
        ends = list(itertools.accumulate(prod(c) for c in self.components))
        blocks = [(stop - prod(c), stop, c) for stop, c in zip(ends, self.components)]
        # component t is reached along axis k from t xor 2**k: by A when t
        # is on midpoints along k, by A^T when it is on nodes
        steps = [(t ^ 1 << k, t, k, not t >> k & 1, (-1.0) ** (t % (1 << k)).bit_count())
                 for t, k in itertools.product(range(len(blocks)), range(self.dimension))]
        return blocks, steps

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        cols = x.reshape(len(x), -1)
        out = np.zeros_like(cols)
        blocks, steps = self._plan
        src, dst = ([a[start:stop].reshape(c + (-1,)) for start, stop, c in blocks]
                    for a in (cols, out))
        for source, target, k, transpose, sign in steps:
            self.axis.apply(src[source], dst[target], k, transpose=transpose, sign=sign)
        return out.reshape(x.shape)

    def square_norm(self) -> float:
        """Largest absolute row sum of Q^2.  A sector of Q^2 is the Kronecker
        sum of one block B_n or B_m per axis, so its largest row sum is the
        sum of theirs; the largest block on every axis is the largest."""
        return self.dimension * max((np.abs(diag) + np.pad(np.abs(off), (0, 1))
                                     + np.pad(np.abs(off), (1, 0))).max()
                                    for diag, off in self.axis.squares())


@dataclass
class OscillatorDiscretization:
    """Discretization of the duality operator on a box.

    q is the real symmetric operator (a DualityOperator: q @ x applies it
    to a vector or to the columns of a block); grading is the +-1 vector
    of the spinor grading in q's ordering, which anticommutes with q by
    block structure.  axis_operator is the 1D operator A that the ladders
    are solved from.
    """

    dimension: int
    grid_points: int
    halfwidth: float
    q: DualityOperator
    grading: np.ndarray
    nodes: np.ndarray
    axis_operator: AxisOperator = field(repr=False)
    kernel_reference: np.ndarray = field(repr=False, default=None)

    @property
    def size(self) -> int:
        return self.q.shape[0]


@dataclass
class SpectralReport:
    dimension: int
    grid_points: int
    halfwidth: float
    eigenvalues: np.ndarray
    expected: np.ndarray
    kernel_dim: int
    kernel_vector: np.ndarray
    kernel_even_fraction: float
    kernel_cosine: float
    residual_max: float
    operator_norm_estimate: float

    @property
    def kernel_parity(self) -> str:
        return "even" if self.kernel_even_fraction >= 0.5 else "odd"


def build_q0(dimension: int, grid_points: int, halfwidth: float) -> OscillatorDiscretization:
    """Discretize the operator on [-halfwidth, halfwidth]^dimension with
    grid_points nodes per axis.

    Raises ValueError for what cannot be discretized: a dimension other
    than 1 or 2, fewer than 3 grid points or a halfwidth that is not
    positive and finite.  Whether a grid is fine enough for the ladder to
    within a tolerance is for the caller to judge.
    """
    if dimension not in (1, 2):
        raise ValueError("dimension must be 1 or 2")
    if grid_points < 3:
        raise ValueError("grid must have at least 3 points")
    if not np.isfinite(halfwidth) or halfwidth <= 0:
        raise ValueError("halfwidth must be positive and finite")
    n = grid_points
    y = np.linspace(-halfwidth, halfwidth, n)
    h = y[1] - y[0]
    # the derivative (f_{i+1} - f_i)/h plus 2*pi times the average of y_i f_i
    a = AxisOperator(-1.0 / h + np.pi * y[:-1], 1.0 / h + np.pi * y[1:])
    q = DualityOperator(dimension, a)
    grading = np.concatenate([np.full(prod(c), (-1.0) ** (dimension * n - sum(c)))
                              for c in q.components])
    kernel_ref = np.zeros(q.shape[0])
    kernel_ref[: n**dimension] = functools.reduce(np.kron, [np.exp(-np.pi * y**2)] * dimension)
    return OscillatorDiscretization(dimension, n, halfwidth, q, grading, y, a, kernel_ref)


def expected_levels(dimension: int, count: int) -> np.ndarray:
    """First `count` eigenvalues of the continuum operator squared.

    Level 4 pi k has multiplicity 1, 2, 2, ... in 1D (k = |n|), and in
    dimension d the d-fold convolution of that sequence (the multi-indices
    with |n_1| + ... + |n_d| = k).  Every level occurs, so k < count
    suffices.  ValueError for a dimension below 1.
    """
    if dimension < 1:
        raise ValueError("dimension must be at least 1")
    k = np.arange(max(count, 1))
    line, mult = np.where(k == 0, 1, 2), np.ones(1, dtype=np.int64)
    for _ in range(dimension):
        mult = np.convolve(mult, line)[:len(k)]
    return np.repeat(4.0 * np.pi * k, mult)[:count]


def _tridiagonal_apply(diag: np.ndarray, off: np.ndarray, x: np.ndarray) -> np.ndarray:
    out = diag[:, None] * x
    out[:-1] += off[:, None] * x[1:]
    out[1:] += off[:, None] * x[:-1]
    return out


def _cyclic_reduction(diag: np.ndarray, off: np.ndarray):
    """Solver of T x = r, T symmetric positive definite tridiagonal, for a
    block of right-hand sides r by odd-even cyclic reduction.

    T is padded with identity rows to c * 2^j - 1 rows, c < 32; each
    level eliminates the even-indexed unknowns from the odd-indexed rows,
    halving the system, down to c - 1 rows or fewer, which are solved
    densely.  The eliminations are fixed by T and computed once.
    """
    n = len(diag)
    step = 1 << max(0, (n + 1).bit_length() - 5)
    size = -(-(n + 1) // step) * step - 1
    a, lo, up = np.ones(size), np.zeros(size), np.zeros(size)
    a[:n], lo[1:n], up[: n - 1] = diag, off, off  # row i: lo x_{i-1} + a x_i + up x_{i+1}
    levels = []
    while len(a) % 2 and len(a) > 1:
        a_even, lo_even, up_even = a[::2], lo[::2], up[::2]
        k_lo, k_up, inv = lo[1::2] / a_even[:-1], up[1::2] / a_even[1:], 1.0 / a_even
        levels.append((k_lo[:, None], k_up[:, None], inv[:, None],
                       (lo_even * inv)[1:, None], (up_even * inv)[:-1, None]))
        a, lo, up = (a[1::2] - k_lo * up_even[:-1] - k_up * lo_even[1:],
                     -k_lo * lo_even[:-1], -k_up * up_even[1:])
    base = np.linalg.inv(np.diag(a) + np.diag(lo[1:], -1) + np.diag(up[:-1], 1))

    def solve(r: np.ndarray) -> np.ndarray:
        x = np.zeros((size, r.shape[1]))
        x[:n] = r
        rhs = []
        for k_lo, k_up, *_ in levels:
            rhs.append(x)
            x = x[1::2] - k_lo * x[:-1:2] - k_up * x[2::2]
        x = base @ x
        for (_, _, inv, lo_inv, up_inv), r in zip(reversed(levels), reversed(rhs)):
            out = np.empty_like(r)
            even = out[::2]
            np.multiply(r[::2], inv, out=even)
            even[1:] -= lo_inv * x
            even[:-1] -= up_inv * x
            out[1::2] = x
            x = out
        return x[:n]

    return solve


def _sturm_count(diag: np.ndarray, off: np.ndarray, x: float) -> int:
    """Number of eigenvalues of the symmetric tridiagonal (diag, off) below
    x: the negative pivots of the LDL^T factorization of T - x, by
    Sylvester's law of inertia."""
    x = float(x)
    pivmin = np.finfo(float).tiny * max(1.0, float(np.max(off * off, initial=0.0)))
    below, pivot = 0, 1.0
    for a, b2 in zip(diag.tolist(), [0.0] + (off * off).tolist()):
        pivot = a - x - b2 / pivot
        if abs(pivot) < pivmin:
            pivot = -pivmin
        below += pivot < 0
    return below


def _lowest_tridiagonal(diag: np.ndarray, off: np.ndarray, count: int, start: np.ndarray):
    """Lowest min(count, N) eigenpairs of the positive semidefinite N x N
    tridiagonal B = (diag, off), from a start block of N rows.

    Each step solves (B + 2 pi) Y = X and takes the Rayleigh-Ritz pairs of
    B on span Y through its Gram matrix (B Y = X - 2 pi Y).  It stops when
    every wanted pair has a residual <= 1e-12 max|B|, and raises
    ArithmeticError unless B has exactly that many eigenvalues below the
    midpoint between the last wanted and the next Ritz value.
    """
    k = min(count, len(diag))
    solve = _cyclic_reduction(diag + SHIFT, off)
    x = np.linalg.qr(start)[0]
    p = x.shape[1]
    tol = 1e-12 * np.abs(diag).max()
    for _ in range(MAX_STEPS):
        y = solve(x)
        gram = y.T @ np.hstack([y, x])
        inv_chol = np.linalg.inv(np.linalg.cholesky(gram[:, :p]))
        cross = gram[:, p:]
        theta, w = np.linalg.eigh(inv_chol @ ((cross + cross.T) / 2) @ inv_chol.T)
        theta -= SHIFT
        x = y @ (inv_chol.T @ w)
        bx = _tridiagonal_apply(diag, off, x[:, :k])
        theta[:k] = np.sum(x[:, :k] * bx, axis=0) / np.sum(x[:, :k] ** 2, axis=0)
        if np.linalg.norm(bx - x[:, :k] * theta[:k], axis=0).max() <= tol:
            break
    else:
        raise ArithmeticError(f"shift-invert iteration did not converge in {MAX_STEPS} steps")
    cut = (theta[k - 1] + (theta[k] if k < p else np.inf)) / 2
    below = _sturm_count(diag, off, cut)
    if below != k:
        raise ArithmeticError(f"{below} eigenvalues lie below {cut:.6g}, {k} were found")
    return theta[:k], x[:, :k]


def _hermite_functions(points: np.ndarray, count: int) -> np.ndarray:
    """exp(-pi y^2) H_j(sqrt(2 pi) y) for j < count, normalised in L^2:
    the continuum eigenfunctions of A^T A (level 4 pi j) and of A A^T
    (level 4 pi (j + 1))."""
    t = np.sqrt(2.0 * np.pi) * points
    out = np.empty((len(points), count))
    prev, cur = np.zeros_like(t), np.exp(-t * t / 2)
    for j in range(count):
        out[:, j] = cur
        prev, cur = cur, np.sqrt(2.0 / (j + 1)) * t * cur - np.sqrt(j / (j + 1)) * prev
    return out


def _ladders(disc: OscillatorDiscretization, count: int) -> list:
    """Lowest min(count, N) eigenpairs of B_n = A^T A and B_m = A A^T, each
    started from the Hermite functions on its points."""
    y = disc.nodes
    return [_lowest_tridiagonal(diag, off, count,
                                _hermite_functions(points, min(len(diag), count + EXTRA_VECTORS)))
            for (diag, off), points in zip(disc.axis_operator.squares(), (y, (y[:-1] + y[1:]) / 2))]


def _lowest_eigenpairs(disc: OscillatorDiscretization, count: int):
    """Lowest `count` levels of Q^2 and, per level, the offset in q and the
    1D factors of its vector.  A sector holds 0 (B_n = A^T A) or 1
    (B_m = A A^T) per axis, first axis fastest (nn, mn, nm, mm) as in q;
    its levels are sums of 1D levels and its vectors Kronecker products."""
    ladders = _ladders(disc, count)
    candidates = []
    offset = 0
    for sector in (s[::-1] for s in itertools.product((0, 1), repeat=disc.dimension)):
        for idx in itertools.product(*(range(len(ladders[k][0])) for k in sector)):
            level = sum(ladders[k][0][i] for k, i in zip(sector, idx))
            candidates.append((level, offset, sector, idx))
        offset += prod(ladders[k][1].shape[0] for k in sector)
    chosen = sorted(candidates, key=lambda c: c[0])[:count]
    return np.array([c[0] for c in chosen]), [
        (offset, [ladders[k][1][:, i] for k, i in zip(sector, idx)])
        for _, offset, sector, idx in chosen]


def spectral_check(disc: OscillatorDiscretization, count: int | None = None) -> SpectralReport:
    """Lowest spectrum of the squared operator with kernel diagnostics; every
    pair must satisfy |Q(Qv) - lambda v| <= 1e-8 |Q^2| on disc.q.  The pairs
    are checked one vector at a time; only the lowest one is kept."""
    if count is None:
        count = 10 if disc.dimension == 1 else 6
    if not 1 <= count <= disc.size:
        raise ValueError(f"count must be between 1 and the operator size {disc.size}")
    vals, levels = _lowest_eigenpairs(disc, count)
    norm_est = disc.q.square_norm()
    residual_max, kv = 0.0, None
    for lam, (offset, factors) in zip(vals, levels):
        part = functools.reduce(np.kron, factors)
        v = np.zeros(disc.size)
        v[offset:offset + len(part)] = part
        kv = v if kv is None else kv
        residual_max = max(residual_max, float(np.linalg.norm(disc.q @ (disc.q @ v) - lam * v)))
    if residual_max > 1e-8 * norm_est:
        raise ArithmeticError(
            f"eigensolver residual {residual_max:.3e} exceeds 1e-8 * |Q^2| = {1e-8 * norm_est:.3e}"
        )
    kernel_dim = int(np.sum(vals < KERNEL_THRESHOLD))
    even_fraction = float(np.linalg.norm(kv[disc.grading > 0]) / np.linalg.norm(kv))
    ref = disc.kernel_reference
    cosine = float(abs(kv @ ref) / (np.linalg.norm(kv) * np.linalg.norm(ref)))
    return SpectralReport(
        dimension=disc.dimension,
        grid_points=disc.grid_points,
        halfwidth=disc.halfwidth,
        eigenvalues=vals,
        expected=expected_levels(disc.dimension, count),
        kernel_dim=kernel_dim,
        kernel_vector=kv,
        kernel_even_fraction=even_fraction,
        kernel_cosine=cosine,
        residual_max=residual_max,
        operator_norm_estimate=norm_est,
    )


def spectral_report_to_json(report: SpectralReport) -> dict:
    return {
        "dim": report.dimension,
        "grid": report.grid_points,
        "halfwidth": report.halfwidth,
        "eigenvalues": [float(v) for v in report.eigenvalues],
        "expected": [float(v) for v in report.expected],
        "kernel_dim": report.kernel_dim,
        "kernel_parity": report.kernel_parity,
        "kernel_even_fraction": report.kernel_even_fraction,
        "kernel_cosine": report.kernel_cosine,
        "residual_max": report.residual_max,
    }

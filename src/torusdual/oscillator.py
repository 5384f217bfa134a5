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

Q is assembled sparse in both dimensions from the 1D axis operator A.  In
1D, Q = [[0, A^T], [A, 0]], so Q^2 = diag(A^T A, A A^T): two grading
sectors, tridiagonal because A is bidiagonal.  In 2D the sectors are nn,
mn, nm, mm (node or midpoint per axis) and sector (p, q) of Q^2 is
B_p (x) I + I (x) B_q with B_n = A^T A, B_m = A A^T.  So only the two 1D
blocks are solved; sector levels are sums and vectors Kronecker products,
each verified against the assembled Q.

scipy (``scipy.sparse`` for assembly, ``scipy.linalg`` for the tridiagonal
solves) is imported inside the functions that use it, on first use.  Its
import costs about a quarter of a second, more than most K-theory commands
take to run, and this module is the only one that needs it: ``import
torusdual`` and every command except ``oscillator`` never load scipy.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from math import prod

import numpy as np

__all__ = [
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


@dataclass
class OscillatorDiscretization:
    """Assembled discretization of the duality operator on a box.

    q is the real symmetric sparse (CSR) matrix of the operator;
    grading is the +-1 vector of the spinor grading in the assembled
    ordering, which anticommutes with q exactly by block structure.
    axis_operator is the sparse 1D matrix A that q is assembled from.
    """

    dimension: int
    grid_points: int
    halfwidth: float
    q: object
    grading: np.ndarray
    nodes: np.ndarray
    axis_operator: object = field(repr=False)
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


def _axis_operator(n: int, halfwidth: float):
    """Sparse A of d/dy + 2*pi*y, node -> midpoint: the nodes y and A (n-1 x n)."""
    import scipy.sparse as sparse

    y = np.linspace(-halfwidth, halfwidth, n)
    h = y[1] - y[0]
    m = n - 1
    deriv = sparse.diags([[-1.0 / h] * m, [1.0 / h] * m], [0, 1], shape=(m, n))
    avg = sparse.diags([[0.5] * m, [0.5] * m], [0, 1], shape=(m, n))
    return y, (deriv + 2.0 * np.pi * avg @ sparse.diags(y)).tocsr()


def build_q0(dimension: int, grid_points: int, halfwidth: float) -> OscillatorDiscretization:
    """Assemble the discretized operator on [-halfwidth, halfwidth]^dimension
    with grid_points nodes per axis.

    Raises ValueError for what cannot be discretized: a dimension other
    than 1 or 2, fewer than 3 grid points or a halfwidth that is not
    positive.  Whether a grid is fine enough for the ladder to within a
    tolerance is for the caller to judge.
    """
    if dimension not in (1, 2):
        raise ValueError("dimension must be 1 or 2")
    if grid_points < 3:
        raise ValueError("grid must have at least 3 points")
    if not halfwidth > 0:
        raise ValueError("halfwidth must be positive")
    import scipy.sparse as sparse

    n = grid_points
    y, a = _axis_operator(n, halfwidth)
    m = a.shape[0]
    if dimension == 1:
        blocks = [[None, a.T], [a, None]]
        grading = np.concatenate([np.ones(n), -np.ones(m)])
    else:
        # spinor components: 0 = (node,node), 1 = (mid,node), 2 = (node,mid),
        # 3 = (mid,mid); axis-1 ops couple 0<->1 and 2<->3, axis-2 ops couple
        # 0<->2 and 1<->3 with the grading sign of axis 1.
        a1_nn, a1_nm = sparse.kron(a, sparse.identity(n)), sparse.kron(a, sparse.identity(m))
        a2_nn, a2_mn = sparse.kron(sparse.identity(n), a), sparse.kron(sparse.identity(m), a)
        blocks = [[None, a1_nn.T, a2_nn.T, None], [a1_nn, None, None, -a2_mn.T],
                  [a2_nn, None, None, a1_nm.T], [None, -a2_mn, a1_nm, None]]
        grading = np.concatenate([np.ones(n * n), -np.ones(m * n), -np.ones(n * m), np.ones(m * m)])
    q = sparse.bmat(blocks, format="csr")
    gauss = np.exp(-np.pi * y**2)
    kernel_ref = np.zeros(q.shape[0])
    kernel_ref[: n**dimension] = gauss if dimension == 1 else np.kron(gauss, gauss)
    return OscillatorDiscretization(dimension, n, halfwidth, q, grading, y, a, kernel_ref)


def expected_levels(dimension: int, count: int) -> np.ndarray:
    """First `count` eigenvalues of the continuum operator squared.

    1D multiplicities are 1, 2, 2, ...; the 2D sequence is the
    convolution of two 1D sequences.
    """
    mult_1d = lambda k: 1 if k == 0 else 2
    levels = []
    k = 0
    while len(levels) < count:
        if dimension == 1:
            m = mult_1d(k)
        else:
            m = sum(mult_1d(k1) * mult_1d(k - k1) for k1 in range(k + 1))
        levels.extend([4.0 * np.pi * k] * m)
        k += 1
    return np.array(levels[:count])


def _lowest_eigenpairs(disc: OscillatorDiscretization, count: int):
    """Lowest `count` eigenpairs of Q^2.  A sector holds 0 (B_n = A^T A) or 1
    (B_m = A A^T) per axis, first axis fastest (nn, mn, nm, mm) as assembled;
    its levels are sums of 1D levels and its vectors Kronecker products."""
    import scipy.linalg

    a = disc.axis_operator
    ladders = [
        scipy.linalg.eigh_tridiagonal(b.diagonal(), b.diagonal(-1), select="i",
                                      select_range=(0, min(count, b.shape[0]) - 1))
        for b in (a.T @ a, a @ a.T)
    ]
    candidates = []
    offset = 0
    for sector in (s[::-1] for s in itertools.product((0, 1), repeat=disc.dimension)):
        for idx in itertools.product(*(range(len(ladders[k][0])) for k in sector)):
            level = sum(ladders[k][0][i] for k, i in zip(sector, idx))
            candidates.append((level, offset, sector, idx))
        offset += prod(ladders[k][1].shape[0] for k in sector)
    chosen = sorted(candidates, key=lambda c: c[0])[:count]
    vecs = np.zeros((disc.size, len(chosen)))
    for col, (_, offset, sector, idx) in enumerate(chosen):
        v = functools.reduce(np.kron, [ladders[k][1][:, i] for k, i in zip(sector, idx)])
        vecs[offset:offset + len(v), col] = v
    return np.array([c[0] for c in chosen]), vecs


def spectral_check(disc: OscillatorDiscretization, count: int | None = None) -> SpectralReport:
    """Lowest spectrum of the squared operator with kernel diagnostics; every
    pair must satisfy |Q(Qv) - lambda v| <= 1e-8 |Q^2| on the assembled Q."""
    if count is None:
        count = 10 if disc.dimension == 1 else 6
    vals, vecs = _lowest_eigenpairs(disc, count)
    qsq = disc.q @ disc.q
    norm_est = float(np.sqrt(abs(qsq).sum(axis=0).max() * abs(qsq).sum(axis=1).max()))
    residual_max = float(np.linalg.norm(disc.q @ (disc.q @ vecs) - vecs * vals, axis=0).max())
    if residual_max > 1e-8 * norm_est:
        raise ArithmeticError(
            f"eigensolver residual {residual_max:.3e} exceeds 1e-8 * |Q^2| = {1e-8 * norm_est:.3e}"
        )
    kernel_dim = int(np.sum(vals < KERNEL_THRESHOLD))
    kv = vecs[:, 0]
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

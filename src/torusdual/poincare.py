"""Numeric property checks for the line-bundle section module over T x T_dual.

Compactly supported bumps on the universal cover stand in for sections;
their lattice-translate inner product

    <f1, f2>(x, eta) = sum_{a,b in Z^n} conj(f1(x-a)) f2(x-b) e^{2 pi i <eta, b-a>}

is a finite sum because the supports are balls.  Its phase splits, so
``pairing`` computes it as conj(sigma_f1) sigma_f2, two single lattice
sums; the double sum stays as the test reference
(``tests/test_poincare.py::reference_pairing``).  The checks exercised
here are the quasi-periodicity of the section transform, the periodicity
of the pairing in both variables, its Weyl equivariance, and a truncated
Gram-matrix surrogate for positivity.

A bump is any callable with a ``rank`` and a ``support_bounds()`` method
returning the corners (lo, hi) of a box outside which it vanishes.  It is
evaluated on an ``(..., n)`` array of points and returns the matching
``(...)`` array of values (a single point gives a float).  Each lattice
sum therefore runs over one window per bump: the integer offsets of a box
as wide as the support box, shifted by a per-point start; offsets whose
translate misses the support contribute exact zeros.  ``pairing`` and
``section_transform`` take one point and character, shape (n,), or an
``(s, n)`` stack of each, and raise ValueError on any other shapes;
``gram_matrix`` takes one point of shape (n,).

The checks take their samples in blocks of at most ``BLOCK``, so that
memory stays bounded for any sample count.  For each block of k samples
they draw each field (points, characters, lattice shifts) from ``rng``
once, as one (k, n) array, in field order; a seed and a sample count
therefore fix the sample points.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .intlinalg import Matrix, as_matrix, det, int_array, int_matmul

__all__ = [
    "CompactBump",
    "TransformedBump",
    "pairing",
    "section_transform",
    "equivariance_check",
    "periodicity_check",
    "quasi_periodicity_check",
    "gram_matrix",
    "random_bump",
]


BLOCK = 256  # samples evaluated per array pass in the checks
GRAM_WINDOW = 2  # gram_matrix indexes the translates by [-GRAM_WINDOW, GRAM_WINDOW]^n
BUMP_RADII = (0.4, 1.6)  # random_bump draws its radius uniformly from this range


@dataclass(frozen=True)
class CompactBump:
    """C^1 radial bump (1 - (r/R)^2)^2 supported on the ball |x - c| <= R."""

    center: tuple
    radius: float

    @property
    def rank(self) -> int:
        return len(self.center)

    def __call__(self, x):
        dx = np.asarray(x, dtype=float) - np.asarray(self.center, dtype=float)
        r2 = np.einsum("...i,...i->...", dx, dx) / float(self.radius) ** 2
        vals = np.where(r2 < 1.0, (1.0 - r2) ** 2, 0.0)
        return float(vals) if vals.ndim == 0 else vals

    def support_bounds(self):
        c = np.asarray(self.center, dtype=float)
        return c - self.radius, c + self.radius


@dataclass(frozen=True)
class TransformedBump:
    """w . f, defined by (w . f)(x) = f(w^{-1} x) for a lattice matrix w."""

    base: CompactBump
    matrix: Matrix

    @property
    def rank(self) -> int:
        return self.base.rank

    def _w(self) -> np.ndarray:
        return np.array(self.matrix, dtype=float)

    @cached_property
    def _winv(self) -> np.ndarray:
        return np.linalg.inv(self._w())

    def __call__(self, x):
        return self.base(np.asarray(x, dtype=float) @ self._winv.T)

    def support_bounds(self):
        # image of the support ball under w: bounding box via corner scan
        lo, hi = self.base.support_bounds()
        corners = np.array(list(itertools.product(*zip(lo, hi)))) @ self._w().T
        return corners.min(axis=0), corners.max(axis=0)


def transform_bump(w, f):
    """w . f for an integer matrix w preserving Z^n; w . (v . g) is
    (w v) . g, exactly (int_matmul: OverflowError past the int64 range).
    ValueError unless the exact :func:`det` of w is +-1."""
    mat = int_array(w)
    if mat.ndim != 2 or abs(det(mat)) != 1:
        raise ValueError("w must preserve Z^n: a square integer matrix with det +-1")
    if isinstance(f, TransformedBump):
        f, mat = f.base, int_matmul(mat, f.matrix)
    return TransformedBump(base=f, matrix=as_matrix(mat))


def _window(f, xs: np.ndarray) -> np.ndarray:
    """(s, K, n) integer points g covering every lattice g with xs[i] - g
    in the support box of f: one fixed offset box as wide as the support
    box, shifted by a start per point."""
    lo, hi = (np.asarray(b, dtype=float) for b in f.support_bounds())
    # an interval of length L holds at most floor(L) + 1 integers; the
    # extra 1e-9 absorbs the rounding of the per-point ends below
    widths = np.floor(hi - lo + 3e-9).astype(int) + 1
    offsets = np.array(list(itertools.product(*(range(k) for k in widths))))
    starts = np.ceil(xs - hi - 1e-9).astype(int)
    return starts[:, None, :] + offsets[None, :, :]


def _stack(n: int, *arrays):
    """Promote points to (s, n) stacks; report whether the input was one
    point.  ValueError unless every array has one shape, (n,) or (s, n)."""
    arrays = [np.asarray(a, dtype=float) for a in arrays]
    shape = arrays[0].shape
    if shape[-1:] != (n,) or len(shape) > 2 or any(a.shape != shape for a in arrays):
        raise ValueError(f"expected points and characters of one shape, (n,) or (s, n), n = {n}")
    return len(shape) == 1, [np.atleast_2d(a) for a in arrays]


def _lattice_sum(f, xs: np.ndarray, chis: np.ndarray) -> np.ndarray:
    """(s,) sums sum_g f(xs[i] - g) e^{2 pi i <chis[i], g>} over one window of f."""
    g = _window(f, xs)
    vals = f(xs[:, None, :] - g)
    phases = np.exp(2j * np.pi * np.einsum("skn,sn->sk", g, chis))
    return (vals * phases).sum(axis=-1)


def section_transform(f, x, chi):
    """sigma(x, chi) = sum_g f(x - g) chi(g), chi given as a point of the dual torus.

    chi is the character g -> e^{2 pi i <chi, g>}.  One point gives a
    complex; an (s, n) stack of points and characters gives s values.
    ValueError unless x and chi have one shape, (n,) or (s, n), n = f.rank.
    """
    single, (xs, chis) = _stack(f.rank, x, chi)
    out = _lattice_sum(f, xs, chis)
    return complex(out[0]) if single else out


def pairing(f1, f2, x, eta):
    """The module-valued inner product at the point (x, eta), as
    conj(sigma_f1(x, eta)) sigma_f2(x, eta): e^{2 pi i <eta, b - a>} splits.
    One point gives a complex; an (s, n) stack of points gives s values.
    ValueError unless f2.rank = f1.rank = n and x and eta have one shape,
    (n,) or (s, n)."""
    if f2.rank != f1.rank:
        raise ValueError(f"bumps of ranks {f1.rank} and {f2.rank}")
    single, (xs, etas) = _stack(f1.rank, x, eta)
    out = np.conj(_lattice_sum(f1, xs, etas)) * _lattice_sum(f2, xs, etas)
    return complex(out[0]) if single else out


def _sample_blocks(samples: int, draw):
    """Call draw(k) once per block of k <= BLOCK samples, in order, and
    yield what it returns: one (k, n) array per field, in field order."""
    for start in range(0, samples, BLOCK):
        yield draw(min(BLOCK, samples - start))


def _max_abs(worst: float, diff) -> float:
    return max(worst, float(np.abs(diff).max()))


def quasi_periodicity_check(f, rng, samples: int = 100) -> float:
    """Max deviation of sigma(x + d, chi) - chi(d) sigma(x, chi) over
    random x, chi, and lattice shifts d."""
    n = f.rank

    def draw(k):
        return (rng.uniform(-2, 2, size=(k, n)), rng.uniform(-3, 3, size=(k, n)),
                rng.integers(-3, 4, size=(k, n)))

    worst = 0.0
    for x, chi, d in _sample_blocks(samples, draw):
        lhs = section_transform(f, x + d, chi)
        rhs = np.exp(2j * np.pi * (chi * d).sum(axis=-1)) * section_transform(f, x, chi)
        worst = _max_abs(worst, lhs - rhs)
    return worst


def periodicity_check(f1, f2, rng, samples: int = 100) -> float:
    """Max deviation of the pairing under integer shifts of x and of eta."""
    n = f1.rank

    def draw(k):
        return (rng.uniform(-2, 2, size=(k, n)), rng.uniform(-3, 3, size=(k, n)),
                rng.integers(-3, 4, size=(k, n)), rng.integers(-3, 4, size=(k, n)))

    worst = 0.0
    for x, eta, gx, geta in _sample_blocks(samples, draw):
        base = pairing(f1, f2, x, eta)
        worst = _max_abs(worst, pairing(f1, f2, x + gx, eta) - base)
        worst = _max_abs(worst, pairing(f1, f2, x, eta + geta) - base)
    return worst


def equivariance_check(w, f1, f2, rng, samples: int = 100) -> float:
    """Max deviation of <w.f1, w.f2>(x, eta) - <f1, f2>(w^{-1} x, w^{-1}.eta).

    w is an integer matrix preserving Z^n (:func:`transform_bump` raises
    ValueError unless det w = +-1); the dual variable transforms by the
    inverse-transpose action.
    """
    warr = int_array(w)
    n = f1.rank
    if warr.shape != (n, n):
        raise ValueError("matrix size must match the bump rank")
    wf1 = transform_bump(warr, f1)
    wf2 = transform_bump(warr, f2)
    winv = np.linalg.inv(warr.astype(float))
    # w^{-1} acting on eta is the forward transpose of w

    def draw(k):
        return rng.uniform(-2, 2, size=(k, n)), rng.uniform(-3, 3, size=(k, n))

    worst = 0.0
    for x, eta in _sample_blocks(samples, draw):
        lhs = pairing(wf1, wf2, x, eta)
        rhs = pairing(f1, f2, x @ winv.T, eta @ warr)
        worst = _max_abs(worst, lhs - rhs)
    return worst


def gram_matrix(f, x) -> np.ndarray:
    """Gram matrix of the translates of f at base point x, indexed by the
    lattice window [-GRAM_WINDOW, GRAM_WINDOW]^n.

    The Fourier coefficients in eta of the self-pairing assemble exactly
    this matrix, whose positive semidefiniteness is the finite surrogate
    for positivity of the module inner product.
    """
    n = f.rank
    x = np.asarray(x, dtype=float)
    if x.shape != (n,):
        raise ValueError(f"expected a base point of shape (n,), n = {n}")
    span = range(-GRAM_WINDOW, GRAM_WINDOW + 1)
    translates = np.array(list(itertools.product(span, repeat=n)))
    vals = f(x - translates)
    return np.outer(vals.conj(), vals)


def random_bump(rng, rank: int) -> CompactBump:
    center = tuple(float(c) for c in rng.uniform(-0.5, 0.5, size=rank))
    radius = float(rng.uniform(*BUMP_RADII))
    return CompactBump(center=center, radius=radius)

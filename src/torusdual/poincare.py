"""Numeric property checks for the line-bundle section module over T x T_dual.

Compactly supported bumps on the universal cover stand in for sections;
their lattice-translate inner product

    <f1, f2>(x, eta) = sum_{a,b in Z^n} conj(f1(x-a)) f2(x-b) e^{2 pi i <eta, b-a>}

is a finite sum because the supports are balls.  The checks exercised
here are the quasi-periodicity of the section transform, the
periodicity of the pairing in both variables, its Weyl equivariance, and
a truncated Gram-matrix surrogate for positivity.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

import numpy as np

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


@dataclass(frozen=True)
class CompactBump:
    """C^1 radial bump (1 - (r/R)^2)^2 supported on the ball |x - c| <= R."""

    center: tuple
    radius: float

    @property
    def rank(self) -> int:
        return len(self.center)

    def __call__(self, x) -> float:
        dx = np.asarray(x, dtype=float) - np.asarray(self.center, dtype=float)
        r2 = float(dx @ dx) / float(self.radius) ** 2
        if r2 >= 1.0:
            return 0.0
        return (1.0 - r2) ** 2

    def support_bounds(self):
        c = np.asarray(self.center, dtype=float)
        return c - self.radius, c + self.radius


@dataclass(frozen=True)
class TransformedBump:
    """w . f, defined by (w . f)(x) = f(w^{-1} x) for a lattice matrix w."""

    base: CompactBump
    matrix: tuple

    @property
    def rank(self) -> int:
        return self.base.rank

    def _w(self) -> np.ndarray:
        return np.array(self.matrix, dtype=float)

    @cached_property
    def _winv(self) -> np.ndarray:
        return np.linalg.inv(self._w())

    def __call__(self, x) -> float:
        return self.base(self._winv @ np.asarray(x, dtype=float))

    def support_bounds(self):
        # image of the support ball under w: bounding box via corner scan
        lo, hi = self.base.support_bounds()
        w = self._w()
        corners = [
            w @ np.array(pt)
            for pt in itertools.product(*zip(lo, hi))
        ]
        corners = np.array(corners)
        return corners.min(axis=0), corners.max(axis=0)


def transform_bump(w, f):
    base = f.base if isinstance(f, TransformedBump) else f
    mat = np.asarray(w, dtype=int)
    if isinstance(f, TransformedBump):
        mat = mat @ np.array(f.matrix, dtype=int)
    return TransformedBump(base=base, matrix=tuple(tuple(int(v) for v in row) for row in mat))


def _lattice_points_meeting_support(f, x) -> list[np.ndarray]:
    """Integer vectors a with x - a inside the support box of f."""
    lo, hi = f.support_bounds()
    x = np.asarray(x, dtype=float)
    ranges = [
        range(int(np.ceil(x[i] - hi[i] - 1e-9)), int(np.floor(x[i] - lo[i] + 1e-9)) + 1)
        for i in range(len(x))
    ]
    return [np.array(a) for a in itertools.product(*ranges)]


def section_transform(f, x, chi) -> complex:
    """sigma(x, chi) = sum_g f(x - g) chi(g), chi given as a point of the dual torus.

    chi is the character g -> e^{2 pi i <chi, g>}.
    """
    x = np.asarray(x, dtype=float)
    chi = np.asarray(chi, dtype=float)
    total = 0.0 + 0.0j
    for g in _lattice_points_meeting_support(f, x):
        val = f(x - g)
        if val:
            total += val * np.exp(2j * np.pi * float(chi @ g))
    return total


def pairing(f1, f2, x, eta) -> complex:
    """The module-valued inner product at the point (x, eta), by the
    defining double lattice sum."""
    x = np.asarray(x, dtype=float)
    eta = np.asarray(eta, dtype=float)
    total = 0.0 + 0.0j
    alphas = [(a, f1(x - a)) for a in _lattice_points_meeting_support(f1, x)]
    betas = [(b, f2(x - b)) for b in _lattice_points_meeting_support(f2, x)]
    for a, va in alphas:
        if not va:
            continue
        for b, vb in betas:
            if not vb:
                continue
            total += va * vb * np.exp(2j * np.pi * float(eta @ (b - a)))
    return total


def quasi_periodicity_check(f, rng, samples: int = 100) -> float:
    """Max deviation of sigma(x + d, chi) - chi(d) sigma(x, chi) over
    random x, chi, and lattice shifts d."""
    n = f.rank
    worst = 0.0
    for _ in range(samples):
        x = rng.uniform(-2, 2, size=n)
        chi = rng.uniform(-3, 3, size=n)
        d = rng.integers(-3, 4, size=n)
        lhs = section_transform(f, x + d, chi)
        rhs = np.exp(2j * np.pi * float(chi @ d)) * section_transform(f, x, chi)
        worst = max(worst, float(abs(lhs - rhs)))
    return worst


def periodicity_check(f1, f2, rng, samples: int = 100) -> float:
    """Max deviation of the pairing under integer shifts of x and of eta."""
    n = f1.rank
    worst = 0.0
    for _ in range(samples):
        x = rng.uniform(-2, 2, size=n)
        eta = rng.uniform(-3, 3, size=n)
        gx = rng.integers(-3, 4, size=n)
        geta = rng.integers(-3, 4, size=n)
        base = pairing(f1, f2, x, eta)
        worst = max(worst, float(abs(pairing(f1, f2, x + gx, eta) - base)))
        worst = max(worst, float(abs(pairing(f1, f2, x, eta + geta) - base)))
    return worst


def equivariance_check(w, f1, f2, rng, samples: int = 100) -> float:
    """Max deviation of <w.f1, w.f2>(x, eta) - <f1, f2>(w^{-1} x, w^{-1}.eta).

    w is an integer matrix preserving Z^n; the dual variable transforms by
    the inverse-transpose action.
    """
    warr = np.asarray(w, dtype=int)
    n = f1.rank
    if warr.shape != (n, n):
        raise ValueError("matrix size must match the bump rank")
    winv = np.linalg.inv(warr.astype(float))
    # w^{-1} acting on eta is the forward transpose of w
    wf1 = transform_bump(warr, f1)
    wf2 = transform_bump(warr, f2)
    worst = 0.0
    for _ in range(samples):
        x = rng.uniform(-2, 2, size=n)
        eta = rng.uniform(-3, 3, size=n)
        lhs = pairing(wf1, wf2, x, eta)
        rhs = pairing(f1, f2, winv @ x, warr.T @ eta)
        worst = max(worst, float(abs(lhs - rhs)))
    return worst


def gram_matrix(f, x, window: int = 2) -> np.ndarray:
    """Gram matrix of the translates of f at base point x, indexed by the
    lattice window [-window, window]^n.

    The Fourier coefficients in eta of the self-pairing assemble exactly
    this matrix, whose positive semidefiniteness is the finite surrogate
    for positivity of the module inner product.
    """
    n = f.rank
    x = np.asarray(x, dtype=float)
    translates = list(itertools.product(range(-window, window + 1), repeat=n))
    vals = np.array([f(x - np.array(t)) for t in translates])
    return np.outer(vals.conj(), vals)


def random_bump(rng, rank: int, radius_range=(0.4, 1.6)) -> CompactBump:
    center = tuple(float(c) for c in rng.uniform(-0.5, 0.5, size=rank))
    radius = float(rng.uniform(*radius_range))
    return CompactBump(center=center, radius=radius)

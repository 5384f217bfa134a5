"""Exact Clifford algebra Cl(t x t*) over the Gaussian rationals.

Generators e_1..e_n (a basis of t) and eps_1..eps_n (the dual basis of
t*) all square to +1, pairwise anticommute, and are self-adjoint under
the star.  The complexified algebra does not care about the sign of the
quadratic form: the familiar 2x2 matrix model of the 1-dimensional case
uses skew-adjoint generators squaring to -1, which are i times ours, and
the test suite pins that bridge down exactly.  Every identity needed
about the spinor projection and the intertwiner u holds on the nose in
the +1 convention.

Elements are stored as maps from canonical words (sorted generator index
tuples) to Gaussian-rational coefficients, so those identities are
checked as literal equalities, with no floats anywhere.

Inside, a word is a bit mask over the 2n generators and an element is
integer numerators over one denominator: words multiply by xor, and moving
generator k past a word flips the sign once per generator above k.  So
products and the action build each output ``Fraction`` once, at the end.

An exact orthogonal matrix g acts diagonally on t x t*.  It sends each
word through the images of its generators, with Python int coefficients
where the entries of g are integral and Fraction ones where they are
not.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property
from fractions import Fraction
from math import lcm
from operator import mul

import numpy as np

from .intlinalg import _exact

__all__ = [
    "QI",
    "CliffordElement",
    "generator",
    "clifford_projection",
    "dual_projection",
    "intertwiner_u",
    "conjugation_by_u",
    "orthogonal_action",
    "symmetric_invariance_check",
    "signed_permutations",
]

MAX_DIM = 4  # largest n of the projections (see clifford_projection)


@dataclass(frozen=True)
class QI:
    """Gaussian rational a + b*i with Fraction components."""

    re: Fraction = Fraction(0)
    im: Fraction = Fraction(0)

    def __post_init__(self):
        # products of Fraction parts are already Fractions; wrap only the rest
        if not isinstance(self.re, Fraction):
            object.__setattr__(self, "re", Fraction(self.re))
        if not isinstance(self.im, Fraction):
            object.__setattr__(self, "im", Fraction(self.im))

    def __add__(self, other: "QI") -> "QI":
        return QI(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "QI") -> "QI":
        return QI(self.re - other.re, self.im - other.im)

    def __mul__(self, other: "QI") -> "QI":
        return QI(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def __neg__(self) -> "QI":
        return QI(-self.re, -self.im)

    def conjugate(self) -> "QI":
        return QI(self.re, -self.im)

    def __bool__(self) -> bool:
        return self.re != 0 or self.im != 0

    def __str__(self) -> str:
        return f"{self.re}+{self.im}i"


ONE = QI(Fraction(1))
I_UNIT = QI(Fraction(0), Fraction(1))

# generator indices: 0..n-1 are e_1..e_n, n..2n-1 are eps_1..eps_n
Word = tuple[int, ...]


def _mask(word: Word) -> int:
    return sum(1 << g for g in word)


@cache
def _word(mask: int) -> Word:
    return tuple(g for g in range(mask.bit_length()) if mask >> g & 1)


def _swaps(a: int, b: int) -> int:
    """Transpositions that merge-sort the concatenation of words a and b
    (masks): the pairs i in a, j in b with i > j.  Generators square to
    +1, so the product of the words is (-1)^swaps (a xor b)."""
    count = 0
    a >>= 1
    while a:
        count += (a & b).bit_count()
        a >>= 1
    return count


@dataclass(frozen=True)
class CliffordElement:
    """Element of Cl(t x t*), dimension n, with exact coefficients."""

    dimension: int
    coefficients: tuple[tuple[Word, QI], ...]

    @staticmethod
    def from_dict(n: int, coeffs: dict[Word, QI]) -> "CliffordElement":
        items = tuple(sorted((w, c) for w, c in coeffs.items() if c))
        return CliffordElement(n, items)

    def as_dict(self) -> dict[Word, QI]:
        return dict(self.coefficients)

    @staticmethod
    def _from_numerators(n: int, den: int, nums: dict[int, list]) -> "CliffordElement":
        """The element with coefficients (re + im i) / den on the mask words."""
        return CliffordElement.from_dict(
            n, {_word(w): QI(Fraction(re, den), Fraction(im, den)) for w, (re, im) in nums.items()})

    @cached_property
    def _numerators(self) -> tuple[int, dict[int, list]]:
        """(den, {mask: [re, im]}): the coefficients as integer numerators
        over den, the lcm of their denominators (1 for the zero element)."""
        den = lcm(*(x.denominator for _, c in self.coefficients for x in (c.re, c.im)))
        return den, {_mask(w): [c.re.numerator * (den // c.re.denominator),
                                c.im.numerator * (den // c.im.denominator)]
                     for w, c in self.coefficients}

    def _check(self, other: "CliffordElement"):
        if self.dimension != other.dimension:
            raise ValueError("dimension mismatch")

    def __add__(self, other: "CliffordElement") -> "CliffordElement":
        self._check(other)
        out = self.as_dict()
        for w, c in other.coefficients:
            out[w] = out.get(w, QI()) + c
        return CliffordElement.from_dict(self.dimension, out)

    def __sub__(self, other: "CliffordElement") -> "CliffordElement":
        return self + (-other)

    def __neg__(self) -> "CliffordElement":
        return CliffordElement.from_dict(
            self.dimension, {w: -c for w, c in self.coefficients}
        )

    def __mul__(self, other: "CliffordElement") -> "CliffordElement":
        self._check(other)
        den_a, nums_a = self._numerators
        den_b, nums_b = other._numerators
        out: dict[int, list] = {}
        for wa, (ar, ai) in nums_a.items():
            for wb, (br, bi) in nums_b.items():
                re, im = ar * br - ai * bi, ar * bi + ai * br
                if _swaps(wa, wb) & 1:
                    re, im = -re, -im
                acc = out.setdefault(wa ^ wb, [0, 0])
                acc[0] += re
                acc[1] += im
        return CliffordElement._from_numerators(self.dimension, den_a * den_b, out)

    def scale(self, c: QI) -> "CliffordElement":
        return CliffordElement.from_dict(
            self.dimension, {w: v * c for w, v in self.coefficients}
        )

    def star(self) -> "CliffordElement":
        """Adjoint: reverse each word, conjugate each coefficient."""
        out: dict[Word, QI] = {}
        for w, c in self.coefficients:
            k = len(w)
            sign = -1 if (k * (k - 1) // 2) % 2 else 1
            cc = c.conjugate()
            out[w] = (-cc) if sign < 0 else cc
        return CliffordElement.from_dict(self.dimension, out)

    def __str__(self) -> str:
        if not self.coefficients:
            return "0"

        def wname(w):
            if not w:
                return "1"
            n = self.dimension
            return "".join(
                f"e{g + 1}" if g < n else f"eps{g - n + 1}" for g in w
            )

        return " + ".join(f"({c})*{wname(w)}" for w, c in self.coefficients)


def scalar(n: int, c: QI) -> CliffordElement:
    return CliffordElement.from_dict(n, {(): c})


def one(n: int) -> CliffordElement:
    return scalar(n, ONE)


def generator(n: int, kind: str, j: int) -> CliffordElement:
    """e_j or eps_j (1-based j) inside Cl of dimension n."""
    if not 1 <= j <= n:
        raise ValueError("generator index out of range")
    idx = j - 1 if kind == "e" else n + j - 1
    if kind not in ("e", "eps"):
        raise ValueError("kind must be 'e' or 'eps'")
    return CliffordElement.from_dict(n, {(idx,): ONE})


def _projection(n: int, first: str, second: str) -> CliffordElement:
    """prod_j (1 - i first_j second_j)/2, exactly."""
    if not 1 <= n <= MAX_DIM:
        raise ValueError(f"projection is supported for 1 <= n <= {MAX_DIM}")
    p = one(n)
    half = QI(Fraction(1, 2))
    for j in range(1, n + 1):
        factor = (one(n) - (generator(n, first, j) * generator(n, second, j)).scale(I_UNIT)).scale(half)
        p = p * factor
    return p


def clifford_projection(n: int) -> CliffordElement:
    """The spinor projection P = prod_j (1 - i e_j eps_j)/2.

    Exact arithmetic bounds the sensible range to n <= 4 (the coefficient
    space has dimension 4^n).
    """
    return _projection(n, "e", "eps")


def dual_projection(n: int) -> CliffordElement:
    """P_dual = prod_j (1 - i eps_j e_j)/2, the projection of the dual picture."""
    return _projection(n, "eps", "e")


def intertwiner_u(n: int) -> CliffordElement:
    """u = eps_1...eps_n for even n, e_1...e_n for odd n."""
    kind = "e" if n % 2 else "eps"
    u = one(n)
    for j in range(1, n + 1):
        u = u * generator(n, kind, j)
    return u


def conjugation_by_u(n: int, a: CliffordElement) -> CliffordElement:
    """u a u*; maps the spinor picture to the dual one."""
    if a.dimension != n:
        raise ValueError("dimension mismatch")
    u = intertwiner_u(n)
    return u * a * u.star()


def _generator_images(n: int, g) -> list[list[tuple[int, object]]]:
    """Images of the 2n generators under g acting diagonally on t x t*,
    each as (generator index, coefficient) pairs with exact coefficients.

    g acts on the e-basis by its matrix and on the dual basis by the
    inverse transpose; for exactly orthogonal g those coincide.
    """
    arr = np.asarray(g)
    if arr.shape != (n, n):
        raise ValueError("matrix size must match the Clifford dimension")
    rows = arr.tolist() if arr.dtype.kind in "iu" else [[_exact(x) for x in row] for row in arr]
    cols = list(zip(*rows))
    if any(sum(map(mul, cols[i], cols[j])) != int(i == j) for i in range(n) for j in range(i, n)):
        raise ValueError("matrix is not exactly orthogonal")
    # e_j -> sum_k g[k][j] e_k and eps_j -> sum_k g[k][j] eps_k
    # (orthogonal: g^{-T} = g)
    return [[(shift + k, v) for k, v in enumerate(col) if v] for shift in (0, n) for col in cols]


def _action_numerators(g, a: CliffordElement) -> tuple[int, dict[int, list]]:
    """(den, {mask: [re, im]}): g applied to a, over the denominator of
    a._numerators.  The numerators are ints, or Fractions where g has
    rational entries; entries that cancel stay as zeros."""
    images = _generator_images(a.dimension, g)
    den, nums = a._numerators
    out: dict[int, list] = {}
    for w, (re, im) in nums.items():
        terms: dict[int, object] = {0: 1}
        for gidx in _word(w):
            nxt: dict[int, object] = {}
            for word, coeff in terms.items():
                for k, v in images[gidx]:
                    # the word times generator k: one swap per generator above k
                    key, term = word ^ 1 << k, coeff * v
                    nxt[key] = nxt.get(key, 0) + (-term if (word >> k + 1).bit_count() & 1 else term)
            terms = nxt
        for word, coeff in terms.items():
            acc = out.setdefault(word, [0, 0])
            acc[0] += re * coeff
            acc[1] += im * coeff
    return den, out


def orthogonal_action(g, a: CliffordElement) -> CliffordElement:
    """Apply an exact orthogonal matrix to a Clifford element, diagonally.

    The coefficients of a are put over one common denominator, the
    expansion accumulates their numerators, and each output coefficient
    is divided once.
    """
    return CliffordElement._from_numerators(a.dimension, *_action_numerators(g, a))


def symmetric_invariance_check(n: int, g, a: CliffordElement) -> bool:
    """Whether the diagonal action of the orthogonal matrix g fixes a.

    Intended for elements built as symmetric polynomials in the
    commuting family e_1 eps_1, ..., e_n eps_n, which the theory says are
    always fixed; a non-orthogonal g is rejected, and so is an a whose
    dimension is not n.  Compares numerators over the common denominator
    of a, so no Fraction is built.
    """
    if a.dimension != n:
        raise ValueError("dimension mismatch")
    _, out = _action_numerators(g, a)
    return {w: v for w, v in out.items() if any(v)} == a._numerators[1]


def signed_permutations(n: int):
    """All 2^n n! signed permutation matrices, exact ints."""
    from itertools import permutations, product

    for perm in permutations(range(n)):
        for signs in product((1, -1), repeat=n):
            yield [
                [signs[i] if perm[i] == j else 0 for j in range(n)]
                for i in range(n)
            ]

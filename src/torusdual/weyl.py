"""Finite groups of exact integer matrices acting on a lattice Z^n.

The main producer is :func:`generate`, which closes the simple reflections
of a root datum into the full Weyl group acting on the cocharacter side,
once per transpose pair (a datum and its Langlands dual): the other side
is the transpose of the closed one and shares its classes and centralizers.
The group machinery itself (closure, conjugacy classes, centralizers) is
generic, so test fixtures like {1} or {+-1} on Z are first-class citizens.

A group is its array: one read-only ``(|W|, n, n)`` int8 array, the
:func:`torusdual.intlinalg.closure` of the int8 identity (a non-integral
entry raises ValueError and one outside +-127 OverflowError), and an
element is an index into it.  Classes and centralizers are ascending, read-only
int64 index arrays, so ``group.array[cent]`` is the stacked centralizer.

Element w is named by its image w(p) of the probe p = (1, k, ..., k^(n-1)),
k = 2m + 1 for the largest absolute entry m of the group.  w(p) holds the
rows of w as balanced base-k digits, so it tells apart every integer
matrix with entries within +-m, such as the products zw and wz of two
elements: commutation and conjugation are read off the images.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .intlinalg import (
    INT64_MAX, GroupTooLargeError, _freeze, _max_abs, closure, int_array,
)
from .rootdata import WEYL_ORDERS, RootDatum, _simple_reflections

__all__ = [
    "GroupTooLargeError",
    "WeylGroup",
    "ConjugacyClass",
    "generate",
    "WEYL_ORDER_CAP",
]

WEYL_ORDER_CAP = 2_000_000


@dataclass(frozen=True, eq=False)
class ConjugacyClass:
    """A class as the index of its representative and the ascending,
    read-only int64 array of its member indices."""

    representative: int
    members: np.ndarray


class WeylGroup:
    """A finite group of integer matrices, closed from its generators.

    ``array[i]`` is element i as int8, ``_images[i]`` its probe image and
    ``generators`` are the indices of the generating matrices.  Conjugacy
    classes are sorted by their (lexicographically minimal) representative
    matrix, which makes every downstream report ordering reproducible.
    """

    def __init__(self, array: np.ndarray, generators: list[int]):
        self.rank = array.shape[1]
        self.array = array
        self.array.flags.writeable = False
        self.generators = generators
        self._classes: list[ConjugacyClass] | None = None
        self._centralizers: dict[int, np.ndarray] = {}

    def __len__(self) -> int:
        return len(self.array)

    @cached_property
    def _images(self) -> np.ndarray:
        """Every element's image w(p), as (|W|, n) int64; row 0, the
        identity's, is p.  Images lie below k^n / 2, so an element applied
        to one stays below n m k^n, checked here: OverflowError, not a wrap."""
        m = _max_abs(self.array)
        if self.rank * m * (2 * m + 1) ** self.rank > INT64_MAX:
            raise OverflowError("probe images could pass the int64 range")
        return self._apply((2 * m + 1) ** np.arange(self.rank, dtype=np.int64))

    def _apply(self, v: np.ndarray) -> np.ndarray:
        """Every element applied to the int64 vector v (an image), as
        (|W|, n) int64; einsum reads the int8 array without casting it."""
        return np.einsum("wij,j->wi", self.array, v)

    @cached_property
    def _orbits(self) -> list[np.ndarray]:
        """Orbits of the conjugation permutations of the generators, as
        ascending, read-only index arrays."""
        images, perms = self._images, []
        for g in self.generators:
            # row w of A g(p) is (wg)(p) and row u of V g^T is (gu)(p), so
            # sorted alike they pair w with its conjugate u = g^-1 w g
            moved, shifted = self._apply(images[g]), images @ self.array[g].T
            by_moved, by_shifted = np.lexsort(moved.T), np.lexsort(shifted.T)
            if not np.array_equal(moved[by_moved], shifted[by_shifted]):
                raise AssertionError("conjugation by a generator left the group")
            perm = np.empty_like(by_moved)
            perm[by_moved] = by_shifted
            perms.append(perm)
        # label[i] falls to the smallest index in the orbit of i
        label = np.arange(len(self))
        while True:
            new = label
            for p in perms:
                new = np.minimum(new, new[p])
            new = new[new]
            if (new == label).all():
                break
            label = new
        # stable, so each class's members come out ascending
        order = _freeze(np.argsort(label, kind="stable"))
        return np.split(order, np.flatnonzero(np.diff(label[order])) + 1)

    @property
    def classes(self) -> list[ConjugacyClass]:
        """The orbits, each represented by its lexicographically minimal
        matrix and sorted by it."""
        if self._classes is None:
            lex_rank = np.empty(len(self), dtype=np.int64)
            lex_rank[np.lexsort(self.array.reshape(len(self), -1).T[::-1])] = np.arange(len(self))
            self._classes = sorted(
                (ConjugacyClass(int(m[np.argmin(lex_rank[m])]), m) for m in self._orbits),
                key=lambda c: lex_rank[c.representative])
        return self._classes

    def _commuting_with(self, i: int) -> np.ndarray:
        """zw = wz exactly when their images z(w(p)) and w(z(p)) agree, as
        both are elements."""
        images = self._images
        commutes = (self._apply(images[i]) == images @ self.array[i].T).all(axis=1)
        return _freeze(np.flatnonzero(commutes))

    def centralizer_indices(self, i: int) -> np.ndarray:
        """The elements commuting with element i, as an ascending,
        read-only int64 index array (cached)."""
        if i not in self._centralizers:
            self._centralizers[i] = self._commuting_with(i)
        return self._centralizers[i]

    @classmethod
    def from_generators(cls, gens, rank: int) -> "WeylGroup":
        """The :func:`closure` of the int8 identity under the generators, at
        most ``WEYL_ORDER_CAP`` elements in first-seen order.

        The closure starts from [1; gens], the identity and its first
        breadth-first level, which gives the same order; so each generator
        is one of the first len(gens) + 1 elements."""
        gen_arr = int_array(gens, np.int8)
        if gen_arr.size and gen_arr.shape[1:] != (rank, rank):
            raise ValueError("generator shape does not match rank")
        gen_arr = gen_arr.reshape(-1, rank, rank)
        start = np.concatenate([np.eye(rank, dtype=np.int8)[None], gen_arr])
        array = closure(start, gen_arr, WEYL_ORDER_CAP)
        head = array[:len(start)]
        return cls(array, (head == gen_arr[:, None]).all(axis=(2, 3)).argmax(axis=1).tolist())


class _Transpose(WeylGroup):
    """Element i is the partner's element i transposed.  The generators,
    orbits and centralizers are the partner's index arrays, computed on
    the partner's images; only the class representatives and their order
    are taken on these matrices."""

    _orbits = property(lambda self: self._partner._orbits)

    def __init__(self, partner: WeylGroup):
        super().__init__(partner.array.transpose(0, 2, 1), partner.generators)
        self._partner, self._centralizers = partner, partner._centralizers

    def _commuting_with(self, i: int) -> np.ndarray:
        return self._partner._commuting_with(i)


def simple_reflection_matrices(rd: RootDatum) -> np.ndarray:
    """The simple reflections acting on X_*, x -> x - <alpha, x> alpha_check,
    as one (rank, n, n) int64 stack."""
    return _simple_reflections(rd.rank, rd.simple_roots, rd.simple_coroots)


# groups by generator bytes; a stack and its transpose share one closure
_GROUPS: dict[bytes, WeylGroup] = {}


def generate(rd: RootDatum) -> WeylGroup:
    """Close the simple reflections of `rd` into the full Weyl group on X_*.

    A stack and its transpose (`rd` and its dual) share one closure, of the
    side with the smaller bytes; the other side's element i is element i of
    the closed side, transposed, whichever side is asked for first.  Raises
    :class:`GroupTooLargeError`, naming the datum, if the Weyl order of the
    labelled type passes the cap, before any closure, or if the closure does.
    """
    t, r, _ = rd.label
    order = WEYL_ORDERS[t](r) if t in WEYL_ORDERS else 0
    if order > WEYL_ORDER_CAP:
        raise GroupTooLargeError(f"{rd}: |W| = {order} exceeds the cap of {WEYL_ORDER_CAP}")
    gens = simple_reflection_matrices(rd)
    flipped = gens.transpose(0, 2, 1)
    key, other = gens.tobytes(), flipped.tobytes()
    if key not in _GROUPS:
        try:
            group = WeylGroup.from_generators(gens if key <= other else flipped, rd.rank)
        except GroupTooLargeError as exc:
            raise GroupTooLargeError(f"{rd}: {exc}") from None
        _GROUPS[min(key, other)] = group
        _GROUPS.setdefault(max(key, other), _Transpose(group))
    return _GROUPS[key]

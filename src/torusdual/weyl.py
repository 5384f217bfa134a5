"""Finite groups of exact integer matrices acting on a lattice Z^n.

The main producer is :func:`generate`, which closes the simple reflections
of a root datum into the full Weyl group acting on the cocharacter side,
once per transpose pair (a datum and its Langlands dual): the other side
is the transpose of the closed one and shares its classes and centralizers.
The group machinery itself (closure, conjugacy classes, centralizers) is
generic, so test fixtures like {1} or {+-1} on Z are first-class citizens.

A group is its array: one read-only ``(|W|, n, n)`` int8 array, and an
element is an index into it.  Classes and centralizers are ascending,
read-only int64 index arrays, so ``group.array[cent]`` is the stacked
centralizer.  The group is :func:`torusdual.intlinalg.closure` of the
int8 identity: products are taken in int64 and enter int8 through
:func:`torusdual.intlinalg.int_array`, so a non-integral entry raises
ValueError and one outside +-127 OverflowError.  The dict from each
element's bytes to its index looks products up in the class computation.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .intlinalg import GroupTooLargeError, _keys, closure, int_array
from .rootdata import WEYL_ORDERS, RootDatum, _simple_reflections

__all__ = [
    "GroupTooLargeError",
    "WeylGroup",
    "ConjugacyClass",
    "generate",
    "WEYL_ORDER_CAP",
]

WEYL_ORDER_CAP = 2_000_000
PACK_BASE, PACK_PLACES = 512, 4


def _column_pack(n: int) -> np.ndarray:
    """n x ceil(n/4) matrix whose column c holds PACK_BASE^0..3 at rows 4c..4c+3.

    z commutes with w exactly when (zw - wz) @ pack = 0: zw and wz are
    elements, so each entry of zw - wz lies within +-255 < PACK_BASE, and
    a sum of such digits times distinct powers of PACK_BASE vanishes only
    when its lowest digit, a multiple of PACK_BASE, is 0, and so on up.
    Four places per column keep the products far inside int64 (about
    n * 2^41).
    """
    pack = np.zeros((n, -(-n // PACK_PLACES)), dtype=np.int64)
    for j in range(n):
        pack[j, j // PACK_PLACES] = PACK_BASE ** (j % PACK_PLACES)
    return pack


@dataclass(frozen=True, eq=False)
class ConjugacyClass:
    """A class as the index of its representative and the ascending,
    read-only int64 array of its member indices."""

    representative: int
    members: np.ndarray


class WeylGroup:
    """A finite group of integer matrices, closed from its generators.

    ``array[i]`` is element i as int8, ``generators`` are the indices of
    the generating matrices and ``lookup`` maps the bytes of each element
    to its index.  Conjugacy classes are sorted by their
    (lexicographically minimal) representative matrix, which makes every
    downstream report ordering reproducible.
    """

    def __init__(self, array: np.ndarray, generators: list[int], lookup: dict[bytes, int]):
        self.rank = array.shape[1]
        self.array = array
        self.array.flags.writeable = False
        self.generators = generators
        self._lookup = lookup
        self._classes: list[ConjugacyClass] | None = None
        self._centralizers: dict[int, np.ndarray] = {}

    def __len__(self) -> int:
        return len(self.array)

    def _indices(self, mats: np.ndarray) -> list[int]:
        """Indices of a stack of int64 matrices, which must all be elements."""
        return [self._lookup[key] for key in _keys(int_array(mats, np.int8))]

    def inverse(self, i: int) -> int:
        """g^-1 = g^(m-1), where m is the order of g = element i."""
        g = self.array[i].astype(np.int64)
        ident = np.eye(self.rank, dtype=np.int64)
        prev, power = ident, g
        while not (power == ident).all():
            prev, power = power, power @ g
        return self._indices(prev[None])[0]

    @cached_property
    def _orbits(self) -> list[np.ndarray]:
        """Orbits of the conjugation permutations of the generators, as
        ascending, read-only index arrays."""
        a = self.array.astype(np.int64)
        # simple reflections are involutions, but stay generic: use inverses
        perms = [np.array(self._indices(a[g] @ a @ a[self.inverse(g)])) for g in self.generators]
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
        order = np.argsort(label, kind="stable")
        order.flags.writeable = False
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

    @cached_property
    def _packed(self) -> np.ndarray:
        """Every element times the column pack, as int64."""
        return self.array.astype(np.int64) @ _column_pack(self.rank)

    def centralizer_indices(self, i: int) -> np.ndarray:
        """The elements commuting with element i, as an ascending,
        read-only int64 index array (cached)."""
        if i not in self._centralizers:
            w = self.array[i].astype(np.int64)
            z_w = self.array.astype(np.int64) @ (w @ _column_pack(self.rank))
            commutes = (z_w == w @ self._packed).reshape(len(self), -1).all(axis=1)
            cent = np.flatnonzero(commutes)
            cent.flags.writeable = False
            self._centralizers[i] = cent
        return self._centralizers[i]

    @classmethod
    def from_generators(cls, gens, rank: int, cap: int = WEYL_ORDER_CAP) -> "WeylGroup":
        """The :func:`closure` of the int8 identity under the generators:
        each frontier times each generator, first-seen order."""
        gen_arr = int_array(gens, np.int8)
        if gen_arr.size and gen_arr.shape[1:] != (rank, rank):
            raise ValueError("generator shape does not match rank")
        gen_arr = gen_arr.reshape(-1, rank, rank)
        array, lookup = closure(np.eye(rank, dtype=np.int8)[None], gen_arr, cap)
        return cls(array, [lookup[key] for key in _keys(gen_arr)], lookup)


class _Transpose(WeylGroup):
    """Element i is the partner's element i transposed.  The generators,
    orbits and centralizers are the partner's index arrays; only the class
    representatives and their order are taken on these matrices."""

    _orbits = property(lambda self: self._partner._orbits)

    def __init__(self, partner: WeylGroup):
        super().__init__(partner.array.transpose(0, 2, 1), partner.generators, {})
        self._partner, self._centralizers = partner, partner._centralizers

    def _indices(self, mats: np.ndarray) -> list[int]:
        return self._partner._indices(np.swapaxes(mats, -1, -2))


def simple_reflection_matrices(rd: RootDatum) -> np.ndarray:
    """The simple reflections acting on X_*, x -> x - <alpha, x> alpha_check,
    as one (rank, n, n) int64 stack."""
    return _simple_reflections(rd.rank, rd.simple_roots, rd.simple_coroots)


# groups by (generator bytes, cap); a stack and its transpose share one closure
_GROUPS: dict[tuple[bytes, int], WeylGroup] = {}


def generate(rd: RootDatum, cap: int = WEYL_ORDER_CAP) -> WeylGroup:
    """Close the simple reflections of `rd` into the full Weyl group on X_*.

    A stack and its transpose (`rd` and its dual) share one closure, of the
    side with the smaller bytes; the other side's element i is element i of
    the closed side, transposed, whichever side is asked for first.  Raises
    :class:`GroupTooLargeError`, naming the datum, if the Weyl order of the
    labelled type passes `cap`, before any closure, or if the closure does.
    """
    t, r, _ = rd.label
    order = WEYL_ORDERS[t](r) if t in WEYL_ORDERS else 0
    if order > cap:
        raise GroupTooLargeError(f"{rd}: |W| = {order} exceeds the cap of {cap}")
    gens = simple_reflection_matrices(rd)
    flipped = gens.transpose(0, 2, 1)
    key, other = (gens.tobytes(), cap), (flipped.tobytes(), cap)
    if key not in _GROUPS:
        try:
            group = WeylGroup.from_generators(gens if key <= other else flipped, rd.rank, cap)
        except GroupTooLargeError as exc:
            raise GroupTooLargeError(f"{rd}: {exc}") from None
        _GROUPS[min(key, other)] = group
        _GROUPS.setdefault(max(key, other), _Transpose(group))
    return _GROUPS[key]

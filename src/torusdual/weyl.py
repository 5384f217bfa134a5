"""Finite groups of exact integer matrices acting on a lattice Z^n.

The main producer is :func:`generate`, which closes the simple reflections
of a root datum into the full Weyl group acting on the cocharacter side.
The group machinery itself (closure, conjugacy classes, centralizers) is
generic, so test fixtures like {1} or {+-1} on Z are first-class citizens.

Elements are tuples of tuples of Python ints: exact, hashable, immutable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .rootdata import RootDatum

__all__ = [
    "GroupTooLargeError",
    "Matrix",
    "WeylGroup",
    "ConjugacyClass",
    "generate",
    "conjugacy_classes",
    "centralizer",
    "mat_mul",
    "mat_identity",
    "WEYL_ORDER_CAP",
]

WEYL_ORDER_CAP = 2_000_000

Matrix = tuple[tuple[int, ...], ...]


class GroupTooLargeError(RuntimeError):
    """Closure exceeded the configured group-order cap."""


def mat_identity(n: int) -> Matrix:
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    bt = tuple(zip(*b))
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a
    )


def as_matrix(m) -> Matrix:
    if isinstance(m, tuple):
        return m
    arr = np.asarray(m)
    return tuple(tuple(int(x) for x in row) for row in arr)


@dataclass(frozen=True)
class ConjugacyClass:
    representative: int
    members: tuple[int, ...]


@dataclass
class WeylGroup:
    """A finite group of integer matrices, closed from its generators.

    Conjugacy classes are sorted by their (lexicographically minimal)
    representative matrix, which makes every downstream report ordering
    reproducible.
    """

    rank: int
    elements: list[Matrix]
    generators: list[int]
    index: dict[Matrix, int] = field(repr=False, default_factory=dict)
    _classes: list[ConjugacyClass] | None = field(default=None, repr=False)
    _centralizers: dict[int, tuple[int, ...]] = field(default_factory=dict, repr=False)

    def __post_init__(self):
        if not self.index:
            self.index = {m: i for i, m in enumerate(self.elements)}

    def __len__(self) -> int:
        return len(self.elements)

    @property
    def identity_index(self) -> int:
        return self.index[mat_identity(self.rank)]

    def multiply(self, i: int, j: int) -> int:
        return self.index[mat_mul(self.elements[i], self.elements[j])]

    def inverse(self, i: int) -> int:
        # finite order: some power is the identity
        j = i
        prev = self.identity_index
        while j != self.identity_index:
            prev = j
            j = self.multiply(j, i)
        return prev if i != self.identity_index else i

    @property
    def classes(self) -> list[ConjugacyClass]:
        if self._classes is None:
            self._classes = _compute_classes(self)
        return self._classes

    def centralizer_indices(self, i: int) -> tuple[int, ...]:
        if i not in self._centralizers:
            w = self.elements[i]
            self._centralizers[i] = tuple(
                k for k, z in enumerate(self.elements)
                if mat_mul(z, w) == mat_mul(w, z)
            )
        return self._centralizers[i]

    @classmethod
    def from_generators(cls, gens, rank: int, cap: int = WEYL_ORDER_CAP) -> "WeylGroup":
        mats = [as_matrix(g) for g in gens]
        for g in mats:
            if len(g) != rank or any(len(row) != rank for row in g):
                raise ValueError("generator shape does not match rank")
        ident = mat_identity(rank)
        elements = [ident]
        index = {ident: 0}
        frontier = [ident]
        while frontier:
            nxt = []
            for m in frontier:
                for g in mats:
                    prod = mat_mul(m, g)
                    if prod not in index:
                        index[prod] = len(elements)
                        elements.append(prod)
                        nxt.append(prod)
                        if len(elements) > cap:
                            raise GroupTooLargeError(
                                f"group closure exceeded the cap of {cap} elements"
                            )
            frontier = nxt
        gen_indices = [index[g] for g in mats]
        return cls(rank=rank, elements=elements, generators=gen_indices, index=index)


def _compute_classes(group: WeylGroup) -> list[ConjugacyClass]:
    n = len(group.elements)
    gen_idx = group.generators
    gens = [group.elements[i] for i in gen_idx]
    # simple reflections are involutions, but stay generic: use inverses
    gen_invs = [group.elements[group.inverse(i)] for i in gen_idx]
    assigned = [False] * n
    classes = []
    for start in range(n):
        if assigned[start]:
            continue
        seen = {start}
        frontier = [start]
        while frontier:
            nxt = []
            for i in frontier:
                m = group.elements[i]
                for g, ginv in zip(gens, gen_invs):
                    c = group.index[mat_mul(mat_mul(g, m), ginv)]
                    if c not in seen:
                        seen.add(c)
                        nxt.append(c)
            frontier = nxt
        members = tuple(sorted(seen))
        rep = min(members, key=lambda i: group.elements[i])
        for i in members:
            assigned[i] = True
        classes.append(ConjugacyClass(representative=rep, members=members))
    classes.sort(key=lambda c: group.elements[c.representative])
    return classes


def simple_reflection_matrices(rd: RootDatum) -> list[Matrix]:
    """Matrices of the simple reflections acting on X_*: x -> x - <alpha, x> alpha_check."""
    n = rd.rank
    mats = []
    for alpha, alpha_ck in zip(rd.simple_roots, rd.simple_coroots):
        m = [
            [int(i == j) - alpha_ck[i] * alpha[j] for j in range(n)]
            for i in range(n)
        ]
        mats.append(tuple(tuple(row) for row in m))
    return mats


@lru_cache(maxsize=None)
def _generate_cached(rd: RootDatum, cap: int) -> WeylGroup:
    return WeylGroup.from_generators(simple_reflection_matrices(rd), rd.rank, cap)


def generate(rd: RootDatum, cap: int = WEYL_ORDER_CAP) -> WeylGroup:
    """Close the simple reflections of `rd` into the full Weyl group on X_*.

    Raises :class:`GroupTooLargeError` if the closure passes `cap` elements.
    """
    return _generate_cached(rd, cap)


def conjugacy_classes(group: WeylGroup) -> list[ConjugacyClass]:
    return group.classes


def centralizer(group: WeylGroup, w) -> list[Matrix]:
    """Elements commuting with w (which must belong to the group)."""
    wm = as_matrix(w)
    if wm not in group.index:
        raise ValueError("element does not belong to the group")
    return [group.elements[i] for i in group.centralizer_indices(group.index[wm])]

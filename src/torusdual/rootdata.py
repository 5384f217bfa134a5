"""Root data for the simple compact types, their isogeny forms, and
Langlands dualization.

Coordinates are always chosen so that the pairing between the character
lattice X* and the cocharacter lattice X_* is the literal dot product:
X_* is identified with Z^rank in its own basis and X* carries the dual
basis.  Dualizing a datum is then a pure swap of the two sides.

Cartan matrices follow the Bourbaki plates and are compiled in; no data
files are read at runtime.  Our convention is ``A[i][j] = <alpha_i,
alpha_j_check>`` (root i paired against coroot j).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from math import factorial
from typing import Sequence, Union

import numpy as np

from .intlinalg import (
    INT64_MAX, FiniteAbelianGroup, GroupTooLargeError, _freeze, as_matrix, closure, cokernel, det,
    int_array, int_matmul, smith_normal_form,
)

__all__ = [
    "RootDatum",
    "build_simple",
    "dualize",
    "fundamental_group",
    "center",
    "connection_index",
    "cartan_matrix",
    "classify_form",
    "is_simple_type",
    "datum_to_json",
    "SIMPLE_TYPES",
    "ROOT_COUNTS",
    "WEYL_ORDERS",
    "MAX_RANK",
]

MAX_RANK = 8  # build_simple refuses larger ranks; read at call time

SIMPLE_TYPES = ("A", "B", "C", "D", "E", "F", "G")

# GroupForm: "sc", "adjoint", or a sequence of generator vectors for a
# subgroup of pi_1(adjoint) = (coweight lattice)/(coroot lattice), given in
# the fundamental-coweight coordinates of the adjoint form.
GroupForm = Union[str, Sequence[Sequence[int]]]

DUAL_TYPE = {"A": "A", "B": "C", "C": "B", "D": "D", "E": "E", "F": "F", "G": "G"}

_E_EDGES = {
    6: [(0, 2), (2, 3), (3, 4), (4, 5), (1, 3)],
    7: [(0, 2), (2, 3), (3, 4), (4, 5), (5, 6), (1, 3)],
    8: [(0, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (1, 3)],
}


def is_simple_type(type_: str, rank: int) -> bool:
    """Whether (type, rank) names a simple compact type, e.g. D3 but not D2."""
    return {
        "A": rank >= 1,
        "B": rank >= 2,
        "C": rank >= 2,
        "D": rank >= 3,
        "E": rank in (6, 7, 8),
        "F": rank == 4,
        "G": rank == 2,
    }.get(type_, False)


def _validate_type_rank(type_: str, rank: int) -> None:
    if not is_simple_type(type_, rank):
        raise ValueError(f"invalid simple type {type_}{rank}")


def cartan_matrix(type_: str, rank: int) -> np.ndarray:
    """Cartan matrix with A[i][j] = <alpha_i, alpha_j_check>, Bourbaki
    numbering, as a read-only int64 array."""
    _validate_type_rank(type_, rank)
    n = rank
    a = [[0] * n for _ in range(n)]
    for i in range(n):
        a[i][i] = 2

    def chain(pairs):
        for i, j in pairs:
            a[i][j] = -1
            a[j][i] = -1

    if type_ == "A":
        chain((i, i + 1) for i in range(n - 1))
    elif type_ == "B":
        chain((i, i + 1) for i in range(n - 1))
        a[n - 2][n - 1] = -2  # alpha_{n-1} long against short coroot
    elif type_ == "C":
        chain((i, i + 1) for i in range(n - 1))
        a[n - 1][n - 2] = -2
    elif type_ == "D":
        chain((i, i + 1) for i in range(n - 2))
        a[n - 3][n - 1] = a[n - 1][n - 3] = -1
    elif type_ == "E":
        chain(_E_EDGES[n])
    elif type_ == "F":
        chain([(0, 1), (2, 3)])
        a[1][2] = -2
        a[2][1] = -1
    elif type_ == "G":
        a[0][1] = -1
        a[1][0] = -3
    return _freeze(int_array(a))


@dataclass(frozen=True)
class RootDatum:
    """A based root datum (X*, R, X_*, R_check) in dot-product coordinates,
    held as its simple system.

    `simple_roots[i]` and `simple_coroots[i]` are a matched pair.
    `roots` and `coroots` are closed from them on first read, as matched
    lists sorted by root.  Structural equality and hashing ignore the
    label, so dualizing twice is a literal equality.
    """

    rank: int
    simple_roots: tuple[tuple[int, ...], ...]
    simple_coroots: tuple[tuple[int, ...], ...]
    label: tuple[str, int, str] = field(compare=False, default=("?", 0, "?"))

    def __post_init__(self):
        # tuples of Python ints, so that data built from lists or arrays hash and compare alike
        for name in ("simple_roots", "simple_coroots"):
            object.__setattr__(self, name, as_matrix(getattr(self, name)))
        if len(self.simple_roots) != len(self.simple_coroots) or any(
            len(v) != self.rank for v in (*self.simple_roots, *self.simple_coroots)
        ):
            raise ValueError("simple roots and coroots must be matched lists of rank-length vectors")
        for alpha, alpha_ck in zip(self.simple_roots, self.simple_coroots):
            if sum(a * b for a, b in zip(alpha, alpha_ck)) != 2:
                raise ValueError("pairing <alpha_i, alpha_i_check> must equal 2")

    @cached_property
    def _closure(self):
        return _close_roots(self.rank, self.simple_roots, self.simple_coroots)

    roots = property(lambda self: self._closure[0])
    coroots = property(lambda self: self._closure[1])

    def root_matrix(self) -> np.ndarray:
        """Read-only int64 matrix with the simple roots as columns."""
        return _columns(self.rank, self.simple_roots)

    def coroot_matrix(self) -> np.ndarray:
        """Read-only int64 matrix with the simple coroots as columns."""
        return _columns(self.rank, self.simple_coroots)

    def __str__(self) -> str:
        t, r, form = self.label
        return f"{t}{r}[{form}]"


def _columns(rank: int, vectors) -> np.ndarray:
    return _freeze(int_array(vectors).reshape(len(vectors), rank).T.copy())


def _simple_reflections(rank: int, simple_roots, simple_coroots) -> np.ndarray:
    """The simple reflections s_i = 1 - alpha_i_check alpha_i^T acting on
    X_*, x -> x - <alpha_i, x> alpha_i_check, as one (k, n, n) int64
    stack, the products checked by int_matmul; 1 - x wraps only at
    x = -(2^63 - 1), so that entry raises OverflowError too."""
    alpha, alpha_ck = (int_array(v).reshape(len(v), rank) for v in (simple_roots, simple_coroots))
    outer = int_matmul(alpha_ck[:, :, None], alpha[:, None, :])
    if outer.min(initial=0) == -INT64_MAX:
        raise OverflowError("simple reflection could pass the int64 range")
    return np.eye(rank, dtype=np.int64) - outer


def _close_roots(rank: int, simple_roots, simple_coroots):
    """The roots and coroots, sorted by root: the orbit of the simple pairs
    under the simple reflections.

    A pair is one row [beta | beta_check], which s_i maps to
    [beta s_i | beta_check s_i^T], so the orbit is :func:`closure` of the
    rows [alpha_i | alpha_i_check] under diag(s_i, s_i^T).  No root
    system of rank n has more than 2n^2 + 240 roots, so a datum whose
    closure passes that (an affine one, say) raises ValueError.
    """
    s = _simple_reflections(rank, simple_roots, simple_coroots)
    blocks = np.zeros((len(s), 2 * rank, 2 * rank), dtype=np.int64)
    blocks[:, :rank, :rank], blocks[:, rank:, rank:] = s, s.transpose(0, 2, 1)
    start = np.hstack([int_array(v).reshape(len(s), rank) for v in (simple_roots, simple_coroots)])
    limit = 2 * rank * rank + 240
    try:
        pairs = closure(start[:, None], blocks, limit)
    except GroupTooLargeError:
        raise ValueError(f"the simple reflections close on more than {limit} roots: "
                         "not a finite root system") from None
    rows = sorted(map(tuple, pairs[:, 0].tolist()))
    return tuple(r[:rank] for r in rows), tuple(r[rank:] for r in rows)


# number of roots per type, for construction-time sanity checking
ROOT_COUNTS = {
    "A": lambda n: n * (n + 1),
    "B": lambda n: 2 * n * n,
    "C": lambda n: 2 * n * n,
    "D": lambda n: 2 * n * (n - 1),
    "E": lambda n: {6: 72, 7: 126, 8: 240}[n],
    "F": lambda n: 48,
    "G": lambda n: 12,
}

# order of the Weyl group per type, so a closure past its cap never starts
WEYL_ORDERS = {
    "A": lambda n: factorial(n + 1),
    "B": lambda n: 2**n * factorial(n),
    "C": lambda n: 2**n * factorial(n),
    "D": lambda n: 2 ** (n - 1) * factorial(n),
    "E": lambda n: {6: 51840, 7: 2903040, 8: 696729600}[n],
    "F": lambda n: 1152,
    "G": lambda n: 12,
}


def build_simple(type_: str, rank: int, form: GroupForm = "sc") -> RootDatum:
    """Construct the root datum of a simple compact type in a given isogeny form.

    form: "sc" (X_* = coroot lattice), "adjoint" (X* = root lattice), or a
    list of generators (integer vectors in fundamental-coweight
    coordinates) for a subgroup of pi_1(adjoint).  A rank past
    ``MAX_RANK`` raises ValueError.
    """
    _validate_type_rank(type_, rank)
    if rank > MAX_RANK:
        raise ValueError(f"rank {rank} exceeds configured cap {MAX_RANK}")
    a = cartan_matrix(type_, rank)
    n = rank
    unit = np.eye(n, dtype=np.int64)

    if form == "sc":
        # alpha_i = row i of the Cartan matrix, coroot i = e_i
        simple = (a, unit)
        tag = "sc"
    elif form == "adjoint":
        # alpha_i = e_i, coroot i = column i of the Cartan matrix
        simple = (unit, a.T)
        tag = "adjoint"
    else:
        gens = int_array(form)
        if gens.size and (gens.ndim != 2 or gens.shape[1] != n):
            raise ValueError("quotient generators must be integer vectors of length rank")
        # X_* = coroot lattice + <gens> inside the coweight lattice Z^n
        columns = np.hstack([a, gens.reshape(-1, n).T])
        # U C V = D: the basis C V[:, :n] = U^-1 D of the span, in which
        # coroot j (column j of a) has the coordinates D^-1 U a[:, j]
        snf = smith_normal_form(columns)
        basis = int_matmul(columns, snf.v[:, :n])
        scaled = int_matmul(snf.u, a)
        d = np.array(snf.diagonal, dtype=np.int64).reshape(n, 1)
        if (scaled % d).any():
            raise ValueError("quotient generators must define a lattice containing the coroots")
        # alpha_i = row i of basis; coroot i = column i of D^-1 U a
        simple = (basis, (scaled // d).T)
        # a generator list is labelled by its structure, as dualize labels
        tag = _form_tag(n, *simple)

    rd = RootDatum(n, *simple, label=(type_, rank, tag))
    expected = ROOT_COUNTS[type_](rank)
    if len(rd.roots) != expected:
        raise AssertionError(
            f"root closure produced {len(rd.roots)} roots for {type_}{rank}, expected {expected}"
        )
    return rd


def dualize(rd: RootDatum) -> RootDatum:
    """Langlands dual: swap X* with X_* and the simple roots with the simple coroots."""
    t, r, _ = rd.label
    label = (DUAL_TYPE.get(t, t), r, _form_tag(rd.rank, rd.simple_coroots, rd.simple_roots))
    return RootDatum(rd.rank, rd.simple_coroots, rd.simple_roots, label)


def _torsion(columns: np.ndarray) -> FiniteAbelianGroup:
    """Torsion of Z^n modulo the span of the columns, which must have rank n."""
    free, torsion = cokernel(columns)
    if free != 0:
        raise ValueError("datum is not semisimple")
    return torsion


def fundamental_group(rd: RootDatum) -> FiniteAbelianGroup:
    """pi_1 of the compact group: torsion of X_*/(coroot lattice)."""
    return _torsion(rd.coroot_matrix())


def center(rd: RootDatum) -> FiniteAbelianGroup:
    """Center of the compact group: torsion of X*/(root lattice)."""
    return _torsion(rd.root_matrix())


def connection_index(rd: RootDatum) -> int:
    """|pi_1| * |center|; invariant under dualization."""
    pi1, z = _orders(rd.rank, rd.simple_roots, rd.simple_coroots)
    return pi1 * z


def _orders(rank: int, simple_roots, simple_coroots) -> tuple[int, int]:
    """(|pi_1|, |center|): the indices of the coroot lattice in X_* and of
    the root lattice in X*, the absolute determinants of the simple
    coroots and the simple roots, from one stacked det."""
    if len(simple_roots) != rank:
        raise ValueError("datum is not semisimple")
    dets = det(int_array([simple_coroots, simple_roots]).reshape(2, rank, rank))
    if not dets.all():
        raise ValueError("datum is not semisimple")
    return abs(int(dets[0])), abs(int(dets[1]))


def classify_form(rd: RootDatum) -> str:
    """Structural form tag: sc wins ties for connection index 1 types."""
    return _form_tag(rd.rank, rd.simple_roots, rd.simple_coroots)


def _form_tag(rank: int, simple_roots, simple_coroots) -> str:
    pi1, z = _orders(rank, simple_roots, simple_coroots)
    return "sc" if pi1 == 1 else "adjoint" if z == 1 else "quotient"


def datum_to_json(rd: RootDatum) -> dict:
    """Documented JSON shape {type, rank, form, roots, coroots}."""
    t, r, form = rd.label
    return {
        "type": t,
        "rank": r,
        "form": form,
        "roots": [list(map(int, root)) for root in rd.roots],
        "coroots": [list(map(int, c)) for c in rd.coroots],
    }

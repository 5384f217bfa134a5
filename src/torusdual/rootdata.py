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

import dataclasses
from dataclasses import dataclass, field
from math import factorial
from typing import Sequence, Union

import numpy as np

from .intlinalg import FiniteAbelianGroup, cokernel, int_array, intmat, smith_normal_form

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
]

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
    """Cartan matrix with A[i][j] = <alpha_i, alpha_j_check>, Bourbaki numbering."""
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
    return intmat(a)


@dataclass(frozen=True)
class RootDatum:
    """The 4-tuple (X*, R, X_*, R_check) in dot-product coordinates.

    `roots[k]` and `coroots[k]` are a matched pair.  Structural equality
    and hashing ignore the label; root lists are sorted lexicographically
    at construction so that dualizing twice is a literal equality.
    """

    rank: int
    roots: tuple[tuple[int, ...], ...]
    coroots: tuple[tuple[int, ...], ...]
    simple_indices: tuple[int, ...]
    label: tuple[str, int, str] = field(compare=False, default=("?", 0, "?"))

    def __post_init__(self):
        if len(self.roots) != len(self.coroots):
            raise ValueError("roots and coroots must be matched lists")
        for alpha, alpha_ck in zip(self.roots, self.coroots):
            if sum(a * b for a, b in zip(alpha, alpha_ck)) != 2:
                raise ValueError("pairing <alpha, alpha_check> must equal 2")

    @property
    def simple_roots(self) -> tuple[tuple[int, ...], ...]:
        return tuple(self.roots[i] for i in self.simple_indices)

    @property
    def simple_coroots(self) -> tuple[tuple[int, ...], ...]:
        return tuple(self.coroots[i] for i in self.simple_indices)

    def root_matrix(self) -> np.ndarray:
        """Matrix with the simple roots as columns."""
        return intmat([[r[i] for r in self.simple_roots] for i in range(self.rank)])

    def coroot_matrix(self) -> np.ndarray:
        """Matrix with the simple coroots as columns."""
        return intmat([[c[i] for c in self.simple_coroots] for i in range(self.rank)])

    def __str__(self) -> str:
        t, r, form = self.label
        return f"{t}{r}[{form}]"


def _pair(eta, x) -> int:
    return sum(int(a) * int(b) for a, b in zip(eta, x))


def _reflect_root(alpha, alpha_ck, beta, beta_ck):
    """Apply s_alpha to the pair (beta, beta_check)."""
    n1 = _pair(beta, alpha_ck)
    new_root = tuple(b - n1 * a for b, a in zip(beta, alpha))
    n2 = _pair(alpha, beta_ck)
    new_coroot = tuple(b - n2 * a for b, a in zip(beta_ck, alpha_ck))
    return new_root, new_coroot


def _close_root_system(simple_pairs):
    seen = dict(simple_pairs)
    frontier = list(simple_pairs)
    while frontier:
        nxt = []
        for beta, beta_ck in frontier:
            for alpha, alpha_ck in simple_pairs:
                im = _reflect_root(alpha, alpha_ck, beta, beta_ck)
                if im[0] not in seen:
                    seen[im[0]] = im[1]
                    nxt.append(im)
        frontier = nxt
    return sorted(seen.items())


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


def build_simple(type_: str, rank: int, form: GroupForm = "sc", *, max_rank: int = 8) -> RootDatum:
    """Construct the root datum of a simple compact type in a given isogeny form.

    form: "sc" (X_* = coroot lattice), "adjoint" (X* = root lattice), or a
    list of generators (integer vectors in fundamental-coweight
    coordinates) for a subgroup of pi_1(adjoint).
    """
    _validate_type_rank(type_, rank)
    if rank > max_rank:
        raise ValueError(f"rank {rank} exceeds configured cap {max_rank}")
    a = cartan_matrix(type_, rank)
    n = rank

    if form == "sc":
        simples = [
            (tuple(int(a[i, j]) for j in range(n)), tuple(int(i == j) for j in range(n)))
            for i in range(n)
        ]
        tag = "sc"
    elif form == "adjoint":
        # alpha_i = e_i, coroot i = i-th column of the Cartan matrix
        simples = [
            (tuple(int(i == j) for j in range(n)), tuple(int(a[k, i]) for k in range(n)))
            for i in range(n)
        ]
        tag = "adjoint"
    else:
        gens = int_array(form)
        if gens.size and (gens.ndim != 2 or gens.shape[1] != n):
            raise ValueError("quotient generators must be integer vectors of length rank")
        # X_* = coroot lattice + <gens> inside the coweight lattice Z^n
        columns = np.hstack([a, gens.reshape(-1, n).T.astype(object)])
        # U C V = D: the basis C V[:, :n] = U^-1 D of the span, in which
        # coroot j (column j of a) has the coordinates D^-1 U a[:, j]
        snf = smith_normal_form(columns)
        basis = (columns @ snf.v)[:, :n]
        scaled = snf.u @ a
        d = snf.diagonal
        if any(x % d[i] for i in range(n) for x in scaled[i]):
            raise ValueError("quotient generators must define a lattice containing the coroots")
        simples = [
            (
                tuple(int(basis[i, k]) for k in range(n)),  # row i of basis = alpha_i
                tuple(scaled[k, i] // d[k] for k in range(n)),
            )
            for i in range(n)
        ]
        tag = None  # read off the datum below

    pairs = _close_root_system(simples)
    expected = ROOT_COUNTS[type_](rank)
    if len(pairs) != expected:
        raise AssertionError(
            f"root closure produced {len(pairs)} roots for {type_}{rank}, expected {expected}"
        )
    roots = tuple(p[0] for p in pairs)
    coroots = tuple(p[1] for p in pairs)
    simple_indices = tuple(roots.index(s[0]) for s in simples)
    rd = RootDatum(rank=n, roots=roots, coroots=coroots, simple_indices=simple_indices,
                   label=(type_, rank, tag or "?"))
    if tag is None:
        # a generator list is labelled by its structure, as dualize labels
        rd = dataclasses.replace(rd, label=(type_, rank, classify_form(rd)))
    return rd


def dualize(rd: RootDatum) -> RootDatum:
    """Langlands dual: swap X* with X_* and R with R_check."""
    pairs = sorted(zip(rd.coroots, rd.roots))
    roots = tuple(p[0] for p in pairs)
    coroots = tuple(p[1] for p in pairs)
    old_simple_roots = [rd.coroots[i] for i in rd.simple_indices]
    simple_indices = tuple(roots.index(s) for s in old_simple_roots)
    t, r, _ = rd.label
    dual = RootDatum(rank=rd.rank, roots=roots, coroots=coroots, simple_indices=simple_indices,
                     label=(DUAL_TYPE.get(t, t), r, "?"))
    return dataclasses.replace(dual, label=(DUAL_TYPE.get(t, t), r, classify_form(dual)))


def fundamental_group(rd: RootDatum) -> FiniteAbelianGroup:
    """pi_1 of the compact group: torsion of X_*/(coroot lattice)."""
    free, torsion = cokernel(rd.coroot_matrix())
    if free != 0:
        raise ValueError("datum is not semisimple")
    return torsion


def center(rd: RootDatum) -> FiniteAbelianGroup:
    """Center of the compact group: torsion of X*/(root lattice)."""
    free, torsion = cokernel(rd.root_matrix())
    if free != 0:
        raise ValueError("datum is not semisimple")
    return torsion


def connection_index(rd: RootDatum) -> int:
    """|pi_1| * |center|; invariant under dualization."""
    return fundamental_group(rd).order * center(rd).order


def classify_form(rd: RootDatum) -> str:
    """Structural form tag: sc wins ties for connection index 1 types."""
    if fundamental_group(rd).is_trivial:
        return "sc"
    if center(rd).is_trivial:
        return "adjoint"
    return "quotient"


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

"""Fixed sets of lattice automorphisms acting on the torus T = t/Gamma.

Everything here works in coordinates where Gamma = Z^n.  For w a lattice
automorphism, T^w = {x : (w - 1) x in Z^n} / Z^n is a finite disjoint
union of parallel subtori of dimension dim ker(w - 1).  One Smith form
U (w - 1) V = D per fixed set gives the components, their keys in
tors coker(w - 1) and the lattice Gamma^w; :func:`fixed_sets` takes the
Smith forms of a whole stack of elements at once, and :func:`fixed_set`
is its one-element case.  The components are held as
one int64 array X of numerators over the largest invariant factor q, so
their images, their keys and the action of a whole stack of centralizer
elements are int64 products, each checked by ``intlinalg.int_matmul``;
they are handed out as exact rational points only in ``components``.
Two actions of commuting pairs (w, z), each on a stack of elements w that
share one invariant-factor diagonal: ``_stacked_action``, run by the class
sum, reads the fixed components and the restriction to Gamma^w off the
Smith forms with no further elimination; ``_pair_action``, run by the
commuting-pairs oracle, instead tests the membership of each z x and
restricts each z through one stacked Smith form of the bases V[:, r:] of
Gamma^w.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import prod

import numpy as np

from .intlinalg import (
    Matrix,
    SmithDecomposition,
    _as_fractions,
    _coset_numerators,
    _restrict,
    as_matrix,
    int_array,
    int_matmul,
    smith_normal_form,
    solve_mod_lattice,
)
from .rootdata import RootDatum
from .weyl import simple_reflection_matrices

__all__ = ["FixedSetReport", "fixed_set", "fixed_sets", "full_fixed_points"]


@dataclass(frozen=True)
class FixedSetReport:
    """Fixed-point data of one lattice automorphism w.

    Holds the matrix M = w - 1, its Smith form U M V = D of rank r and
    the components as the columns of the int64 numerators X over the
    denominator q.  The rest is read off these:
    components are rational points in [0,1)^n, one per connected
    component of the fixed set, sorted; fixed_lattice_basis is a Z-basis
    of Gamma intersected with ker(w - 1), the columns V[:, r:].
    """

    w: Matrix
    _matrix: np.ndarray = field(repr=False, compare=False, hash=False)
    _snf: SmithDecomposition = field(repr=False, compare=False, hash=False)
    _numerators: np.ndarray = field(repr=False, compare=False, hash=False)
    _denominator: int = field(repr=False, compare=False, hash=False)

    @property
    def rank(self) -> int:
        return self._matrix.shape[1]

    @property
    def fixed_dim(self) -> int:
        return self.rank - self._snf.rank

    @cached_property
    def components(self) -> tuple[tuple[Fraction, ...], ...]:
        return tuple(_as_fractions(self._numerators, self._denominator))

    @cached_property
    def fixed_lattice_basis(self) -> tuple[tuple[int, ...], ...]:
        return tuple(tuple(int(v) for v in col) for col in self._snf.v.T[self._snf.rank:])

    def component_count(self) -> int:
        return self._numerators.shape[1]


def _difference_matrix(*mats) -> np.ndarray:
    """The square matrices m - 1, stacked one above the other, in int64
    (int_array bounds entries by +-(2^63 - 1), so this cannot wrap)."""
    stack = int_array(mats)
    n = stack.shape[-1]
    if stack.ndim != 3 or stack.shape[1] != n:
        raise ValueError("expected square matrices")
    return (stack - np.eye(n, dtype=np.int64)).reshape(-1, n)


def fixed_sets(ws) -> list[FixedSetReport]:
    """Fixed-set reports for a (k, n, n) stack of lattice automorphisms on
    Z^n, from one stacked Smith form of every w - 1 (int_array bounds
    entries by +-(2^63 - 1), so w - 1 cannot wrap)."""
    wm = int_array(ws)
    n = wm.shape[-1]
    if wm.ndim != 3 or wm.shape[1] != n:
        raise ValueError("expected a stack of square matrices")
    matrices = wm - np.eye(n, dtype=np.int64)
    stacked, reports = smith_normal_form(matrices), []
    for w, matrix, *factors in zip(wm, matrices, stacked.u, stacked.d, stacked.v, stacked.v_inv):
        snf = SmithDecomposition(*factors)
        x, q = _coset_numerators(snf, modulo_kernel=True)
        reports.append(FixedSetReport(w=as_matrix(w), _matrix=matrix, _snf=snf,
                                      _numerators=x, _denominator=q))
    return reports


def fixed_set(w) -> FixedSetReport:
    """Fixed-set report for one lattice automorphism w on Z^n: the
    one-element case of :func:`fixed_sets`."""
    return fixed_sets(int_array(w)[None])[0]


def full_fixed_points(rd: RootDatum) -> list[tuple[Fraction, ...]]:
    """The fixed points of the full Weyl-group action on the torus of `rd`,
    sorted, as rational points in [0,1)^n.

    Solves the stacked system {(s - 1)x in Gamma for all simple s}.  For a
    semisimple datum the simultaneous fixed space is zero, so the fixed
    set is a finite list of points; a nonzero joint kernel propagates
    :class:`InfiniteSolutionSetError`.
    """
    stacked = _difference_matrix(*simple_reflection_matrices(rd))
    return solve_mod_lattice(stacked, modulo_kernel=False)


def _torsion_rows(u, diag):
    """Rows U_tors of U (or of each U of a stack) at the invariant factors
    d_i > 1, and those d_i as a column, in int64 (cast checked)."""
    tors = [i for i, x in enumerate(diag) if x > 1]
    return int_array(u[..., tors, :]), int_array([int(diag[i]) for i in tors]).reshape(-1, 1)


def _stacked_action(w, snf, x, owner, z):
    """Action of the commuting pairs (w[owner[p]], z[p]) on fixed sets,
    read off the Smith forms with no further elimination.

    w is a (b, n, n) int64 stack whose matrices w - 1 share one
    invariant-factor diagonal, snf their stacked Smith forms
    U (w - 1) V = D of rank r, and x the (b, n, c) coset numerators of
    their fixed sets over q = the largest invariant factor.  The component
    images y = (w - 1) x / q must be integral (else AssertionError).  A
    component is keyed by U_tors y mod d (the rows of U and the invariant
    factors at the d_i > 1); as z commutes with w, z x has the image z y,
    so z fixes the components with U_tors (z - 1) y = 0 mod d.  The
    restriction of z to Gamma^w is V^-1[r:] z V[:, r:], in the basis
    ``FixedSetReport.fixed_lattice_basis``.  A z of any shape but
    (P, n, n) raises ValueError.  Every product is checked by
    :func:`int_matmul`, so past the int64 range this raises OverflowError
    instead of wrapping.  z must commute with its w, which is not checked.

    Returns (fixed, restriction): a (P,) and a (P, n - r, n - r) int64 array.
    """
    n = w.shape[-1]
    z = int_array(z)
    if z.ndim != 3 or z.shape[1:] != (n, n):
        raise ValueError(f"expected a stack of {n} x {n} matrices")
    diag = snf.diagonal[0]
    r = int(np.count_nonzero(diag))
    q = int(max(diag[:r], default=1))
    ident = np.eye(n, dtype=np.int64)
    images = int_matmul(w - ident, x)
    if (images % q).any():
        raise AssertionError("component images must be integral")
    u_tors, d = _torsion_rows(snf.u, diag)
    moved = int_matmul(int_matmul(u_tors[owner], z - ident), (images // q)[owner])
    fixed = (moved % d == 0).all(axis=1).sum(axis=1)
    return fixed, int_matmul(int_matmul(snf.v_inv[owner, r:], z), snf.v[owner, :, r:])


def _pair_action(w, u, v, diag, x, owner, z):
    """Action of the commuting pairs (w[owner[p]], z[p]) on fixed sets.

    w is a (b, n, n) int64 stack whose matrices w - 1 share one
    invariant-factor diagonal diag, with Smith forms U (w - 1) V = D
    stacked in u and v, and x the (b, n, c) coset numerators of their
    fixed sets over q = the largest invariant factor.  Every pair is
    checked: z must commute with its w (else ValueError); the components
    of each w must have integral images y = (w - 1) x / q and distinct
    keys U_tors y mod d (else AssertionError); each moved point z x must
    pass the membership test (w - 1) z x = 0 mod q (else ValueError) and
    is looked up by its key.  The restriction of z to Gamma^w in the
    basis V[:, r:] is solved by one stacked Smith form of the b bases
    (``intlinalg._restrict``).  V^-1 is never read; every product is checked
    by :func:`int_matmul`.

    Returns (perm, restriction): perm (P, c) int64, perm[p, i] the
    component of z x_i, and restriction (P, d, d) int64, d = n - rank.
    """
    wo = w[owner]
    if not np.array_equal(int_matmul(z, wo), int_matmul(wo, z)):
        raise ValueError("element does not centralize w")
    m = w - np.eye(w.shape[-1], dtype=np.int64)
    r = int(np.count_nonzero(diag))
    q = int(max(diag[:r], default=1))
    u_tors, d = _torsion_rows(u, diag)
    radix = np.cumprod(d[:, 0]) // d[:, 0]  # prod of the d_j, j < i

    def codes(rows, images):
        # the key U_tors y mod d of each image, as a mixed-radix integer
        return radix @ (int_matmul(rows, images) % d)

    images = int_matmul(m, x)
    if (images % q).any():
        raise AssertionError("component images must be integral")
    own = codes(u_tors, images // q)
    index = np.full((len(w), prod(d.flat)), -1, dtype=np.int64)
    index[np.arange(len(w))[:, None], own] = np.arange(own.shape[1])
    if own.shape[1] != index.shape[1] or (index < 0).any():
        raise AssertionError("component keys must be distinct")
    moved = int_matmul(m[owner], int_matmul(z, x[owner]))
    if (moved % q).any():
        raise ValueError("a moved component is not in the fixed set")
    perm = index[owner[:, None], codes(u_tors[owner], moved // q)]
    return perm, _restrict(v[:, :, r:], owner, z)

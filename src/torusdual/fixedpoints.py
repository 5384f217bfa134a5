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
Two actions of the centralizer: :meth:`FixedSetReport.action` takes a
(k, n, n) stack of its elements and reads everything off the Smith form
of w - 1 with no further elimination; ``_pair_action``, run by the
commuting-pairs oracle on a whole stack of elements that share one
invariant-factor diagonal, instead tests the membership of each z x and
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

    @cached_property
    def _torsion(self):
        return _torsion_rows(self._snf.u, self._snf.diagonal)

    @cached_property
    def _component_images(self) -> np.ndarray:
        """The integer images y_c = M x_c of the components, one per column:
        (M X) / q in int64, which must divide exactly."""
        q = self._denominator
        scaled = int_matmul(self._matrix, self._numerators)
        if (scaled % q).any():
            raise AssertionError("component images must be integral")
        return scaled // q

    def action(self, z):
        """Action of a (k, n, n) stack z of centralizer elements of w, in int64.

        Any other shape of z, one n x n matrix included, raises
        ValueError.  With U (w - 1) V = D of rank r, the component of a
        fixed point x is keyed by U_tors y mod d, where y = (w - 1) x and
        U_tors, d are the rows of U and the invariant factors at the
        d_i > 1.  As z commutes with w, z x has the image z y, so the
        number of components z fixes is the number of component images y_c
        (the columns of Y) with U_tors (z - 1) Y = 0 mod d.  The restriction
        of z to Gamma^w is the integer matrix V^-1[r:] z V[:, r:] in the
        basis fixed_lattice_basis.  Both come from checked products over the
        whole stack (:func:`int_matmul`), so past the int64 range this
        raises OverflowError instead of wrapping.

        Returns (fixed, restriction): a (k,) and a (k, d, d) int64 array.

        z must commute with w, which is not checked.
        """
        zs = int_array(z)
        if zs.ndim != 3 or zs.shape[1:] != (self.rank, self.rank):
            raise ValueError(f"expected a stack of {self.rank} x {self.rank} matrices")
        u_tors, d = self._torsion
        z_minus_1 = zs - np.eye(self.rank, dtype=np.int64)
        moved = int_matmul(u_tors, int_matmul(z_minus_1, self._component_images))
        fixed = (moved % d == 0).all(axis=1).sum(axis=1)
        snf, r = self._snf, self._snf.rank
        return fixed, int_matmul(int_matmul(snf.v_inv[r:], zs), snf.v[:, r:])


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

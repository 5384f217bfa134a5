"""Fixed sets of lattice automorphisms acting on the torus T = t/Gamma.

Everything here works in coordinates where Gamma = Z^n.  For w a lattice
automorphism, T^w = {x : (w - 1) x in Z^n} / Z^n is a finite disjoint
union of parallel subtori of dimension dim ker(w - 1).  One Smith form
U (w - 1) V = D per fixed set gives the components, their keys in
tors coker(w - 1) and the lattice Gamma^w.  The components are held as
one int64 array X of numerators over the largest invariant factor q, so
their images, their keys and the action of a whole stack of centralizer
elements are int64 products, each checked by ``intlinalg.int_matmul``;
they are handed out as exact rational points only in ``components``.
Both actions of the centralizer take a (k, n, n) stack of its elements
and nothing else: :meth:`FixedSetReport.action` reads everything off the
Smith form of w - 1 with no further elimination; :func:`centralizer_action`
instead tests the membership of each z x and restricts the stack through
one Smith form of the basis V[:, r:] of Gamma^w.
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
    as_matrix,
    int_array,
    int_matmul,
    restrict_to_sublattice,
    smith_normal_form,
    solve_mod_lattice,
)
from .rootdata import RootDatum
from .weyl import simple_reflection_matrices

__all__ = ["FixedSetReport", "fixed_set", "full_fixed_points", "centralizer_action"]


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

    def _codes(self, images: np.ndarray) -> np.ndarray:
        """The component codes of integer images y, one per column.

        Two fixed points share a component exactly when their images
        y = M x differ by an element of M Z^n, so with U M V = D the key
        of y is U_tors y mod d over the d_i > 1, read here as one
        mixed-radix integer in [0, prod d).  images is (m, c) or a
        (k, m, c) stack; the codes are (c,) or (k, c).
        """
        u_tors, d = self._torsion
        keys = int_matmul(u_tors, images) % d
        radix = np.cumprod(d[:, 0]) // d[:, 0]  # prod of the d_j, j < i
        return radix @ keys

    @cached_property
    def _component_index(self) -> np.ndarray:
        """Component index by code: the codes of the components are a
        permutation of [0, prod d), one per element of tors coker M."""
        codes = self._codes(self._component_images)
        index = np.full(prod(self._torsion[1].flat), -1, dtype=np.int64)
        index[codes] = np.arange(len(codes))
        if len(codes) != len(index) or (index < 0).any():
            raise AssertionError("component keys must be distinct")
        return index

    @cached_property
    def _torsion(self):
        """Rows U_tors of U at the d_i > 1 of the Smith form and those d_i
        as a column, in int64 (cast checked)."""
        d = self._snf.diagonal
        tors = [i for i in range(self._snf.rank) if d[i] > 1]
        return (
            int_array(self._snf.u[tors, :]),
            int_array([d[i] for i in tors]).reshape(-1, 1),
        )

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
        zs = _stack(self, z)
        u_tors, d = self._torsion
        z_minus_1 = zs - np.eye(self.rank, dtype=np.int64)
        moved = int_matmul(u_tors, int_matmul(z_minus_1, self._component_images))
        fixed = (moved % d == 0).all(axis=1).sum(axis=1)
        snf, r = self._snf, self._snf.rank
        return fixed, int_matmul(int_matmul(snf.v_inv[r:], zs), snf.v[:, r:])


def _stack(report: FixedSetReport, z) -> np.ndarray:
    """z as a checked (k, n, n) int64 stack acting on the fixed set of
    report.w; ValueError for z of any other shape."""
    n = report.rank
    zs = int_array(z)
    if zs.ndim != 3 or zs.shape[1:] != (n, n):
        raise ValueError(f"expected a stack of {n} x {n} matrices")
    return zs


def _difference_matrix(*mats) -> np.ndarray:
    """The square matrices m - 1, stacked one above the other, in int64
    (int_array bounds entries by +-(2^63 - 1), so this cannot wrap)."""
    stack = int_array(mats)
    n = stack.shape[-1]
    if stack.ndim != 3 or stack.shape[1] != n:
        raise ValueError("expected square matrices")
    return (stack - np.eye(n, dtype=np.int64)).reshape(-1, n)


def fixed_set(w) -> FixedSetReport:
    """Fixed-set report for one lattice automorphism w on Z^n, from the one
    Smith form of w - 1."""
    wm = int_array(w)
    matrix = _difference_matrix(wm)
    snf = smith_normal_form(matrix)
    x, q = _coset_numerators(snf, modulo_kernel=True)
    return FixedSetReport(w=as_matrix(wm), _matrix=matrix, _snf=snf, _numerators=x,
                          _denominator=q)


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


def centralizer_action(report: FixedSetReport, z):
    """Action of a (k, n, n) stack z of centralizer elements on the fixed
    set of w = report.w, for a report of fixed_set(w).

    Any other shape of z, one n x n matrix included, raises ValueError.
    Every z must commute with w (checked: violated input raises
    ValueError).  Components are moved as integer numerators: z X over q are the points z x_c, each must
    pass the membership test M z X = 0 mod q (M = w - 1), and its
    component is looked up by the torsion key of its image M z X / q.
    The restriction of z to ker(w - 1) tensor Q, in the basis
    `fixed_lattice_basis`, is solved by :func:`restrict_to_sublattice` on
    the basis V[:, r:] the report holds, through one Smith form of that
    basis for the whole stack; that basis is primitive, so the
    restriction comes out in Python ints.

    Returns (perm, restriction): a (k, c) int64 array, perm[j, i] the
    index of the component containing z_j . x_i, and a (k, d, d) object
    array of Python ints.  The int64 products are checked
    (:func:`int_matmul`) and raise OverflowError past the int64 range.
    """
    zs = _stack(report, z)
    wm = int_array(report.w)
    if not np.array_equal(int_matmul(zs, wm), int_matmul(wm, zs)):
        raise ValueError("element does not centralize w")
    q = report._denominator
    moved = int_matmul(report._matrix, int_matmul(zs, report._numerators))
    if (moved % q).any():
        raise ValueError("a moved component is not in the fixed set")
    perm = report._component_index[report._codes(moved // q)]
    return perm, restrict_to_sublattice(zs, report._snf.v[:, report._snf.rank:])

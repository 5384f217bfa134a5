"""Fixed sets of lattice automorphisms acting on the torus T = t/Gamma.

Everything here works in coordinates where Gamma = Z^n.  For w a lattice
automorphism, T^w = {x : (w - 1) x in Z^n} / Z^n is a finite disjoint
union of parallel subtori of dimension dim ker(w - 1); the components are
enumerated as rational coset representatives, exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import prod

import numpy as np

from .intlinalg import (
    SmithDecomposition,
    _cosets_from_smith,
    identity,
    intmat,
    rational_inverse,
    restrict_to_sublattice,
    smith_normal_form,
)
from .rootdata import RootDatum
from .weyl import Matrix, as_matrix, mat_mul

__all__ = ["FixedSetReport", "fixed_set", "full_fixed_points", "centralizer_action"]


@dataclass(frozen=True)
class FixedSetReport:
    """Fixed-point data of one lattice automorphism (or a stacked family).

    components are rational points in [0,1)^n, one per connected component
    of the fixed set, sorted; fixed_lattice_basis is a Z-basis of
    Gamma intersected with ker(w - 1), the columns V[:, r:] of the Smith
    form U (w - 1) V = D of rank r.
    """

    w: Matrix | None
    rank: int
    fixed_dim: int
    components: tuple[tuple[Fraction, ...], ...]
    fixed_lattice_basis: tuple[tuple[int, ...], ...]
    _matrix: np.ndarray = field(repr=False, compare=False, hash=False, default=None)
    _snf: SmithDecomposition = field(repr=False, compare=False, hash=False, default=None)

    def component_count(self) -> int:
        return len(self.components)

    def contains(self, x) -> bool:
        """Membership of a rational point in the fixed set, exactly."""
        return self._component_key(x) is not None

    def component_of(self, x) -> int:
        """Index of the component containing x; x must lie in the fixed set."""
        key = self._component_key(x)
        if key is None:
            raise ValueError("point is not in the fixed set")
        return self._component_index[key]

    def _component_key(self, x) -> tuple[int, ...] | None:
        """The class of x in tors coker M, or None when x is not fixed.

        M is the report's matrix (w - 1, or the stacked s - 1).  x is fixed
        when y = M x is integral; two fixed points share a component
        exactly when their y differ by an element of M Z^n, so with
        U M V = D the key is ((U y)_i mod d_i) over the d_i > 1.
        """
        vec = self._matrix @ np.array([Fraction(v) for v in x], dtype=object)
        if any(Fraction(v).denominator != 1 for v in vec):
            return None
        _, u_tors, d_tors = self._torsion
        y = np.array([int(v) for v in vec], dtype=object)
        return tuple(int(s) % d for s, d in zip(u_tors @ y, d_tors))

    @cached_property
    def _component_index(self) -> dict[tuple[int, ...], int]:
        index = {self._component_key(c): i for i, c in enumerate(self.components)}
        if len(index) != len(self.components):
            raise AssertionError("component keys must be distinct")
        return index

    @cached_property
    def _torsion(self):
        """Indices, rows of U and invariant factors at the d_i > 1 of the Smith form."""
        d = self._snf.diagonal
        tors = [i for i in range(self._snf.rank) if d[i] > 1]
        return tors, self._snf.u[tors, :], tuple(d[i] for i in tors)

    @cached_property
    def _smith_coordinates(self):
        """Blocks of U, U^-1, D_tors, V^-1, V and the torsion identity.

        intmat checks that the inverses are integral.
        """
        tors, u_tors, d = self._torsion
        r = self._snf.rank
        u_inv = intmat(rational_inverse(self._snf.u))
        v_inv = intmat(rational_inverse(self._snf.v))
        d_tors = np.diag(np.array(d, dtype=object))
        return u_tors, u_inv[:, tors], d_tors, v_inv[r:, :], self._snf.v[:, r:], identity(len(d))

    def action(self, z) -> tuple[int, np.ndarray]:
        """Action of a centralizer element z of w, as integers.

        Returns (fixed, restriction).  With U (w - 1) V = D of rank r, the
        components of T^w form the group tors coker(w - 1) = sum Z/d_i over
        the d_i > 1, on which z acts as B = U z U^-1.  fixed is the number
        of components z fixes, |ker(B - 1)| = |coker [B - 1 | D_tors]|, the
        product of the invariant factors of that matrix.  restriction is the
        integer matrix (V^-1 z V)[r:, r:] of z on Gamma^w in the basis
        fixed_lattice_basis.

        Only for a report of fixed_set(w); z must commute with w, which is
        not checked.
        """
        u_tors, u_inv_tors, d_tors, v_inv_free, v_free, ident = self._smith_coordinates
        zarr = np.array(z, dtype=object)
        b = u_tors @ zarr @ u_inv_tors
        coker = np.hstack([b - ident, d_tors])
        fixed = prod(smith_normal_form(coker).diagonal)
        return fixed, v_inv_free @ zarr @ v_free


def _difference_matrix(w: Matrix) -> np.ndarray:
    n = len(w)
    return np.array(
        [[w[i][j] - int(i == j) for j in range(n)] for i in range(n)], dtype=object
    )


def fixed_set(w) -> FixedSetReport:
    """Fixed-set report for a single lattice automorphism w on Z^n."""
    wm = as_matrix(w)
    n = len(wm)
    m = _difference_matrix(wm)
    snf = smith_normal_form(m)
    comps = _cosets_from_smith(snf, modulo_kernel=True)
    return FixedSetReport(
        w=wm,
        rank=n,
        fixed_dim=n - snf.rank,
        components=tuple(tuple(c) for c in comps),
        fixed_lattice_basis=tuple(tuple(int(x) for x in col) for col in snf.v.T[snf.rank:]),
        _matrix=m,
        _snf=snf,
    )


def full_fixed_points(rd: RootDatum) -> FixedSetReport:
    """Fixed points of the full Weyl-group action on the torus of `rd`.

    Solves the stacked system {(s - 1)x in Gamma for all simple s}.  For a
    semisimple datum the simultaneous fixed space is zero, so the fixed
    set is a finite list of points; a nonzero joint kernel propagates
    :class:`InfiniteSolutionSetError`.
    """
    from .weyl import simple_reflection_matrices

    mats = simple_reflection_matrices(rd)
    n = rd.rank
    stacked = np.array(
        [
            [s[i][j] - int(i == j) for j in range(n)]
            for s in mats
            for i in range(n)
        ],
        dtype=object,
    )
    snf = smith_normal_form(stacked)
    points = _cosets_from_smith(snf, modulo_kernel=False)
    return FixedSetReport(
        w=None,
        rank=n,
        fixed_dim=0,
        components=tuple(tuple(p) for p in points),
        fixed_lattice_basis=(),
        _matrix=stacked,
        _snf=snf,
    )


def centralizer_action(w, z, report: FixedSetReport | None = None):
    """Action of a centralizer element z on the fixed set of w.

    Returns (perm, restriction): perm[i] is the index of the component
    containing z . x_i, and restriction is the exact rational matrix of z
    on ker(w - 1) tensor Q in the basis `fixed_lattice_basis`.

    Precondition zw = wz is checked and violated input raises ValueError.
    """
    wm, zm = as_matrix(w), as_matrix(z)
    if mat_mul(zm, wm) != mat_mul(wm, zm):
        raise ValueError("element does not centralize w")
    rep = report if report is not None else fixed_set(wm)
    zarr = np.array(zm, dtype=object)
    perm = tuple(
        rep.component_of(zarr @ np.array(c, dtype=object)) for c in rep.components
    )
    if rep.fixed_dim == 0:
        restriction = np.empty((0, 0), dtype=object)
        restriction.flags.writeable = False
    else:
        basis = np.array(rep.fixed_lattice_basis, dtype=object).T
        restriction = restrict_to_sublattice(zarr, basis)
    return perm, restriction

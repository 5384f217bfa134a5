"""Fixed sets of lattice automorphisms acting on the torus T = t/Gamma.

Everything here works in coordinates where Gamma = Z^n.  For w a lattice
automorphism, T^w = {x : (w - 1) x in Z^n} / Z^n is a finite disjoint
union of parallel subtori of dimension dim ker(w - 1); the components are
enumerated as rational coset representatives, exactly.  One Smith form
U (w - 1) V = D per fixed set gives the components, their keys in
tors coker(w - 1) and the lattice Gamma^w; the action of a centralizer
element is read off it with no further elimination.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

import numpy as np

from .intlinalg import (
    SmithDecomposition,
    _cosets_from_smith,
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

    def _image(self, x) -> np.ndarray | None:
        """y = M x as integers, or None when x is not fixed.

        M is the report's matrix (w - 1, or the stacked s - 1); x is fixed
        when M x is integral.
        """
        vec = self._matrix @ np.array([Fraction(v) for v in x], dtype=object)
        if any(Fraction(v).denominator != 1 for v in vec):
            return None
        return np.array([int(v) for v in vec], dtype=object)

    def _component_key(self, x) -> tuple[int, ...] | None:
        """The class of x in tors coker M, or None when x is not fixed.

        Two fixed points share a component exactly when their images
        y = M x differ by an element of M Z^n, so with U M V = D the key
        is ((U y)_i mod d_i) over the d_i > 1.
        """
        y = self._image(x)
        if y is None:
            return None
        u_tors, d_tors = self._torsion
        return tuple(int(s) % d for s, d in zip(u_tors @ y, d_tors))

    @cached_property
    def _component_index(self) -> dict[tuple[int, ...], int]:
        index = {self._component_key(c): i for i, c in enumerate(self.components)}
        if len(index) != len(self.components):
            raise AssertionError("component keys must be distinct")
        return index

    @cached_property
    def _torsion(self):
        """Rows of U and invariant factors at the d_i > 1 of the Smith form."""
        d = self._snf.diagonal
        tors = [i for i in range(self._snf.rank) if d[i] > 1]
        return self._snf.u[tors, :], tuple(d[i] for i in tors)

    @cached_property
    def _component_images(self) -> np.ndarray:
        """The integer images y_c = M x_c of the components, one per column."""
        return np.array([self._image(c) for c in self.components], dtype=object).T

    def action(self, z) -> tuple[int, np.ndarray]:
        """Action of a centralizer element z of w, as integers.

        Returns (fixed, restriction).  With U (w - 1) V = D of rank r, the
        component of a fixed point x is keyed by U_tors y mod d, where
        y = (w - 1) x and U_tors, d are the rows of U and the invariant
        factors at the d_i > 1.  As z commutes with w, z x has the image
        z y, so fixed, the number of components z fixes, is the number of
        images y_c whose key U_tors (z - 1) y_c vanishes mod d.  restriction
        is the integer matrix V^-1[r:] z V[:, r:] of z on Gamma^w in the
        basis fixed_lattice_basis.

        Only for a report of fixed_set(w); z must commute with w, which is
        not checked.
        """
        snf, r = self._snf, self._snf.rank
        u_tors, d_tors = self._torsion
        zarr = np.array(z, dtype=object)
        y = self._component_images
        moved = u_tors @ (zarr @ y - y)
        modulus = np.array(d_tors, dtype=object).reshape(-1, 1)
        fixed = int((moved % modulus == 0).all(axis=0).sum())
        return fixed, snf.v_inv[r:] @ zarr @ snf.v[:, r:]


def _difference_matrix(*mats: Matrix) -> np.ndarray:
    """The matrices m - 1, stacked one above the other."""
    return np.array(
        [[m[i][j] - int(i == j) for j in range(len(m))] for m in mats for i in range(len(m))],
        dtype=object,
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

    n = rd.rank
    stacked = _difference_matrix(*simple_reflection_matrices(rd))
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

"""Fixed sets of lattice automorphisms acting on the torus T = t/Gamma.

Everything here works in coordinates where Gamma = Z^n.  For w a lattice
automorphism, T^w = {x : (w - 1) x in Z^n} / Z^n is a finite disjoint
union of parallel subtori of dimension dim ker(w - 1); the components are
enumerated as rational coset representatives, exactly.  One Smith form
U (w - 1) V = D per fixed set gives the components, their keys in
tors coker(w - 1) and the lattice Gamma^w; the action of a centralizer
element, or of a whole stack of them, is read off it in int64 with no
further elimination.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import lcm

import numpy as np

from .intlinalg import (
    SmithDecomposition,
    _cosets_from_smith,
    int_array,
    restrict_to_sublattice,
    smith_normal_form,
)
from .rootdata import RootDatum
from .weyl import Matrix, as_matrix

__all__ = ["FixedSetReport", "fixed_set", "full_fixed_points", "centralizer_action"]

INT64_MAX = int(np.iinfo(np.int64).max)


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
        when M x is integral, i.e. when M (q x) is divisible by the common
        denominator q of x.
        """
        fracs = [Fraction(v) for v in x]
        q = lcm(*(f.denominator for f in fracs))
        scaled = self._matrix @ np.array(
            [f.numerator * (q // f.denominator) for f in fracs], dtype=object
        )
        if any(v % q for v in scaled):
            return None
        return np.array([v // q for v in scaled], dtype=object)

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

    @cached_property
    def _wide(self):
        """What :meth:`action` multiplies, as int64: U_tors, the invariant
        factors d as a column, the component images Y, V^-1[r:] and V[:, r:]."""
        snf, r = self._snf, self._snf.rank
        u_tors, d_tors = self._torsion
        return (
            int_array(u_tors),
            int_array(d_tors).reshape(-1, 1),
            int_array(self._component_images),
            int_array(snf.v_inv[r:]),
            int_array(snf.v[:, r:]),
        )

    def action(self, z):
        """Action of centralizer elements z of w, in int64.

        z is one matrix or a (k, n, n) stack.  With U (w - 1) V = D of rank
        r, the component of a fixed point x is keyed by U_tors y mod d,
        where y = (w - 1) x and U_tors, d are the rows of U and the
        invariant factors at the d_i > 1.  As z commutes with w, z x has the
        image z y, so the number of components z fixes is the number of
        component images y_c (the columns of Y) with U_tors (z Y - Y) = 0
        mod d.  The restriction of z to Gamma^w is the integer matrix
        V^-1[r:] z V[:, r:] in the basis fixed_lattice_basis.  Both come
        from one product over the whole stack.

        Returns (fixed, restriction): an int and a (d, d) matrix of Python
        ints for one z, a (k,) and a (k, d, d) int64 array for a stack.
        U_tors, Y, V and V^-1 are cast to int64 checked, and the largest
        entry either product can reach is bounded first: past the int64
        range this raises OverflowError instead of wrapping.

        Only for a report of fixed_set(w); z must commute with w, which is
        not checked.
        """
        u_tors, d, y, v_inv, v = self._wide
        zs = int_array(z)
        single = zs.ndim == 2
        zs = zs.reshape(-1, self.rank, self.rank)
        n, mz = self.rank, _max_abs(zs)
        reach = max(
            n * _max_abs(u_tors) * (n * mz + 1) * _max_abs(y),
            n * n * _max_abs(v_inv) * mz * _max_abs(v),
        )
        if reach > INT64_MAX:
            raise OverflowError("fixed-set action could pass the int64 range")
        moved = u_tors @ (zs @ y - y)
        fixed = (moved % d == 0).all(axis=1).sum(axis=1)
        restriction = v_inv @ zs @ v
        if single:
            return int(fixed[0]), restriction[0].astype(object)
        return fixed, restriction


def _max_abs(a: np.ndarray) -> int:
    """The largest absolute entry of an int64 array, at least 1."""
    return max(1, int(np.abs(a).max(initial=0)))


def _difference_matrix(*mats) -> np.ndarray:
    """The square matrices m - 1, stacked one above the other, in int64
    (int_array bounds entries by +-(2^63 - 1), so this cannot wrap)."""
    stack = int_array(mats)
    n = stack.shape[-1]
    if stack.ndim != 3 or stack.shape[1] != n:
        raise ValueError("expected square matrices")
    return (stack - np.eye(n, dtype=np.int64)).reshape(-1, n)


def fixed_set(w) -> FixedSetReport:
    """Fixed-set report for a single lattice automorphism w on Z^n."""
    wm = int_array(w)
    n = len(wm)
    m = _difference_matrix(wm)
    snf = smith_normal_form(m)
    comps = _cosets_from_smith(snf, modulo_kernel=True)
    return FixedSetReport(
        w=as_matrix(wm),
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
    containing z . x_i, found by membership tests, and restriction is the
    exact matrix of z on ker(w - 1) tensor Q in the basis
    `fixed_lattice_basis`, solved by :func:`restrict_to_sublattice` through
    the Smith form of that basis (ints where integral, else Fractions).

    Precondition zw = wz is checked and violated input raises ValueError.
    """
    pair = int_array([z, w]).astype(object)
    zw, wz = pair @ pair[::-1]
    if not np.array_equal(zw, wz):
        raise ValueError("element does not centralize w")
    rep = report if report is not None else fixed_set(pair[1])
    zarr = pair[0]
    perm = tuple(
        rep.component_of(zarr @ np.array(c, dtype=object)) for c in rep.components
    )
    basis = np.array(rep.fixed_lattice_basis, dtype=object).reshape(-1, rep.rank).T
    return perm, restrict_to_sublattice(zarr, basis)

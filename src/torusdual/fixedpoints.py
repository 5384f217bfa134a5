"""Fixed sets of lattice automorphisms acting on the torus T = t/Gamma.

Everything here works in coordinates where Gamma = Z^n.  For w a lattice
automorphism, T^w = {x : (w - 1) x in Z^n} / Z^n is a finite disjoint
union of parallel subtori of dimension dim ker(w - 1).  Its components,
their keys in tors coker(w - 1) and the lattice Gamma^w are read off the
Smith form U (w - 1) V = D.  :func:`_buckets` is the one place that
turns a stack of elements into this data, from one stacked Smith form:
it groups the elements by invariant-factor diagonal and gives each group
its components as int64 numerators X over the largest invariant factor
q, their images Y = (w - 1) X / q and the torsion rows U_tors, so that
the keys U_tors Y mod d and the action of a whole stack of centralizer
elements are int64 products, each checked by ``intlinalg.int_matmul``.
:func:`fixed_sets`, :func:`fixed_set`, the class sum and the
commuting-pairs oracle all read their fixed sets off these buckets.

Two actions of commuting pairs (w, z) on a bucket: ``_stacked_action``,
run by the class sum, reads the fixed components and the restriction to
Gamma^w off the Smith forms with no further elimination; ``_pair_action``,
run by the oracle, keeps its own steps (commutation check, membership
test of each z x, key lookup, restriction through one stacked Smith form
of the bases V[:, r:] of Gamma^w) and never reads V^-1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import prod
from typing import NamedTuple

import numpy as np

from .intlinalg import (
    Matrix,
    SmithDecomposition,
    _as_fractions,
    _coset_steps,
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

    Holds w, the Smith form U (w - 1) V = D of rank r and the components
    as the columns of the int64 numerators X over the denominator q.  The
    rest is read off these: components are rational points in [0,1)^n,
    one per connected component of the fixed set, sorted;
    fixed_lattice_basis is a Z-basis of Gamma intersected with ker(w - 1),
    the columns V[:, r:].
    """

    w: Matrix
    _snf: SmithDecomposition = field(repr=False, compare=False, hash=False)
    _numerators: np.ndarray = field(repr=False, compare=False, hash=False)
    _denominator: int = field(repr=False, compare=False, hash=False)

    @property
    def rank(self) -> int:
        return len(self.w)

    @property
    def fixed_dim(self) -> int:
        return self.rank - self._snf.rank

    @cached_property
    def components(self) -> tuple[tuple[Fraction, ...], ...]:
        return tuple(sorted(_as_fractions(self._numerators, self._denominator)))

    @cached_property
    def fixed_lattice_basis(self) -> tuple[tuple[int, ...], ...]:
        return tuple(tuple(int(v) for v in col) for col in self._snf.v.T[self._snf.rank:])

    def component_count(self) -> int:
        return self._numerators.shape[1]


class _Bucket(NamedTuple):
    """The elements of a stack whose w - 1 share one invariant-factor
    diagonal, with r nonzero factors, the largest q (1 when r = 0) and
    the torsion factors d_i > 1 as a (t, 1) column d.  Per member: w, the
    Smith factors of U (w - 1) V = D (stacked in snf), the coset
    numerators x = V[:, :r] S mod q (b, n, c), their integral images
    y = (w - 1) x / q and the torsion rows U_tors (b, t, n), which key a
    component by U_tors y mod d."""

    members: np.ndarray
    w: np.ndarray
    snf: SmithDecomposition
    r: int
    q: int
    x: np.ndarray
    y: np.ndarray
    u_tors: np.ndarray
    d: np.ndarray


def _take(snf: SmithDecomposition, index) -> SmithDecomposition:
    """The Smith factors of the slices index of a stacked Smith form."""
    return SmithDecomposition(*(f[index] for f in (snf.u, snf.d, snf.v, snf.v_inv)))


def _buckets(ws):
    """The elements of a (k, n, n) stack ws of lattice automorphisms on
    Z^n grouped by the invariant-factor diagonal of w - 1, from one
    stacked Smith form; yields one :class:`_Bucket` per diagonal.

    int_array bounds entries by +-(2^63 - 1), so w - 1 cannot wrap; a
    stack of any other shape raises ValueError.  The coset steps S are
    ``intlinalg._coset_steps``; a non-integral image y raises
    AssertionError.  Every product is checked by :func:`int_matmul`.
    """
    wm = int_array(ws)
    n = wm.shape[-1]
    if wm.ndim != 3 or wm.shape[1] != n:
        raise ValueError("expected a stack of square matrices")
    ident = np.eye(n, dtype=np.int64)
    stacked = smith_normal_form(wm - ident)
    diagonals, bucket = np.unique(stacked.diagonal, axis=0, return_inverse=True)
    for b, diag in enumerate(diagonals):
        members = np.flatnonzero(bucket.ravel() == b)
        r = int(np.count_nonzero(diag))
        steps, q = _coset_steps(diag[:r])
        snf, w = _take(stacked, members), wm[members]
        x = int_matmul(snf.v[:, :, :r], steps) % q
        y = int_matmul(w - ident, x)
        if (y % q).any():
            raise AssertionError("component images must be integral")
        tors = np.flatnonzero(diag > 1)
        yield _Bucket(members, w, snf, r, q, x, y // q, snf.u[:, tors], diag[tors, None])


def fixed_sets(ws) -> list[FixedSetReport]:
    """Fixed-set reports for a (k, n, n) stack of lattice automorphisms on
    Z^n, in input order, read off the buckets of :func:`_buckets`."""
    reports = {}
    for b in _buckets(ws):
        for j, i in enumerate(b.members.tolist()):
            reports[i] = FixedSetReport(as_matrix(b.w[j]), _take(b.snf, j), b.x[j], b.q)
    return [reports[i] for i in sorted(reports)]


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
    s = int_array(simple_reflection_matrices(rd))
    return solve_mod_lattice((s - np.eye(rd.rank, dtype=np.int64)).reshape(-1, rd.rank),
                             modulo_kernel=False)


def _stacked_action(bucket: _Bucket, owner, z):
    """Action of the commuting pairs (w[owner[p]], z[p]) of one bucket on
    fixed sets, read off the Smith forms with no further elimination.

    As z commutes with w, z x has the image z y, so z fixes the
    components with U_tors (z - 1) y = 0 mod d.  The restriction of z to
    Gamma^w is V^-1[r:] z V[:, r:], in the basis
    ``FixedSetReport.fixed_lattice_basis``.  A z of any shape but
    (P, n, n) raises ValueError.  Every product is checked by
    :func:`int_matmul`, so past the int64 range this raises OverflowError
    instead of wrapping.  z must commute with its w, which is not checked.

    Returns (fixed, restriction): a (P,) and a (P, n - r, n - r) int64 array.
    """
    n, r, snf = bucket.w.shape[-1], bucket.r, bucket.snf
    z = int_array(z)
    if z.ndim != 3 or z.shape[1:] != (n, n):
        raise ValueError(f"expected a stack of {n} x {n} matrices")
    moved = int_matmul(int_matmul(bucket.u_tors[owner], z - np.eye(n, dtype=np.int64)),
                       bucket.y[owner])
    fixed = (moved % bucket.d == 0).all(axis=1).sum(axis=1)
    return fixed, int_matmul(int_matmul(snf.v_inv[owner, r:], z), snf.v[owner, :, r:])


def _pair_action(bucket: _Bucket, owner, z):
    """Action of the commuting pairs (w[owner[p]], z[p]) of one bucket on
    fixed sets, with the oracle's own steps.

    Every pair is checked: z must commute with its w (else ValueError);
    the components of each w must have distinct keys U_tors y mod d (else
    AssertionError); each moved point z x must pass the membership test
    (w - 1) z x = 0 mod q (else ValueError) and is looked up by its key.
    The restriction of z to Gamma^w in the basis V[:, r:] is solved by one
    stacked Smith form of the bucket's bases (``intlinalg._restrict``).
    V^-1 is never read; every product is checked by :func:`int_matmul`.

    Returns (perm, restriction): perm (P, c) int64, perm[p, i] the
    component of z x_i, and restriction (P, d, d) int64, d = n - r.
    """
    wo = bucket.w[owner]
    if not np.array_equal(int_matmul(z, wo), int_matmul(wo, z)):
        raise ValueError("element does not centralize w")
    q, d, b = bucket.q, bucket.d, len(bucket.w)
    radix = np.cumprod(d[:, 0]) // d[:, 0]  # prod of the d_j, j < i

    def codes(rows, images):
        # the key U_tors y mod d of each image, as a mixed-radix integer
        return radix @ (int_matmul(rows, images) % d)

    own = codes(bucket.u_tors, bucket.y)
    index = np.full((b, prod(d.flat)), -1, dtype=np.int64)
    index[np.arange(b)[:, None], own] = np.arange(own.shape[1])
    if own.shape[1] != index.shape[1] or (index < 0).any():
        raise AssertionError("component keys must be distinct")
    moved = int_matmul(wo - np.eye(wo.shape[-1], dtype=np.int64),
                       int_matmul(z, bucket.x[owner]))
    if (moved % q).any():
        raise ValueError("a moved component is not in the fixed set")
    perm = index[owner[:, None], codes(bucket.u_tors[owner], moved // q)]
    return perm, _restrict(bucket.snf.v[:, :, bucket.r:], owner, z)

"""Rational ranks of W-equivariant K-theory of tori, by delocalization.

For a finite group W of lattice automorphisms acting on T = t/Gamma, the
rationalized equivariant K-theory ranks are computed as a sum over
conjugacy classes [w] of the centralizer-invariant even/odd cohomology of
the fixed sets T^w:

    rank K^0 = sum_[w] 1/|Z(w)| sum_{z in Z(w)} #{components c of T^w
               fixed by z} * tr_even(z | ker(w-1) tensor Q)

and likewise for K^1 with tr_odd, where tr_even/odd(R) are the traces on
the even/odd exterior algebra, evaluated as (det(1+R) +- det(1-R))/2.

The fixed sets come from ``fixedpoints._buckets``: one stacked Smith form
U (w-1) V = D groups the elements by their invariant-factor diagonal, and
each bucket holds its elements' coset numerators, component images y
and torsion key U_tors y mod d; this module takes no Smith form of its
own.  The class sum acts on each bucket of class representatives once,
by ``fixedpoints._stacked_action``: one product gives, for every pair
(w, z) of the bucket, the number of components of T^w that z fixes (the
components whose key z keeps) and its integer matrix
R = V^-1[r:] z V[:, r:] on Gamma^w.  A non-central w pairs with every z
in Z(w).  A central w (class size 1) has Z(w) = W, and its summand is a
class function on W (a permutation character times an exterior-power
character), so it pairs with W's class representatives only, each
weighted by its class size, and never asks for its centralizer.

det(1 +- R) is exact: one stacked Bareiss determinant (``det``) per fixed
dimension, over every bucket of that dimension and both signs, bounded by
Hadamard's inequality before it starts.  Each class is accumulated as
2|Z(w)| times its average by checked products (``int_matmul``), which
must divide exactly and be non-negative before it is believed.  The rows
are computed once per group and kept for as long as the group lives.

The commuting-pairs oracle recomputes the same quantity as a sum over all
pairs (w, z) with wz = zw, weighted 1/|W|, without the class
decomposition and with no central shortcut.  It shares the bucket data
with the class sum, and ``group.centralizer_indices``, ``int_matmul`` and
``_traces``.  Its steps are its own: it buckets every element of W and
acts on each bucket's commuting pairs by ``fixedpoints._pair_action``,
which checks that z commutes with w, tests each z x for membership
((w - 1) z x = 0 mod q), looks its key up, and restricts z to Gamma^w
through one stacked Smith form of the bases V[:, r:]; it never reads
V^-1.  The two must agree.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

import numpy as np

from .fixedpoints import _buckets, _pair_action, _stacked_action
from .intlinalg import Matrix, as_matrix, det, int_matmul
from .rootdata import RootDatum, build_simple, center as center_of, dualize
from .weyl import WeylGroup, generate

__all__ = [
    "NonIntegralInvariantError",
    "GradedRank",
    "ClassContribution",
    "DualityReport",
    "AffineComparisonReport",
    "rational_equivariant_k",
    "graded_rank_with_classes",
    "commuting_pairs_rank",
    "verify_duality",
    "affine_comparison",
    "AFFINE_SELF_DUAL_TYPES",
    "duality_report_to_json",
]

AFFINE_SELF_DUAL_TYPES = ("A", "D", "E", "F", "G")

# class rows by group, held no longer than the group itself
_CLASS_ROWS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


class NonIntegralInvariantError(ArithmeticError):
    """An averaged invariant dimension failed to be a non-negative integer.

    This is an internal consistency failure (the averages are character
    inner products), so it aborts the computation rather than rounding.
    """


@dataclass(frozen=True)
class GradedRank:
    k0: int
    k1: int

    def __post_init__(self):
        if self.k0 < 0 or self.k1 < 0:
            raise ValueError("graded ranks must be non-negative")

    def __str__(self) -> str:
        return f"(k0={self.k0}, k1={self.k1})"


@dataclass(frozen=True)
class ClassContribution:
    """Per-conjugacy-class line of the delocalized sum."""

    representative: Matrix
    class_size: int
    centralizer_order: int
    fixed_dim: int
    component_count: int
    even_invariants: int
    odd_invariants: int


@dataclass(frozen=True)
class DualityReport:
    primal_label: tuple[str, int, str]
    dual_label: tuple[str, int, str]
    primal: GradedRank
    dual: GradedRank
    primal_classes: tuple[ClassContribution, ...]
    dual_classes: tuple[ClassContribution, ...]

    @property
    def verdict(self) -> str:
        return "equal" if (self.primal.k0 == self.dual.k0 and self.primal.k1 == self.dual.k1) else "unequal"

    @property
    def cross_degree_equal(self) -> bool:
        return self.primal.k0 == self.dual.k1 and self.primal.k1 == self.dual.k0


@dataclass(frozen=True)
class AffineComparisonReport:
    """Graded ranks around an adjoint-type datum.

    extended: ranks for the extended affine Weyl group of G;
    dual_affine: ranks for the affine Weyl group of the dual group;
    own_affine: ranks for the affine Weyl group of G itself, only computed
    for the types where that group coincides with the dual one.
    """

    label: tuple[str, int, str]
    extended: GradedRank
    dual_affine: GradedRank
    own_affine: GradedRank | None

    @property
    def dual_equal(self) -> bool:
        return self.extended == self.dual_affine

    @property
    def own_equal(self) -> bool | None:
        if self.own_affine is None:
            return None
        return self.extended == self.own_affine


def _traces(restriction: np.ndarray) -> np.ndarray:
    """2 tr_even and 2 tr_odd of each R of a (k, d, d) int64 stack: the
    (k, 2) columns det(1 + R) +- det(1 - R), from one exact stacked det
    over both signs."""
    ident = np.eye(restriction.shape[-1], dtype=np.int64)
    plus, minus = np.split(det(np.concatenate([ident + restriction, ident - restriction])), 2)
    return np.stack([plus + minus, plus - minus], axis=1)


def _class_rows(group: WeylGroup, reps, sizes) -> tuple[ClassContribution, ...]:
    """The rows of the classes with representatives reps (element indices)
    and class sizes sizes, one :func:`fixedpoints._stacked_action` per
    bucket of :func:`fixedpoints._buckets`.  A class of size 1 is central:
    its pairs are w with W's class representatives, weighted by class
    size.  Any other class pairs w with each element of Z(w).  The traces
    of all buckets of one fixed dimension are one :func:`_traces` call.
    """
    ws = group.array[reps].astype(np.int64)
    classes = group.classes
    central = ([c.representative for c in classes], [len(c.members) for c in classes])
    parts = []
    for bucket in _buckets(ws):
        pairs = [central if sizes[i] == 1 else (group.centralizer_indices(reps[i]), None)
                 for i in bucket.members.tolist()]
        counts = [len(z) for z, _ in pairs]
        weights = np.concatenate([weight or np.ones(len(z), dtype=np.int64) for z, weight in pairs])
        fixed, restriction = _stacked_action(
            bucket, np.repeat(np.arange(len(pairs)), counts),
            group.array[np.concatenate([z for z, _ in pairs])])
        orders = [len(group) if weight else len(z) for z, weight in pairs]
        parts.append((bucket, orders, counts, weights, fixed, restriction))
    traces = [None] * len(parts)
    for dim in {part[-1].shape[-1] for part in parts}:
        same = [k for k, part in enumerate(parts) if part[-1].shape[-1] == dim]
        stacked = _traces(np.concatenate([parts[k][-1] for k in same]))
        ends = np.cumsum([len(parts[k][-1]) for k in same])
        for k, part in zip(same, np.split(stacked, ends[:-1])):
            traces[k] = part
    rows = [None] * len(reps)
    for (bucket, orders, counts, weights, fixed, restriction), tr in zip(parts, traces):
        terms = int_matmul(fixed[:, None, None], tr[:, None])[:, 0]
        # bounds len(terms) max|weight| max|term|, so that neither a weighted
        # term nor any class's sum of them below can pass the int64 range
        int_matmul(weights[None], terms)
        # 2 |Z(w)| times the even/odd class averages
        sums = np.add.reduceat(weights[:, None] * terms, np.cumsum([0, *counts[:-1]]))
        for i, order, (even, odd) in zip(bucket.members.tolist(), orders, sums.tolist()):
            scale = 2 * order
            for val in (even, odd):
                if val % scale != 0 or val < 0:
                    raise NonIntegralInvariantError(
                        f"class average {val}/{scale} is not a non-negative integer"
                    )
            rows[i] = ClassContribution(
                representative=as_matrix(ws[i]),
                class_size=sizes[i],
                centralizer_order=order,
                fixed_dim=restriction.shape[-1],
                component_count=bucket.x.shape[2],
                even_invariants=even // scale,
                odd_invariants=odd // scale,
            )
    return tuple(rows)


def graded_rank_with_classes(group: WeylGroup) -> tuple[GradedRank, tuple[ClassContribution, ...]]:
    """Graded rank and per-class rows; the rows are computed once per group."""
    rows = _CLASS_ROWS.get(group)
    if rows is None:
        classes = group.classes
        rows = _CLASS_ROWS[group] = _class_rows(
            group, [c.representative for c in classes], [len(c.members) for c in classes])
    k0 = sum(r.even_invariants for r in rows)
    k1 = sum(r.odd_invariants for r in rows)
    return GradedRank(k0, k1), rows


def rational_equivariant_k(rd) -> GradedRank:
    """Graded rational rank of the equivariant K-theory of the torus.

    Accepts a RootDatum (the Weyl group is generated on X_*) or a
    WeylGroup-like lattice action directly, which is how the non-Weyl test
    fixtures (trivial group, inversion on U(1)) enter.
    """
    group = generate(rd) if isinstance(rd, RootDatum) else rd
    return graded_rank_with_classes(group)[0]


def commuting_pairs_rank(group: WeylGroup) -> GradedRank:
    """Oracle: sum over all commuting pairs (w, z), weight 1/|W|, in one
    pass over the group.

    Shares the bucket data of :func:`fixedpoints._buckets` (one stacked
    Smith form of every w - 1, the coset numerators, their images and the
    torsion key), ``group.centralizer_indices``, the checked int64 product
    and :func:`_traces` with :func:`graded_rank_with_classes`.  Its own
    steps, with no central shortcut: each bucket's commuting pairs are one
    stack for :func:`fixedpoints._pair_action` (commutation check, moved
    numerators with their membership test, key lookup, restriction to
    Gamma^w through one stacked Smith form of the bases).  Must agree with
    :func:`graded_rank_with_classes`.
    """
    ws = group.array.astype(np.int64)
    even = odd = 0  # 2 |W| times k0 and k1
    for bucket in _buckets(ws):
        cents = [group.centralizer_indices(i) for i in bucket.members.tolist()]
        owner = np.repeat(np.arange(len(cents)), [len(c) for c in cents])
        perm, restriction = _pair_action(bucket, owner, ws[np.concatenate(cents)])
        fixed = (perm == np.arange(perm.shape[1])).sum(axis=1)
        e, o = int_matmul(fixed, _traces(restriction)).tolist()
        even, odd = even + e, odd + o
    scale = 2 * len(group)
    if even % scale != 0 or odd % scale != 0:
        raise NonIntegralInvariantError("commuting-pairs sum is not integral")
    return GradedRank(even // scale, odd // scale)


def verify_duality(rd: RootDatum) -> DualityReport:
    """Compute graded ranks on both sides of the Langlands dual pair.

    The verdict compares like degrees (the duality is degree 0); the
    report is produced even when the ranks disagree, which would falsify
    the theorem rather than signal a usage error.
    """
    dual = dualize(rd)
    primal_rank, primal_rows = graded_rank_with_classes(generate(rd))
    dual_rank, dual_rows = graded_rank_with_classes(generate(dual))
    return DualityReport(
        primal_label=rd.label,
        dual_label=dual.label,
        primal=primal_rank,
        dual=dual_rank,
        primal_classes=primal_rows,
        dual_classes=dual_rows,
    )


def affine_comparison(rd: RootDatum) -> AffineComparisonReport:
    """Rank comparison between affine and extended affine Weyl groups.

    Requires an adjoint-form datum.  The K-theory ranks of the extended
    affine Weyl group of G live on the dual torus (Fourier-Pontryagin
    exchanges Gamma with the dual side), so:

      extended    = ranks for Gamma rtimes W        <- computed on dualize(rd)
      dual_affine = ranks for the dual affine group <- computed on rd itself
                    (G adjoint means the dual group is simply connected)
      own_affine  = ranks for the affine group of G <- via the simply
                    connected form, only for self-dual-lattice types.
    """
    if not center_of(rd).is_trivial:
        raise ValueError("affine comparison requires an adjoint-form datum")
    t, r, _ = rd.label
    extended = rational_equivariant_k(dualize(rd))
    dual_affine = rational_equivariant_k(rd)
    own_affine = None
    if t in AFFINE_SELF_DUAL_TYPES:
        sc = build_simple(t, r, "sc")
        own_affine = rational_equivariant_k(dualize(sc))
    return AffineComparisonReport(
        label=rd.label, extended=extended, dual_affine=dual_affine, own_affine=own_affine
    )


def _class_row_json(row: ClassContribution, side: str) -> dict:
    return {
        "side": side,
        "representative": [list(r) for r in row.representative],
        "class_size": row.class_size,
        "centralizer_order": row.centralizer_order,
        "fixed_dim": row.fixed_dim,
        "components": row.component_count,
        "even": row.even_invariants,
        "odd": row.odd_invariants,
    }


def duality_report_to_json(report: DualityReport) -> dict:
    t, r, form = report.primal_label
    return {
        "type": t,
        "rank": r,
        "form": form,
        "coefficients": "rational",
        "primal": {"k0": report.primal.k0, "k1": report.primal.k1},
        "dual": {"k0": report.dual.k0, "k1": report.dual.k1},
        "verdict": report.verdict,
        "cross_degree_equal": report.cross_degree_equal,
        "classes": [
            *(_class_row_json(row, "primal") for row in report.primal_classes),
            *(_class_row_json(row, "dual") for row in report.dual_classes),
        ],
    }

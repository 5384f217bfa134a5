"""Rational ranks of W-equivariant K-theory of tori, by delocalization.

For a finite group W of lattice automorphisms acting on T = t/Gamma, the
rationalized equivariant K-theory ranks are computed as a sum over
conjugacy classes [w] of the centralizer-invariant even/odd cohomology of
the fixed sets T^w:

    rank K^0 = sum_[w] 1/|Z(w)| sum_{z in Z(w)} #{components c of T^w
               fixed by z} * tr_even(z | ker(w-1) tensor Q)

and likewise for K^1 with tr_odd, where tr_even/odd(R) are the traces on
the even/odd exterior algebra, evaluated as (det(1+R) +- det(1-R))/2.

The class sum takes one batched pass per class, from the one Smith form
U (w-1) V = D of rank r that :meth:`FixedSetReport.action` reads.  The
centralizer Z(w) is stacked as one int64 array, and one product gives,
for every z at once, the number of components of T^w it fixes (a
component is keyed by its image y_c = (w-1) x_c modulo (w-1) Z^n, i.e. by
U y_c mod the invariant factors d_i > 1, and z fixes it when z y_c has the
same key) and its integer matrix R = V^-1[r:] z V[:, r:] on Gamma^w.

det(1 +- R) is one batched float determinant per sign, guarded: R has
finite order, so its eigenvalues are roots of unity and |det(1 +- R)| is
at most 2^dim(Gamma^w).  A value is accepted only when it lies within
DET_TOLERANCE of an integer inside that bound; any other is recomputed
exactly by Bareiss elimination and counted as a fallback.  Each class is
accumulated as 2|Z(w)| times its average, which must divide exactly and be
non-negative before it is believed.  The rows are computed once per group
and kept for as long as the group lives.

The commuting-pairs oracle recomputes the same quantity as a sum over all
pairs (w, z) with wz = zw, weighted 1/|W|, without the class
decomposition, in one pass per group.  It shares with the class sum the
Smith form, the coset numerators X over the largest invariant factor q,
the torsion key U_tors y mod d by which a component is named,
``group.centralizer_indices`` and the checked int64 product
``intlinalg.int_matmul``.  The rest is its own: one stacked Smith form of
every w - 1, the elements bucketed by their invariant-factor diagonal (a
bucket shares q, the coset steps, the torsion rows and dim Gamma^w), and
per bucket one flat stack of its commuting pairs, acted on by
``fixedpoints._pair_action``: it moves the components as z X, tests each
for membership ((w - 1) z X = 0 mod q), looks its key up, and restricts
every z to Gamma^w through one stacked Smith form of the bases V[:, r:].
det(1 +- R) is one lockstep Bareiss per sign over the stack, bounded by
Hadamard's inequality before it starts.  It never reads
``FixedSetReport.action``, V^-1 or a float determinant.  The two must
agree.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field

import numpy as np

from .fixedpoints import _pair_action, fixed_set
from .intlinalg import Matrix, _coset_steps, det, int_matmul, smith_normal_form
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

# a float determinant is accepted within this distance of an integer
DET_TOLERANCE = 1e-6


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
    """Per-conjugacy-class line of the delocalized sum.

    det_fallbacks counts the determinants det(1 +- R) that failed the float
    guard and were recomputed exactly; min_margin is the smallest
    DET_TOLERANCE - |x - round(x)| over the float values x of the class,
    negative when a value missed an integer by more than the tolerance.
    """

    representative: Matrix
    class_size: int
    centralizer_order: int
    fixed_dim: int
    component_count: int
    even_invariants: int
    odd_invariants: int
    det_fallbacks: int = field(compare=False)
    min_margin: float = field(compare=False)


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


def _exact_dets(mats: np.ndarray, bound: int) -> tuple[np.ndarray, int, float]:
    """Exact determinants of a (k, d, d) int64 stack whose values lie in [-bound, bound].

    Returns (dets, fallbacks, margin): one batched float determinant per
    matrix, each accepted only within DET_TOLERANCE of an integer of
    absolute value at most bound and otherwise recomputed by Bareiss
    (fallbacks counts those), and the smallest DET_TOLERANCE - |x - round(x)|.
    """
    approx = np.linalg.det(mats.astype(np.float64))
    nearest = np.rint(approx)
    gap = np.where(np.isfinite(approx), np.abs(approx - nearest), np.inf)
    ok = (gap <= DET_TOLERANCE) & (np.abs(nearest) <= bound)
    dets = np.where(ok, nearest, 0).astype(np.int64)
    redo = np.flatnonzero(~ok)
    for i in redo:
        dets[i] = det(mats[i])
    return dets, len(redo), DET_TOLERANCE - float(gap.max(initial=0.0))


def _class_contribution(group: WeylGroup, rep_index: int, members) -> ClassContribution:
    report = fixed_set(group.array[rep_index])
    cent = group.centralizer_indices(rep_index)
    fixed, restriction = report.action(group.array[cent])
    ident = np.eye(report.fixed_dim, dtype=np.int64)
    bound = 2 ** report.fixed_dim
    plus, plus_redone, plus_margin = _exact_dets(ident + restriction, bound)
    minus, minus_redone, minus_margin = _exact_dets(ident - restriction, bound)
    # 2 |Z(w)| times the even/odd class averages, summed in Python ints
    fixed = fixed.astype(object)
    even = int(fixed @ (plus + minus).astype(object))
    odd = int(fixed @ (plus - minus).astype(object))
    scale = 2 * len(cent)
    for val in (even, odd):
        if val % scale != 0 or val < 0:
            raise NonIntegralInvariantError(
                f"class average {val}/{scale} is not a non-negative integer"
            )
    return ClassContribution(
        representative=report.w,
        class_size=len(members),
        centralizer_order=len(cent),
        fixed_dim=report.fixed_dim,
        component_count=report.component_count(),
        even_invariants=even // scale,
        odd_invariants=odd // scale,
        det_fallbacks=plus_redone + minus_redone,
        min_margin=min(plus_margin, minus_margin),
    )


def graded_rank_with_classes(group: WeylGroup) -> tuple[GradedRank, tuple[ClassContribution, ...]]:
    """Graded rank and per-class rows; the rows are computed once per group."""
    rows = _CLASS_ROWS.get(group)
    if rows is None:
        rows = _CLASS_ROWS[group] = tuple(
            _class_contribution(group, c.representative, c.members) for c in group.classes
        )
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

    Shares the Smith form, the coset numerators, the torsion key of a
    component, ``group.centralizer_indices`` and the checked int64
    product with :func:`graded_rank_with_classes`.  Otherwise
    independent: it takes the Smith forms of every w - 1 in one stacked
    call and buckets the elements by their invariant-factor diagonal, so
    that within a bucket the coset steps, the torsion rows and
    dim Gamma^w agree.  Each bucket's commuting pairs are flattened into
    one stack and acted on by :func:`fixedpoints._pair_action` (moved
    numerators with their membership test, restriction to Gamma^w
    through one stacked Smith form of the bases), and det(1 +- R) is one
    stacked Bareiss per sign.  Must agree with
    :func:`graded_rank_with_classes`.
    """
    ws = group.array.astype(np.int64)
    snf = smith_normal_form(ws - np.eye(group.rank, dtype=np.int64))
    diagonals, bucket = np.unique(snf.diagonal, axis=0, return_inverse=True)
    even = odd = 0  # 2 |W| times k0 and k1
    for b, diag in enumerate(diagonals):
        members = np.flatnonzero(bucket.ravel() == b)
        cents = [group.centralizer_indices(i) for i in members.tolist()]
        owner = np.repeat(np.arange(len(members)), [len(c) for c in cents])
        r = int(np.count_nonzero(diag))
        steps, q = _coset_steps(diag[:r])
        v = snf.v[members]
        perm, restriction = _pair_action(ws[members], snf.u[members], v, diag,
                                         int_matmul(v[:, :, :r], steps) % q, owner,
                                         ws[np.concatenate(cents)])
        fixed = (perm == np.arange(perm.shape[1])).sum(axis=1)
        ident = np.eye(group.rank - r, dtype=np.int64)
        plus, minus = det(ident + restriction), det(ident - restriction)
        e, o = int_matmul(fixed, np.stack([plus + minus, plus - minus], axis=1)).tolist()
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

"""A second, fully independent oracle for the delocalized rank formula.

The library computes centralizer-invariant dimensions from determinant
identities for exterior traces.  Here we instead build the honest
representation matrices: for each class representative w, the space
(direct sum over components c of T^w of the even/odd exterior algebra of
ker(w-1)) carries an explicit action of Z(w) by block permutation times
exterior-power matrices.  Averaging those matrices over the centralizer
gives the projection onto invariants, whose rank (computed by exact
elimination, no traces anywhere) is the invariant dimension.
"""

from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from torusdual import fixedpoints as fp
from torusdual import ktheory as kt
from torusdual import rootdata as rdm
from torusdual import weyl
from tuple_reference import centralizer_action, elements


def exterior_power_matrix(r, k):
    """Matrix of Lambda^k of r in the sorted-subset basis, exact."""
    d = r.shape[0]
    subsets = list(combinations(range(d), k))
    if k == 0:
        return np.array([[Fraction(1)]], dtype=object)

    def cofactor_det(rows):
        # k <= 4 here, so plain cofactor expansion is fine
        if len(rows) == 1:
            return rows[0][0]
        total = Fraction(0)
        for j in range(len(rows)):
            rest = [row[:j] + row[j + 1:] for row in rows[1:]]
            sign = -1 if j % 2 else 1
            total += sign * rows[0][j] * cofactor_det(rest)
        return total

    out = np.empty((len(subsets), len(subsets)), dtype=object)
    for a, rows in enumerate(subsets):
        for b, cols in enumerate(subsets):
            out[a, b] = cofactor_det([[Fraction(r[i, j]) for j in cols] for i in rows])
    return out


def fraction_rank(mat):
    rows = [list(map(Fraction, row)) for row in mat]
    if not rows:
        return 0
    ncols = len(rows[0])
    rank = 0
    for col in range(ncols):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col] != 0), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i][col] != 0:
                f = rows[i][col] / rows[rank][col]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def invariant_dims_by_projection(group, rep_index):
    """(even, odd) invariant dimensions via the averaged action matrix."""
    elems = elements(group)
    w = elems[rep_index]
    report = fp.fixed_set(w)
    comps = report.components
    d = report.fixed_dim
    cent = group.centralizer_indices(rep_index)
    even_ks = [k for k in range(d + 1) if k % 2 == 0]
    odd_ks = [k for k in range(d + 1) if k % 2 == 1]

    def block_sizes(ks):
        from math import comb

        return [comb(d, k) for k in ks]

    dims = {}
    for label, ks in (("even", even_ks), ("odd", odd_ks)):
        sizes = block_sizes(ks)
        per_comp = sum(sizes)
        total = per_comp * len(comps)
        if total == 0:
            dims[label] = 0
            continue
        avg = np.zeros((total, total), dtype=object)
        avg[:] = Fraction(0)
        for zi in cent:
            z = elems[zi]
            (perm,), (restriction,) = centralizer_action(report, [z])
            blocks = [exterior_power_matrix(restriction, k) for k in ks]
            action = np.zeros((total, total), dtype=object)
            action[:] = Fraction(0)
            for c_src, c_dst in enumerate(perm):
                off = 0
                for b, size in zip(blocks, sizes):
                    r0 = c_dst * per_comp + off
                    c0 = c_src * per_comp + off
                    for i in range(size):
                        for j in range(size):
                            action[r0 + i, c0 + j] = Fraction(b[i, j])
                    off += size
            avg = avg + action
        avg = avg / Fraction(len(cent))
        dims[label] = fraction_rank(avg)
    return dims["even"], dims["odd"]


def graded_rank_by_projection(group):
    k0 = k1 = 0
    for c in group.classes:
        even, odd = invariant_dims_by_projection(group, c.representative)
        k0 += even
        k1 += odd
    return kt.GradedRank(k0, k1)


@pytest.mark.parametrize("type_,rank,form", [
    ("A", 1, "sc"), ("A", 2, "sc"), ("A", 2, "adjoint"),
    ("B", 2, "sc"), ("B", 2, "adjoint"), ("G", 2, "sc"), ("A", 3, "sc"),
])
def test_projection_oracle_agrees(type_, rank, form):
    rd = rdm.build_simple(type_, rank, form)
    group = weyl.generate(rd)
    assert kt.rational_equivariant_k(rd) == graded_rank_by_projection(group)


def test_projection_oracle_fixture_groups():
    inv = weyl.WeylGroup.from_generators([((-1,),)], rank=1)
    assert graded_rank_by_projection(inv) == kt.GradedRank(3, 0)
    triv = weyl.WeylGroup.from_generators([], rank=2)
    assert graded_rank_by_projection(triv) == kt.GradedRank(2, 2)


def test_exterior_power_matrix_basics():
    r = np.array([[Fraction(0), Fraction(1)], [Fraction(1), Fraction(0)]], dtype=object)
    lam2 = exterior_power_matrix(r, 2)
    assert lam2.shape == (1, 1) and lam2[0, 0] == Fraction(-1)
    assert exterior_power_matrix(r, 0)[0, 0] == Fraction(1)

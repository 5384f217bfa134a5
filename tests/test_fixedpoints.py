from fractions import Fraction
from itertools import product
from math import prod

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from torusdual import fixedpoints as fp
from torusdual import intlinalg as il
from torusdual import rootdata as rdm
from torusdual import weyl
from tuple_reference import (
    centralizer_action, elements, mat_identity, mat_mul, one_bucket, smith_form, stacked_action,
)


def minus_one(w) -> np.ndarray:
    """w - 1 in int64, for one square integer matrix w."""
    return np.asarray(w, dtype=np.int64) - np.eye(len(w), dtype=np.int64)


def brute_force_component_count(w, torsion_order):
    """Independent oracle: count solutions of (w-1)x in Z^n on the grid
    (1/N)Z^n mod Z^n, then divide out the kernel directions.

    On that grid each coset of the fixed set contributes N^fixed_dim
    points as long as N is a multiple of the torsion order.
    """
    n = len(w)
    m = minus_one(w)
    big = max(torsion_order, 1)
    count = 0
    for point in product(range(big), repeat=n):
        x = np.array([Fraction(p, big) for p in point], dtype=object)
        img = m @ x
        if all(Fraction(v).denominator == 1 for v in img):
            count += 1
    kernel_dim = n - il.smith_normal_form(m).rank
    assert count % big**kernel_dim == 0
    return count // big**kernel_dim


def test_identity_fixed_set():
    rep = fp.fixed_set(((1, 0), (0, 1)))
    assert rep.fixed_dim == 2
    assert rep.components == ((Fraction(0), Fraction(0)),)


def test_su2_inversion():
    rep = fp.fixed_set(((-1,),))
    assert rep.fixed_dim == 0
    assert rep.components == ((Fraction(0),), (Fraction(1, 2),))
    assert rep.fixed_lattice_basis == ()


def test_su3_three_cycle():
    su3 = rdm.build_simple("A", 2, "sc")
    group = weyl.generate(su3)
    cycles = [
        g for g in elements(group)
        if g != mat_identity(2) and mat_mul(mat_mul(g, g), g) == mat_identity(2)
    ]
    assert len(cycles) == 2
    for g in cycles:
        rep = fp.fixed_set(g)
        assert rep.fixed_dim == 0
        assert rep.component_count() == 3


def test_reflection_fixed_set_has_line():
    su3 = rdm.build_simple("A", 2, "sc")
    group = weyl.generate(su3)
    refl = [
        g for g in elements(group)
        if g != mat_identity(2) and mat_mul(g, g) == mat_identity(2)
    ]
    assert len(refl) == 3
    for g in refl:
        rep = fp.fixed_set(g)
        assert rep.fixed_dim == 1
        assert len(rep.fixed_lattice_basis) == 1
        garr = np.array(g, dtype=object)
        v = np.array(rep.fixed_lattice_basis[0], dtype=object)
        assert np.array_equal(garr @ v, v)


@pytest.mark.parametrize("type_,rank,form", [
    ("A", 2, "sc"), ("A", 2, "adjoint"),
    ("B", 2, "sc"), ("B", 2, "adjoint"),
    ("G", 2, "sc"),
])
def test_component_count_against_brute_force(type_, rank, form):
    group = weyl.generate(rdm.build_simple(type_, rank, form))
    elems = elements(group)
    for c in group.classes:
        w = elems[c.representative]
        rep = fp.fixed_set(w)
        if rep.component_count() <= 100:
            assert rep.component_count() == brute_force_component_count(
                w, rep.component_count()
            )


@pytest.mark.parametrize("type_,rank", [("A", 2), ("B", 2), ("G", 2), ("A", 3), ("B", 3)])
def test_conjugation_covariance(type_, rank):
    group = weyl.generate(rdm.build_simple(type_, rank, "sc"))
    assert len(group) <= 48
    reports = {i: fp.fixed_set(group.array[i]) for i in range(len(group))}
    for c in group.classes:
        dims = {reports[i].fixed_dim for i in c.members}
        counts = {reports[i].component_count() for i in c.members}
        assert len(dims) == 1 and len(counts) == 1


SC_CENTER_ORDERS = {
    ("A", 1): 2, ("A", 2): 3, ("A", 3): 4, ("A", 4): 5,
    ("B", 2): 2, ("B", 3): 2, ("B", 4): 2,
    ("C", 2): 2, ("C", 3): 2, ("C", 4): 2,
    ("D", 3): 4, ("D", 4): 4,
    ("F", 4): 1, ("G", 2): 1,
}


@pytest.mark.parametrize("type_,rank", sorted(SC_CENTER_ORDERS))
def test_full_fixed_points_count_center(type_, rank):
    rd = rdm.build_simple(type_, rank, "sc")
    full = fp.full_fixed_points(rd)
    assert len(full) == rdm.center(rd).order
    assert len(full) == SC_CENTER_ORDERS[(type_, rank)]


def test_full_fixed_points_su3_vs_dual():
    su3 = rdm.build_simple("A", 2, "sc")
    assert len(fp.full_fixed_points(su3)) == 3
    assert len(fp.full_fixed_points(rdm.dualize(su3))) == 1


def test_centralizer_action_identity():
    rep = fp.fixed_set(((-1, 0), (0, -1)))
    perm, restriction = centralizer_action(rep, [((1, 0), (0, 1))])
    assert tuple(perm[0].tolist()) == tuple(range(rep.component_count()))
    assert restriction[0].shape == (0, 0)


def test_centralizer_action_su2():
    w = ((-1,),)
    rep = fp.fixed_set(w)
    perm, restriction = centralizer_action(rep, [w])
    assert tuple(perm[0].tolist()) == (0, 1)  # both 0 and 1/2 are fixed by the inversion
    assert restriction[0].shape == (0, 0)


def test_centralizer_action_precondition():
    su3 = rdm.build_simple("A", 2, "sc")
    group = weyl.generate(su3)
    cycle = next(
        g for g in elements(group)
        if g != mat_identity(2) and mat_mul(mat_mul(g, g), g) == mat_identity(2)
    )
    transposition = next(
        g for g in elements(group)
        if mat_mul(g, g) == mat_identity(2) and mat_mul(g, cycle) != mat_mul(cycle, g)
    )
    with pytest.raises(ValueError):
        centralizer_action(fp.fixed_set(cycle), [transposition])


def test_centralizer_action_permutes_nontrivially():
    # B2, central inversion: components are the four half-lattice points;
    # a reflection permutes two of them
    b2 = rdm.build_simple("B", 2, "sc")
    group = weyl.generate(b2)
    minus = ((-1, 0), (0, -1))
    rep = fp.fixed_set(minus)
    assert rep.component_count() == 4
    perms = set()
    for z in group.array[group.centralizer_indices(elements(group).index(minus))]:
        perm, _ = centralizer_action(rep, [z])
        perms.add(tuple(perm[0].tolist()))
    assert any(p != tuple(range(4)) for p in perms)


def test_restriction_is_exact_rational():
    g2 = rdm.build_simple("G", 2, "sc")
    group = weyl.generate(g2)
    elems = elements(group)
    for c in group.classes:
        w = elems[c.representative]
        rep = fp.fixed_set(w)
        if rep.fixed_dim == 0:
            continue
        basis = np.array(rep.fixed_lattice_basis, dtype=object).T
        for zi in group.centralizer_indices(c.representative):
            z = elems[zi]
            _, restriction = centralizer_action(rep, [z])
            assert np.array_equal(
                basis @ restriction[0], np.array(z, dtype=object) @ basis
            )


@pytest.mark.parametrize("type_,rank,form", [
    ("B", 3, "sc"), ("A", 3, "adjoint"), ("D", 4, [[1, 0, 0, 0]]),
], ids=["B3-sc", "A3-adjoint", "D4-so"])
def test_action_matches_component_enumeration(type_, rank, form):
    # Smith coordinates against the explicit component permutation and the
    # rational restriction, for every commuting pair (w, z)
    group = weyl.generate(rdm.build_simple(type_, rank, form))
    elems = elements(group)
    for wi, w in enumerate(elems):
        rep = fp.fixed_set(w)
        for zi in group.centralizer_indices(wi):
            z = elems[zi]
            (fixed,), (restriction,) = stacked_action(rep, [z])
            (perm,), (expected,) = centralizer_action(rep, [z])
            assert fixed == sum(1 for i, j in enumerate(perm) if i == j)
            assert restriction.shape == expected.shape
            assert np.array_equal(restriction, expected)
            assert restriction.dtype == np.int64


def smith_reference_fixed_count(report, z):
    """Components of T^w fixed by z, as the order of ker(B - 1) for
    B = U z U^-1 on tors coker(w - 1) = sum Z/d_i: the product of the
    invariant factors of [B - 1 | D_tors]."""
    snf = report._snf
    d = snf.diagonal
    tors = [i for i in range(snf.rank) if d[i] > 1]
    u = snf.u.astype(object)
    # U' U V' = 1 for the Smith form of the unimodular U, so U^-1 = V' U';
    # both Smith forms are the Python-int reference's
    inner_u, _, inner_v, _ = smith_form(u)
    u_inv = np.array(inner_v, dtype=object) @ np.array(inner_u, dtype=object)
    b = u[tors, :] @ np.array(z, dtype=object) @ u_inv[:, tors]
    d_tors = np.diag(np.array([d[i] for i in tors], dtype=object))
    coker = np.hstack([b - np.eye(len(tors), dtype=np.int64), d_tors])
    _, diag, _, _ = smith_form(coker)
    return prod(diag[i][i] for i in range(len(tors)))


@pytest.mark.parametrize("type_,rank,form", [("F", 4, "sc"), ("C", 4, "adjoint")],
                         ids=["F4-sc", "C4-adjoint"])
def test_action_count_matches_smith_reference(type_, rank, form):
    group = weyl.generate(rdm.build_simple(type_, rank, form))
    for c in group.classes:
        rep = fp.fixed_set(group.array[c.representative])
        for zi in group.centralizer_indices(c.representative):
            z = group.array[zi]
            assert stacked_action(rep, [z])[0][0] == smith_reference_fixed_count(rep, z)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 4).flatmap(
    lambda n: arrays(np.int64, (n, n), elements=st.integers(-4, 4))))
def test_component_count_is_coker_torsion(w):
    # ROADMAP item 3: #components of T^w = |tors coker(w - 1)|
    rep = fp.fixed_set(w)
    _, torsion = il.cokernel(minus_one(w))
    assert rep.component_count() == torsion.order
    assert rep._numerators.shape == (len(w), torsion.order)
    assert len(set(rep.components)) == rep.component_count()


@pytest.mark.parametrize("type_,rank", [("G", 2), ("B", 3)], ids=["G2-sc", "B3-sc"])
def test_stacked_centralizer_action_matches_single_calls(type_, rank):
    group = weyl.generate(rdm.build_simple(type_, rank, "sc"))
    for wi, w in enumerate(group.array):
        rep = fp.fixed_set(w)
        cent = group.centralizer_indices(wi)
        perms, restrictions = centralizer_action(rep, group.array[cent])
        assert perms.shape == (len(cent), rep.component_count())
        assert restrictions.shape == (len(cent), rep.fixed_dim, rep.fixed_dim)
        basis = np.array(rep.fixed_lattice_basis, dtype=object).reshape(-1, rank).T
        stacked = il.restrict_to_sublattice(group.array[cent], basis)
        for k, zi in enumerate(cent):
            (perm,), (restriction,) = centralizer_action(rep, group.array[[zi]])
            assert perms[k].tolist() == perm.tolist()
            assert restrictions[k].tolist() == restriction.tolist()
            single = il.restrict_to_sublattice(group.array[zi], basis)
            assert stacked[k].tolist() == single.tolist() == restriction.tolist()


@pytest.mark.parametrize("type_,rank", [("G", 2), ("B", 3)], ids=["G2-sc", "B3-sc"])
def test_stacked_centralizer_action_rejects_one_non_commuting(type_, rank):
    group = weyl.generate(rdm.build_simple(type_, rank, "sc"))
    wi = next(i for i in range(len(group)) if len(group.centralizer_indices(i)) < len(group))
    cent = set(group.centralizer_indices(wi))
    outsider = next(i for i in range(len(group)) if i not in cent)
    stack = group.array[sorted(cent) + [outsider]]
    rep = fp.fixed_set(group.array[wi])
    centralizer_action(rep, stack[:-1])
    with pytest.raises(ValueError, match="centralize"):
        centralizer_action(rep, stack)


@pytest.mark.parametrize("z", [
    np.eye(4, dtype=int),  # four 2 x 2 matrices' worth of entries
    np.eye(3, dtype=int),
    np.eye(2, dtype=int).reshape(1, 1, 2, 2),
    np.ones(2, dtype=int),
    np.eye(2, dtype=int),
], ids=["4x4", "3x3", "4-d", "1-d", "one-matrix"])
def test_action_rejects_a_z_of_the_wrong_shape(z):
    rep = fp.fixed_set([[-1, 0], [0, 1]])
    with pytest.raises(ValueError, match="2 x 2"):
        stacked_action(rep, z)


def test_action_bounds_z_minus_one_at_the_int64_edge():
    # z - 1 reaches -2^63 here, which np.abs would wrap back to -2^63
    rep = fp.fixed_set([[-1]])
    (fixed,), (restriction,) = stacked_action(rep, [[[-1]]])
    assert fixed == 2 and restriction.shape == (0, 0)
    with pytest.raises(OverflowError):
        stacked_action(rep, [[[-(2**63 - 1)]]])


def test_fixed_sets_keep_input_order():
    # one stacked call over the class representatives, whose buckets
    # interleave, against each representative on its own
    group = weyl.generate(rdm.build_simple("B", 3, "adjoint"))
    ws = group.array[[c.representative for c in group.classes]]
    reports = fp.fixed_sets(ws)
    assert len({fp.fixed_set(w)._snf.diagonal for w in ws}) > 1
    assert [r.w for r in reports] == [il.as_matrix(w) for w in ws]
    for w, report in zip(ws, reports):
        alone = fp.fixed_set(w)
        assert report.components == alone.components == tuple(sorted(alone.components))
        assert report.fixed_dim == alone.fixed_dim
        assert report.component_count() == alone.component_count()
        assert report.fixed_lattice_basis == alone.fixed_lattice_basis


def test_fixed_sets_reject_a_stack_that_is_not_square():
    with pytest.raises(ValueError, match="square"):
        fp.fixed_sets(np.zeros((2, 2, 3), dtype=int))


# a quarter turn of Z^2: w - 1 has invariant factors (1, 2), so T^w holds
# two points, 0 and (1/2, 1/2)
QUARTER_TURN = [[0, -1], [1, 0]]


def test_pair_action_rejects_a_moved_point_outside_the_fixed_set():
    bucket = one_bucket(QUARTER_TURN)
    ident = np.eye(2, dtype=np.int64)[None]
    owner = np.zeros(1, dtype=np.int64)
    (perm,), _ = fp._pair_action(bucket, owner, ident)
    assert perm.tolist() == [0, 1]
    # (1/2, 0) is not fixed: (w - 1) x = (-1/2, 1/2)
    bad = bucket._replace(x=np.array([[[0, 1], [0, 0]]]))
    with pytest.raises(ValueError, match="fixed set"):
        fp._pair_action(bad, owner, ident)


def test_pair_action_rejects_duplicate_component_keys():
    bucket = one_bucket(QUARTER_TURN)
    bad = bucket._replace(y=bucket.y[..., [0, 0]])
    with pytest.raises(AssertionError, match="distinct"):
        fp._pair_action(bad, np.zeros(1, dtype=np.int64), np.eye(2, dtype=np.int64)[None])


def test_buckets_reject_non_integral_images(monkeypatch):
    # numerators taken over twice the right denominator name points that
    # are not fixed, so their images (w - 1) x / q are not integral
    coset_steps = fp._coset_steps

    def doubled(diag):
        steps, q = coset_steps(diag)
        return steps, 2 * q

    monkeypatch.setattr(fp, "_coset_steps", doubled)
    with pytest.raises(AssertionError, match="integral"):
        one_bucket(QUARTER_TURN)

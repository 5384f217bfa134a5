"""The batched class sum against a per-element reference, and its guards."""

import dataclasses
import weakref

import numpy as np
import pytest

from torusdual import ktheory as kt
from torusdual import rootdata as rdm
from torusdual import weyl
from torusdual.fixedpoints import fixed_set
from torusdual.rootdata import is_simple_type
from tuple_reference import bareiss_det, mat_identity

REFERENCE_DATA = [
    ("A", 4, "sc"), ("B", 4, "sc"), ("C", 4, "adjoint"), ("D", 4, [[1, 0, 0, 0]]),
    ("F", 4, "sc"), ("G", 2, "sc"), ("E", 6, "sc"), ("E", 6, "adjoint"),
]
REFERENCE_IDS = ["A4", "B4-sc", "C4-adjoint", "D4-so", "F4", "G2", "E6-sc", "E6-adjoint"]


def reference_row(group, rep):
    """(even, odd) of one class by the per-element loop: for each z in
    Z(w), the component keys and the restriction in object-dtype Python
    ints and two Bareiss determinants."""
    report = fixed_set(group.array[rep])
    snf, r = report._snf, report._snf.rank
    d = snf.diagonal
    tors = [i for i in range(r) if d[i] > 1]
    # the int64 Smith factors as Python ints, so the per-z products stay exact
    u_tors, v_inv, v = (x.astype(object) for x in (snf.u[tors, :], snf.v_inv[r:], snf.v[:, r:]))
    images = report._matrix.astype(object) @ np.array(report.components, dtype=object).T
    assert all(v.denominator == 1 for v in images.flat)
    # integral: Python ints keep the per-z products below out of Fraction arithmetic
    images = np.array([[int(v) for v in row] for row in images], dtype=object).reshape(images.shape)
    cent = group.centralizer_indices(rep)
    even = odd = 0
    for zi in cent:
        z = group.array[zi].astype(object)
        moved = u_tors @ (z @ images - images)
        fixed = sum(
            all(moved[k, c] % d[i] == 0 for k, i in enumerate(tors))
            for c in range(images.shape[1])
        )
        restriction = (v_inv @ z @ v).tolist()
        plus, minus = (
            bareiss_det([[int(i == j) + s * x for j, x in enumerate(row)]
                         for i, row in enumerate(restriction)])
            for s in (1, -1)
        )
        even += fixed * (plus + minus)
        odd += fixed * (plus - minus)
    scale = 2 * len(cent)
    assert even % scale == 0 and odd % scale == 0
    return even // scale, odd // scale


@pytest.mark.parametrize("type_,rank,form", REFERENCE_DATA, ids=REFERENCE_IDS)
def test_class_rows_match_per_element_reference(type_, rank, form):
    group = weyl.generate(rdm.build_simple(type_, rank, form))
    _, rows = kt.graded_rank_with_classes(group)
    for c, row in zip(group.classes, rows):
        assert (row.even_invariants, row.odd_invariants) == reference_row(group, c.representative)


@pytest.mark.parametrize("type_,rank,form,want", [
    ("B", 3, "sc", (17, 0)), ("F", 4, "sc", (40, 0)), ("D", 4, [[1, 0, 0, 0]], (30, 0)),
], ids=["B3-sc", "F4-sc", "D4-so"])
def test_class_sum_takes_no_float_determinant(monkeypatch, type_, rank, form, want):
    def refuse(*args, **kwargs):
        raise AssertionError("the class sum took a float determinant")

    monkeypatch.setattr(np.linalg, "det", refuse)
    # rows cached by an earlier test would skip the determinants
    monkeypatch.setattr(kt, "_CLASS_ROWS", weakref.WeakKeyDictionary())
    rep = kt.verify_duality(rdm.build_simple(type_, rank, form))
    assert (rep.primal.k0, rep.primal.k1) == (rep.dual.k0, rep.dual.k1) == want


def test_stacked_action_matches_single_elements():
    group = weyl.generate(rdm.build_simple("B", 3, "adjoint"))
    for c in group.classes:
        report = fixed_set(group.array[c.representative])
        cent = group.centralizer_indices(c.representative)
        fixed, restriction = report.action(group.array[cent])
        assert restriction.dtype == np.int64
        for k, zi in enumerate(cent):
            (one_fixed,), (one_restriction,) = report.action(group.array[[zi]])
            assert fixed[k] == one_fixed
            assert np.array_equal(restriction[k], one_restriction)


@pytest.mark.parametrize("v_entry,v_inv_entry", [(2**40, 2**40)], ids=["product"])
def test_smith_factor_past_int64_raises(v_entry, v_inv_entry):
    group = weyl.generate(rdm.build_simple("B", 3, "sc"))
    w = next(m for m in group.array if fixed_set(m).fixed_dim == 2)
    report = fixed_set(w)
    snf, n = report._snf, report.rank
    v, v_inv = snf.v.copy(), snf.v_inv.copy()
    v[0, n - 1] = v_entry
    v_inv[n - 1, 0] = v_inv_entry
    bad = dataclasses.replace(report, _snf=dataclasses.replace(snf, v=v, v_inv=v_inv))
    with pytest.raises(OverflowError):
        bad.action(group.array[:4])


STEINBERG_DATA = [
    (t, r) for t in "ABCDFG" for r in range(1, 5) if is_simple_type(t, r)
] + [("E", 6)]


@pytest.mark.parametrize("type_,rank", STEINBERG_DATA,
                         ids=[f"{t}{r}" for t, r in STEINBERG_DATA])
@pytest.mark.parametrize("form", ["sc", "adjoint"])
def test_identity_class_row_is_steinberg(type_, rank, form):
    # the W-invariants of the exterior algebra of a reflection
    # representation sit in degree 0 only
    group = weyl.generate(rdm.build_simple(type_, rank, form))
    _, rows = kt.graded_rank_with_classes(group)
    [row] = [r for r in rows if r.representative == mat_identity(rank)]
    assert (row.even_invariants, row.odd_invariants) == (1, 0)


def test_class_rows_are_computed_once_per_group():
    b3 = rdm.build_simple("B", 3, "sc")
    dual = weyl.generate(rdm.dualize(b3))
    assert dual is weyl.generate(rdm.build_simple("C", 3, "adjoint"))
    rows = kt.verify_duality(b3).dual_classes
    assert kt.graded_rank_with_classes(dual)[1] is rows


def test_verify_duality_b6():
    rep = kt.verify_duality(rdm.build_simple("B", 6, "sc"))
    assert rep.dual_label == ("C", 6, "adjoint")
    assert (rep.primal.k0, rep.primal.k1) == (rep.dual.k0, rep.dual.k1) == (145, 0)
    assert rep.verdict == "equal"

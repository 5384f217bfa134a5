"""The batched class sum against a per-element reference, and its guards."""

import dataclasses
import weakref

import numpy as np
import pytest

from torusdual import ktheory as kt
from torusdual import rootdata as rdm
from torusdual import weyl
from torusdual.fixedpoints import _buckets, _stacked_action, fixed_set
from torusdual.rootdata import is_simple_type
from tuple_reference import bareiss_det, mat_identity, one_bucket, stacked_action

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
    minus_one = np.array(report.w, dtype=object) - np.identity(report.rank, dtype=object)
    images = minus_one @ np.array(report.components, dtype=object).T
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


CENTRAL_DATA = [
    (t, r, form) for t in "ABCDFG" for r in range(1, 5) if is_simple_type(t, r)
    for form in ("sc", "adjoint")
] + [("D", 4, [[1, 0, 0, 0]])]


@pytest.mark.parametrize("type_,rank,form", CENTRAL_DATA,
                         ids=[f"{t}{r}-{f if isinstance(f, str) else 'so'}" for t, r, f in CENTRAL_DATA])
def test_central_rows_match_full_centralizer_sum(monkeypatch, type_, rank, form):
    # a central class is summed over W's class representatives, weighted by
    # class size, and never asks for its centralizer
    group = weyl.generate(rdm.build_simple(type_, rank, form))
    reps = [c.representative for c in group.classes if len(c.members) == 1]
    want = [reference_row(group, rep) for rep in reps]

    def refuse(i):
        raise AssertionError("a central class asked for its centralizer")

    monkeypatch.setattr(group, "centralizer_indices", refuse)
    rows = kt._class_rows(group, reps, [1] * len(reps))
    assert [(r.even_invariants, r.odd_invariants) for r in rows] == want
    assert all(r.centralizer_order == len(group) for r in rows)


def test_stacked_action_matches_single_elements():
    # each bucket of class representatives at once, against every pair
    # (w, z) taken on its own
    group = weyl.generate(rdm.build_simple("B", 3, "adjoint"))
    reps = [c.representative for c in group.classes]
    ws = group.array[reps].astype(np.int64)
    for bucket in _buckets(ws):
        cents = [group.centralizer_indices(reps[i]) for i in bucket.members]
        owner = np.repeat(np.arange(len(cents)), [len(c) for c in cents])
        fixed, restriction = _stacked_action(bucket, owner, group.array[np.concatenate(cents)])
        assert restriction.dtype == np.int64
        pairs = [(reps[i], zi) for i, cent in zip(bucket.members, cents) for zi in cent]
        assert len(pairs) == len(fixed)
        for k, (wi, zi) in enumerate(pairs):
            (one_fixed,), (one_restriction,) = stacked_action(fixed_set(group.array[wi]),
                                                              group.array[[zi]])
            assert fixed[k] == one_fixed
            assert np.array_equal(restriction[k], one_restriction)


@pytest.mark.parametrize("v_entry,v_inv_entry", [(2**40, 2**40)], ids=["product"])
def test_smith_factor_past_int64_raises(v_entry, v_inv_entry):
    group = weyl.generate(rdm.build_simple("B", 3, "sc"))
    w = next(m for m in group.array if fixed_set(m).fixed_dim == 2)
    bucket = one_bucket(w)
    snf, n = bucket.snf, len(w)
    v, v_inv = snf.v.copy(), snf.v_inv.copy()
    v[0, 0, n - 1] = v_entry
    v_inv[0, n - 1, 0] = v_inv_entry
    bad = bucket._replace(snf=dataclasses.replace(snf, v=v, v_inv=v_inv))
    with pytest.raises(OverflowError):
        _stacked_action(bad, np.zeros(4, dtype=np.int64), group.array[:4])


def test_short_centralizer_raises_non_integral(monkeypatch):
    # the first B3 sc class past the identity has |Z(w)| = 16; with one
    # element dropped its average is 28/30
    group = weyl.generate(rdm.build_simple("B", 3, "sc"))
    c = next(c for c in group.classes if len(c.members) > 1)
    cent = group.centralizer_indices(c.representative)
    monkeypatch.setattr(group, "centralizer_indices", lambda i: cent[:-1])
    with pytest.raises(kt.NonIntegralInvariantError):
        kt._class_rows(group, [c.representative], [len(c.members)])


def _minus_one_row(monkeypatch, group, identity_size):
    """The row of the central class of -1, summed over a class list in
    which the identity class (element 0) has identity_size members."""
    [minus] = [c.representative for c in group.classes
               if len(c.members) == 1 and c.representative != 0]
    monkeypatch.setattr(group, "_classes", [
        weyl.ConjugacyClass(0, range(identity_size)) if c.representative == 0 else c
        for c in group.classes])
    return kt._class_rows(group, [minus], [1])


def test_wrong_class_size_raises_non_integral(monkeypatch):
    # the identity fixes all 8 components of T^-1 and det(1 +- R) = 1 on
    # Gamma^-1 = 0, so a second identity adds 16 to the even sum, 2 |W| = 96
    # times the average
    group = weyl.generate(rdm.build_simple("B", 3, "sc"))
    rows = {r.representative: r for r in kt.graded_rank_with_classes(group)[1]}
    [row] = _minus_one_row(monkeypatch, group, 1)
    assert row == rows[row.representative]
    with pytest.raises(kt.NonIntegralInvariantError):
        _minus_one_row(monkeypatch, group, 2)


def test_oversized_class_weight_raises_overflow(monkeypatch):
    # a class weight of 2^62 must raise, not wrap
    group = weyl.generate(rdm.build_simple("B", 3, "sc"))
    with pytest.raises(OverflowError):
        _minus_one_row(monkeypatch, group, 2**62)


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

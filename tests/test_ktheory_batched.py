"""The batched class sum against a per-element reference, and its guards."""

import dataclasses

import numpy as np
import pytest

from torusdual import ktheory as kt
from torusdual import rootdata as rdm
from torusdual import weyl
from torusdual.fixedpoints import fixed_set
from torusdual.rootdata import is_simple_type
from tuple_reference import mat_identity

REFERENCE_DATA = [
    ("A", 4, "sc"), ("B", 4, "sc"), ("C", 4, "adjoint"), ("D", 4, [[1, 0, 0, 0]]),
    ("F", 4, "sc"), ("G", 2, "sc"), ("E", 6, "sc"), ("E", 6, "adjoint"),
]
REFERENCE_IDS = ["A4", "B4-sc", "C4-adjoint", "D4-so", "F4", "G2", "E6-sc", "E6-adjoint"]


def bareiss(rows) -> int:
    """Exact determinant of a list of integer rows, fraction-free."""
    m = [list(r) for r in rows]
    n, sign, prev = len(m), 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k]), None)
            if swap is None:
                return 0
            m[k], m[swap], sign = m[swap], m[k], -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[-1][-1] if n else 1


def reference_row(group, rep):
    """(even, odd) of one class by the per-element loop: for each z in
    Z(w), the component keys and the restriction in object-dtype Python
    ints and two Bareiss determinants."""
    report = fixed_set(group.array[rep])
    snf, r = report._snf, report._snf.rank
    d = snf.diagonal
    tors = [i for i in range(r) if d[i] > 1]
    u_tors = snf.u[tors, :]
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
        restriction = (snf.v_inv[r:] @ z @ snf.v[:, r:]).tolist()
        plus, minus = (
            bareiss([[int(i == j) + s * x for j, x in enumerate(row)]
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
        assert row.det_fallbacks == 0
        assert 0 < row.min_margin <= kt.DET_TOLERANCE


@pytest.mark.parametrize("fake,rounding_fails", [
    (lambda dets, a: dets + 0.25, True),
    (lambda dets, a: dets + 2.0 ** (a.shape[-1] + 1), False),
], ids=["non-integer", "out-of-bound"])
def test_bad_float_determinants_fall_back_to_bareiss(monkeypatch, fake, rounding_fails):
    group = weyl.generate(rdm.build_simple("B", 3, "sc"))
    want = [kt._class_contribution(group, c.representative, c.members) for c in group.classes]
    real = np.linalg.det
    monkeypatch.setattr(np.linalg, "det", lambda a: fake(real(a), a))
    got = [kt._class_contribution(group, c.representative, c.members) for c in group.classes]
    assert got == want
    for row, base in zip(got, want):
        assert base.det_fallbacks == 0
        assert row.det_fallbacks == 2 * row.centralizer_order
        if rounding_fails:
            assert row.min_margin < 0
        else:
            assert row.min_margin > 0


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


@pytest.mark.parametrize("v_entry,v_inv_entry", [(2**63, 1), (2**40, 2**40)],
                         ids=["entry", "product"])
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
    assert sum(r.det_fallbacks for r in rep.primal_classes + rep.dual_classes) == 0

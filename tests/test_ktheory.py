import numpy as np
import pytest

from torusdual import cli
from torusdual import intlinalg as il
from torusdual import ktheory as kt
from torusdual import rootdata as rdm
from torusdual import weyl
from torusdual.fixedpoints import fixed_set
from tuple_reference import elements, inverse_index

SMALL_DATA = [
    ("A", 1), ("A", 2), ("A", 3), ("B", 2), ("C", 2),
    ("B", 3), ("C", 3), ("D", 3), ("G", 2),
]


def inversion_group():
    return weyl.WeylGroup.from_generators([((-1,),)], rank=1)


def trivial_group(n):
    return weyl.WeylGroup.from_generators([], rank=n)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_trivial_group_torus_ranks(n):
    rank = kt.rational_equivariant_k(trivial_group(n))
    assert (rank.k0, rank.k1) == (2 ** (n - 1), 2 ** (n - 1))


def test_inversion_on_circle_is_3_0():
    rank = kt.rational_equivariant_k(inversion_group())
    assert (rank.k0, rank.k1) == (3, 0)


def test_su3_class_form_equals_pairs_form():
    su3 = rdm.build_simple("A", 2, "sc")
    group = weyl.generate(su3)
    by_classes = kt.rational_equivariant_k(su3)
    by_pairs = kt.commuting_pairs_rank(group)
    assert by_classes == by_pairs


@pytest.mark.parametrize("type_,rank", SMALL_DATA)
@pytest.mark.parametrize("form", ["sc", "adjoint"])
def test_oracle_equivalence_small_groups(type_, rank, form):
    rd = rdm.build_simple(type_, rank, form)
    group = weyl.generate(rd)
    assert len(group) <= 48
    assert kt.rational_equivariant_k(rd) == kt.commuting_pairs_rank(group)


RANK_4 = [(t, f) for t in "ABCDF" for f in ("sc", "adjoint")] + [("D", [[1, 0, 0, 0]])]


@pytest.mark.parametrize("type_,form", RANK_4, ids=[
    f"{t}4-{f if isinstance(f, str) else 'so'}" for t, f in RANK_4])
def test_oracle_equivalence_rank_4(type_, form):
    rd = rdm.build_simple(type_, 4, form)
    assert kt.rational_equivariant_k(rd) == kt.commuting_pairs_rank(weyl.generate(rd))


def test_oracle_takes_two_smith_forms_per_diagonal(monkeypatch):
    # one stacked Smith form of every w - 1, and per invariant-factor
    # diagonal one stacked Smith form of the bases of Gamma^w
    from torusdual import fixedpoints, intlinalg

    calls = {"smith_normal_form": 0, "restrict_to_sublattice": 0}
    for mod in (intlinalg, fixedpoints, kt):
        for name in calls:
            if hasattr(mod, name):
                def counted(*args, _real=getattr(mod, name), _name=name, **kwargs):
                    calls[_name] += 1
                    return _real(*args, **kwargs)
                monkeypatch.setattr(mod, name, counted)
    group = weyl.generate(rdm.build_simple("B", 3, "sc"))
    diagonals = {fixed_set(w)._snf.diagonal for w in group.array}
    calls["smith_normal_form"] = 0
    assert kt.commuting_pairs_rank(group) == kt.GradedRank(17, 0)
    assert calls["restrict_to_sublattice"] == 0
    assert 0 < calls["smith_normal_form"] <= 2 * len(diagonals) < len(group)


@pytest.mark.parametrize("type_,rank", [("A", 2), ("B", 2), ("G", 2), ("A", 3), ("B", 3)])
def test_class_representative_independence(type_, rank):
    group = weyl.generate(rdm.build_simple(type_, rank, "sc"))
    _, rows = kt.graded_rank_with_classes(group)
    for c, base in zip(group.classes, rows):
        # every member of the class taken as its representative
        members = c.members.tolist()
        for other in kt._class_rows(group, members, [len(members)] * len(members)):
            assert (other.even_invariants, other.odd_invariants) == (
                base.even_invariants,
                base.odd_invariants,
            )


@pytest.mark.parametrize("type_,rank,form", [
    ("B", 3, "sc"), ("A", 3, "adjoint"), ("D", 4, [[1, 0, 0, 0]]),
], ids=["B3-sc", "A3-adjoint", "D4-so"])
def test_class_rows_match_fixed_sets(type_, rank, form):
    group = weyl.generate(rdm.build_simple(type_, rank, form))
    _, rows = kt.graded_rank_with_classes(group)
    assert len(rows) == len(group.classes)
    for row in rows:
        report = fixed_set(row.representative)
        assert row.component_count == report.component_count()
        assert row.fixed_dim == report.fixed_dim


def euler_characteristic_oracle(group):
    """k0 - k1 as a count of isolated fixed configurations of commuting
    pairs: positive-dimensional fixed pieces have zero Euler
    characteristic, isolated points contribute one each."""
    total = 0
    n = group.rank
    elems = elements(group)
    for wi, w in enumerate(elems):
        for zi in group.centralizer_indices(wi):
            z = elems[zi]
            stacked = il.int_array(
                [[w[i][j] - int(i == j) for j in range(n)] for i in range(n)]
                + [[z[i][j] - int(i == j) for j in range(n)] for i in range(n)]
            )
            if il.smith_normal_form(stacked).rank < n:
                continue  # positive-dimensional fixed set: chi = 0
            total += len(il.solve_mod_lattice(stacked, modulo_kernel=False))
    assert total % len(group) == 0
    return total // len(group)


@pytest.mark.parametrize("type_,rank", [("A", 1), ("A", 2), ("B", 2), ("G", 2)])
@pytest.mark.parametrize("form", ["sc", "adjoint"])
def test_euler_characteristic(type_, rank, form):
    rd = rdm.build_simple(type_, rank, form)
    group = weyl.generate(rd)
    grank = kt.rational_equivariant_k(rd)
    assert grank.k0 - grank.k1 == euler_characteristic_oracle(group)


def test_euler_characteristic_fixture_groups():
    inv = inversion_group()
    grank = kt.rational_equivariant_k(inv)
    assert grank.k0 - grank.k1 == euler_characteristic_oracle(inv)


def test_verify_duality_su3():
    rep = kt.verify_duality(rdm.build_simple("A", 2, "sc"))
    assert rep.verdict == "equal"
    assert rep.primal == kt.GradedRank(5, 1)
    # the two sides genuinely differ pointwise: 3 vs 1 full fixed points
    from torusdual.fixedpoints import full_fixed_points

    su3 = rdm.build_simple("A", 2, "sc")
    assert len(full_fixed_points(su3)) == 3
    assert len(full_fixed_points(rdm.dualize(su3))) == 1


def test_verify_duality_b2():
    rep = kt.verify_duality(rdm.build_simple("B", 2, "sc"))
    assert rep.verdict == "equal"
    assert rep.dual_label[0] == "C"


def test_verify_duality_g2_self_dual():
    rep = kt.verify_duality(rdm.build_simple("G", 2, "sc"))
    assert rep.verdict == "equal"
    assert rep.primal == rep.dual


def test_verify_duality_e6():
    rd = rdm.build_simple("E", 6, "sc")
    group = weyl.generate(rd)
    assert (len(group), len(group.classes)) == (51840, 25)
    rep = kt.verify_duality(rd)
    assert rep.dual_label == ("E", 6, "adjoint")
    assert (rep.primal.k0, rep.primal.k1) == (rep.dual.k0, rep.dual.k1) == (47, 11)
    assert rep.verdict == "equal"


def test_verify_duality_quotient_forms():
    # SO(6) and SO(8) are self-dual intermediate forms
    so6 = rdm.build_simple("D", 3, [[1, 0, 0]])
    rep = kt.verify_duality(so6)
    assert rep.verdict == "equal"
    assert rep.primal == rep.dual
    so8 = rdm.build_simple("D", 4, [[1, 0, 0, 0]])
    rep = kt.verify_duality(so8)
    assert rep.verdict == "equal"
    # half-spin form of D4: pi_1 = Z/2 generated by a spin class
    half_spin = rdm.build_simple("D", 4, [[0, 0, 0, 1]])
    assert rdm.fundamental_group(half_spin).invariant_factors == (2,)
    assert kt.verify_duality(half_spin).verdict == "equal"
    # intermediate form of A3 (pi_1 = Z/2 inside Z/4)
    a3_mid = rdm.build_simple("A", 3, [[2, 0, 0]])
    assert kt.verify_duality(a3_mid).verdict == "equal"


# forms built by the quotient path of build_simple, with their (k0, k1)
# on both sides; the commuting-pairs oracle runs where it is cheap
ISOGENY_FORMS = {
    "A5-Z2": ("A", 5, [[3, 0, 0, 0, 0]], (21, 9), True),
    "A5-Z3": ("A", 5, [[2, 0, 0, 0, 0]], (21, 9), True),
    "D5-so": ("D", 5, [[1, 0, 0, 0, 0]], (52, 4), True),
    "D6-half-spin": ("D", 6, [[0, 0, 0, 0, 0, 1]], (79, 0), False),
}


@pytest.mark.parametrize("name", list(ISOGENY_FORMS))
def test_verify_duality_isogeny_forms(name):
    type_, rank, form, ranks, oracle = ISOGENY_FORMS[name]
    rd = rdm.build_simple(type_, rank, form)
    rep = kt.verify_duality(rd)
    assert rep.dual_label == (type_, rank, "quotient")
    assert rdm.connection_index(rd) == abs(il.det(rdm.cartan_matrix(type_, rank)))
    assert rep.verdict == "equal"
    assert (rep.primal.k0, rep.primal.k1) == (rep.dual.k0, rep.dual.k1) == ranks
    if oracle:
        for side, graded in ((rd, rep.primal), (rdm.dualize(rd), rep.dual)):
            assert kt.commuting_pairs_rank(weyl.generate(side)) == graded


QUOTIENT_FORMS = [
    ("D", 3, [[1, 0, 0]]), ("D", 4, [[1, 0, 0, 0]]), ("D", 4, [[0, 0, 0, 1]]),
    ("A", 3, [[2, 0, 0]]),
]


def _row(row):
    return (row.class_size, row.centralizer_order, row.fixed_dim, row.component_count,
            row.even_invariants, row.odd_invariants)


def assert_rows_agree_class_by_class(rd):
    """w -> w^-T maps the primal classes onto the dual ones, and each
    primal row equals the row of the dual class holding w^-T, which is
    found by looking that matrix up in the dual group."""
    rep = kt.verify_duality(rd)
    primal, dual = weyl.generate(rd), weyl.generate(rdm.dualize(rd))
    dual_class = np.empty(len(dual), dtype=np.int64)
    for k, c in enumerate(dual.classes):
        dual_class[c.members] = k
    dual_index = {il.as_matrix(m): i for i, m in enumerate(dual.array)}
    hit = set()
    for c, row in zip(primal.classes, rep.primal_classes):
        w_inv_t = primal.array[inverse_index(primal, c.representative)].T.astype(np.int64)
        j = dual_index[il.as_matrix(w_inv_t)]
        assert (dual.array[j] == w_inv_t).all()
        k = int(dual_class[j])
        hit.add(k)
        assert _row(row) == _row(rep.dual_classes[k]), (str(rd), c.representative)
    assert len(hit) == len(dual.classes) == len(primal.classes)
    return len(hit)


# the rank <= 4 sweep in every named form, then the quotient forms above
CLASS_BY_CLASS_DATA = [
    (t, r, cli._parse_form(form, r)) for t, r, form in cli._duality_targets(4, ["sc", "adjoint", "so"])
] + QUOTIENT_FORMS


@pytest.mark.parametrize("type_,rank,form", CLASS_BY_CLASS_DATA)
def test_duality_holds_class_by_class(type_, rank, form):
    assert_rows_agree_class_by_class(rdm.build_simple(type_, rank, form))


def test_duality_holds_class_by_class_e6():
    assert assert_rows_agree_class_by_class(rdm.build_simple("E", 6, "sc")) == 25


def test_duality_report_json_schema():
    rep = kt.verify_duality(rdm.build_simple("A", 1, "sc"))
    payload = kt.duality_report_to_json(rep)
    assert set(payload) == {
        "type", "rank", "form", "coefficients", "primal", "dual", "verdict",
        "cross_degree_equal", "classes",
    }
    assert payload["primal"] == {"k0": 3, "k1": 0}
    assert payload["verdict"] == "equal"
    sides = {row["side"] for row in payload["classes"]}
    assert sides == {"primal", "dual"}


def test_affine_comparison_psu3():
    rep = kt.affine_comparison(rdm.build_simple("A", 2, "adjoint"))
    assert rep.dual_equal
    assert rep.own_equal is True


def test_affine_comparison_g2():
    rep = kt.affine_comparison(rdm.build_simple("G", 2, "adjoint"))
    assert rep.dual_equal and rep.own_equal
    assert rep.extended == rep.dual_affine == rep.own_affine


def test_affine_comparison_b2_excluded_type():
    rep = kt.affine_comparison(rdm.build_simple("B", 2, "adjoint"))
    assert rep.dual_equal
    assert rep.own_affine is None and rep.own_equal is None


def test_affine_comparison_requires_adjoint():
    with pytest.raises(ValueError):
        kt.affine_comparison(rdm.build_simple("A", 2, "sc"))


def test_graded_rank_validation():
    with pytest.raises(ValueError):
        kt.GradedRank(-1, 0)


def test_class_table_is_deterministic():
    rd = rdm.build_simple("B", 2, "sc")
    _, rows1 = kt.graded_rank_with_classes(weyl.generate(rd))
    _, rows2 = kt.graded_rank_with_classes(weyl.generate(rd))
    assert rows1 == rows2
    assert [r.representative for r in rows1] == sorted(r.representative for r in rows1)

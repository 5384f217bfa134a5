import numpy as np
import pytest

from torusdual import intlinalg as il
from torusdual import rootdata as rdm
from tuple_reference import close_root_system

ALL_SMALL = [
    (t, r)
    for t, lo in (("A", 1), ("B", 2), ("C", 2), ("D", 3))
    for r in range(lo, 9)
] + [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)]

CARTAN_DETS = {"A": lambda n: n + 1, "B": lambda n: 2, "C": lambda n: 2,
               "D": lambda n: 4, "E": lambda n: {6: 3, 7: 2, 8: 1}[n],
               "F": lambda n: 1, "G": lambda n: 1}


@pytest.mark.parametrize("type_,rank", ALL_SMALL)
def test_cartan_determinants(type_, rank):
    assert il.det(rdm.cartan_matrix(type_, rank)) == CARTAN_DETS[type_](rank)


def test_su3_datum():
    su3 = rdm.build_simple("A", 2, "sc")
    assert len(su3.roots) == 6
    # simply connected: the simple coroots are a lattice basis
    assert np.array_equal(su3.coroot_matrix(), np.eye(2, dtype=int))
    assert rdm.fundamental_group(su3).is_trivial


def test_g2_root_count():
    g2 = rdm.build_simple("G", 2, "sc")
    assert len(g2.roots) == 12
    assert len(set(g2.roots)) == 12


def test_so3_datum():
    so3 = rdm.build_simple("A", 1, "adjoint")
    assert len(so3.roots) == 2
    assert rdm.fundamental_group(so3).invariant_factors == (2,)


@pytest.mark.parametrize("type_,rank", ALL_SMALL)
@pytest.mark.parametrize("form", ["sc", "adjoint"])
def test_datum_invariants(type_, rank, form):
    rd = rdm.build_simple(type_, rank, form)
    assert len(rd.roots) == len(rd.coroots) == rdm.ROOT_COUNTS[type_](rank)
    root_set = set(rd.roots)
    coroot_map = dict(zip(rd.roots, rd.coroots))
    for alpha, alpha_ck in zip(rd.roots, rd.coroots):
        assert sum(a * b for a, b in zip(alpha, alpha_ck)) == 2
    # reflections permute the root list, compatibly with the pairing
    for alpha, alpha_ck in zip(rd.simple_roots, rd.simple_coroots):
        for beta in rd.roots:
            n1 = sum(b * a for b, a in zip(beta, alpha_ck))
            image = tuple(b - n1 * a for b, a in zip(beta, alpha))
            assert image in root_set
            n2 = sum(a * b for a, b in zip(alpha, coroot_map[beta]))
            image_ck = tuple(b - n2 * a for b, a in zip(coroot_map[beta], alpha_ck))
            assert coroot_map[image] == image_ck
    # semisimple: the roots span X* rationally
    assert il.smith_normal_form(rd.root_matrix()).rank == rank


@pytest.mark.parametrize("type_,rank", ALL_SMALL)
@pytest.mark.parametrize("form", ["sc", "adjoint"])
def test_dualize_involution_and_swaps(type_, rank, form):
    rd = rdm.build_simple(type_, rank, form)
    dual = rdm.dualize(rd)
    assert rdm.dualize(dual) == rd
    assert rdm.connection_index(dual) == rdm.connection_index(rd)
    assert rdm.fundamental_group(dual).order == rdm.center(rd).order
    assert rdm.center(dual).order == rdm.fundamental_group(rd).order
    assert dual.label[0] == rdm.DUAL_TYPE[type_]


@pytest.mark.parametrize("type_,rank,gens", [
    ("D", 4, [[1, 0, 0, 0]]),
    ("D", 5, [[1, 0, 0, 0, 0]]),
    ("D", 4, [[0, 0, 0, 1]]),
    ("A", 3, [[2, 0, 0]]),
    ("A", 5, [[2, 0, 0, 0, 0]]),
    ("A", 5, [[3, 0, 0, 0, 0]]),
])
def test_dualize_involution_quotient_forms(type_, rank, gens):
    rd = rdm.build_simple(type_, rank, gens)
    dual = rdm.dualize(rd)
    assert rdm.dualize(dual) == rd
    assert rdm.connection_index(dual) == rdm.connection_index(rd)
    assert rdm.fundamental_group(dual).order == rdm.center(rd).order
    assert rdm.center(dual).order == rdm.fundamental_group(rd).order


@pytest.mark.parametrize("type_,rank,gens,pi1,center", [
    ("A", 5, [[0, 0, 1, 0, 0]], (2,), (3,)),
    ("A", 5, [[0, 1, 0, 0, 0]], (3,), (2,)),
    ("D", 4, [[1, 0, 0, 0]], (2,), (2,)),
    ("D", 4, [[0, 0, 1, 0]], (2,), (2,)),
    ("D", 4, [[0, 0, 0, 1]], (2,), (2,)),
    ("D", 6, [[0, 0, 0, 0, 0, 1]], (2,), (2,)),
], ids=["A5/Z2", "A5/Z3", "D4-so", "D4-half-spin-3", "D4-half-spin-4", "D6-half-spin"])
def test_isogeny_quotients_swap_pi1_and_center(type_, rank, gens, pi1, center):
    rd = rdm.build_simple(type_, rank, gens)
    dual = rdm.dualize(rd)
    assert rdm.fundamental_group(rd).invariant_factors == pi1
    assert rdm.center(rd).invariant_factors == center
    assert rdm.fundamental_group(rd) == rdm.center(dual)
    assert rdm.center(rd) == rdm.fundamental_group(dual)


def test_dualize_su_to_psu():
    su3 = rdm.build_simple("A", 2, "sc")
    psu3 = rdm.build_simple("A", 2, "adjoint")
    assert rdm.dualize(su3) == psu3
    assert rdm.dualize(psu3) == su3


def test_dualize_b2_to_c2():
    spin5 = rdm.build_simple("B", 2, "sc")
    psp4 = rdm.build_simple("C", 2, "adjoint")
    assert rdm.dualize(spin5) == psp4
    so5 = rdm.build_simple("B", 2, "adjoint")
    sp4 = rdm.build_simple("C", 2, "sc")
    assert rdm.dualize(so5) == sp4


def test_fundamental_group_values():
    assert rdm.fundamental_group(rdm.build_simple("A", 2, "sc")).is_trivial
    assert rdm.fundamental_group(rdm.build_simple("A", 2, "adjoint")).invariant_factors == (3,)
    so8 = rdm.build_simple("D", 4, [[1, 0, 0, 0]])
    assert rdm.fundamental_group(so8).invariant_factors == (2,)
    assert rdm.center(so8).invariant_factors == (2,)


def test_center_values():
    assert rdm.center(rdm.build_simple("A", 2, "sc")).invariant_factors == (3,)
    assert rdm.center(rdm.build_simple("A", 2, "adjoint")).is_trivial
    assert rdm.center(rdm.build_simple("E", 8, "sc")).is_trivial
    assert rdm.fundamental_group(rdm.build_simple("E", 8, "sc")).is_trivial


def test_spin8_fundamental_group_is_klein():
    psO8 = rdm.build_simple("D", 4, "adjoint")
    assert rdm.fundamental_group(psO8).invariant_factors == (2, 2)


def test_connection_index_values():
    for form in ("sc", "adjoint"):
        assert rdm.connection_index(rdm.build_simple("A", 2, form)) == 3
        assert rdm.connection_index(rdm.build_simple("D", 4, form)) == 4
    assert rdm.connection_index(rdm.build_simple("F", 4, "sc")) == 1


def _reference_table_data():
    from torusdual.cli import REFERENCE_TABLE

    return [(row.type, row.rank, row.form) for row in REFERENCE_TABLE]


TWO_DERIVATION_DATA = _reference_table_data() + [
    (t, r, form) for t, r in ALL_SMALL for form in ("sc", "adjoint")
] + [("D", 4, [[1, 0, 0, 0]])]


@pytest.mark.parametrize("type_,rank,form", TWO_DERIVATION_DATA,
                         ids=[f"{t}{r}-{f if isinstance(f, str) else 'so'}"
                              for t, r, f in TWO_DERIVATION_DATA])
def test_connection_index_has_two_derivations(type_, rank, form):
    # determinants of the simple systems against Smith forms of them and
    # against det(Cartan) = det(roots) det(coroots), on both dual sides
    rd = rdm.build_simple(type_, rank, form)
    cartan = abs(il.det(rdm.cartan_matrix(type_, rank)))
    assert cartan == CARTAN_DETS[type_](rank)
    for side in (rd, rdm.dualize(rd)):
        pi1, z = rdm.fundamental_group(side), rdm.center(side)
        assert rdm.connection_index(side) == pi1.order * z.order == cartan
        smith_tag = "sc" if pi1.is_trivial else "adjoint" if z.is_trivial else "quotient"
        tag = rdm._form_tag(side.rank, side.simple_roots, side.simple_coroots)
        assert tag == rdm.classify_form(side) == smith_tag


def test_invalid_types_rejected(monkeypatch):
    for bad in (("A", 0), ("B", 1), ("C", 1), ("D", 2), ("E", 5), ("E", 9),
                ("F", 3), ("G", 3), ("H", 2)):
        with pytest.raises(ValueError):
            rdm.build_simple(*bad)
    with pytest.raises(ValueError, match="rank 9 exceeds configured cap 8"):
        rdm.build_simple("A", 9, "sc")  # above the default rank cap
    monkeypatch.setattr(rdm, "MAX_RANK", 12)  # read at call time
    rdm.build_simple("A", 9, "sc")


def test_quotient_form_validation():
    with pytest.raises(ValueError):
        rdm.build_simple("D", 4, [[1, 0, 0]])  # wrong length
    # the trivial subgroup gives pi_1 = 0, i.e. the simply connected form
    rd = rdm.build_simple("A", 2, [])
    assert rdm.classify_form(rd) == "sc"
    assert rdm.connection_index(rd) == 3
    # the full fundamental group gives the adjoint form back
    full = rdm.build_simple("A", 2, [[1, 0], [0, 1]])
    assert rdm.classify_form(full) == "adjoint"


def test_quotient_form_so_tower():
    # SO_{2n} sits strictly between the adjoint and simply connected forms
    for n in (4, 5):
        so = rdm.build_simple("D", n, [[1] + [0] * (n - 1)])
        assert rdm.fundamental_group(so).order == 2
        assert rdm.center(so).order == 2
        assert rdm.classify_form(so) == "quotient"
        assert rdm.connection_index(so) == 4


@pytest.mark.parametrize("type_,rank,gens,form", [
    ("A", 2, [[1, 0]], "adjoint"),  # PSU3
    ("B", 3, [[1, 0, 0]], "adjoint"),
    ("C", 3, [[1, 0, 0]], "sc"),
    ("G", 2, [[1, 0]], "sc"),
    ("F", 4, [[1, 0, 0, 0]], "sc"),
    ("A", 2, [], "sc"),
    ("D", 4, [[1, 0, 0, 0]], "quotient"),
], ids=["A2-so", "B3-so", "C3-so", "G2-so", "F4-so", "A2-trivial", "D4-so"])
def test_generator_lists_are_labelled_by_structure(type_, rank, gens, form):
    rd = rdm.build_simple(type_, rank, gens)
    assert rd.label == (type_, rank, form)
    assert rdm.classify_form(rd) == form


def test_json_shape():
    rd = rdm.build_simple("A", 1, "sc")
    payload = rdm.datum_to_json(rd)
    assert set(payload) == {"type", "rank", "form", "roots", "coroots"}
    assert payload["roots"] == [[-2], [2]]
    assert payload["coroots"] == [[-1], [1]]


def test_symmetric_cartan_duals_on_the_nose():
    # symmetric Cartan matrix: dualizing sc lands exactly on the built adjoint
    for t, r in (("A", 3), ("D", 4), ("E", 6)):
        sc = rdm.build_simple(t, r, "sc")
        assert rdm.dualize(sc) == rdm.build_simple(t, r, "adjoint")


def test_g2_self_dual_up_to_node_relabel():
    # G2's Cartan matrix is not symmetric; its dual is G2 again after the
    # node swap that conjugates the transposed Cartan matrix back
    sc = rdm.build_simple("G", 2, "sc")
    dual = rdm.dualize(sc)
    assert dual.label == ("G", 2, "sc")  # f = 1: single form
    rev = lambda v: tuple(reversed(v))
    swapped = sorted((rev(r), rev(c)) for r, c in zip(dual.roots, dual.coroots))
    adj = rdm.build_simple("G", 2, "adjoint")
    assert swapped == sorted(zip(adj.roots, adj.coroots))


def test_f4_self_dual_up_to_node_relabel():
    sc = rdm.build_simple("F", 4, "sc")
    dual = rdm.dualize(sc)
    rev = lambda v: tuple(reversed(v))
    swapped = sorted((rev(r), rev(c)) for r, c in zip(dual.roots, dual.coroots))
    adj = rdm.build_simple("F", 4, "adjoint")
    assert swapped == sorted(zip(adj.roots, adj.coroots))


QUOTIENTS = [("A", 5, [[0, 1, 0, 0, 0]]), ("D", 4, [[0, 0, 0, 1]]), ("D", 6, [[0, 0, 0, 0, 0, 1]])]


@pytest.mark.parametrize("type_,rank,form", [
    *((t, r, form) for t, r in ALL_SMALL for form in ("sc", "adjoint", "so")),
    *QUOTIENTS,
])
def test_closure_matches_the_per_root_reference(type_, rank, form):
    gens = [[1] + [0] * (rank - 1)] if form == "so" else form
    rd = rdm.build_simple(type_, rank, gens)
    for datum in (rd, rdm.dualize(rd)):
        reference = close_root_system(datum.simple_roots, datum.simple_coroots)
        assert (datum.roots, datum.coroots) == reference


def test_closure_of_an_affine_datum_raises():
    # affine A1: the roots are only +-alpha_1, but every reflection gives
    # a root a new coroot, so the pairs never close
    rd = rdm.RootDatum(2, ((2, -2), (-2, 2)), ((1, 0), (0, 1)))
    with pytest.raises(ValueError, match="not a finite root system"):
        rd.roots


@pytest.mark.parametrize("type_,rank,form", [("B", 3, "sc"), ("G", 2, "adjoint"), *QUOTIENTS])
def test_dualize_and_classify_run_no_closure(type_, rank, form, monkeypatch):
    rd = rdm.build_simple(type_, rank, form)

    def refuse(*args):
        raise AssertionError("closure")

    monkeypatch.setattr(rdm, "_close_roots", refuse)
    dual = rdm.dualize(rd)
    assert dual.simple_roots == rd.simple_coroots and dual.simple_coroots == rd.simple_roots
    assert rdm.classify_form(dual) == dual.label[2]
    with pytest.raises(AssertionError, match="closure"):
        dual.roots


def test_data_from_lists_tuples_and_arrays_are_equal():
    b2 = rdm.build_simple("B", 2, "sc")
    built = [
        rdm.RootDatum(2, [list(v) for v in b2.simple_roots], [list(v) for v in b2.simple_coroots]),
        rdm.RootDatum(2, b2.simple_roots, b2.simple_coroots),
        rdm.RootDatum(2, np.array(b2.simple_roots), np.array(b2.simple_coroots)),
    ]
    for rd in built:
        assert rd == b2 and hash(rd) == hash(b2)
        assert all(type(x) is int for v in rd.simple_roots + rd.simple_coroots for x in v)
    assert rdm.RootDatum(1, [[2]], [[1]]) == rdm.RootDatum(1, ((2,),), ((1,),))
    assert len({rdm.RootDatum(1, [[2]], [[1]]), rdm.build_simple("A", 1, "sc")}) == 1
    with pytest.raises(ValueError):
        rdm.RootDatum(1, [[2.5]], [[1]])

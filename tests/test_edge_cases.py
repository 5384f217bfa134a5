"""Constructor validation and odd-shaped inputs across the modules."""

import numpy as np
import pytest

from torusdual import clifford as cl
from torusdual import intlinalg as il
from torusdual import oscillator as osc
from torusdual import poincare as pc
from torusdual import rootdata as rdm
from torusdual import weyl
from torusdual.fixedpoints import fixed_set
from tuple_reference import centralizer_action, smith_form


def test_public_integer_matrices_are_readonly_int64():
    # one integer-matrix format: every matrix the lattice API hands out
    rd = rdm.build_simple("D", 4, [[1, 0, 0, 0]])
    snf = il.smith_normal_form(rdm.cartan_matrix("B", 3))
    swap = ((0, 1, 0), (1, 0, 0), (0, 0, 1))
    _, restriction = centralizer_action(fixed_set(swap), [np.eye(3, dtype=int), swap])
    mats = {
        "cartan_matrix": rdm.cartan_matrix("B", 3),
        "root_matrix": rd.root_matrix(),
        "coroot_matrix": rd.coroot_matrix(),
        **{f"smith_normal_form.{f}": getattr(snf, f) for f in ("u", "d", "v", "v_inv")},
        "restrict_to_sublattice": il.restrict_to_sublattice(swap, [[1, 0], [1, 0], [0, 1]]),
        "centralizer_action": restriction,
    }
    for name, m in mats.items():
        assert m.dtype == np.int64 and not m.flags.writeable, name
    assert restriction.tolist() == [[[1, 0], [0, 1]], [[1, 0], [0, 1]]]


def test_simple_reflection_past_int64_raises():
    # <alpha, alpha_check> = 2, but the entry 1 - (-1)(2^63 - 1) is 2^63
    m = 2**63 - 1
    rd = rdm.RootDatum(3, ((-1, 1, 1),), ((m, m, 2),))
    with pytest.raises(OverflowError):
        weyl.simple_reflection_matrices(rd)
    with pytest.raises(OverflowError):
        rd.roots


def test_snf_rectangular_shapes():
    for rows, cols in ((1, 4), (4, 1), (2, 5), (5, 2)):
        m = il.int_array([[(i * 7 + j * 3) % 5 - 2 for j in range(cols)] for i in range(rows)])
        snf = il.smith_normal_form(m)
        assert snf.d.shape == (rows, cols)
        assert np.array_equal(snf.u @ m @ snf.v, snf.d)


def test_snf_large_entries_stay_exact():
    # the library is exact in int64 or raises; the unbounded reference
    # gives the value it would have had to reach
    big = 10**30
    m = np.array([[big, 1], [0, big]], dtype=object)
    u, d, v, _ = smith_form(m)
    assert np.array_equal(np.array(u, dtype=object) @ m @ np.array(v, dtype=object), d)
    assert (d[0][0], d[1][1]) == (1, big * big)
    with pytest.raises(OverflowError):
        il.smith_normal_form(m)


def test_finite_abelian_group_validation():
    with pytest.raises(ValueError):
        il.FiniteAbelianGroup((1,))
    with pytest.raises(ValueError):
        il.FiniteAbelianGroup((4, 2))  # chain must divide upward
    g = il.FiniteAbelianGroup((2, 6))
    assert g.order == 12
    assert str(g) == "Z/2 x Z/6"
    assert str(il.FiniteAbelianGroup()) == "trivial"


def test_root_datum_pairing_validation():
    with pytest.raises(ValueError):
        rdm.RootDatum(rank=1, simple_roots=((1,),), simple_coroots=((1,),))


def test_root_datum_mismatched_lists():
    with pytest.raises(ValueError):
        rdm.RootDatum(rank=1, simple_roots=((2,), (-2,)), simple_coroots=((1,),))


def test_weyl_generator_shape_validation():
    with pytest.raises(ValueError):
        weyl.WeylGroup.from_generators([((1, 0),)], rank=2)


def test_fixed_set_of_shear():
    # unipotent: fixed line, single component
    rep = fixed_set(((1, 1), (0, 1)))
    assert rep.fixed_dim == 1
    assert rep.component_count() == 1
    assert rep.fixed_lattice_basis == ((1, 0),)


def test_clifford_dimension_mismatch():
    a = cl.generator(1, "e", 1)
    b = cl.generator(2, "e", 1)
    with pytest.raises(ValueError):
        a * b
    with pytest.raises(ValueError):
        cl.generator(2, "e", 3)
    with pytest.raises(ValueError):
        cl.generator(2, "q", 1)


def test_clifford_matrix_size_mismatch():
    p = cl.clifford_projection(2)
    with pytest.raises(ValueError):
        cl.symmetric_invariance_check(2, [[1, 0, 0], [0, 1, 0], [0, 0, 1]], p)


def test_oscillator_count_parameter():
    rep = osc.spectral_check(osc.build_q0(1, 200, 6.0), count=3)
    assert len(rep.eigenvalues) == 3
    assert len(rep.expected) == 3


def test_quotient_generators_modulo_coroots():
    # generators already inside the coroot lattice give the sc form back
    rd = rdm.build_simple("A", 2, [[2, -1]])
    assert rdm.classify_form(rd) == "sc"
    # intermediate subgroup of A3: pi_1 = Z/2 inside Z/4
    a3 = rdm.build_simple("A", 3, [[2, 0, 0]])
    assert rdm.fundamental_group(a3).invariant_factors == (2,)
    assert rdm.center(a3).invariant_factors == (2,)


def _equivariance_of_non_integral_matrix():
    f1, f2 = pc.CompactBump((0.0, 0.0), 1.0), pc.CompactBump((0.1, 0.0), 1.0)
    return pc.equivariance_check([[1.5, 0], [0, 1]], f1, f2, np.random.default_rng(0))


NON_INTEGRAL_INPUTS = {
    "from_generators": lambda: weyl.WeylGroup.from_generators([((1.5,),)], 1),
    "fixed_set_array": lambda: fixed_set(np.array([[1.5, 0], [0, 1]])),
    "build_simple_quotient": lambda: rdm.build_simple("D", 4, [[1.5, 0, 0, 0]]),
    "equivariance_check": _equivariance_of_non_integral_matrix,
}


@pytest.mark.parametrize("name", sorted(NON_INTEGRAL_INPUTS))
def test_non_integral_input_raises(name):
    # each of these once truncated 1.5 to 1 and returned a result
    with pytest.raises(ValueError):
        NON_INTEGRAL_INPUTS[name]()

import dataclasses
import random
from fractions import Fraction
from math import prod

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from torusdual import intlinalg as il
from tuple_reference import bareiss_det, smith_form


def int_eye(n):
    return np.eye(n, dtype=np.int64)


def check_decomposition(m, snf):
    assert np.array_equal(snf.u @ m @ snf.v, snf.d)
    # unimodular, by the unbounded reference: the library det is bounded by Hadamard
    assert abs(bareiss_det(snf.u)) == 1
    assert abs(bareiss_det(snf.v)) == 1
    diag = snf.diagonal
    assert all(x >= 0 for x in diag)
    nonzero = [x for x in diag if x != 0]
    # nonzero entries first, then the divisibility chain
    assert diag[: len(nonzero)] == tuple(nonzero)
    for a, b in zip(nonzero, nonzero[1:]):
        assert b % a == 0


def test_snf_identity():
    m = int_eye(3)
    snf = il.smith_normal_form(m)
    assert np.array_equal(snf.d, m)
    check_decomposition(m, snf)
    empty = int_eye(0)
    assert empty.shape == (0, 0)
    assert il.det(empty) == 1
    assert il.smith_normal_form(empty).diagonal == ()


def test_snf_zero():
    m = np.zeros((2, 2), dtype=np.int64)
    snf = il.smith_normal_form(m)
    assert np.array_equal(snf.d, m)
    check_decomposition(m, snf)
    for shape in ((0, 3), (3, 0)):
        m = np.zeros(shape, dtype=np.int64)
        assert m.shape == shape
        snf = il.smith_normal_form(m)
        assert snf.d.shape == shape and snf.rank == 0
        check_decomposition(m, snf)


@pytest.mark.parametrize("call", [
    lambda: il.det([[Fraction(1, 2)]]),
    lambda: il.det([[1.7, 0], [0, 1]]),
    lambda: il.smith_normal_form([[Fraction(3, 2)]]),
], ids=["det-fraction", "det-float", "snf-fraction"])
def test_non_integer_input_is_rejected(call):
    with pytest.raises(ValueError):
        call()


def test_integral_values_are_accepted():
    m = il.int_array([[Fraction(4, 2), np.int64(3)]])
    assert m.dtype == np.int64 and m.tolist() == [[2, 3]]
    assert il.det([[Fraction(6, 3), 0], [0, np.int32(3)]]) == 6
    assert il.smith_normal_form([[Fraction(4, 2)]]).diagonal == (2,)


def test_snf_diag_2_3():
    m = il.int_array([[2, 0], [0, 3]])
    snf = il.smith_normal_form(m)
    assert snf.diagonal == (1, 6)
    check_decomposition(m, snf)


def test_snf_random_matrices():
    rng = random.Random(20240901)
    for trial in range(500):
        rows = rng.randint(1, 6)
        cols = rng.randint(1, 6)
        m = il.int_array(
            [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        )
        snf = il.smith_normal_form(m)
        check_decomposition(m, snf)


@settings(max_examples=200, deadline=None)
@given(arrays(np.int64, array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=5),
              elements=st.integers(-20, 20)))
def test_snf_contract_property(entries):
    m = il.int_array(entries.tolist())
    snf = il.smith_normal_form(m)
    rows, cols = m.shape
    assert np.array_equal(snf.u @ m @ snf.v, snf.d)
    assert abs(bareiss_det(snf.u)) == 1 and abs(bareiss_det(snf.v)) == 1
    diag = snf.diagonal
    assert all(snf.d[i, j] == 0 for i in range(rows) for j in range(cols) if i != j)
    assert all(x >= 0 for x in diag)
    for a, b in zip(diag, diag[1:]):
        assert b == 0 if a == 0 else b % a == 0
    eye = int_eye(cols)
    assert np.array_equal(snf.v @ snf.v_inv, eye)
    assert np.array_equal(snf.v_inv @ snf.v, eye)


def test_snf_diagonal_matches_sympy():
    # independent oracle for the invariant factors
    from sympy import Matrix, ZZ
    from sympy.matrices.normalforms import invariant_factors

    rng = random.Random(77)
    for _ in range(60):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        entries = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        snf = il.smith_normal_form(il.int_array(entries))
        ours = [x for x in snf.diagonal if x != 0]
        theirs = [int(f) for f in invariant_factors(Matrix(entries), domain=ZZ) if f != 0]
        assert ours == [abs(t) for t in theirs]


def test_cokernel_identity():
    free, tor = il.cokernel(int_eye(4))
    assert free == 0 and tor.is_trivial


def test_cokernel_index_two():
    free, tor = il.cokernel(il.int_array([[2]]))
    assert free == 0
    assert tor.invariant_factors == (2,)


def test_cokernel_su3_inside_psu3():
    # cocharacter inclusion of the rank-2 simply connected form into the
    # adjoint one: columns are the simple coroots in coweight coordinates
    from torusdual.rootdata import build_simple, connection_index

    psu3 = build_simple("A", 2, "adjoint")
    iota = psu3.coroot_matrix()
    free, tor = il.cokernel(iota)
    assert free == 0
    assert tor.invariant_factors == (3,)
    assert connection_index(psu3) == 3


def test_cokernel_torsion_order_is_abs_det():
    rng = random.Random(11)
    done = 0
    while done < 80:
        n = rng.randint(1, 4)
        m = il.int_array([[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)])
        d = il.det(m)
        if d == 0:
            continue
        free, tor = il.cokernel(m)
        assert free == 0
        assert tor.order == abs(d)
        done += 1


def test_solve_mod_lattice_inversion_on_circle():
    reps = il.solve_mod_lattice(il.int_array([[-2]]))
    assert reps == [(Fraction(0),), (Fraction(1, 2),)]


def test_solve_mod_lattice_zero_matrix():
    reps = il.solve_mod_lattice(np.zeros((2, 2), dtype=np.int64))
    assert reps == [(Fraction(0), Fraction(0))]


def test_solve_mod_lattice_su3_stacked():
    from torusdual.rootdata import build_simple
    from torusdual.weyl import simple_reflection_matrices

    su3 = build_simple("A", 2, "sc")
    stacked = []
    for s in simple_reflection_matrices(su3):
        for i in range(2):
            stacked.append([s[i][j] - int(i == j) for j in range(2)])
    reps = il.solve_mod_lattice(il.int_array(stacked), modulo_kernel=False)
    assert len(reps) == 3


def test_solve_mod_lattice_counts_coker_torsion():
    rng = random.Random(23)
    done = 0
    while done < 50:
        n = rng.randint(1, 3)
        m = il.int_array([[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)])
        reps = il.solve_mod_lattice(m)
        _, tor = il.cokernel(m)
        assert len(reps) == tor.order
        arr = np.asarray(m, dtype=object)
        for rep in reps:
            image = arr @ np.array([Fraction(x) for x in rep], dtype=object)
            assert all(Fraction(v).denominator == 1 for v in image)
        done += 1


@settings(max_examples=150, deadline=None)
@given(arrays(np.int64, array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=4),
              elements=st.integers(-4, 4)))
def test_solve_mod_lattice_property(entries):
    m = il.int_array(entries.tolist())
    snf = il.smith_normal_form(m)
    reps = il.solve_mod_lattice(m)
    assert reps == sorted(reps)
    assert len(set(reps)) == len(reps)
    assert len(reps) == prod(x for x in snf.diagonal if x != 0)
    images = []
    for rep in reps:
        assert len(rep) == m.shape[1]
        assert all(0 <= x < 1 for x in rep)
        image = m @ np.array(rep, dtype=object)
        assert all(Fraction(v).denominator == 1 for v in image)
        images.append([int(v) for v in image])
    # one per coset of ker + Z^n: x - x' lies in it exactly when
    # M x - M x' lies in M Z^n
    for i, a in enumerate(images[:40]):
        for b in images[i + 1:40]:
            assert not il.in_image_lattice(snf, [s - t for s, t in zip(a, b)])


def test_in_image_lattice_membership():
    # M x is in M Z^n, whatever the shape and rank of M
    rng = random.Random(5)
    for _ in range(60):
        rows, cols = rng.randint(1, 4), rng.randint(1, 4)
        m = il.int_array([[rng.randint(-5, 5) for _ in range(cols)] for _ in range(rows)])
        snf = il.smith_normal_form(m)
        x = np.array([rng.randint(-3, 3) for _ in range(cols)], dtype=np.int64)
        assert il.in_image_lattice(snf, (m @ x).tolist())
    # the image of the column (2, 4) is Z (2, 4): not (1, 2), nor (2, 5) off its span
    snf = il.smith_normal_form([[2], [4]])
    assert il.in_image_lattice(snf, [2, 4]) and il.in_image_lattice(snf, [-6, -12])
    assert not il.in_image_lattice(snf, [1, 2]) and not il.in_image_lattice(snf, [2, 5])
    assert il.in_image_lattice(snf, [Fraction(4, 2), 4.0])


def test_in_image_lattice_non_integral_vector():
    snf = il.smith_normal_form(int_eye(2))
    assert not il.in_image_lattice(snf, [Fraction(1, 2), 0])
    assert not il.in_image_lattice(snf, [1, 0.5])


def test_in_image_lattice_past_int64_raises():
    snf = il.smith_normal_form(int_eye(2))
    with pytest.raises(OverflowError):
        il.in_image_lattice(snf, [2**63, 0])


def fake_smith(v):
    """A hand-built Smith form with invariant factors (2, 2) and the given V;
    only V and D are read when cosets are enumerated."""
    v = np.array(v, dtype=object)
    return il.SmithDecomposition(int_eye(2), il.int_array([[2, 0], [0, 2]]), v, v)


@pytest.mark.parametrize("v", [
    [[1, 2**63], [0, 1]],  # an entry past int64
    [[1, 2**62], [0, 1]],  # fits, but 2 * 2^62 * 2 numerators would not
], ids=["entry", "product"])
def test_coset_numerators_past_int64_raise(v):
    with pytest.raises(OverflowError):
        il._coset_numerators(fake_smith(v), modulo_kernel=True)
    x, q = il._coset_numerators(fake_smith([[1, 2**60], [0, 1]]), modulo_kernel=True)
    assert q == 2 and x.tolist() == [[0, 0, 1, 1], [0, 1, 0, 1]]


def test_solve_mod_lattice_infinite_transverse():
    with pytest.raises(il.InfiniteSolutionSetError):
        il.solve_mod_lattice(np.zeros((2, 2), dtype=np.int64), modulo_kernel=False)


def test_det():
    assert il.det(il.int_array([[2, 1], [1, 1]])) == 1
    assert il.det(il.int_array([[2, 0], [0, 3]])) == 6


def test_restrict_to_sublattice():
    # swap on Z^2 restricted to the fixed line span{(1,1)}
    swap = il.int_array([[0, 1], [1, 0]])
    basis = il.int_array([[1], [1]])
    r = il.restrict_to_sublattice(swap, basis)
    assert r.shape == (1, 1) and r[0, 0] == 1
    with pytest.raises(ValueError):
        il.restrict_to_sublattice(il.int_array([[1, 0], [0, 2]]), il.int_array([[1], [1]]))


def test_restrict_to_non_saturated_basis():
    # the columns (1, 0), (1, 2) span an index-2 sublattice; the swap keeps
    # its Q-span but not the lattice, and a basis that is not saturated is
    # rejected whatever the matrix
    swap = il.int_array([[0, 1], [1, 0]])
    with pytest.raises(ValueError, match="saturated"):
        il.restrict_to_sublattice(swap, il.int_array([[1, 1], [0, 2]]))
    with pytest.raises(ValueError, match="saturated"):
        il.restrict_to_sublattice(int_eye(2), il.int_array([[1, 1], [0, 2]]))


def test_restrict_stack_matches_single_matrices():
    mats = [[[0, 1], [1, 0]], [[1, 0], [0, 1]], [[0, -1], [-1, 0]], [[2, 1], [1, 2]]]
    # the non-saturated basis above fails a stacked call as it fails one matrix
    with pytest.raises(ValueError, match="saturated"):
        il.restrict_to_sublattice(np.array(mats, dtype=object), il.int_array([[1, 1], [0, 2]]))
    # a unimodular basis of Z^2: the restriction is a change of basis
    basis = il.int_array([[1, 1], [0, 1]])
    stacked = il.restrict_to_sublattice(np.array(mats, dtype=object), basis)
    assert stacked.shape == (4, 2, 2)
    for mat, r in zip(mats, stacked):
        assert r.tolist() == il.restrict_to_sublattice(il.int_array(mat), basis).tolist()
        assert np.array_equal(basis @ r, il.int_array(mat) @ basis)
    assert stacked[0].tolist() == [[-1, 0], [1, 1]]
    # one matrix of the stack that leaves the line span{(1, 1)} fails the call
    line = il.int_array([[1], [1]])
    assert il.restrict_to_sublattice(np.array(mats, dtype=object), line).tolist() == [
        [[1]], [[1]], [[-1]], [[3]]]
    with pytest.raises(ValueError):
        il.restrict_to_sublattice(np.array(mats + [[[1, 0], [0, 2]]], dtype=object), line)


def test_restrict_integral_entries_are_ints():
    # the 3-cycle on the sum-zero lattice of Z^3
    cycle = il.int_array([[0, 0, 1], [1, 0, 0], [0, 1, 0]])
    basis = il.int_array([[1, 0], [-1, 1], [0, -1]])
    r = il.restrict_to_sublattice(cycle, basis)
    assert r.dtype == np.int64 and r.tolist() == [[0, -1], [1, -1]]
    assert np.array_equal(basis @ r, cycle @ basis)


def test_restrict_rank_deficient_basis():
    with pytest.raises(ValueError, match="full column rank"):
        il.restrict_to_sublattice(int_eye(2), il.int_array([[1, 2], [2, 4]]))


def _object_array(entries):
    arr = np.empty(len(entries), dtype=object)
    arr[:] = entries
    return arr


INT_ARRAY_WRAPPERS = {
    "int": int,
    "np.int8": np.int8,
    "np.int64": np.int64,
    "Fraction": lambda k: Fraction(k, 1),
    "float": float,
}


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_int_array_round_trip(data):
    dtype = data.draw(st.sampled_from([np.int8, np.int64]))
    wrap = data.draw(st.sampled_from(sorted(INT_ARRAY_WRAPPERS)))
    # np.int8 holds +-127 at most and a float every integer up to 2^53
    bound = min(int(np.iinfo(dtype).max), {"np.int8": 127, "float": 2**53}.get(wrap, 2**63))
    values = data.draw(st.lists(st.integers(-bound, bound), max_size=6))
    entries = [INT_ARRAY_WRAPPERS[wrap](k) for k in values]
    containers = [entries, tuple(entries), _object_array(entries),
                  np.array(values, dtype=np.int64)]
    if bound <= 127:
        containers.append(np.array(values, dtype=np.int8))
    for a in containers:
        out = il.int_array(a, dtype)
        assert out.dtype == dtype
        assert out.tolist() == values
        assert all(type(x) is int for x in out.tolist())


@settings(max_examples=100, deadline=None)
@given(values=st.lists(st.integers(-5, 5), min_size=1, max_size=5), data=st.data())
def test_int_array_rejects_non_integral_entries(values, data):
    bad = data.draw(st.sampled_from(
        [Fraction(2 * values[0] + 1, 2), values[0] + 0.5, Fraction(1, 3), float("nan"), "3"]))
    entries = list(values)
    entries[data.draw(st.integers(0, len(entries) - 1))] = bad
    for a in (entries, tuple(entries), _object_array(entries)):
        with pytest.raises(ValueError):
            il.int_array(a)
    if isinstance(bad, float):
        with pytest.raises(ValueError):
            il.int_array(np.array(entries, dtype=float))


@pytest.mark.parametrize("dtype,value", [
    (np.int8, 128), (np.int8, -128), (np.int64, 2**63), (np.int64, -(2**63)),
])
def test_int_array_overflow_is_symmetric(dtype, value):
    containers = [[value], (value,), _object_array([value]), [[0, value]]]
    if -(2**63) <= value < 2**63:
        containers.append(np.array([value], dtype=np.int64))
    if value == -128:
        containers.append(np.array([value], dtype=np.int8))
    if value == 2**63:
        containers.append(np.array([value], dtype=np.uint64))
    for a in containers:
        with pytest.raises(OverflowError):
            il.int_array(a, dtype)
    limit = int(np.iinfo(dtype).max)
    assert il.int_array([limit, -limit], dtype).tolist() == [limit, -limit]


def test_int_array_keeps_shape():
    a = np.arange(24, dtype=np.int8).reshape(2, 3, 4)
    out = il.int_array(a)
    assert out.dtype == np.int64 and out.shape == (2, 3, 4)
    assert np.array_equal(out, a)
    assert il.int_array([]).shape == (0,)


INT64_EDGE = 2**63 - 1
int64_entries = st.one_of(
    st.integers(-INT64_EDGE, INT64_EDGE),
    st.sampled_from([-INT64_EDGE, INT64_EDGE, 2**31, -(2**31), 2**31 - 1,
                     2**62, -(2**62), 2**62 + 1, 0, 1, -1]),
    st.integers(-4, 4),
)


def test_max_abs_is_exact_at_the_int64_minimum():
    assert il._max_abs(np.array([-(2**63), 5])) == 2**63
    assert il._max_abs(np.array([], dtype=np.int64)) == 1
    assert il._max_abs(np.array([-3, 2])) == 3


@settings(max_examples=300, deadline=None)
@given(st.tuples(st.integers(1, 3), st.integers(0, 3), st.integers(1, 3)).flatmap(
    lambda s: st.tuples(arrays(np.int64, s[:2], elements=int64_entries),
                        arrays(np.int64, s[1:], elements=int64_entries))))
def test_int_matmul_is_exact_or_raises(ab):
    a, b = ab
    exact = a.astype(object) @ b.astype(object)
    leaves = bool(exact.size) and max(abs(int(v)) for v in exact.flat) > INT64_EDGE
    for ops in ((a, b), (a.astype(object), b), (a.tolist(), b.astype(object))):
        try:
            out = il.int_matmul(*ops)
        except OverflowError:
            continue
        assert not leaves
        assert out.dtype == np.int64 and out.tolist() == exact.tolist()


@pytest.mark.parametrize("bad", [1.5, Fraction(1, 2), "x"])
def test_int_matmul_rejects_non_integral_operands(bad):
    with pytest.raises(ValueError):
        il.int_matmul([[1, bad]], [[1], [1]])
    with pytest.raises(ValueError):
        il.int_matmul(np.eye(2, dtype=np.int64), np.array([[1, 0], [bad, 1]], dtype=object))
    assert il.int_matmul([[1, 2.0]], [[Fraction(4, 2)], [1]]).tolist() == [[4]]


def test_smith_diagonal_and_rank_are_computed_once():
    snf = il.smith_normal_form([[2, 0], [0, 0]])
    assert snf.diagonal is snf.diagonal and snf.diagonal == (2, 0)
    assert snf.rank == 1
    other = dataclasses.replace(snf, d=il.int_array([[1, 0], [0, 3]]))
    assert other.diagonal == (1, 3) and other.rank == 2
    assert snf.diagonal == (2, 0) and snf.rank == 1


SNF_FIELDS = ("u", "d", "v", "v_inv")


def assert_stacked_snf_matches(stack):
    """Every slice of the stacked Smith form, and the one-matrix call on
    it, equal the Python-int reference loop."""
    got = il.smith_normal_form(stack)
    assert got.rank.shape == (len(stack),)
    for i, m in enumerate(stack):
        want = dict(zip(SNF_FIELDS, smith_form(m)))
        one = il.smith_normal_form(m)
        for name in SNF_FIELDS:
            assert getattr(got, name)[i].dtype == getattr(one, name).dtype == np.int64
            assert getattr(got, name)[i].tolist() == getattr(one, name).tolist() == want[name], name
        diag = tuple(want["d"][j][j] for j in range(min(m.shape)))
        assert tuple(got.diagonal[i].tolist()) == one.diagonal == diag
        assert got.rank[i] == one.rank == sum(1 for x in diag if x)


@pytest.mark.parametrize("type_,rank,form", [
    ("B", 3, "sc"), ("A", 4, "sc"), ("B", 4, "sc"), ("F", 4, "sc"), ("D", 4, [[1, 0, 0, 0]]),
], ids=["B3-sc", "A4-sc", "B4-sc", "F4-sc", "D4-so"])
def test_stacked_smith_form_matches_every_group_element(type_, rank, form):
    from torusdual import rootdata, weyl

    group = weyl.generate(rootdata.build_simple(type_, rank, form))
    assert_stacked_snf_matches(group.array.astype(np.int64) - np.eye(rank, dtype=np.int64))


def test_stacked_smith_form_matches_random_and_empty_stacks():
    rng = np.random.default_rng(20261019)
    for _ in range(300):
        k, m, n = rng.integers(1, 7, size=3)
        assert_stacked_snf_matches(rng.integers(-9, 10, size=(k, m, n)))
    for shape in ((0, 3, 4), (4, 0, 3), (4, 3, 0), (0, 0, 0)):
        snf = il.smith_normal_form(np.zeros(shape, dtype=np.int64))
        k, m, n = shape
        assert (snf.u.shape, snf.d.shape, snf.v.shape, snf.v_inv.shape) == (
            (k, m, m), (k, m, n), (k, n, n), (k, n, n))
        assert snf.rank.shape == (k,)
        assert_stacked_snf_matches(np.zeros(shape, dtype=np.int64))
    with pytest.raises(ValueError):
        il.smith_normal_form([[[1.5]]])


def test_stacked_smith_form_is_exact_or_raises():
    # the exact transforms of this matrix reach 2^63, one past int64
    edge = [[0, 2], [2**62, 1]]
    assert max(abs(x) for factor in smith_form(edge) for row in factor for x in row) == 2**63
    with pytest.raises(OverflowError):
        il.smith_normal_form(edge)
    with pytest.raises(OverflowError):
        il.smith_normal_form(np.array([edge, [[1, 0], [0, 1]]]))
    rng = np.random.default_rng(7)
    for _ in range(200):
        a = rng.integers(-2**62, 2**62, size=tuple(rng.integers(1, 4, size=2)))
        a[rng.random(a.shape) < 0.5] = rng.integers(-9, 10)
        try:
            assert_stacked_snf_matches(a[None])
        except OverflowError:
            pass


def test_stacked_det_matches_one_matrix():
    rng = np.random.default_rng(3)
    for d in range(6):
        stack = rng.integers(-3, 4, size=(40, d, d))
        stack[:10, :, :1] = 0  # singular slices: a zero column
        stack[10:20, -1:] = stack[10:20, :1]  # and two equal rows
        got = il.det(stack)
        assert got.shape == (40,) and got.dtype == np.int64
        want = [bareiss_det(m) for m in stack]
        assert got.tolist() == [il.det(m) for m in stack] == want
        assert all(type(il.det(m)) is int for m in stack)
        if d:
            assert not got[:10].any()
    assert il.det(np.zeros((0, 3, 3), dtype=np.int64)).shape == (0,)


def test_stacked_det_bounds_by_hadamard():
    # 2 H^2 = 2^61 passes; det 2^64 would leave int64 and must raise
    assert il.det(np.array([np.eye(2, dtype=np.int64) * 2**15])).tolist() == [2**30]
    with pytest.raises(OverflowError):
        il.det(np.array([np.eye(2, dtype=np.int64) * 2**32]))
    # one matrix is the k = 1 slice: exact or raise
    assert bareiss_det([[2**32, 0], [0, 2**32]]) == 2**64
    with pytest.raises(OverflowError):
        il.det([[2**32, 0], [0, 2**32]])

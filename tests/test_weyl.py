import itertools

import numpy as np
import pytest

from torusdual import intlinalg as il
from torusdual import ktheory as kt
from torusdual import rootdata as rdm
from torusdual import weyl
from tuple_reference import elements, inverse_index, mat_identity, mat_mul

ORDERS = {
    ("A", 1): 2,
    ("A", 2): 6,
    ("A", 3): 24,
    ("B", 2): 8,
    ("C", 2): 8,
    ("B", 3): 48,
    ("C", 3): 48,
    ("D", 4): 192,
    ("G", 2): 12,
    ("F", 4): 1152,
}


@pytest.mark.parametrize("type_,rank", sorted(ORDERS))
def test_group_orders(type_, rank):
    rd = rdm.build_simple(type_, rank, "sc")
    assert len(weyl.generate(rd)) == ORDERS[(type_, rank)]


@pytest.mark.parametrize("type_,rank", [("A", 2), ("B", 2), ("G", 2), ("A", 3)])
def test_group_axioms_brute_force(type_, rank):
    group = weyl.generate(rdm.build_simple(type_, rank, "sc"))
    n = len(group)
    assert n <= 100
    elems = elements(group)
    index = {m: i for i, m in enumerate(elems)}
    ident = index[mat_identity(rank)]
    table = [[index[mat_mul(a, b)] for b in elems] for a in elems]
    for i in range(n):
        assert table[ident][i] == i
        assert table[i][ident] == i
        assert ident in table[i]  # inverse exists
    for i in range(0, n, 2):
        for j in range(n):
            for k in range(1, n, 3):
                assert table[table[i][j]][k] == table[i][table[j][k]]


def test_elements_permute_coroots():
    for type_, rank in (("A", 2), ("B", 3), ("G", 2)):
        for form in ("sc", "adjoint"):
            rd = rdm.build_simple(type_, rank, form)
            group = weyl.generate(rd)
            coroot_set = set(rd.coroots)
            for g in elements(group):
                imgs = {
                    tuple(sum(g[i][j] * c[j] for j in range(rank)) for i in range(rank))
                    for c in rd.coroots
                }
                assert imgs == coroot_set
                assert il.det(il.int_array(g)) in (1, -1)


def test_conjugacy_classes_a1():
    group = weyl.WeylGroup.from_generators([((-1,),)], rank=1)
    assert len(group.classes) == 2


def test_conjugacy_classes_a2():
    group = weyl.generate(rdm.build_simple("A", 2, "sc"))
    sizes = sorted(len(c.members) for c in group.classes)
    assert sizes == [1, 2, 3]


def test_conjugacy_classes_b2():
    group = weyl.generate(rdm.build_simple("B", 2, "sc"))
    assert len(group.classes) == 5  # dihedral of order 8


def test_classes_partition_and_counting():
    for type_, rank in (("A", 3), ("B", 3), ("G", 2)):
        group = weyl.generate(rdm.build_simple(type_, rank, "sc"))
        elems = elements(group)
        seen = []
        for c in group.classes:
            seen.extend(c.members.tolist())
            assert c.representative == min(c.members, key=lambda i: elems[i])
            cent = group.centralizer_indices(c.representative)
            assert len(c.members) * len(cent) == len(group)
        assert sorted(seen) == list(range(len(group)))


def test_centralizer_identity_is_whole_group():
    group = weyl.generate(rdm.build_simple("A", 2, "sc"))
    ident = elements(group).index(mat_identity(2))
    cent = group.centralizer_indices(ident)
    assert cent.tolist() == list(range(len(group)))


def test_centralizers_in_s3():
    # by class size: the identity, the two 3-cycles, the three transpositions
    group = weyl.generate(rdm.build_simple("A", 2, "sc"))
    orders = {
        len(c.members): len(group.centralizer_indices(c.representative))
        for c in group.classes
    }
    assert orders == {1: len(group), 2: 3, 3: 2}


def test_action_commutes_with_dualize():
    # matrices of W on X*(dual datum) equal the matrices of W on X_*(datum):
    # as sets, the dual group, closed from its own reflections, consists of
    # the transposed matrices
    for type_, rank in (("A", 2), ("B", 2), ("G", 2), ("B", 3)):
        rd = rdm.build_simple(type_, rank, "sc")
        dual = rdm.dualize(rd)
        w1 = set(elements(weyl.generate(rd)))
        oracle = weyl.WeylGroup.from_generators(weyl.simple_reflection_matrices(dual), rank)
        w2 = {tuple(zip(*m)) for m in elements(oracle)}
        assert w1 == w2


def _matrix_sets(group, indices):
    return {il.as_matrix(group.array[i]) for i in indices}


@pytest.mark.parametrize("type_,rank,form", [
    ("A", 3, "sc"), ("B", 3, "sc"), ("C", 3, "adjoint"), ("G", 2, "sc"),
    ("D", 4, [[1, 0, 0, 0]]), ("F", 4, "sc"),
])
def test_both_sides_match_their_own_closures(type_, rank, form):
    # whichever side generate closes, each side's classes, representatives
    # and centralizers are those of a closure of its own reflections
    rd = rdm.build_simple(type_, rank, form)
    for side in (rd, rdm.dualize(rd)):
        group = weyl.generate(side)
        oracle = weyl.WeylGroup.from_generators(weyl.simple_reflection_matrices(side), rank)
        assert _matrix_sets(group, range(len(group))) == _matrix_sets(oracle, range(len(oracle)))
        assert len(group.classes) == len(oracle.classes)
        for c, o in zip(group.classes, oracle.classes):
            assert il.as_matrix(group.array[c.representative]) == \
                il.as_matrix(oracle.array[o.representative])
            assert _matrix_sets(group, c.members) == _matrix_sets(oracle, o.members)
            assert _matrix_sets(group, group.centralizer_indices(c.representative)) == \
                _matrix_sets(oracle, oracle.centralizer_indices(o.representative))
        for i in range(0, len(group), 7):
            inverse_index(group, i)  # exactly one element u with u w = 1


@pytest.fixture
def closures(monkeypatch):
    """An empty group cache, and the ranks of the closures run from it on."""
    monkeypatch.setattr(weyl, "_GROUPS", {})
    calls = []
    close = weyl.WeylGroup.from_generators

    def counted(gens, rank):
        calls.append(rank)
        return close(gens, rank)

    monkeypatch.setattr(weyl.WeylGroup, "from_generators", counted)
    return calls


def test_verify_duality_closes_once(closures):
    assert kt.verify_duality(rdm.build_simple("A", 3, "sc")).verdict == "equal"
    assert closures == [3]


@pytest.mark.parametrize("forms", [("sc", "adjoint"), ("adjoint", "sc")])
def test_simply_laced_sc_and_adjoint_share_one_closure(closures, forms):
    groups = [weyl.generate(rdm.build_simple("A", 3, form)) for form in forms]
    assert closures == [3]
    assert np.array_equal(groups[0].array, groups[1].array.transpose(0, 2, 1))


def test_a_self_transposed_stack_is_one_group(closures):
    su2 = rdm.build_simple("A", 1, "sc")
    assert weyl.generate(rdm.dualize(su2)) is weyl.generate(su2)
    assert closures == [1]


@pytest.mark.parametrize("type_,rank,form", [
    ("A", 3, "sc"), ("B", 3, "sc"), ("G", 2, "sc"), ("D", 4, [[1, 0, 0, 0]]),
])
def test_dual_group_does_not_depend_on_the_side_asked_first(monkeypatch, type_, rank, form):
    rd = rdm.build_simple(type_, rank, form)
    dual = rdm.dualize(rd)
    monkeypatch.setattr(weyl, "_GROUPS", {})
    dual_first = weyl.generate(dual)
    monkeypatch.setattr(weyl, "_GROUPS", {})
    primal = weyl.generate(rd)
    dual_second = weyl.generate(dual)
    assert np.array_equal(dual_first.array, dual_second.array)
    assert [(c.representative, c.members.tolist()) for c in dual_first.classes] == \
        [(c.representative, c.members.tolist()) for c in dual_second.classes]
    # one side is the other's transpose, sharing its memory
    assert np.array_equal(primal.array, dual_second.array.transpose(0, 2, 1))
    assert np.shares_memory(primal.array, dual_second.array)


def test_group_too_large(monkeypatch):
    rd = rdm.build_simple("A", 3, "sc")
    monkeypatch.setattr(weyl, "WEYL_ORDER_CAP", 10)
    with pytest.raises(weyl.GroupTooLargeError) as err:
        weyl.WeylGroup.from_generators(weyl.simple_reflection_matrices(rd), 3)
    assert "10" in str(err.value)


def test_trivial_and_fixture_groups():
    triv = weyl.WeylGroup.from_generators([], rank=2)
    assert len(triv) == 1
    inv = weyl.WeylGroup.from_generators([((-1,),)], rank=1)
    assert len(inv) == 2
    assert inverse_index(inv, 1) == 1


def _sc_datum_reflections(max_rank):
    for t in rdm.SIMPLE_TYPES:
        for r in range(1, max_rank + 1):
            if rdm.is_simple_type(t, r):
                yield f"{t}{r}", weyl.simple_reflection_matrices(rdm.build_simple(t, r, "sc")), r


GENERATOR_CASES = [
    ("empty", [], 2),
    ("identity", [((1,),)], 1),
    ("identity-and-sign", [((-1,),), ((1,),)], 1),
    ("repeated", [((-1,),), ((-1,),)], 1),
    ("swap-repeated", [((0, 1), (1, 0)), ((1, 0), (0, 1)), ((0, 1), (1, 0))], 2),
] + list(_sc_datum_reflections(4))


@pytest.mark.parametrize("gens,rank", [c[1:] for c in GENERATOR_CASES],
                         ids=[c[0] for c in GENERATOR_CASES])
def test_generators_index_their_matrices(gens, rank):
    # generators[k] is the index of the k-th generator's matrix, the same
    # index for a repeated one and 0 for the identity
    group = weyl.WeylGroup.from_generators(gens, rank)
    assert len(group.generators) == len(gens)
    for k, g in enumerate(gens):
        matches = np.flatnonzero((group.array == np.asarray(g)).all(axis=(1, 2)))
        assert group.generators[k] == int(matches[0]) and len(matches) == 1
    elems = tuple_closure([il.as_matrix(g) for g in gens], rank)
    assert group.generators == [elems.index(il.as_matrix(g)) for g in gens]


def tuple_closure(gens, rank):
    """Reference closure: breadth-first on tuples, one product at a time."""
    ident = mat_identity(rank)
    elems, seen, frontier = [ident], {ident}, [ident]
    while frontier:
        nxt = []
        for m in frontier:
            for g in gens:
                prod = mat_mul(m, g)
                if prod not in seen:
                    seen.add(prod)
                    elems.append(prod)
                    nxt.append(prod)
        frontier = nxt
    return elems


def tuple_classes(elems, gens):
    """Reference classes: conjugation orbits, sorted by the smallest matrix."""
    ident = mat_identity(len(elems[0]))
    index = {m: i for i, m in enumerate(elems)}
    inverses = [next(h for h in elems if mat_mul(g, h) == ident) for g in gens]
    classes, assigned = [], set()
    for start in range(len(elems)):
        if start in assigned:
            continue
        orbit, frontier = {start}, [start]
        while frontier:
            nxt = []
            for i in frontier:
                for g, ginv in zip(gens, inverses):
                    c = index[mat_mul(mat_mul(g, elems[i]), ginv)]
                    if c not in orbit:
                        orbit.add(c)
                        nxt.append(c)
            frontier = nxt
        assigned |= orbit
        rep = min(orbit, key=elems.__getitem__)
        classes.append((rep, tuple(sorted(orbit))))
    return sorted(classes, key=lambda c: elems[c[0]])


def _reference_input(name):
    fixtures = {"trivial": ([], 2), "sign": ([((-1,),)], 1)}
    if name in fixtures:
        return fixtures[name]
    type_, rank, form = {
        "A3": ("A", 3, "sc"), "B3": ("B", 3, "sc"), "G2": ("G", 2, "sc"),
        "D4-so": ("D", 4, [[1, 0, 0, 0]]), "F4": ("F", 4, "sc"),
    }[name]
    return weyl.simple_reflection_matrices(rdm.build_simple(type_, rank, form)), rank


@pytest.mark.parametrize("name", ["A3", "B3", "G2", "D4-so", "F4", "trivial", "sign"])
def test_array_group_matches_tuple_reference(name):
    gens, rank = _reference_input(name)
    group = weyl.WeylGroup.from_generators(gens, rank)
    elems = tuple_closure(gens, rank)
    assert [tuple(map(tuple, m)) for m in group.array.tolist()] == elems
    assert group.array.dtype == np.int8
    assert [il.as_matrix(m) for m in group.array] == elems
    classes = tuple_classes(elems, gens)
    assert [(c.representative, tuple(c.members.tolist())) for c in group.classes] == classes
    for c in group.classes:
        assert c.members.dtype == np.int64 and not c.members.flags.writeable
    for rep, _ in classes:
        w = elems[rep]
        brute = tuple(k for k, z in enumerate(elems) if mat_mul(z, w) == mat_mul(w, z))
        assert tuple(group.centralizer_indices(rep).tolist()) == brute


@pytest.mark.parametrize("gen", [((200,),), ((2,),)])
def test_entries_outside_int8_raise(gen):
    # ((2,),) generates 2, 4, ..., 64 and then 128, which int8 would wrap
    with pytest.raises(OverflowError):
        weyl.WeylGroup.from_generators([gen], rank=1)


def _probe_images(mats):
    """The probe images of a stack of int8 matrices, taken as a group array."""
    return weyl.WeylGroup(np.array(mats, dtype=np.int8), [])._images


@pytest.mark.parametrize("m", [1, 3])
def test_probe_names_every_matrix_within_its_bound(m):
    # the probe is taken from the largest entry m, so it must tell apart
    # every matrix with entries within +-m; G2's elements reach m = 3
    if m == 3:
        assert np.abs(weyl.generate(rdm.build_simple("G", 2, "sc")).array).max() == 3
    mats = list(itertools.product(range(-m, m + 1), repeat=4))
    images = _probe_images(np.reshape(mats, (-1, 2, 2)))
    assert len(mats) == (2 * m + 1) ** 4
    assert len(np.unique(images, axis=0)) == len(mats)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_probe_digits_never_cancel(m):
    # a row with adjacent extreme digits (m, -m) or (-m, m) is neither
    # the zero row nor another such row: the carry of m - mk is never 0
    n = 7
    rows = [np.zeros(n, dtype=np.int64)]
    for j in range(n - 1):
        for sign in (1, -1):
            row = np.zeros(n, dtype=np.int64)
            row[j], row[j + 1] = sign * m, -sign * m
            rows.append(row)
    mats = np.zeros((len(rows), n, n), dtype=np.int64)
    mats[:, 0] = rows
    images = _probe_images(mats)
    assert len(np.unique(images[:, 0])) == len(rows)


def test_probe_past_int64_raises():
    # n m k^n passes int64 for 8 x 8 entries of 127 (k = 255)
    with pytest.raises(OverflowError):
        _probe_images(np.full((1, 8, 8), 127))


@pytest.mark.parametrize("type_,rank,form", [("B", 3, "sc"), ("D", 4, [[1, 0, 0, 0]])])
def test_centralizers_asked_first_on_the_transposed_side(monkeypatch, type_, rank, form):
    # a fresh pair whose transposed side is asked first: its centralizers
    # are the brute-force commuting sets, computed on the closed side's
    # images without building a second image array
    monkeypatch.setattr(weyl, "_GROUPS", {})
    rd = rdm.build_simple(type_, rank, form)
    sides = [weyl.generate(rd), weyl.generate(rdm.dualize(rd))]
    [flipped] = [g for g in sides if isinstance(g, weyl._Transpose)]
    [closed] = [g for g in sides if g is not flipped]
    elems = elements(flipped)
    for c in flipped.classes:
        w = elems[c.representative]
        brute = [k for k, z in enumerate(elems) if mat_mul(z, w) == mat_mul(w, z)]
        assert flipped.centralizer_indices(c.representative).tolist() == brute
    assert "_images" not in vars(flipped)
    # the cache is shared, so recompute the closed side's arrays past it
    for c in flipped.classes:
        assert np.array_equal(closed._commuting_with(c.representative),
                              flipped.centralizer_indices(c.representative))


def test_centralizer_is_an_int8_stack():
    group = weyl.generate(rdm.build_simple("B", 2, "sc"))
    for c in group.classes:
        w = group.array[c.representative].astype(np.int64)
        indices = group.centralizer_indices(c.representative)
        assert indices.dtype == np.int64 and not indices.flags.writeable
        assert (np.diff(indices) > 0).all()
        cent = group.array[indices]
        assert cent.dtype == np.int8
        assert all(np.array_equal(z @ w, w @ z) for z in cent.astype(np.int64))


def test_simple_reflection_matrices_are_an_int64_stack():
    rd = rdm.build_simple("G", 2, "sc")
    mats = weyl.simple_reflection_matrices(rd)
    assert mats.dtype == np.int64 and mats.shape == (2, 2, 2)
    for s, alpha, alpha_ck in zip(mats, rd.simple_roots, rd.simple_coroots):
        assert (s @ s == np.eye(2)).all()
        assert (s @ np.array(alpha_ck) == -np.array(alpha_ck)).all()

import pytest

from torusdual import intlinalg as il
from torusdual import rootdata as rdm
from torusdual import weyl

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
    ident = group.identity_index
    table = [[group.multiply(i, j) for j in range(n)] for i in range(n)]
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
            for g in group.elements:
                imgs = {
                    tuple(sum(g[i][j] * c[j] for j in range(rank)) for i in range(rank))
                    for c in rd.coroots
                }
                assert imgs == coroot_set
                assert il.det(il.intmat(g)) in (1, -1)


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
        seen = []
        for c in group.classes:
            seen.extend(c.members)
            assert c.representative == min(
                c.members, key=lambda i: group.elements[i]
            )
            cent = group.centralizer_indices(c.representative)
            assert len(c.members) * len(cent) == len(group)
        assert sorted(seen) == list(range(len(group)))


def test_centralizer_identity_is_whole_group():
    group = weyl.generate(rdm.build_simple("A", 2, "sc"))
    ident = group.elements[group.identity_index]
    assert len(weyl.centralizer(group, ident)) == len(group)


def test_centralizers_in_s3():
    group = weyl.generate(rdm.build_simple("A", 2, "sc"))
    by_size = {}
    for c in group.classes:
        by_size[len(c.members)] = group.elements[c.representative]
    three_cycle = by_size[2]  # class of the two 3-cycles
    transposition = by_size[3]
    assert len(weyl.centralizer(group, three_cycle)) == 3
    assert len(weyl.centralizer(group, transposition)) == 2
    with pytest.raises(ValueError):
        weyl.centralizer(group, ((2, 0), (0, 2)))


def test_action_commutes_with_dualize():
    # matrices of W on X*(dual datum) equal the matrices of W on X_*(datum):
    # as sets, the dual group consists of the transposed matrices
    for type_, rank in (("A", 2), ("B", 2), ("G", 2), ("B", 3)):
        rd = rdm.build_simple(type_, rank, "sc")
        dual = rdm.dualize(rd)
        w1 = set(weyl.generate(rd).elements)
        w2 = {tuple(zip(*m)) for m in weyl.generate(dual).elements}
        assert w1 == w2


def test_group_too_large():
    rd = rdm.build_simple("A", 3, "sc")
    with pytest.raises(weyl.GroupTooLargeError) as err:
        weyl.WeylGroup.from_generators(weyl.simple_reflection_matrices(rd), 3, cap=10)
    assert "10" in str(err.value)


def test_trivial_and_fixture_groups():
    triv = weyl.WeylGroup.from_generators([], rank=2)
    assert len(triv) == 1
    inv = weyl.WeylGroup.from_generators([((-1,),)], rank=1)
    assert len(inv) == 2
    assert inv.inverse(1) == 1

import itertools
import random
from fractions import Fraction

import numpy as np
import pytest

from torusdual import clifford as cl

QI = cl.QI
HALF = QI(Fraction(1, 2))


def test_generator_relations():
    n = 3
    gens = [cl.generator(n, "e", j) for j in range(1, n + 1)] + [
        cl.generator(n, "eps", j) for j in range(1, n + 1)
    ]
    one = cl.one(n)
    for i, a in enumerate(gens):
        assert a * a == one
        for b in gens[i + 1:]:
            assert a * b == -(b * a)


def test_canonical_form_unique():
    n = 2
    e1 = cl.generator(n, "e", 1)
    e2 = cl.generator(n, "e", 2)
    w1 = e1 * e2
    w2 = (e2 * e1).scale(QI(Fraction(-1)))
    assert w1 == w2
    assert len(w1.coefficients) == 1
    word, coeff = w1.coefficients[0]
    assert word == (0, 1)
    assert coeff == cl.ONE


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_projection_idempotent_selfadjoint(n):
    p = cl.clifford_projection(n)
    assert p * p == p
    assert p.star() == p


def test_projection_range_check():
    with pytest.raises(ValueError):
        cl.clifford_projection(0)
    with pytest.raises(ValueError):
        cl.clifford_projection(5)


def test_corner_property():
    p = cl.clifford_projection(1)
    x = p * (cl.generator(1, "e", 1) * cl.generator(1, "eps", 1)) * p
    assert x == p.scale(cl.I_UNIT)


I = QI(Fraction(0), Fraction(1))
ZERO_QI = QI()
ONE_QI = QI(Fraction(1))

# the standard 2x2 model uses skew-adjoint generators squaring to -1;
# they are i times ours, so we represent our e1, eps1 by -i times the
# model matrices [[0,i],[i,0]] and [[0,-1],[1,0]]
MODEL_E1 = ((ZERO_QI, I), (I, ZERO_QI))
MODEL_EPS1 = ((ZERO_QI, QI(Fraction(-1))), (ONE_QI, ZERO_QI))
OUR_E1 = tuple(tuple(v * (-I) for v in row) for row in MODEL_E1)
OUR_EPS1 = tuple(tuple(v * (-I) for v in row) for row in MODEL_EPS1)
IDENT2 = ((ONE_QI, ZERO_QI), (ZERO_QI, ONE_QI))


def mat_mul_qi(a, b):
    return tuple(
        tuple(sum((a[i][k] * b[k][j] for k in range(2)), QI()) for j in range(2))
        for i in range(2)
    )


def mat_add_qi(a, b):
    return tuple(tuple(a[i][j] + b[i][j] for j in range(2)) for i in range(2))


def to_matrix_model(elem):
    """Algebra map of Cl(1) into 2x2 matrices over the Gaussian rationals."""
    images = {0: OUR_E1, 1: OUR_EPS1}
    total = ((QI(), QI()), (QI(), QI()))
    for word, coeff in elem.coefficients:
        m = IDENT2
        for g in word:
            m = mat_mul_qi(m, images[g])
        m = tuple(tuple(v * coeff for v in row) for row in m)
        total = mat_add_qi(total, m)
    return total


def test_model_generators_square_correctly():
    # our images square to +1; the published model matrices, which are i
    # times ours, square to -1
    assert mat_mul_qi(OUR_E1, OUR_E1) == IDENT2
    assert mat_mul_qi(OUR_EPS1, OUR_EPS1) == IDENT2
    minus = tuple(tuple(v * QI(Fraction(-1)) for v in row) for row in IDENT2)
    assert mat_mul_qi(MODEL_E1, MODEL_E1) == minus
    assert mat_mul_qi(MODEL_EPS1, MODEL_EPS1) == minus


def test_matrix_model_is_algebra_map():
    # multiplication in Cl(1) matches 2x2 matrix multiplication
    import random

    rng = random.Random(3)
    basis = [(), (0,), (1,), (0, 1)]

    def random_elem():
        return cl.CliffordElement.from_dict(
            1,
            {
                w: QI(Fraction(rng.randint(-3, 3)), Fraction(rng.randint(-3, 3)))
                for w in basis
            },
        )

    for _ in range(25):
        a, b = random_elem(), random_elem()
        assert to_matrix_model(a * b) == mat_mul_qi(to_matrix_model(a), to_matrix_model(b))


def test_matrix_model_projection():
    # the projection built from the model's skew generators (i e1, i eps1)
    # is the published diag(1, 0)
    e1 = cl.generator(1, "e", 1)
    eps1 = cl.generator(1, "eps", 1)
    model_p = (cl.one(1) - (e1.scale(I) * eps1.scale(I)).scale(I)).scale(HALF)
    m = to_matrix_model(model_p)
    assert m == ((ONE_QI, ZERO_QI), (ZERO_QI, ZERO_QI))
    # our own projection is its complementary corner, also rank one
    m2 = to_matrix_model(cl.clifford_projection(1))
    assert m2 == ((ZERO_QI, ZERO_QI), (ZERO_QI, ONE_QI))
    assert mat_add_qi(m, m2) == IDENT2


@pytest.mark.parametrize("n", [1, 2, 3])
def test_conjugation_by_u(n):
    for j in range(1, n + 1):
        e = cl.generator(n, "e", j)
        eps = cl.generator(n, "eps", j)
        assert cl.conjugation_by_u(n, e) == e
        assert cl.conjugation_by_u(n, eps) == -eps
    p = cl.clifford_projection(n)
    assert cl.conjugation_by_u(n, p) == cl.dual_projection(n)


def test_u_is_unitary():
    for n in (1, 2, 3):
        u = cl.intertwiner_u(n)
        assert u * u.star() == cl.one(n)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_projection_invariant_under_signed_permutations(n):
    p = cl.clifford_projection(n)
    for g in cl.signed_permutations(n):
        assert cl.symmetric_invariance_check(n, g, p)


def test_einstein_sum_invariance():
    n = 2
    s = (
        cl.generator(n, "e", 1) * cl.generator(n, "eps", 1)
        + cl.generator(n, "e", 2) * cl.generator(n, "eps", 2)
    )
    swap = [[0, 1], [1, 0]]
    assert cl.symmetric_invariance_check(n, swap, s)
    rot = [[Fraction(3, 5), Fraction(-4, 5)], [Fraction(4, 5), Fraction(3, 5)]]
    assert cl.symmetric_invariance_check(n, rot, s)
    assert cl.symmetric_invariance_check(n, rot, cl.clifford_projection(n))


def test_power_sums_are_invariant():
    # power sums of the commuting family e_j eps_j, per the invariance theory
    n = 3
    xs = [cl.generator(n, "e", j) * cl.generator(n, "eps", j) for j in range(1, n + 1)]
    for k in (1, 2, 3):
        elem = cl.CliffordElement.from_dict(n, {})
        for x in xs:
            term = cl.one(n)
            for _ in range(k):
                term = term * x
            elem = elem + term
        for g in cl.signed_permutations(n):
            assert cl.symmetric_invariance_check(n, g, elem)


def test_non_orthogonal_rejected():
    p = cl.clifford_projection(2)
    with pytest.raises(ValueError):
        cl.symmetric_invariance_check(2, [[1, 1], [0, 1]], p)


def test_identity_fixes_everything():
    n = 2
    elem = cl.generator(n, "e", 1) * cl.generator(n, "eps", 2)
    assert cl.symmetric_invariance_check(n, [[1, 0], [0, 1]], elem)


# -- the mask product and the word-image action against list-merge references


def mul_words(a, b):
    """Clifford product of canonical words; returns (sign, canonical word).

    Generators square to +1 and distinct ones anticommute, so the product
    is +-(symmetric difference); the sign counts the transpositions needed
    to merge-sort the concatenation.
    """
    sign = 1
    out = list(a)
    for g in b:
        # move g left past the tail of `out` to its sorted position
        pos = len(out)
        while pos > 0 and out[pos - 1] > g:
            pos -= 1
            sign = -sign
        if pos > 0 and out[pos - 1] == g:
            # g^2 = +1: cancel the pair; crossing count already applied
            del out[pos - 1]
        else:
            out.insert(pos, g)
    return sign, tuple(out)


def reference_product(a, b):
    """a * b term by term: one QI product and one list-merge per pair of words."""
    out = {}
    for wa, ca in a.coefficients:
        for wb, cb in b.coefficients:
            sign, w = mul_words(wa, wb)
            coeff = ca * cb
            out[w] = out.get(w, QI()) + (coeff if sign > 0 else -coeff)
    return cl.CliffordElement.from_dict(a.dimension, out)


def all_words(n):
    return [w for k in range(2 * n + 1) for w in itertools.combinations(range(2 * n), k)]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_mask_product_matches_list_merge_on_every_pair_of_words(n):
    words = all_words(n)
    assert len(words) == 4**n
    for a in words:
        for b in words:
            sign, w = mul_words(a, b)
            ma, mb = cl._mask(a), cl._mask(b)
            assert (-1) ** cl._swaps(ma, mb) == sign, (a, b)
            assert cl._word(ma ^ mb) == w, (a, b)
            basis = cl.CliffordElement.from_dict(n, {a: cl.ONE})
            other = cl.CliffordElement.from_dict(n, {b: cl.ONE})
            assert (basis * other).coefficients == ((w, QI(Fraction(sign))),), (a, b)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_products_of_random_elements_match_the_reference(n):
    rng = random.Random(40 + n)
    for _ in range(10):
        a, b = random_element(rng, n), random_element(rng, n)
        got = a * b
        assert got == reference_product(a, b)
        assert all(type(c.re) is Fraction and type(c.im) is Fraction
                   for _, c in got.coefficients)
    p = cl.clifford_projection(n)
    assert p * p == reference_product(p, p) == p


def reference_action(g, a):
    """Element-by-element action: each generator image is a CliffordElement
    and each word is the reference product of its images, scaled by its
    coefficient."""
    n = a.dimension
    garr = [[Fraction(x) for x in row] for row in g]
    images = [
        cl.CliffordElement.from_dict(
            n, {(shift + k,): QI(garr[k][j]) for k in range(n) if garr[k][j]}
        )
        for shift in (0, n)
        for j in range(n)
    ]
    out = cl.CliffordElement.from_dict(n, {})
    for w, c in a.coefficients:
        term = cl.scalar(n, c)
        for gidx in w:
            term = reference_product(term, images[gidx])
        out = out + term
    return out


def random_element(rng, n, terms=6):
    words = [
        tuple(sorted(rng.sample(range(2 * n), rng.randint(0, 2 * n))))
        for _ in range(terms)
    ]
    return cl.CliffordElement.from_dict(
        n,
        {
            w: QI(Fraction(rng.randint(-5, 5), rng.randint(1, 4)),
                  Fraction(rng.randint(-5, 5), rng.randint(1, 4)))
            for w in words
        },
    )


ROT = [[Fraction(3, 5), Fraction(-4, 5)], [Fraction(4, 5), Fraction(3, 5)]]


def test_swap_moves_generators():
    swap = [[0, 1], [1, 0]]
    e = lambda j: cl.generator(2, "e", j)  # noqa: E731
    eps = lambda j: cl.generator(2, "eps", j)  # noqa: E731
    assert cl.orthogonal_action(swap, e(1)) == e(2)
    assert cl.orthogonal_action(swap, e(1) * eps(2)) == e(2) * eps(1)
    assert not cl.symmetric_invariance_check(2, swap, e(1) * eps(2))


def test_rotation_moves_e1():
    e1, e2 = cl.generator(2, "e", 1), cl.generator(2, "e", 2)
    image = cl.orthogonal_action(ROT, e1)
    assert image == e1.scale(QI(Fraction(3, 5))) + e2.scale(QI(Fraction(4, 5)))
    assert not cl.symmetric_invariance_check(2, ROT, e1)


@pytest.mark.parametrize("n", [2, 3])
def test_action_matches_reference_product(n):
    rng = random.Random(n)
    mats = list(cl.signed_permutations(n))[:: 3 if n == 3 else 1]
    if n == 2:
        mats.append(ROT)
    for g in mats:
        for _ in range(3):
            a = random_element(rng, n)
            got = cl.orthogonal_action(g, a)
            assert got == reference_action(g, a)
            for _, c in got.coefficients:
                assert type(c.re) is Fraction and type(c.im) is Fraction


def test_integral_entry_types_agree():
    a = random_element(random.Random(7), 3)
    p = cl.clifford_projection(3)
    g = [[0, -1, 0], [0, 0, 1], [1, 0, 0]]
    bad = [[0, -1, 0], [0, 0, 2], [1, 0, 0]]
    kinds = (
        lambda m: m,
        lambda m: np.array(m, dtype=np.int8),
        lambda m: np.array(m, dtype=np.int64),
        lambda m: [[Fraction(v, 1) for v in row] for row in m],
    )
    results = [cl.orthogonal_action(kind(g), a) for kind in kinds]
    assert all(r == reference_action(g, a) for r in results)
    assert results[0] != a
    for kind in kinds:
        assert cl.symmetric_invariance_check(3, kind(g), p)
        assert not cl.symmetric_invariance_check(3, kind(g), a)
        with pytest.raises(ValueError, match="orthogonal"):
            cl.orthogonal_action(kind(bad), a)
        with pytest.raises(ValueError, match="orthogonal"):
            cl.symmetric_invariance_check(3, kind(bad), p)


def test_non_orthogonal_action_rejected():
    a = cl.generator(2, "e", 1)
    for g in ([[1, 1], [0, 1]], [[2, 0], [0, 1]],
              [[Fraction(3, 5), Fraction(4, 5)], [Fraction(4, 5), Fraction(3, 5)]]):
        with pytest.raises(ValueError):
            cl.orthogonal_action(g, a)


def per_term_action(g, a):
    """The action with one Fraction multiply-add per term: each word's
    expansion is scaled by its QI coefficient term by term."""
    n = a.dimension
    cols = [[Fraction(row[j]) for row in g] for j in range(n)]
    images = [[(shift + k, v) for k, v in enumerate(col) if v] for shift in (0, n) for col in cols]
    out = {}
    for w, c in a.coefficients:
        terms = {(): 1}
        for gidx in w:
            nxt = {}
            for word, coeff in terms.items():
                for k, v in images[gidx]:
                    sign, prod = mul_words(word, (k,))
                    nxt[prod] = nxt.get(prod, 0) + sign * coeff * v
            terms = nxt
        for word, coeff in terms.items():
            acc = out.setdefault(word, [Fraction(0), Fraction(0)])
            acc[0] += c.re * coeff
            acc[1] += c.im * coeff
    return cl.CliffordElement.from_dict(n, {w: QI(re, im) for w, (re, im) in out.items()})


def test_common_denominator_action_matches_per_term_fractions():
    # 1/2, i/3 and 5/6 on different words: the common denominator is 6
    a = cl.CliffordElement.from_dict(2, {
        (): QI(Fraction(1, 2)),
        (0, 2): QI(Fraction(0), Fraction(1, 3)),
        (0, 1, 3): QI(Fraction(5, 6)),
    })
    swap_neg = [[0, -1], [1, 0]]
    for g in (ROT, swap_neg):
        got = cl.orthogonal_action(g, a)
        assert got == per_term_action(g, a) == reference_action(g, a)
        assert all(type(c.re) is Fraction and type(c.im) is Fraction
                   for _, c in got.coefficients)
    assert cl.orthogonal_action(ROT, a) != a
    zero = cl.CliffordElement.from_dict(2, {})
    p = cl.clifford_projection(2)
    for g in (ROT, swap_neg):
        assert cl.orthogonal_action(g, zero) == zero
        assert cl.orthogonal_action(g, zero).coefficients == ()
        # the numerator comparison agrees with comparing the elements
        for elem, fixed in ((a, False), (zero, True), (p, True)):
            assert cl.symmetric_invariance_check(2, g, elem) is fixed
            assert (cl.orthogonal_action(g, elem) == elem) is fixed


@pytest.mark.parametrize("n", [1, 3])
def test_symmetric_invariance_rejects_a_dimension_mismatch(n):
    # the swap fixes P_2, but n names another dimension than P_2's
    swap = [[0, 1], [1, 0]]
    p2 = cl.clifford_projection(2)
    assert cl.symmetric_invariance_check(2, swap, p2)
    with pytest.raises(ValueError, match="dimension mismatch"):
        cl.symmetric_invariance_check(n, swap, p2)

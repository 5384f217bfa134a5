"""Tuple reference arithmetic for the tests: group elements as tuples of
tuples of Python ints, multiplied entry by entry, and roots reflected one
at a time."""

from torusdual.intlinalg import Matrix, as_matrix


def mat_identity(n: int) -> Matrix:
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    bt = tuple(zip(*b))
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a
    )


def elements(group) -> list[Matrix]:
    """Every element of group as a tuple matrix, in group order."""
    return [as_matrix(m) for m in group.array]


def _pair(eta, x) -> int:
    return sum(int(a) * int(b) for a, b in zip(eta, x))


def _reflect_root(alpha, alpha_ck, beta, beta_ck):
    """Apply s_alpha to the pair (beta, beta_check)."""
    n1 = _pair(beta, alpha_ck)
    new_root = tuple(b - n1 * a for b, a in zip(beta, alpha))
    n2 = _pair(alpha, beta_ck)
    new_coroot = tuple(b - n2 * a for b, a in zip(beta_ck, alpha_ck))
    return new_root, new_coroot


def close_root_system(simple_roots, simple_coroots):
    """(roots, coroots) sorted by root: the simple pairs closed under the
    simple reflections, one root and one reflection at a time."""
    simple_pairs = list(zip(simple_roots, simple_coroots))
    seen = dict(simple_pairs)
    frontier = list(simple_pairs)
    while frontier:
        nxt = []
        for beta, beta_ck in frontier:
            for alpha, alpha_ck in simple_pairs:
                im = _reflect_root(alpha, alpha_ck, beta, beta_ck)
                if im[0] not in seen:
                    seen[im[0]] = im[1]
                    nxt.append(im)
        frontier = nxt
    pairs = sorted(seen.items())
    return tuple(p[0] for p in pairs), tuple(p[1] for p in pairs)

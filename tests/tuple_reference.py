"""Tuple reference arithmetic for the tests: group elements as tuples of
tuples of Python ints, multiplied entry by entry, roots reflected one at
a time, and the Smith form and determinant of one matrix in unbounded
Python ints.  Also test-side views the library does not export: an
element's inverse by search, the one-member bucket of one element, and
the action of centralizer elements on its fixed set through
``fixedpoints._pair_action`` and through ``fixedpoints._stacked_action``."""

import numpy as np

from torusdual import fixedpoints as fp
from torusdual.intlinalg import Matrix, as_matrix, int_array


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


def inverse_index(group, i: int) -> int:
    """The index of the one element u of group with u w = 1, w = element i,
    found by multiplying every element by w in int64."""
    w = group.array[i].astype(np.int64)
    products = group.array.astype(np.int64) @ w
    [u] = np.flatnonzero((products == np.eye(group.rank, dtype=np.int64)).all(axis=(1, 2)))
    return int(u)


def one_bucket(w):
    """The one bucket of ``fixedpoints._buckets`` for one element w."""
    [bucket] = fp._buckets(int_array(w)[None])
    return bucket


def centralizer_action(report, z):
    """The action of a (k, n, n) stack z of centralizer elements on the
    fixed set of w = report.w, for a report of fixed_set(w): ``_pair_action``
    on the one-member bucket of w, as the commuting-pairs oracle runs it on
    whole buckets.  A z that does not commute with w raises ValueError.
    Returns (perm, restriction): perm[j, i] is the component holding
    z_j x_i, in the bucket's order of the numerators, and restriction[j]
    is z_j on Gamma^w in the basis ``fixed_lattice_basis``."""
    zs = int_array(z)
    return fp._pair_action(one_bucket(report.w), np.zeros(len(zs), dtype=np.int64), zs)


def stacked_action(report, z):
    """The action of a (k, n, n) stack z of centralizer elements on the
    fixed set of w = report.w, for a report of fixed_set(w):
    ``_stacked_action`` on the one-member bucket of w, as the class sum
    runs it on whole buckets of class representatives.  Returns (fixed,
    restriction): fixed[j] is the number of components z_j fixes, and
    restriction[j] is z_j on Gamma^w in the basis ``fixed_lattice_basis``."""
    return fp._stacked_action(one_bucket(report.w), np.zeros(len(z), dtype=np.int64), z)


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


def bareiss_det(rows) -> int:
    """Exact determinant of a square list of integer rows, by fraction-free
    (Bareiss) elimination in Python ints."""
    # tolist() turns numpy integers into Python ints, so nothing wraps
    m = [list(row) for row in (rows.tolist() if isinstance(rows, np.ndarray) else rows)]
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


def smith_form(mat):
    """(U, D, V, V^-1) as lists of Python-int rows, U M V = D, for an
    m x n integer matrix M.

    The pivot is the smallest nonzero |entry| of the remaining block,
    first in row-major order; row and column t are cleared by
    floor-quotient steps, and when the cross is clear but the pivot does
    not divide the block, the first such row is added to row t.  These
    are the library's steps, taken one matrix at a time without a bound.
    """
    a = np.asarray(mat, dtype=object)
    m, n = a.shape
    work = [[int(x) for x in row] for row in a.tolist()]
    u = [[int(i == j) for j in range(m)] for i in range(m)]
    v = [[int(i == j) for j in range(n)] for i in range(n)]
    v_inv = [row[:] for row in v]

    def swap_rows(i, j):
        work[i], work[j] = work[j], work[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in work + v:
            row[i], row[j] = row[j], row[i]
        v_inv[i], v_inv[j] = v_inv[j], v_inv[i]

    def add_row(src, dst, q):  # row dst += q row src
        work[dst] = [a + q * b for a, b in zip(work[dst], work[src])]
        u[dst] = [a + q * b for a, b in zip(u[dst], u[src])]

    def add_col(src, dst, q):  # col dst += q col src, so row src of V^-1 loses q row dst
        for row in work + v:
            row[dst] += q * row[src]
        v_inv[src] = [a - q * b for a, b in zip(v_inv[src], v_inv[dst])]

    def pivot(t):
        entries = [(abs(work[i][j]), i, j) for i in range(t, m) for j in range(t, n) if work[i][j]]
        if entries:
            _, i, j = min(entries)
            swap_rows(t, i)
            swap_cols(t, j)
        return bool(entries)

    t = 0
    while t < min(m, n) and pivot(t):
        while True:
            if work[t][t] < 0:
                work[t] = [-x for x in work[t]]
                u[t] = [-x for x in u[t]]
            p = work[t][t]
            for i in range(t + 1, m):
                add_row(t, i, -(work[i][t] // p))
            for j in range(t + 1, n):
                add_col(t, j, -(work[t][j] // p))
            if any(work[i][t] for i in range(t + 1, m)) or any(work[t][t + 1:]):
                pivot(t)
                continue
            culprit = next((i for i in range(t + 1, m)
                            if any(x % p for x in work[i][t + 1:])), None)
            if culprit is None:
                break
            add_row(culprit, t, 1)
        t += 1
    return u, work, v, v_inv

"""Tuple reference arithmetic for the tests: group elements as tuples of
tuples of Python ints, multiplied entry by entry."""

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

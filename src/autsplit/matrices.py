"""Small exact matrix arithmetic over Z/m.

Matrices are immutable tuples of row tuples with entries canonically reduced
into [0, m).  Everything here is plain integer arithmetic; the moduli are
prime powers p^k and the field case m = p gets the usual elimination with
modular inverses.
"""

from __future__ import annotations

from .errors import NotAUnit, ShapeMismatch

Matrix = tuple[tuple[int, ...], ...]


def mat(rows, m: int) -> Matrix:
    """Canonicalize an iterable of rows into a Matrix mod m."""
    return tuple(tuple(x % m for x in row) for row in rows)


def identity(n: int) -> Matrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def shape(a: Matrix) -> tuple[int, int]:
    return (len(a), len(a[0]) if a else 0)


def mat_mul(a: Matrix, b: Matrix, m: int) -> Matrix:
    """a @ b mod m; the integer sums are exact before reduction."""
    ra, ca = shape(a)
    rb, cb = shape(b)
    if ca != rb:
        raise ShapeMismatch(f"cannot multiply {shape(a)} by {shape(b)}")
    bt = tuple(zip(*b)) if b else ()
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) % m for col in bt)
        for row in a
    )


def det_mod_p(a: Matrix, p: int) -> int:
    """Determinant mod a prime p by elimination over the field F_p."""
    n = len(a)
    rows = [list(r % p for r in row) for row in a]
    det = 1
    for col in range(n):
        pivot = next((i for i in range(col, n) if rows[i][col] % p), None)
        if pivot is None:
            return 0
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            det = -det
        inv = pow(rows[col][col], -1, p)
        det = det * rows[col][col] % p
        for i in range(col + 1, n):
            f = rows[i][col] * inv % p
            if f:
                rows[i] = [(x - f * y) % p for x, y in zip(rows[i], rows[col])]
    return det % p


def is_invertible_mod_p(a: Matrix, p: int) -> bool:
    return det_mod_p(a, p) != 0


def inv_mod(a: Matrix, m: int, p: int) -> Matrix:
    """Inverse of a mod m = p^k by Gauss-Jordan with unit pivots.

    Requires det(a) to be a unit mod p; pivots are then always available
    because the trailing submatrix stays invertible mod p.
    """
    n = len(a)
    aug = [list(row) + [1 if i == j else 0 for j in range(n)]
           for i, row in enumerate(a)]
    for col in range(n):
        pivot = next((i for i in range(col, n) if aug[i][col] % p), None)
        if pivot is None:
            raise NotAUnit("matrix is singular mod p")
        if pivot != col:
            aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = pow(aug[col][col], -1, m)
        aug[col] = [x * inv % m for x in aug[col]]
        for i in range(n):
            if i != col and aug[i][col]:
                f = aug[i][col]
                aug[i] = [(x - f * y) % m for x, y in zip(aug[i], aug[col])]
    return tuple(tuple(row[n:]) for row in aug)

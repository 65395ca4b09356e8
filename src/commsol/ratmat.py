"""Small exact rational matrices (tuples of tuples of Fraction).

Only what the commensuration layer needs: products, inverses,
determinants, and application to integer vectors.  Matrices act on
column vectors.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import PreconditionError

Row = tuple[Fraction, ...]
Matrix = tuple[Row, ...]


def from_rows(rows) -> Matrix:
    n = len(rows)
    out = []
    for r in rows:
        if len(r) != n:
            raise PreconditionError("matrix must be square")
        out.append(tuple(Fraction(x) for x in r))
    return tuple(out)


def identity(n: int) -> Matrix:
    return tuple(
        tuple(Fraction(1 if i == j else 0) for j in range(n)) for i in range(n)
    )


def mul(a: Matrix, b: Matrix) -> Matrix:
    n = len(a)
    return tuple(
        tuple(sum(a[i][t] * b[t][j] for t in range(n)) for j in range(n))
        for i in range(n)
    )


def mul_vec(a: Matrix, v) -> tuple[Fraction, ...]:
    n = len(a)
    return tuple(sum(a[i][j] * v[j] for j in range(n)) for i in range(n))


def _gauss_jordan(a: Matrix):
    """Gauss-Jordan elimination of [a | I]: (det a, a^-1), with None for
    the inverse of a singular matrix.  The determinant is the product of
    the pivots, its sign flipped by each row swap."""
    n = len(a)
    m = [list(row) + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(a)]
    d = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col] != 0), None)
        if piv is None:
            return Fraction(0), None
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            d = -d
        p = m[col][col]
        d *= p
        m[col] = [x / p for x in m[col]]
        for r in range(n):
            if r != col and m[r][col]:
                f = m[r][col]
                m[r] = [x - f * y for x, y in zip(m[r], m[col])]
    return d, tuple(tuple(row[n:]) for row in m)


def det(a: Matrix) -> Fraction:
    return _gauss_jordan(a)[0]


def inverse(a: Matrix) -> Matrix:
    inv = _gauss_jordan(a)[1]
    if inv is None:
        raise PreconditionError("matrix is singular")
    return inv


def from_int_columns(cols) -> Matrix:
    """Matrix whose j-th column is cols[j]."""
    n = len(cols)
    return tuple(tuple(Fraction(cols[j][i]) for j in range(n)) for i in range(n))


def common_denominator(a: Matrix) -> tuple[list[list[int]], int]:
    """Write a = P/q with P integral; returns (P as row lists, q)."""
    q = math.lcm(*(x.denominator for row in a for x in row))
    return [[int(x * q) for x in row] for row in a], q

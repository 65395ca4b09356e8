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


def det(a: Matrix) -> Fraction:
    n = len(a)
    m = [list(row) for row in a]
    out = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            out = -out
        out *= m[col][col]
        inv = 1 / m[col][col]
        for r in range(col + 1, n):
            f = m[r][col] * inv
            if f:
                for c in range(col, n):
                    m[r][c] -= f * m[col][c]
    return out


def inverse(a: Matrix) -> Matrix:
    n = len(a)
    m = [list(row) + [Fraction(1 if i == j else 0) for j in range(n)] for i, row in enumerate(a)]
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col] != 0), None)
        if piv is None:
            raise PreconditionError("matrix is singular")
        m[col], m[piv] = m[piv], m[col]
        inv = 1 / m[col][col]
        m[col] = [x * inv for x in m[col]]
        for r in range(n):
            if r != col and m[r][col]:
                f = m[r][col]
                m[r] = [x - f * y for x, y in zip(m[r], m[col])]
    return tuple(tuple(row[n:]) for row in m)


def from_int_columns(cols) -> Matrix:
    """Matrix whose j-th column is cols[j]."""
    n = len(cols)
    return tuple(tuple(Fraction(cols[j][i]) for j in range(n)) for i in range(n))


def common_denominator(a: Matrix) -> tuple[list[list[int]], int]:
    """Write a = P/q with P integral; returns (P as row lists, q)."""
    q = math.lcm(*(x.denominator for row in a for x in row))
    return [[int(x * q) for x in row] for row in a], q

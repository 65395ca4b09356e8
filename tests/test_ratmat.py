"""Exact rational matrices: the determinant and the inverse, from one
elimination, against sympy (used here only as an oracle)."""

import random
from fractions import Fraction

import pytest
import sympy

from commsol import catalog, ratmat
from commsol.errors import PreconditionError


def to_sympy(a):
    return sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in row] for row in a])


def from_sympy(m):
    return tuple(
        tuple(Fraction(int(m[i, j].p), int(m[i, j].q)) for j in range(m.cols))
        for i in range(m.rows)
    )


def singular(rng, n):
    """An n x n rational matrix whose last row combines the others."""
    rows = [[Fraction(rng.randrange(-2, 3), rng.choice([1, 2, 3])) for _ in range(n)]]
    rows += [[Fraction(rng.randrange(-2, 3)) for _ in range(n)] for _ in range(n - 2)]
    weights = [Fraction(rng.randrange(-2, 3), rng.choice([1, 2])) for _ in rows]
    rows.append([sum(w * r[j] for w, r in zip(weights, rows)) for j in range(n)])
    return ratmat.from_rows(rows)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_det_and_inverse_match_sympy_on_gl_n_q(n):
    rng = random.Random(100 + n)
    # seeded draws, some of which need a row swap, and the
    # reversal permutation, which needs one at every column but the middle
    cases = [catalog.random_zn_matrix(rng, n) for _ in range(60)]
    reversal = [[int(i == n - 1 - j) for i in range(n)] for j in range(n)]
    cases.append(ratmat.from_int_columns(reversal))
    for a in cases:
        expected = to_sympy(a)
        assert ratmat.det(a) == Fraction(str(expected.det()))
        inv = ratmat.inverse(a)
        assert inv == from_sympy(expected.inv())
        assert ratmat.mul(a, inv) == ratmat.identity(n)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_singular_matrices_have_det_0_and_no_inverse(n):
    rng = random.Random(200 + n)
    for _ in range(30):
        a = singular(rng, n) if n > 1 else ratmat.from_rows([[0]])
        assert to_sympy(a).det() == 0
        assert ratmat.det(a) == 0
        with pytest.raises(PreconditionError, match="matrix is singular"):
            ratmat.inverse(a)

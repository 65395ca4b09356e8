"""Fixed desk-scale catalogs used by the property suites and selftest.

The F2 catalog has 12 commensurations with domains of index <= 4,
including equivalent pairs (a map and its restriction) and inequivalent
witnesses; the Z^n generator draws random small rational matrices.
"""

from __future__ import annotations

from fractions import Fraction

from . import commensurations as comm
from . import ratmat, stallings
from .freewords import Word

W2 = lambda s: Word(2, s)

A = W2("a")
B = W2("b")

KER_A_GENS = [W2("aa"), W2("b"), W2("abA")]
KER_B_GENS = [W2("bb"), W2("a"), W2("baB")]
KER_TOTAL_GENS = [W2("ab"), W2("ba"), W2("aa")]
KER_A_MOD3_GENS = [W2("aaa"), W2("b"), W2("abA"), W2("aabAA")]


def ker_a():
    return stallings.from_generators(KER_A_GENS, 2)


def ker_b():
    return stallings.from_generators(KER_B_GENS, 2)


def ker_total():
    return stallings.from_generators(KER_TOTAL_GENS, 2)


def ker_a_mod3():
    return stallings.from_generators(KER_A_MOD3_GENS, 2)


def f2_catalog() -> dict:
    """Named catalog; insertion order is the canonical order used by the
    exhaustive suites."""
    ident = comm.identity_comm("F", 2)
    swap = comm.from_ambient(2, [B, A])
    shift = comm.from_ambient(2, [W2("ab"), B])
    h2a = ker_a()
    h2c = ker_total()
    h3 = ker_a_mod3()

    basis_a = stallings.basis(h2a)
    basis_c = stallings.basis(h2c)
    permuted = list(basis_a)
    permuted[0], permuted[1] = permuted[1], permuted[0]

    cat = {
        "identity": ident,
        "swap": swap,
        "shift": shift,
        "inner_a": comm.inner("F", 2, A),
        "inner_b": comm.inner("F", 2, B),
        "inner_ab": comm.inner("F", 2, W2("ab")),
        "identity|ker_a": comm.restriction(ident, h2a),
        "swap|ker_a": comm.restriction(swap, h2a),
        "shift|ker_a": comm.restriction(shift, h2a),
        "ker_a_basis_swap": comm.make_fk(2, basis_a, permuted),
        "ker_a_to_ker_total": comm.make_fk(2, basis_a, basis_c),
        "inner_a|ker_a_mod3": comm.restriction(comm.inner("F", 2, A), h3),
    }
    return cat


EQUIVALENT_PAIRS = [
    ("identity", "identity|ker_a"),
    ("swap", "swap|ker_a"),
    ("shift", "shift|ker_a"),
    ("inner_a", "inner_a|ker_a_mod3"),
]

INEQUIVALENT_WITNESS = ("swap", "identity")


def random_zn_matrix(rng, n: int):
    """Nonsingular n x n matrix with entries in {-2..2}/{1,2,3}."""
    while True:
        rows = [
            [Fraction(rng.randrange(-2, 3), rng.choice([1, 2, 3])) for _ in range(n)]
            for _ in range(n)
        ]
        m = ratmat.from_rows(rows)
        if ratmat.det(m) != 0:
            return m

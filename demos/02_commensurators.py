"""Partial automorphisms and the commensurator group.

Commensurations compose after restricting to where the composite makes
sense; equality in the commensurator is agreement on the intersection of
domains.  Over Z^n the whole group is an exact matrix calculus: the
commensurator is GL_n(Q).
"""

from fractions import Fraction

from commsol import catalog, ratmat
from commsol.commensurations import (
    compose,
    equivalent,
    evaluate,
    identity_comm,
    invert,
    make_zn,
    restriction,
    to_matrix,
)
from commsol.freewords import Word

print("== Z^n: the GL_n(Q) picture ==")
two = make_zn([[2]])
three = make_zn([[3]])
print(f"(x2) o (x3) has matrix {to_matrix(compose(two, three))[0][0]}")
half = invert(two)
print(f"(x2)^-1 is x{to_matrix(half)[0][0]} with domain {half.domain.cols[0][0]}Z")

m = make_zn([[0, 1], [1, 0]])
print(f"swap matrix squared is the identity? {equivalent(compose(m, m), identity_comm('Z', 2))}")

mixed = make_zn([[Fraction(1, 2), Fraction(1, 3)], [0, 1]])
print(f"a matrix with denominators picks its maximal domain: index {__import__('commsol.lattices', fromlist=['index']).index(mixed.domain)}")

print()
print("== F_2: the catalog ==")
cat = catalog.f2_catalog()
swap = cat["swap"]
print(f"swap sends a to {evaluate(swap, Word(2, 'a'))}; swap o swap ~ identity? "
      f"{equivalent(compose(swap, swap), cat['identity'])}")

restricted = cat["swap|ker_a"]
print(f"swap restricted to an index-2 domain stays equivalent? {equivalent(swap, restricted)}")

iso = cat["ker_a_to_ker_total"]
print(
    "a graph-to-graph commensuration between index-2 subgroups: "
    f"domain index {iso.domain.m}, codomain index {iso.codomain.m}, "
    f"equivalent to the identity? {equivalent(iso, cat['identity'])}"
)

inv = invert(iso)
print(f"its inverse round-trips? {equivalent(compose(inv, iso), cat['identity'])}")

print()
print("== matrices multiply exactly ==")
lhs = to_matrix(compose(two, three))
rhs = ratmat.mul(to_matrix(two), to_matrix(three))
print(f"to_matrix is a homomorphism: {lhs == rhs}")

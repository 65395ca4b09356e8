"""Reference computations the benchmark checks library outputs against.

Everything here works on plain strings, tuples and Fractions, or on the
raw permutation arrays of a subgroup graph, so that a check never runs the
code path it checks.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import product


# -- free-group words as letter strings (uppercase = inverse) ------------------


def reduce_word(s: str) -> str:
    out = []
    for ch in s:
        if out and out[-1] != ch and out[-1].lower() == ch.lower():
            out.pop()
        else:
            out.append(ch)
    return "".join(out)


def inverse(s: str) -> str:
    return s[::-1].swapcase()


def ambient_apply(images, s: str) -> str:
    """Image of the word `s` under the endomorphism a_i -> images[i]."""
    parts = []
    for ch in s:
        img = images[ord(ch.lower()) - ord("a")]
        parts.append(img if ch.islower() else inverse(img))
    return reduce_word("".join(parts))


def trace(graph, s: str, v: int = 0):
    """Vertex reached by reading `s` from `v` in a subgroup graph, or None."""
    for ch in s:
        x = ord(ch.lower()) - ord("a")
        v = graph.fwd[x][v] if ch.islower() else graph.bwd[x][v]
        if v == -1:
            return None
    return v


def _extend(frontier, rank: int):
    """All reduced one-letter extensions of the words in `frontier`."""
    letters = "abcdefghijklmnopqrstuvwxyz"[:rank]
    letters += letters.upper()
    return [
        w + ch
        for w in frontier
        for ch in letters
        if not (w and w[-1] != ch and w[-1].lower() == ch.lower())
    ]


def words_up_to(rank: int, length: int):
    """Reduced words of length <= `length`, shortest first."""
    out = [""]
    frontier = [""]
    for _ in range(length):
        frontier = _extend(frontier, rank)
        out.extend(frontier)
    return out


def project_f(graph, g: str, rank: int) -> str:
    """Nearest element of the subgroup to g in the word metric, least
    letter string among the nearest (brute force over suffixes)."""
    frontier = [""]
    while True:
        hits = [reduce_word(g + w) for w in frontier if trace(graph, reduce_word(g + w)) == 0]
        if hits:
            return min(hits)
        frontier = _extend(frontier, rank)


def attracting_prefix(g: str, length: int) -> str:
    """First `length` letters of the attracting fixed point of g."""
    # g^n = u c^n u^-1 with |c| >= 1, so n = length + |g| reps reach past
    # the prefix u c...c that the first `length` letters read
    it = ""
    for _ in range(length + len(g)):
        it = reduce_word(it + g)
    return it[:length]


# -- subgroup counts -------------------------------------------------------------


def hall_counts(k: int, n: int) -> list[int]:
    """Subgroups of F_k of index 1..n (M. Hall, 1949)."""
    a = []
    for m in range(1, n + 1):
        total = m * math.factorial(m) ** (k - 1)
        total -= sum(
            math.factorial(m - i) ** (k - 1) * a[i - 1] for i in range(1, m)
        )
        a.append(total)
    return a


def zn_counts(n: int, top: int) -> list[int]:
    """Subgroups of Z^n of index 1..top: the Dirichlet coefficients of
    zeta(s) zeta(s-1) ... zeta(s-n+1)."""
    a = [1] * (top + 1)
    for r in range(2, n + 1):
        a = [0] + [
            sum(d ** (r - 1) * a[m // d] for d in range(1, m + 1) if m % d == 0)
            for m in range(1, top + 1)
        ]
    return a[1:]


def lcm_upto(n: int) -> int:
    out = 1
    for m in range(2, n + 1):
        out = out * m // math.gcd(out, m)
    return out


# -- Z^n lattices and rational matrices -------------------------------------------


def lattice_contains(cols, v) -> bool:
    """Membership in the lattice spanned by the lower-triangular columns."""
    r = list(v)
    n = len(r)
    for i in range(n):
        d = cols[i][i]
        if r[i] % d:
            return False
        c = r[i] // d
        for j in range(i, n):
            r[j] -= c * cols[i][j]
    return not any(r)


def mat_mul(a, b):
    n = len(a)
    return tuple(
        tuple(sum(a[i][t] * b[t][j] for t in range(n)) for j in range(n))
        for i in range(n)
    )


def mat_vec(a, v):
    return tuple(sum(Fraction(a[i][j]) * v[j] for j in range(len(v))) for i in range(len(a)))


def identity_matrix(n: int):
    return tuple(tuple(Fraction(int(i == j)) for j in range(n)) for i in range(n))


def project_z(cols, g):
    """Nearest lattice point to g in the l1 metric, least tuple on ties
    (brute force over the l1 ball of the coset's reduced representative)."""
    n = len(g)
    r = list(g)
    for i in range(n):
        c = r[i] // cols[i][i]
        for j in range(i, n):
            r[j] -= c * cols[i][j]
    radius = sum(abs(x) for x in r)
    best = None
    for delta in product(range(-radius, radius + 1), repeat=n):
        d = sum(abs(x) for x in delta)
        if d > radius:
            continue
        h = tuple(a + b for a, b in zip(g, delta))
        if lattice_contains(cols, h) and (best is None or (d, h) < best):
            best = (d, h)
    return best[1]


# -- quasi-isometry certificate ----------------------------------------------------


def certificate_holds(elems, images, dist, L, C) -> bool:
    """(1/L) d - C <= d' <= L d + C on every pair of the sampled ball."""
    for i in range(len(elems)):
        for j in range(i + 1, len(elems)):
            d = dist(elems[i], elems[j])
            df = dist(images[i], images[j])
            if not (df <= L * d + C and Fraction(d) / L - C <= df):
                return False
    return True


def f_dist(a: str, b: str) -> int:
    return len(reduce_word(inverse(a) + b))


def z_dist(a, b) -> int:
    return sum(abs(x - y) for x, y in zip(a, b))

"""Finite-index subgroups of Z^n as integer lattices in Hermite normal form.

The canonical form is column-style and lower triangular: the stored basis
matrix has positive diagonal, zero entries above the diagonal, and each
off-diagonal entry reduced modulo the diagonal entry of its row.  Equal
subgroups therefore have identical stored matrices, and the index is the
product of the diagonal.

All arithmetic is over arbitrary-precision integers.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import product

from . import limits
from .errors import InfiniteIndexError, ParseError, PreconditionError
from .freewords import parse_int, parse_vector, text_lines


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(x, y, g) with x*a + y*b == g == gcd(a, b), g >= 0 when a or b != 0."""
    x, nx = 1, 0
    y, ny = 0, 1
    g, ng = a, b
    while ng:
        q = g // ng
        x, nx = nx, x - q * nx
        y, ny = ny, y - q * ny
        g, ng = ng, g - q * ng
    if g < 0:
        x, y, g = -x, -y, -g
    return x, y, g


def _hnf_columns(cols, n: int):
    """Reduce a list of integer columns to the canonical HNF basis.

    Raises InfiniteIndexError if the columns do not span a finite-index
    sublattice (rank < n over Q).
    """
    work = [list(c) for c in cols if any(c)]
    basis: list[list[int]] = []
    for i in range(n):
        cand = [c for c in work if c[i] != 0]
        rest = [c for c in work if c[i] == 0]
        if not cand:
            raise InfiniteIndexError(
                f"generators span a rank-deficient sublattice (no pivot in row {i})"
            )
        p = cand.pop()
        while cand:
            q = cand.pop()
            a, b = p[i], q[i]
            x, y, g = _xgcd(a, b)
            ag, bg = a // g, b // g
            p, q = (
                [x * p[j] + y * q[j] for j in range(n)],
                [ag * q[j] - bg * p[j] for j in range(n)],
            )
            if any(q):
                rest.append(q)
        if p[i] < 0:
            p = [-v for v in p]
        basis.append(p)
        work = rest
    # normalize off-diagonal entries: 0 <= basis[j][i] < basis[i][i] for j < i
    for i in range(n):
        d = basis[i][i]
        for j in range(i):
            q = basis[j][i] // d
            if q:
                basis[j] = [basis[j][r] - q * basis[i][r] for r in range(n)]
    return tuple(tuple(c) for c in basis)


class Lattice:
    """A finite-index subgroup of Z^n; `cols` is the canonical HNF basis,
    one generator per column."""

    __slots__ = ("n", "cols", "_hash")

    def __init__(self, n: int, cols, _canonical: bool = False):
        if not _canonical:
            cols = _hnf_columns(cols, n)
        self.n = n
        self.cols = cols
        self._hash = hash((n, cols))

    def __eq__(self, other):
        return isinstance(other, Lattice) and other.n == self.n and other.cols == self.cols

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Lattice({self.n}, {self.cols})"

    def sort_key(self):
        return (index(self), self.cols)


def whole_group(n: int) -> Lattice:
    cols = tuple(tuple(1 if i == j else 0 for i in range(n)) for j in range(n))
    return Lattice(n, cols, _canonical=True)


def from_generators(vectors, n: int | None = None) -> Lattice:
    vectors = [tuple(v) for v in vectors]
    if n is None:
        if not vectors:
            raise InfiniteIndexError("no generators given")
        n = len(vectors[0])
    for v in vectors:
        if len(v) != n:
            raise PreconditionError(f"dimension mismatch: expected {n}, got {len(v)}")
    return Lattice(n, vectors)


def index(lat: Lattice) -> int:
    out = 1
    for i in range(lat.n):
        out *= lat.cols[i][i]
    return out


def coordinates(lat: Lattice, v):
    """The coefficients of v on the basis of lat, by forward substitution
    on the triangular basis; None when v is not in lat."""
    if len(v) != lat.n:
        raise PreconditionError(f"dimension mismatch: {len(v)} vs {lat.n}")
    r = list(v)
    out = []
    for i in range(lat.n):
        c, rem = divmod(r[i], lat.cols[i][i])
        if rem:
            return None
        out.append(c)
        if c:
            for j in range(i, lat.n):
                r[j] -= c * lat.cols[i][j]
    return out


def contains(lat: Lattice, v) -> bool:
    """Exact membership: v has integral coordinates on the basis."""
    return coordinates(lat, v) is not None


def residue(lat: Lattice, v) -> tuple[int, ...]:
    """Canonical coset representative of v + lat (entrywise in [0, diag))."""
    r = list(v)
    for i in range(lat.n):
        d = lat.cols[i][i]
        c = r[i] // d  # floor division keeps the residue in [0, d)
        if c:
            for j in range(i, lat.n):
                r[j] -= c * lat.cols[i][j]
    return tuple(r)


def is_subgroup(inner: Lattice, outer: Lattice) -> bool:
    if inner.n != outer.n:
        raise PreconditionError("dimension mismatch")
    return all(contains(outer, c) for c in inner.cols)


def integer_kernel(cols, n: int):
    """Basis of the integer kernel of the n x m matrix with the given columns."""
    m = len(cols)
    work = [list(c) for c in cols]
    u = [[1 if r == j else 0 for r in range(m)] for j in range(m)]
    used = 0
    for i in range(n):
        idxs = [j for j in range(used, m) if work[j][i] != 0]
        if not idxs:
            continue
        j0 = idxs[0]
        for j in idxs[1:]:
            a, b = work[j0][i], work[j][i]
            x, y, g = _xgcd(a, b)
            ag, bg = a // g, b // g
            work[j0], work[j] = (
                [x * work[j0][r] + y * work[j][r] for r in range(n)],
                [ag * work[j][r] - bg * work[j0][r] for r in range(n)],
            )
            u[j0], u[j] = (
                [x * u[j0][r] + y * u[j][r] for r in range(m)],
                [ag * u[j][r] - bg * u[j0][r] for r in range(m)],
            )
        work[used], work[j0] = work[j0], work[used]
        u[used], u[j0] = u[j0], u[used]
        used += 1
    kernel = []
    for j in range(used, m):
        assert not any(work[j]), "echelon reduction left a nonzero trailing column"
        kernel.append(tuple(u[j]))
    return kernel


def preimage(domain: Lattice, images, target: Lattice) -> Lattice:
    """{D x : C x in target}, D the basis of `domain` and C the columns
    `images`: the x-parts of the integer kernel of [C | -T] mapped by D."""
    n = domain.n
    cols = list(images) + [tuple(-x for x in c) for c in target.cols]
    gens = []
    for kvec in integer_kernel(cols, n):
        gens.append(tuple(sum(kvec[t] * domain.cols[t][r] for t in range(n)) for r in range(n)))
    return Lattice(n, gens)


@lru_cache(maxsize=2048)
def intersect(l1: Lattice, l2: Lattice) -> Lattice:
    """Exact intersection: the preimage of l2 under the inclusion of l1."""
    if l1.n != l2.n:
        raise PreconditionError("dimension mismatch")
    return preimage(l1, l1.cols, l2)


def enumerate_lattices(n: int, max_index: int) -> list[Lattice]:
    """All subgroups of Z^n of index <= max_index, canonically sorted.

    Every HNF matrix with 0 < det <= max_index appears exactly once, so the
    enumeration is duplicate-free by construction.
    """
    if n < 1 or max_index < 1:
        raise PreconditionError("need n >= 1 and max_index >= 1")
    total = _count_hnf(n, max_index)
    limits.guard(total * n * n, f"enumerate_lattices(n={n}, N={max_index})")
    out: list[Lattice] = []

    def diagonals(i: int, prod: int, diag: list[int]):
        if i == n:
            _emit(diag)
            return
        d = 1
        while prod * d <= max_index:
            diag.append(d)
            diagonals(i + 1, prod * d, diag)
            diag.pop()
            d += 1

    def _emit(diag: list[int]):
        # off-diagonal slots: row i has i entries (columns 0..i-1), each mod diag[i]
        slots = [(i, j) for i in range(n) for j in range(i)]
        for vals in product(*(range(diag[i]) for i, _ in slots)):
            cols = [[0] * n for _ in range(n)]
            for i in range(n):
                cols[i][i] = diag[i]
            for (i, j), v in zip(slots, vals):
                cols[j][i] = v
            out.append(Lattice(n, tuple(tuple(c) for c in cols), _canonical=True))

    diagonals(0, 1, [])
    out.sort(key=Lattice.sort_key)
    return out


def _count_hnf(n: int, max_index: int) -> int:
    count = 0

    def rec(i, prod, weight):
        nonlocal count
        if i == n:
            count += weight
            return
        d = 1
        while prod * d <= max_index:
            rec(i + 1, prod * d, weight * d**i)
            d += 1

    rec(0, 1, 1)
    return count


def profinite_kernel(n: int, max_index: int) -> Lattice:
    """Intersection of all subgroups of index <= max_index: lcm(1..N) Z^n,
    as a lattice of index d contains d Z^n, and {v : d | v_i} has index d."""
    if n < 1 or max_index < 1:
        raise PreconditionError("need n >= 1 and max_index >= 1")
    return Lattice(n, [[lcm_range(max_index) * x for x in c] for c in whole_group(n).cols])


def lcm_range(n: int) -> int:
    return math.lcm(*range(1, n + 1))


# -- text format ---------------------------------------------------------------
#
#   Z <n>
#   <n lines of n integers>       (generator columns, written as rows)
#
# read through freewords.text_lines, so ';' and the colon form work too


def format_lattice(lat: Lattice) -> str:
    lines = [f"Z {lat.n}"]
    for c in lat.cols:
        lines.append(" ".join(str(x) for x in c))
    return "\n".join(lines)


def parse_lattice(text: str) -> Lattice:
    head, *rows = text_lines(text)
    parts = head.split()
    if len(parts) != 2 or parts[0] != "Z":
        raise ParseError(f"expected 'Z <n>' header, got {head!r}")
    n = parse_int(parts[1])
    if len(rows) != n:
        raise ParseError(f"expected {n} generator rows, got {len(rows)}")
    return Lattice(n, [parse_vector(row, n) for row in rows])

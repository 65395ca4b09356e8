"""Finite-index subgroups of Z^n as integer lattices in Hermite normal form.

The canonical form is column-style and lower triangular: the stored basis
matrix has positive diagonal, zero entries above the diagonal, and each
off-diagonal entry reduced modulo the diagonal entry of its row.  Equal
subgroups therefore have identical stored matrices, and the index is the
product of the diagonal.

One Hermite elimination (`_echelon`) gives the HNF, and on columns
stacked over a second block also `preimage`, `intersect` and the inverse
images of a Z^n commensuration (Cohen, *A Course in Computational
Algebraic Number Theory*, 1993, 2.4).  All arithmetic is over
arbitrary-precision integers.
"""

from __future__ import annotations

import math
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


def _echelon(cols, n: int):
    """Hermite elimination of the first n rows of integer columns of any
    length >= n: (basis, rest), where basis[i] has a positive pivot in row
    i, zeros above it, and reduces the row-i entries of the earlier basis
    columns into [0, pivot); rest spans the integer combinations of the
    columns whose first n entries are 0.  On n-row columns basis is the
    canonical HNF.  Raises InfiniteIndexError if some row has no pivot.
    """
    work = [list(c) for c in cols if any(c)]
    basis: list[list[int]] = []
    for i in range(n):
        cand = [c for c in work if c[i] != 0]
        work = [c for c in work if c[i] == 0]
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
                [x * s + y * t for s, t in zip(p, q)],
                [ag * t - bg * s for s, t in zip(p, q)],
            )
            if any(q):
                work.append(q)
        if p[i] < 0:
            p = [-v for v in p]
        for j, col in enumerate(basis):
            q = col[i] // p[i]
            if q:
                basis[j] = [s - q * t for s, t in zip(col, p)]
        basis.append(p)
    return basis, work


class Lattice:
    """A finite-index subgroup of Z^n; `cols` is the canonical HNF basis,
    one generator per column."""

    __slots__ = ("n", "cols", "_hash")

    def __init__(self, n: int, cols, _canonical: bool = False):
        if not _canonical:
            cols = tuple(map(tuple, _echelon(cols, n)[0]))
        self.n = n
        self.cols = cols
        self._hash = hash((n, cols))

    def __eq__(self, other):
        return isinstance(other, Lattice) and other.n == self.n and other.cols == self.cols

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Lattice({self.n}, {self.cols})"


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


def centered_residue(lat: Lattice, v) -> tuple[int, ...]:
    """A coset representative of v + lat reduced row by row by the nearest
    multiple of each pivot, ties upward: entry i lies in [-d_i/2, d_i/2)."""
    r = list(v)
    for i in range(lat.n):
        d = lat.cols[i][i]
        c = (2 * r[i] + d) // (2 * d)
        if c:
            for j in range(i, lat.n):
                r[j] -= c * lat.cols[i][j]
    return tuple(r)


def nearest(lat: Lattice, g, radius: int):
    """(member, nodes): the member of lat nearest to g in the l1 metric,
    least vector on ties, found by a depth-first search down the basis
    triangle (Fincke-Pohst, Math. Comp. 1985) given that some member lies
    within `radius` of g; nodes counts the row entries tried.

    Row i of sum c_j cols[j] depends only on c_0..c_i, so row by row the
    search tries the entries of the member's coset in that row, nearest to
    g_i first (Schnorr-Euchner, Math. Programming 1994), and drops a
    branch once its partial distance passes the least distance found.  In
    the last row only the nearest entry, the lower on a tie, can win."""
    n, cols = lat.n, lat.cols
    best = None
    nodes = 0
    x = [0] * n

    def descend(i, acc, partial):
        nonlocal best, radius, nodes
        d, gi = cols[i][i], g[i]
        lo = gi - (gi - acc[i]) % d  # the entry at or just below g_i
        hi = lo + d
        if i == n - 1:
            x[i], step = (lo, gi - lo) if gi - lo <= hi - gi else (hi, hi - gi)
            if partial + step <= radius:
                nodes += 1
                found = (partial + step, tuple(x))
                if best is None or found < best:
                    best = found
                    radius = found[0]
            return
        col = cols[i]
        while True:
            if gi - lo <= hi - gi:
                xi, step = lo, gi - lo
                lo -= d
            else:
                xi, step = hi, hi - gi
                hi += d
            if partial + step > radius:
                return
            nodes += 1
            x[i] = xi
            c = (xi - acc[i]) // d
            descend(i + 1, [a + c * b for a, b in zip(acc, col)], partial + step)

    descend(0, [0] * n, 0)
    assert best is not None, "no member within the given radius"
    return best[1], nodes


def is_subgroup(inner: Lattice, outer: Lattice) -> bool:
    if inner.n != outer.n:
        raise PreconditionError("dimension mismatch")
    return all(contains(outer, c) for c in inner.cols)


def preimage(domain: Lattice, images, target: Lattice) -> Lattice:
    """{D x : C x in target}, D the basis of `domain` and C the columns
    `images`: eliminating the first n rows of the columns (c_i; d_i) and
    (-t_j; 0) leaves the combinations with C x in target, as (0; D x)."""
    n = domain.n
    cols = [(*c, *d) for c, d in zip(images, domain.cols)]
    cols += [tuple(-x for x in t) + (0,) * n for t in target.cols]
    return Lattice(n, [c[n:] for c in _echelon(cols, n)[1]])


def intersect(l1: Lattice, l2: Lattice) -> Lattice:
    """Exact intersection: the preimage of l2 under the inclusion of l1."""
    if l1.n != l2.n:
        raise PreconditionError("dimension mismatch")
    return preimage(l1, l1.cols, l2)


def enumerate_lattices(n: int, max_index: int) -> list[Lattice]:
    """All subgroups of Z^n of index <= max_index, sorted by (index, cols).

    Every HNF matrix with 0 < det <= max_index appears exactly once, so the
    enumeration is duplicate-free by construction.
    """
    if n < 1 or max_index < 1:
        raise PreconditionError("need n >= 1 and max_index >= 1")
    total = sum(math.prod(d**i for i, d in enumerate(diag)) for diag in _diagonals(n, max_index))
    limits.guard(total * n * n, f"enumerate_lattices(n={n}, N={max_index})")
    # one bucket per index, the product of the diagonal: sorted by the
    # columns within each, the buckets in turn list by (index, cols)
    buckets: list[list] = [[] for _ in range(max_index + 1)]
    for diag in _diagonals(n, max_index):
        # column j: zeros above the pivot diag[j], each entry below it mod its row's pivot
        columns = [
            [(0,) * j + (d, *below) for below in product(*map(range, diag[j + 1 :]))]
            for j, d in enumerate(diag)
        ]
        buckets[math.prod(diag)].extend(product(*columns))
    return [Lattice(n, cols, _canonical=True) for bucket in buckets for cols in sorted(bucket)]


def _diagonals(n: int, max_index: int):
    """The n-tuples of positive integers with product <= max_index."""
    if n == 0:
        yield ()
        return
    for d in range(1, max_index + 1):
        for rest in _diagonals(n - 1, max_index // d):
            yield (d, *rest)


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
    if n < 1:
        raise ParseError(f"lattice dimension must be at least 1, got {n}")
    if len(rows) != n:
        raise ParseError(f"expected {n} generator rows, got {len(rows)}")
    return Lattice(n, [parse_vector(row, n) for row in rows])

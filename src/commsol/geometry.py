"""Coarse-geometric layer: commensurations as baseleaf quasi-isometries,
bounded-distance comparisons, the factorization through the covering
lifts, and the action on attracting fixed points of the F_k boundary.

Word metric: word length for F_k, the l1 norm for Z^n (the word metric of
the standard generators).  All quasi-isometry constants are exact
rationals certified by exhaustive pair checks on the sampled ball.
"""

from __future__ import annotations

from array import array
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, chain

from . import commensurations as comm_mod
from . import groups, limits, solenoid, stallings
from .errors import PreconditionError
from .freewords import Word, cyclic_decompose, primitive_root


@lru_cache(maxsize=64)
def ball_distances(grp, radius: int):
    """The distance_rows of grp.ball(radius), one row after another: the
    ball side of qi_estimate's pairs, aligned with the rows of the images'
    distances.  Distances on the ball are at most 2R: while that fits in a
    byte, one byte a pair, read-only since the cache hands the same buffer
    to every caller, which distinct_pairs interleaves as it is; past that
    (only rank 1 under the default cap on pairs) a tuple, whose pairs
    distinct_pairs collects as tuples."""
    rows = grp.distance_rows(grp.ball(radius))
    if 2 * radius > 255:
        return tuple(chain.from_iterable(rows))
    flat = bytearray()
    for row in rows:
        flat += bytes(row)
    return memoryview(flat).toreadonly()


# -- the baseleaf map ------------------------------------------------------------------


class BaseleafMap:
    """The quasi-isometry of G induced by a commensuration: closest-point
    projection to the domain followed by the isomorphism.

    Its one evaluation is a walk over a ball, `raw_on_ball`, the group's
    baseleaf_images; it yields raw images, which the group's metric
    kernels read as they are (groups.Fk.raw_dist, raw_distance_rows):
    letter strings on F_k, vectors on Z^n."""

    __slots__ = ("comm",)

    def __init__(self, comm):
        self.comm = comm

    def raw_on_ball(self, radius):
        """The raw images of the group's ball(radius), in that order, as an
        iterator."""
        comm = self.comm
        return comm.group.baseleaf_images(comm.domain, comm.images, radius)

    def __repr__(self):
        return f"BaseleafMap({self.comm!r})"


def baseleaf_map(comm) -> BaseleafMap:
    return BaseleafMap(comm)


# -- quasi-isometry estimates --------------------------------------------------------


class QIEstimate:
    """Certified constants on the R-ball:
    (1/L) d(x,y) - C <= d(fx, fy) <= L d(x,y) + C."""

    __slots__ = ("radius", "L", "C", "upper", "lower", "pairs")

    def __init__(self, radius, L, C, upper, lower, pairs):
        self.radius = radius
        self.L = L
        self.C = C
        self.upper = upper
        self.lower = lower
        self.pairs = pairs

    def render(self) -> str:
        return (
            f"R={self.radius} L={self.L} ({float(self.L):.4f}) "
            f"C={self.C} ({float(self.C):.4f}) "
            f"upper={self.upper} lower={self.lower} pairs={self.pairs}"
        )


def qi_estimate(m: BaseleafMap, radius: int) -> QIEstimate:
    """Tight empirical constants over all pairs in the R-ball, certified
    by rechecking every pair against the produced (L, C).

    A pair's bounds and its inequality depend only on (d(x,y), d(fx,fy)),
    so the constants and the certificate are worked out once per distinct
    distance pair (certified_constants), and those are collected from the
    ball's distances and the raw images' ones (distinct_pairs).  The
    distances on the ball side are shared by every map (ball_distances).
    The number of pairs is guarded before any element is listed."""
    grp = m.comm.group
    size = grp.ball_size(radius)
    limits.guard(size * (size - 1) // 2, f"qi_estimate({grp.tag}_{grp.rank}, R={radius}) pairs")
    images = list(m.raw_on_ball(radius))
    dists = list(chain.from_iterable(grp.raw_distance_rows(images)))
    keys = distinct_pairs(ball_distances(grp, radius), dists)
    return QIEstimate(radius, *certified_constants(keys), len(dists))


def distinct_pairs(ds, fs):
    """The distinct pairs (ds[i], fs[i]) of two aligned sequences of
    distances.  While every distance fits in a byte the two are
    interleaved in a bytearray and read back two bytes at a time as one
    integer, which a set collects at C speed; the distinct integers are
    split again through the same memory, so byte order cannot matter.  A
    distance past a byte, which bytes() refuses, leaves the pairs to a
    set of tuples."""
    try:
        ball, image = bytes(ds), bytes(fs)
    except ValueError:  # a distance of 256 or more
        return set(zip(ds, fs))
    both = bytearray(2 * len(image))
    both[0::2], both[1::2] = ball, image
    keys = array("H", set(memoryview(both).cast("H"))).tobytes()
    return list(zip(keys[0::2], keys[1::2]))


def certified_constants(keys):
    """(L, C, upper, lower) for the distinct distance pairs (d, df) of
    a ball's pairs, d >= 1, given as a collection that can be read twice:
    upper and lower are the largest df/d and d/df (at least 1), L the
    larger, and C = collapse/L for collapse the largest d with df = 0;
    each key is then checked against L and C.  How often a key occurs
    changes none of these.  The maxima are kept as integer pairs,
    compared by cross-multiplying, and the check runs over the common
    denominator, so the Fractions are built once, at the end."""
    up_n = up_d = low_n = low_d = 1
    collapse = 0
    for d, df in keys:
        if not df:
            collapse = max(collapse, d)
            continue
        if df * up_d > up_n * d:
            up_n, up_d = df, d
        if d * low_d > low_n * df:
            low_n, low_d = d, df
    p, q = (up_n, up_d) if up_n * low_d >= low_n * up_d else (low_n, low_d)
    # with L = p/q and C = collapse q/p: df <= L d + C and d/L - C <= df,
    # multiplied by pq and by p
    pq, pp, cqq = p * q, p * p, collapse * q * q
    for d, df in keys:
        assert df * pq <= pp * d + cqq and q * (d - collapse) <= df * p, "certificate failed"
    return Fraction(p, q), Fraction(collapse * q, p), Fraction(up_n, up_d), Fraction(low_n, low_d)


# -- bounded distance ------------------------------------------------------------------


class BoundedDistanceReport:
    """Max displacement between two baseleaf maps per ball radius; a bound
    plus stabilization radius when the maps are equivalent, a growth trend
    otherwise."""

    __slots__ = ("equivalent", "maxima", "bound", "stabilized_at")

    def __init__(self, equivalent, maxima):
        self.equivalent = equivalent
        self.maxima = maxima  # running max per radius 0..R
        if equivalent:
            self.bound = maxima[-1]
            self.stabilized_at = next(
                r for r, v in enumerate(maxima) if v == maxima[-1]
            )
        else:
            self.bound = None
            self.stabilized_at = None

    def render(self) -> str:
        trail = " ".join(str(v) for v in self.maxima)
        if self.equivalent:
            return (
                f"equivalent: bound {self.bound}, stabilized at R={self.stabilized_at} "
                f"(running maxima: {trail})"
            )
        return f"inequivalent: growth report (running maxima: {trail})"


def bounded_distance(m1: BaseleafMap, m2: BaseleafMap, radius: int) -> BoundedDistanceReport:
    grp = m1.comm.group
    if m2.comm.group != grp:
        raise PreconditionError("maps live on different groups")
    size = grp.ball_size(radius)
    # per element: two projections, each costing at most the work of a
    # search within its domain's projection bound (the nodes of the Z^n
    # search; on F_k one table row of the walk), and two evaluations of
    # length about R
    probes = sum(
        grp.projection_work(m.comm.domain, grp.projection_bound(m.comm.domain)) for m in (m1, m2)
    )
    limits.guard(
        size * radius * probes,
        f"bounded_distance({grp.tag}_{grp.rank}, R={radius})",
    )
    eq = comm_mod.equivalent(m1.comm, m2.comm)
    # the ball is sorted by distance: its first ball_size(r) elements are the r-ball
    running = list(
        accumulate(map(grp.raw_dist, m1.raw_on_ball(radius), m2.raw_on_ball(radius)), max)
    )
    return BoundedDistanceReport(eq, [running[grp.ball_size(r) - 1] for r in range(radius + 1)])


# -- factorization through the covering lifts -------------------------------------------


class FactorizationReport:
    __slots__ = ("checked", "mismatches")

    def __init__(self, checked, mismatches):
        self.checked = checked
        self.mismatches = mismatches

    @property
    def passed(self) -> bool:
        return self.checked > 0 and not self.mismatches

    def render(self) -> str:
        if self.passed:
            return f"factorization: exact agreement on {self.checked} points"
        return f"factorization: {len(self.mismatches)} mismatches of {self.checked}"


def factorization_check(comm, depth: int, radius: int) -> FactorizationReport:
    """Compare the covering-lift route with the baseleaf-map route on all
    domain elements in the R-ball: the lift applied to the path of h must
    spell exactly phi(h).  A word alone fixes its depth-N baseleaf point,
    so equal words give equal points at every depth N >= 1."""
    if depth < 1:
        # what solenoid.kernel raises for such a depth
        raise PreconditionError("need k >= 1 and max_index >= 1")
    phi = comm.group.on_rose(comm)
    # per ball element: one edge on each of two walks, each joining an
    # image of length about R
    limits.guard(
        phi.group.ball_size(radius) * radius,
        f"factorization_check(F_{phi.rank}, R={radius})",
    )
    lift = solenoid.lift_through_covers(phi)
    checked = 0
    mismatches = []
    # letter strings on both sides: Words only for a mismatch
    walks = zip(baseleaf_map(phi).raw_on_ball(radius), lift.raw_on_ball(radius))
    for i, (via_map, via_lift) in enumerate(walks):
        if via_lift is None:
            continue
        checked += 1
        if via_map != via_lift:
            g = phi.group.ball(radius)[i]
            mismatches.append(
                (g, Word(phi.rank, via_map, _reduced=True), Word(phi.rank, via_lift, _reduced=True))
            )
    return FactorizationReport(checked, mismatches)


# -- boundary points and the commensurator action ----------------------------------------


class BoundaryPoint:
    """Eventually periodic boundary point u c c c...; canonical means u is
    the shortest conjugating prefix and c is primitive.  Carries its
    defining group element as provenance for the action."""

    __slots__ = ("prefix", "period", "element")

    def __init__(self, prefix: Word, period: Word, element: Word):
        self.prefix = prefix
        self.period = period
        self.element = element

    def __eq__(self, other):
        return (
            isinstance(other, BoundaryPoint)
            and (other.prefix, other.period) == (self.prefix, self.period)
        )

    def __hash__(self):
        return hash((self.prefix, self.period))

    def __repr__(self):
        return f"BoundaryPoint(u={self.prefix}, c={self.period})"

    def render(self) -> str:
        return f"u={self.prefix} c={self.period}"

    def expansion(self, length: int) -> str:
        reps = self.period.letters * (
            (length - len(self.prefix.letters)) // len(self.period.letters) + 2
        )
        return (self.prefix.letters + reps)[:length]


def fixed_point(g: Word, sign: str = "+") -> BoundaryPoint:
    """The attracting (+) or repelling (-) fixed point of g: with
    g = u c u^-1 cyclically reduced, g+ = u c c c... (c primitivized)."""
    if not g:
        raise PreconditionError("the identity is elliptic: no boundary fixed points")
    if sign not in "+-":
        raise PreconditionError("sign must be '+' or '-'")
    base = g if sign == "+" else ~g
    u, c = cyclic_decompose(base)
    root, _ = primitive_root(c)
    return BoundaryPoint(u, root, base)


def boundary_action(comm, point: BoundaryPoint) -> BoundaryPoint:
    """Image of an attracting fixed point: (phi(g^m))+ for the minimal
    m >= 1 with g^m in the domain (the length of the coset orbit of g, at
    most the domain's index); independent of which valid m is used."""
    comm.group.on_rose()
    g = point.element
    if groups.of_element(g) != comm.group:
        raise PreconditionError("the boundary point is of another group than the map's")
    img = comm_mod.evaluate(comm, g ** stallings.return_power(comm.domain, g))
    return fixed_point(img, "+")

"""Truncated solenoid over the rose (F_k) and the circle/torus (Z^n).

A depth-N point stores its group, a fiber element and a universal-cover
leaf coordinate, as the canonical orbit representative (leaf moved as
close as possible to the base point, ties broken by word order).  Its
profinite coordinate, the compatible family of the fiber's cosets in
every subgroup of index <= N (the group's low-index listing, enumerate,
whose members are the objects of the depth-N system), is derived when
read: equality reads the fiber through the group's separating_index
instead, and hashing reads the family at depth min(N, 3).

Metrics follow the quotient construction: d_pro on fibers (exponential in
the deepest level where two elements agree, a pseudometric at finite
depth), the sup product metric d_inf, and sigma = the orbit infimum of
d_inf, computed exactly by a pruned finite search.  The kernel K_N = ∩
{subgroups of index <= N} is built only to list the sheets of the cover.

All metric scalars are MetricValue instances carrying their exact form
(exp(-n), an exact rational, or a float approximation) plus a depth note
where the value is only a pseudometric.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from . import groups, stallings
from .errors import PreconditionError
from .freewords import _join
from .groups import EdgePoint  # noqa: F401  (leaf points are part of this API)

# -- metric scalars -----------------------------------------------------------


class MetricValue:
    """Exact-first metric scalar: exp(-n), an exact Fraction, or a float."""

    __slots__ = ("exp_n", "exact", "approx", "note")

    def __init__(self, exp_n=None, exact=None, approx=None, note=None):
        self.exp_n = exp_n
        self.exact = exact
        self.approx = approx
        self.note = note

    @classmethod
    def zero(cls, note=None):
        return cls(exact=Fraction(0), note=note)

    @classmethod
    def exp(cls, n: int):
        return cls(exp_n=n)

    @classmethod
    def of_fraction(cls, q: Fraction):
        return cls(exact=Fraction(q))

    def __float__(self):
        if self.exp_n is not None:
            return math.exp(-self.exp_n)
        if self.exact is not None:
            return float(self.exact)
        return self.approx

    @property
    def is_zero(self) -> bool:
        return self.exact == 0

    def __eq__(self, other):
        if not isinstance(other, MetricValue):
            return NotImplemented
        if self.exp_n is not None or other.exp_n is not None:
            return self.exp_n == other.exp_n
        if self.exact is not None and other.exact is not None:
            return self.exact == other.exact
        return float(self) == float(other)

    def __le__(self, other):
        return float(self) <= float(other) + 1e-12

    def __lt__(self, other):
        return float(self) < float(other) - 1e-12

    def __hash__(self):
        # __eq__ compares exp_n when either side has one, else the values
        return hash(self.exp_n if self.exp_n is not None else float(self))

    def __repr__(self):
        return f"MetricValue({self.render()})"

    def render(self) -> str:
        note = f"  [{self.note}]" if self.note else ""
        if self.exp_n is not None:
            return f"exp(-{self.exp_n}) = {math.exp(-self.exp_n):.10f}{note}"
        if self.exact is not None:
            if self.exact == 0:
                return f"0{note}"
            return f"{self.exact} = {float(self.exact):.10f}{note}"
        return f"{self.approx:.10f}{note}"


def metric_max(a: MetricValue, b: MetricValue) -> MetricValue:
    if a.is_zero:
        return b
    if b.is_zero:
        return a
    return a if float(a) >= float(b) else b


@lru_cache(maxsize=64)
def kernel(tag: str, rank: int, depth: int):
    """K_depth: the intersection of all subgroups of index <= depth."""
    return groups.group(tag, rank).subgroups.profinite_kernel(rank, depth)


def d_pro(tag: str, rank: int, g, h, depth: int) -> MetricValue:
    """exp(-max{n <= depth : g h^-1 in K_n}); zero (flagged as a depth-N
    pseudometric) when the difference lies in K_depth.  The least index of
    a subgroup missing g h^-1 (the group's separating_index) is n + 1."""
    grp = groups.group(tag, rank)
    n = grp.separating_index(grp.mul(g, grp.inv(h)), depth)
    if n is None:
        return MetricValue.zero(note=f"pseudometric at depth {depth}")
    return MetricValue.exp(n - 1)


# -- leaf coordinates -----------------------------------------------------------


def leaf_distance(a, b) -> MetricValue:
    """Distance in the universal cover: tree metric with unit edges, or the
    Euclidean metric on R^n (exact in dimension 1)."""
    d = groups.of_element(a).leaf_distance(a, b)
    return MetricValue.of_fraction(d) if isinstance(d, Fraction) else MetricValue(approx=d)


# -- solenoid points --------------------------------------------------------------


class SolenoidPoint:
    """Depth-N point in canonical form: the leaf coordinate is moved to
    the fundamental neighborhood of the base (exactly the base for vertex
    leaves) and the fiber absorbs the translation.  Points are equal when
    their coset families (the profinite coordinate) and leaves are: the
    families agree exactly when the fibers differ by an element of K_N,
    the intersection of all the objects, which is when no subgroup of
    index <= N separates them (the group's separating_index)."""

    __slots__ = ("group", "depth", "fiber", "leaf")

    def __init__(self, tag, rank, depth, fiber, leaf):
        if depth < 1:
            raise PreconditionError("depth must be >= 1")
        grp = groups.group(tag, rank)
        deck, leaf = grp.split_leaf(leaf)
        self.group = grp
        self.depth = depth
        self.fiber = grp.mul(fiber, deck)
        self.leaf = leaf

    tag = property(lambda self: self.group.tag)
    rank = property(lambda self: self.group.rank)

    def family(self, depth=None):
        """Coset of every subgroup of index <= N in the group's listing
        (compatible under all bonds by construction), derived when read;
        with `depth`, of every subgroup of index <= `depth` instead."""
        grp = self.group
        return tuple(grp.coset(obj, self.fiber) for obj in grp.enumerate(depth or self.depth))

    def __eq__(self, other):
        grp = self.group
        return (
            isinstance(other, SolenoidPoint)
            and (other.group, other.depth, other.leaf) == (grp, self.depth, self.leaf)
            and grp.separating_index(grp.mul(self.fiber, grp.inv(other.fiber)), self.depth) is None
        )

    def __hash__(self):
        # the family, not only (group, depth, leaf): every baseleaf point of
        # a depth has the base as its leaf.  Truncated to depth 3, which
        # K_N lies inside, so equal points still hash equal and a deep
        # point hashes without building its own system.
        return hash((self.group, self.depth, self.leaf, self.family(min(self.depth, 3))))

    def __repr__(self):
        return f"SolenoidPoint(N={self.depth}, fiber={self.fiber}, leaf={self.leaf})"


def baseleaf(g, depth: int) -> SolenoidPoint:
    """Image of the universal-cover point reached by g under the canonical
    baseleaf map, at truncation depth N."""
    grp = groups.of_element(g)
    return SolenoidPoint(grp.tag, grp.rank, depth, grp.identity, g)


def baseleaf_path(g, depth: int):
    """The trace of baseleaf points along the edge path spelling g."""
    return [baseleaf(p, depth) for p in groups.of_element(g).path(g)]


def d_inf(p1: SolenoidPoint, p2: SolenoidPoint) -> MetricValue:
    """Sup product metric on representatives (not the quotient metric)."""
    _check_same_model(p1, p2)
    fiber = d_pro(p1.tag, p1.rank, p1.fiber, p2.fiber, p1.depth)
    return metric_max(fiber, leaf_distance(p1.leaf, p2.leaf))


def _check_same_model(p1, p2):
    if (p1.group, p1.depth) != (p2.group, p2.depth):
        raise PreconditionError("points live in different truncated models")


def sigma(p1: SolenoidPoint, p2: SolenoidPoint) -> MetricValue:
    """Quotient (solenoid) metric: min over group translates g of
    d_inf(p1, g . p2).  With r1, r2 the leaf reaches of the points (exact
    upper bounds on their distance from the base point), the triangle
    inequality puts g . p2's leaf at least |g| - r1 - r2 from p1's, so
    only translates with |g| <= best + r1 + r2, best the identity
    candidate, can do better, and the search over them
    (`sigma_translates`) is finite and exact."""
    _check_same_model(p1, p2)
    grp = p1.group

    def value(g):
        fiber2 = grp.mul(p2.fiber, grp.inv(g))
        fiber = d_pro(p1.tag, p1.rank, p1.fiber, fiber2, p1.depth)
        return metric_max(fiber, leaf_distance(p1.leaf, grp.translate(g, p2.leaf)))

    best = value(grp.identity)
    slack = grp.leaf_reach(p1.leaf) + grp.leaf_reach(p2.leaf)
    for g in grp.sigma_translates(float(best) + float(slack)):
        cand = value(g)
        if float(cand) < float(best):
            best = cand
    return best


# -- injectivity radius and ball structure ------------------------------------------


# of the unit rose (half the shortest essential loop) and of the unit flat torus
INJECTIVITY_RADIUS = Fraction(1, 2)


class BallReport:
    __slots__ = ("depth", "epsilon", "degenerate", "components", "certificate")

    def __init__(self, depth, epsilon, degenerate, components, certificate):
        self.depth = depth
        self.epsilon = epsilon
        self.degenerate = degenerate
        self.components = components
        self.certificate = certificate

    @property
    def count(self):
        return len(self.components)

    def render(self) -> str:
        lines = [
            f"ball depth={self.depth} eps={self.epsilon} components={self.count}"
            + ("  [depth-1 degenerate: d_pro identically 0]" if self.degenerate else "")
        ]
        for rep, dist in self.components:
            lines.append(f"  component at fiber {rep}: d_pro {dist.render()}")
        lines.append(f"  {self.certificate}")
        return "\n".join(lines)


def fiber_representatives(tag, rank, depth):
    """Canonical representatives of all K_depth cosets."""
    return groups.group(tag, rank).coset_reps(kernel(tag, rank, depth))


def sheet_count(tag, rank, depth) -> int:
    return groups.group(tag, rank).index(kernel(tag, rank, depth))


def distinct_fiber_count(tag, rank, depth) -> int:
    """Number of distinct coset families over the depth-N system; equals
    the sheet count exactly because K_N is the intersection of all
    objects."""
    return len(
        {baseleaf(rep, depth).family() for rep in fiber_representatives(tag, rank, depth)}
    )


def _least_depth_below(epsilon, depth: int) -> int:
    """The least n in 1..depth-1 with exp(-n) < epsilon, else depth."""
    return next(
        (n for n in range(1, depth) if float(MetricValue.exp(n)) < float(epsilon)), depth
    )


def ball_structure(p: SolenoidPoint, epsilon) -> BallReport:
    """Path components of the sigma-ball of radius epsilon: one per
    profinite coordinate within epsilon, each isometric to the leaf ball
    (the product decomposition, valid for epsilon < injrad/4).  Only the
    sheets in p's coset of K_n, n = _least_depth_below(epsilon, depth),
    can lie within epsilon, and only they are measured.  epsilon is
    checked before any kernel is built."""
    epsilon = Fraction(epsilon)
    if epsilon <= 0:
        raise PreconditionError(f"epsilon {epsilon} must be > 0")
    depth = p.depth
    injrad = INJECTIVITY_RADIUS
    # [G : K_N] = 1 exactly when N = 1: Z^n and F_k have index-2 subgroups
    degenerate = depth == 1
    if epsilon >= injrad / 4 and not degenerate:
        raise PreconditionError(
            f"epsilon {epsilon} violates the bound 4*eps < injectivity radius {injrad}"
        )
    # d_pro is exp(-n) or 0, so a sheet within epsilon lies in p's coset of
    # K_n for the least such n < depth (or n = depth); K_n is normal.  The
    # sheets' K_depth is built first, so its guard is the one that refuses
    sheets = kernel(p.tag, p.rank, depth)
    home = kernel(p.tag, p.rank, _least_depth_below(epsilon, depth))
    comps = []
    for rep in p.group.coset_reps_within(sheets, home, p.fiber):
        dist = d_pro(p.tag, p.rank, p.fiber, rep, depth)
        if float(dist) < float(epsilon):
            comps.append((rep, dist))
    if degenerate:
        cert = (
            "depth-1 pseudometric is identically 0: single component, "
            "leaf-ball isometry not certified at this epsilon"
            if epsilon >= injrad / 4
            else "degenerate depth: single profinite class"
        )
    else:
        cert = (
            f"each component isometric to the leaf ball: nontrivial deck "
            f"translations displace leaf points by >= 2*injrad = 1 > 4*eps = {4 * epsilon}"
        )
    return BallReport(depth, epsilon, degenerate, comps, cert)


# -- covers and lifts ---------------------------------------------------------------


class GraphMap:
    """Cellular based map between covers: vertices to vertices, each edge
    to an edge path (possibly constant) in the target, read from a label
    table: labels[ch][v] is the letters of the image of the ch-edge out of
    v, in the shape of every F_k map's table (stallings.label_table).

    Its walk over a ball, `raw_on_ball`, yields the images of the loops
    as letter strings, which factorization_check compares as they are."""

    __slots__ = ("src", "dst", "vertex_map", "labels")

    def __init__(self, src, dst, vertex_map, labels):
        self.src = src
        self.dst = dst
        self.vertex_map = tuple(vertex_map)
        self.labels = labels

    def raw_on_ball(self, radius):
        """For each g of the ball of `radius` in src's group, in ball order:
        the letters of the image of g's based path (the reduced word the
        image path reads, through the labels) if the path is a loop, else
        None.  Each path is its parent's plus one edge (groups.Fk.walk),
        read from a table of the edges' images (stallings.edge_images)."""
        edges = stallings.edge_images(self.src, self.labels)

        def step(state, x):
            v, img = state
            t, e = edges[x][v]
            return t, _join(img, e)

        walk = groups.of_subgroup(self.src).walk(radius, (0, ""), step)
        return (img if v == 0 else None for v, img in walk)

    def __repr__(self):
        return f"GraphMap({self.src.m} -> {self.dst.m} sheets)"


def lift_through_covers(phi, target=None) -> GraphMap:
    """The based lift X_H -> X_K of the base map induced by phi, where
    H = phi's domain and K (default: phi's codomain) contains phi(H); a
    map of Z^1 is lifted as the equivalent map of F_1, and K must be a
    subgroup of phi's group (groups.Fk.on_rose).

    When phi extends to an endomorphism of F_k (groups.Fk.ambient, derived
    from phi's value alone, so equal maps lift equally) the base map is the
    rose self-map sending each petal to its letter's image; otherwise the
    spanning tree of X_H collapses to the base vertex and each remaining
    edge maps to the loop of its basis image, the map's own edge labels
    (groups.Fk.edge_labels).  Either way a basepoint-preserving lift is
    fixed by path lifting from the base (Stallings 1983), so the vertex
    map is derived once, in label order: each vertex was met from a lower
    label along an out-edge or an in-edge (stallings.orbit_graph), and
    each edge's image is lifted from where its tail lifted.  An edge whose
    image ends elsewhere than its head lifted is refused.
    """
    phi = phi.group.on_rose(phi)
    if target is not None and groups.of_subgroup(target) != phi.group:
        raise PreconditionError("the lift target is a subgroup of another group than phi's")
    h = phi.domain
    k_graph = target if target is not None else phi.codomain
    for b, img in zip(stallings.basis(h), phi.images):
        if not stallings.contains(k_graph, img):
            raise PreconditionError(
                f"phi does not map the subgroup into the target: basis word {b} "
                f"maps to {img}, which is not in the target subgroup"
            )
    letters = phi.group.ambient(h, phi.images)
    if letters is not None:
        labels = stallings.label_table(h, [[w.letters] * h.m for w in letters])
    else:
        labels = phi.group.edge_labels(h, phi.images)
    edges = stallings.edge_images(h, labels).values()
    vmap = [0] + [None] * (h.m - 1)
    for v in range(h.m):
        for row in edges:
            t, img = row[v]
            end = stallings.trace(k_graph, img, vmap[v])
            if end is None or vmap[t] not in (None, end):
                raise PreconditionError("edge image does not lift consistently")
            vmap[t] = end
    return GraphMap(h, k_graph, vmap, labels)

"""Truncated solenoid over the rose (F_k) and the circle/torus (Z^n).

The depth-N model is the finite cover attached to the kernel
K_N = ∩ {subgroups of index <= N}: a point carries a profinite coordinate
(a K_N-coset, equivalently a compatible family of cosets over the whole
depth-N system) and a universal-cover leaf coordinate, stored as the
canonical orbit representative (leaf moved as close as possible to the
base point, ties broken by word order).

Metrics follow the quotient construction: d_pro on fibers (exponential in
the deepest level where two elements agree, a pseudometric at finite
depth), the sup product metric d_inf, and sigma = the orbit infimum of
d_inf, computed exactly by a pruned finite search.

All metric scalars are MetricValue instances carrying their exact form
(exp(-n), an exact rational, or a float approximation) plus a depth note
where the value is only a pseudometric.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from . import commensurations as comm_mod
from . import groups, prosystems, stallings
from .errors import PreconditionError
from .freewords import Word, _join, identity as word_identity
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
        return hash((self.exp_n, self.exact))

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
    return groups.group(tag, rank).kernel(depth)


def d_pro(tag: str, rank: int, g, h, depth: int) -> MetricValue:
    """exp(-max{n <= depth : g h^-1 in K_n}); zero (flagged as a depth-N
    pseudometric) when the difference lies in K_depth."""
    grp = groups.group(tag, rank)
    diff = grp.mul(g, grp.inv(h))
    if grp.contains(kernel(tag, rank, depth), diff):
        return MetricValue.zero(note=f"pseudometric at depth {depth}")
    for n in range(depth - 1, 0, -1):
        if grp.contains(kernel(tag, rank, n), diff):
            return MetricValue.exp(n)
    raise AssertionError("unreachable: K_1 is the whole group")


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
    leaves) and the K_N-coset absorbs the translation."""

    __slots__ = ("tag", "rank", "depth", "fiber", "leaf", "group")

    def __init__(self, tag, rank, depth, fiber, leaf):
        grp = groups.group(tag, rank)
        deck, leaf = grp.split_leaf(leaf)
        self.tag = tag
        self.rank = rank
        self.depth = depth
        self.fiber = grp.coset_rep(kernel(tag, rank, depth), grp.mul(fiber, deck))
        self.leaf = leaf
        self.group = grp

    def family(self):
        """Coset of every object of the depth-N system (compatible under
        all bonds by construction)."""
        objs = prosystems.build_system(self.tag, self.rank, self.depth).objects
        return tuple(self.group.coset(obj, self.fiber) for obj in objs)

    def __eq__(self, other):
        return (
            isinstance(other, SolenoidPoint)
            and (other.tag, other.rank, other.depth, other.fiber, other.leaf)
            == (self.tag, self.rank, self.depth, self.fiber, self.leaf)
        )

    def __hash__(self):
        return hash((self.tag, self.rank, self.depth, self.fiber, self.leaf))

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
    if (p1.tag, p1.rank, p1.depth) != (p2.tag, p2.rank, p2.depth):
        raise PreconditionError("points live in different truncated models")


def sigma(p1: SolenoidPoint, p2: SolenoidPoint) -> MetricValue:
    """Quotient (solenoid) metric: min over group translates g of
    d_inf(p1, g . p2).  The leaf displacement of g is at least
    |g| - r1 - r2, so candidates beyond the current best are pruned and
    the search is finite and exact."""
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


def injectivity_radius(base: tuple) -> Fraction:
    """1/2 for the unit rose (half the shortest essential loop) and for
    the unit flat torus."""
    kind, rank = base
    if kind not in ("rose", "torus") or rank < 1:
        raise PreconditionError(f"unknown base space {base!r}")
    return Fraction(1, 2)


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


def ball_structure(p: SolenoidPoint, epsilon, depth=None) -> BallReport:
    """Path components of the sigma-ball of radius epsilon: one per
    profinite coordinate within epsilon, each isometric to the leaf ball
    (the product decomposition, valid for epsilon < injrad/4)."""
    epsilon = Fraction(epsilon)
    if depth is not None and depth != p.depth:
        raise PreconditionError("depth does not match the point")
    depth = p.depth
    injrad = Fraction(1, 2)
    degenerate = sheet_count(p.tag, p.rank, depth) == 1
    if epsilon >= injrad / 4 and not degenerate:
        raise PreconditionError(
            f"epsilon {epsilon} violates the bound 4*eps < injectivity radius {injrad}"
        )
    comps = []
    for rep in fiber_representatives(p.tag, p.rank, depth):
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


class CoveringMap:
    """The covering X_src -> X_dst between the complete subgroup graphs of
    nested subgroups (each graph, with unit edge lengths, is the finite
    cover of the rose it names); vertex_map[v] is the vertex below v."""

    __slots__ = ("src", "dst", "vertex_map")

    def __init__(self, src, dst, vertex_map):
        self.src = src
        self.dst = dst
        self.vertex_map = tuple(vertex_map)

    def __eq__(self, other):
        return (
            isinstance(other, CoveringMap)
            and (other.src, other.dst, other.vertex_map)
            == (self.src, self.dst, self.vertex_map)
        )

    def __repr__(self):
        return f"CoveringMap({self.src.m} -> {self.dst.m} sheets)"


def covering_map(h: stallings.SubgroupGraph, k: stallings.SubgroupGraph) -> CoveringMap:
    """The bonding covering map X_H -> X_K, defined when H <= K of finite
    index (stallings.cover_vertices)."""
    vmap = stallings.cover_vertices(h, k)
    if vmap is None:
        raise PreconditionError("covering_map requires the source subgroup inside the target")
    if not h.complete:
        # H <= K, so K has finite index when H has
        raise PreconditionError("a finite-sheeted cover needs a complete graph")
    return CoveringMap(h, k, vmap)


class GraphMap:
    """Cellular based map between covers: vertices to vertices, each edge
    to an edge path (possibly constant) in the target."""

    __slots__ = ("src", "dst", "vertex_map", "edge_words")

    def __init__(self, src, dst, vertex_map, edge_words):
        self.src = src
        self.dst = dst
        self.vertex_map = tuple(vertex_map)
        self.edge_words = edge_words

    def apply_to_path(self, word: Word) -> Word:
        """Image of the based path spelling `word` (the word read by the
        image path), in one pass: the edge words are reduced, so letters
        cancel only at each junction (`freewords._join`)."""
        g = self.src
        v = 0
        out = ""
        for ch in word.letters:
            x = ord(ch.lower()) - ord("a")
            if ch.islower():
                out = _join(out, self.edge_words[(v, x)].letters)
                v = g.fwd[x][v]
            else:
                v = g.bwd[x][v]
                out = _join(out, self.edge_words[(v, x)].letters[::-1].swapcase())
        return Word(self.dst.k, out, _reduced=True)

    def __repr__(self):
        return f"GraphMap({self.src.m} -> {self.dst.m} sheets)"


def lift_through_covers(phi, sub=None, target=None) -> GraphMap:
    """The based lift X_H -> X_K of the base map induced by phi, where
    H = phi's domain (or a finite-index subgroup of it) and K contains
    phi(H).

    With ambient provenance the base map is the rose self-map sending each
    petal to its image word; otherwise the spanning tree of X_H collapses
    to the base vertex and each remaining edge maps to the loop of its
    basis image (the coset map on H-coset representatives).  Either way
    the lift is the unique basepoint-preserving one over its base map,
    which is re-derived and asserted.
    """
    if sub is not None and sub != phi.domain:
        phi = comm_mod.restriction(phi, sub)
    h = phi.domain
    k_graph = target if target is not None else phi.codomain
    for b, img in zip(stallings.basis(h), phi.images):
        if not stallings.contains(k_graph, img):
            raise PreconditionError(
                f"phi does not map the subgroup into the target: basis word {b} "
                f"maps to {img}, which is not in the target subgroup"
            )
    twords = stallings.tree_words(h)
    data = stallings._tree_data(h)
    edge_words = {}
    if phi.ambient is not None:
        vmap = [
            stallings.trace(k_graph, comm_mod.apply_ambient(phi.ambient, Word(h.k, tw)))
            for tw in twords
        ]
        for v in range(h.m):
            for x in range(h.k):
                edge_words[(v, x)] = phi.ambient[x]
    else:
        vmap = [0] * h.m
        nontree = {e: i for i, e in enumerate(data.nontree)}
        for v in range(h.m):
            for x in range(h.k):
                idx = nontree.get((v, x))
                edge_words[(v, x)] = (
                    phi.images[idx] if idx is not None else word_identity(h.k)
                )
    gm = GraphMap(h, k_graph, vmap, edge_words)
    _assert_unique_lift(gm)
    return gm


def _assert_unique_lift(gm: GraphMap):
    """Re-derive the vertex map by path lifting from the basepoint; any
    second basepoint-preserving lift of the same base map must agree."""
    h, kg = gm.src, gm.dst
    derived = [None] * h.m
    derived[0] = gm.vertex_map[0]
    queue = [0]
    qi = 0
    while qi < len(queue):
        v = queue[qi]
        qi += 1
        for x in range(h.k):
            w = h.fwd[x][v]
            end = stallings.trace(kg, gm.edge_words[(v, x)], derived[v])
            if end is None or end != gm.vertex_map[w]:
                raise PreconditionError("edge image does not lift consistently")
            if derived[w] is None:
                derived[w] = end
                queue.append(w)
    if derived != list(gm.vertex_map):
        raise PreconditionError("lift is not unique: vertex maps disagree")

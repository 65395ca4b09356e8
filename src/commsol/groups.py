"""The two group families with their standard base spaces: Z^n over the
torus (universal cover R^n) and F_k over the rose (universal cover the
Cayley tree).

`group(tag, rank)` is the one place where a family tag ("Z" or "F") is
resolved, and `of_element`/`of_subgroup` the one place where an element,
leaf point or subgroup is; no other module tests which family it holds.
A group object carries the element, finite-index subgroup and
universal-cover leaf operations of its family, and the commensuration
steps that depend on it (evaluate and its batch form evaluate_all,
images_on, preimage, inverse_images, generated, matrix, the baseleaf
walk; ambient, the extension to F_k that a covering lift reads) of a map
given by a domain and the images of `basis(domain)`.  On F_k these read
the map's edge labels, `Fk.edge_labels`: labels[ch][v], the image letters
of the ch-edge out of v in the domain graph, memoized once per map.
`on_rose` says whether a step that runs on the rose (covers, covering
lifts, the boundary) takes the group or a map of it.  Groups compare by
value.  Subgroup operations go through the `lattices`/`stallings` module
attributes at call time, so instrumentation installed there sees them.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache, partial
from itertools import chain, product, repeat
from operator import add, itemgetter, sub, xor

from . import lattices, limits, ratmat, stallings
from .errors import PreconditionError
from .freewords import (
    _LOWER,
    Alphabet,
    Word,
    _join,
    parse_vector,
    parse_word,
    primitive_root,
    serialize_vector,
)


class _Group:
    """What both families share; `subgroups` is the module implementing
    the family's finite-index subgroups."""

    def __eq__(self, other):
        # by value: emptying the cache of group() makes new instances
        return type(other) is type(self) and other.rank == self.rank

    def __hash__(self):
        return hash((self.tag, self.rank))

    def check_rank(self, sub):
        """Refuse a subgroup of another group, in the words of its module."""
        if of_subgroup(sub) != self:
            raise PreconditionError(self.mismatch)

    def contains(self, sub, g) -> bool:
        return self.subgroups.contains(sub, g)

    def intersect(self, a, b):
        """The meet of two subgroups; a side that is the whole group, or
        both sides equal, gives the other side with no search, once the
        other side is known to be a subgroup of this group."""
        if a == b:
            return a
        if b == self.whole:
            self.check_rank(a)
            return a
        if a == self.whole:
            self.check_rank(b)
            return b
        return self.subgroups.intersect(a, b)

    def is_subgroup(self, inner, outer) -> bool:
        return self.subgroups.is_subgroup(inner, outer)

    def index(self, sub) -> int:
        return self.subgroups.index(sub)

    def generated(self, gens):
        return self.subgroups.from_generators(gens, self.rank)

    def preimage(self, domain, images, sub):
        return self.subgroups.preimage(domain, images, sub)

    def evaluate_all(self, domain, images, elems):
        """evaluate of each element of `elems`, as a tuple."""
        return tuple(self.evaluate(domain, images, g) for g in elems)

    def images_on(self, domain, images, sub):
        return self.evaluate_all(domain, images, self.basis(sub))

    def ball_size(self, radius: int) -> int:
        """Number of elements within `radius` of the identity (_ball_size):
        the one check of a radius, which every guard on a ball reads
        before any work."""
        if radius < 0:
            raise PreconditionError("radius must be >= 0")
        return self._ball_size(radius)

    def leaf_reach(self, leaf) -> Fraction:
        """Distance of a leaf point from the base point."""
        return self.leaf_distance(leaf, self.identity)

    def coset_reps_within(self, inner, outer, g):
        """The coset representatives of `inner` (in coset_reps order) that
        lie in g's coset of `outer`, for inner <= outer: one coset test
        each."""
        home = self.coset(outer, g)
        return [r for r in self.coset_reps(inner) if self.coset(outer, r) == home]


class Zn(_Group):
    """Z^n acting on R^n by translations: elements are int tuples, leaf
    points tuples of Fractions, and the word metric is the l1 norm."""

    tag = "Z"
    subgroups = lattices
    mismatch = "dimension mismatch"

    def __init__(self, n: int):
        self.rank = n
        self.identity = (0,) * n
        self.whole = lattices.whole_group(n)

    def mul(self, a, b):
        return tuple(map(add, a, b))

    def inv(self, a):
        return tuple(-x for x in a)

    def dist(self, a, b) -> int:
        return sum(map(abs, map(sub, a, b)))

    def distance_rows(self, elems):
        """Per element of the sequence `elems`, its distances to the
        elements after it: the absolute differences added up one coordinate
        at a time."""
        coords = list(zip(*elems))
        for i, x in enumerate(elems):
            row = [0] * (len(elems) - i - 1)
            for a, col in zip(x, coords):
                row = [r + abs(y - a) for r, y in zip(row, col[i + 1 :])]
            yield row

    raw_dist = dist
    raw_distance_rows = distance_rows

    def _ball_size(self, radius: int) -> int:
        """Number of elements within l1 distance `radius` of the origin."""
        n = self.rank
        return sum(2**j * math.comb(n, j) * math.comb(radius, j) for j in range(n + 1))

    @lru_cache(maxsize=64)
    def ball(self, radius):
        """All elements within `radius` of the identity, sorted by
        (distance, vector)."""
        return tuple(chain.from_iterable(_sphere(self.rank, d) for d in range(radius + 1)))

    def path(self, g):
        """Vertices of the staircase edge path from the identity to g."""
        cur = [0] * self.rank
        out = [tuple(cur)]
        for i, target in enumerate(g):
            step = 1 if target >= 0 else -1
            while cur[i] != target:
                cur[i] += step
                out.append(tuple(cur))
        return out

    def parse_element(self, text: str):
        return parse_vector(text, self.rank)

    def format_element(self, g) -> str:
        return serialize_vector(g)

    def format_coset(self, label) -> str:
        """The text of a coset label (coset): its residue vector."""
        return serialize_vector(label)

    def basis(self, sub):
        return sub.cols

    def enumerate(self, max_index: int):
        return lattices.enumerate_lattices(self.rank, max_index)

    def coset(self, sub, g):
        """Coset label of g: its canonical residue."""
        return lattices.residue(sub, g)

    def coset_reps(self, sub):
        diag = [sub.cols[i][i] for i in range(self.rank)]
        index = math.prod(diag)
        limits.guard(index * self.rank**2, f"coset_reps(Z^{self.rank}, index {index})")
        return [lattices.residue(sub, v) for v in product(*[range(d) for d in diag])]

    def project(self, sub, g):
        """The member of sub nearest to g in the l1 metric, least vector on
        ties (lattices.nearest): the search starts from the distance to
        the nearer of two members, g minus its residue and g minus its
        residue reduced by the nearest multiple of each pivot, and is
        guarded by the number of nodes it can visit."""
        radius = min(
            sum(map(abs, lattices.residue(sub, g))),
            sum(map(abs, lattices.centered_residue(sub, g))),
        )
        limits.guard(
            self.projection_work(sub, radius), f"project(Z^{self.rank}, radius {radius})"
        )
        return lattices.nearest(sub, g, radius)[0]

    def projections(self, sub, elems):
        """project(sub, g) for each g of `elems`, as an iterator, with one
        search per coset: the metric and the tie-break are invariant under
        translation by sub, so project(sub, g) = g + project(sub, r) - r for
        r the residue of g."""
        offsets = {}
        for g in elems:
            r = lattices.residue(sub, g)
            off = offsets.get(r)
            if off is None:
                off = offsets[r] = tuple(p - q for p, q in zip(self.project(sub, r), r))
            yield tuple(map(add, g, off))

    def projection_work(self, sub, radius: int) -> int:
        """A bound on the nodes of a projection onto sub searched within
        `radius`: a coset has at most 2 radius // d_i + 1 entries within
        radius of g_i in row i, so no row holds more nodes than the
        product of those counts over all rows."""
        return self.rank * math.prod(2 * radius // sub.cols[i][i] + 1 for i in range(self.rank))

    def projection_bound(self, sub) -> int:
        """A bound on the distance from any element to sub: a residue
        reduced by the nearest multiple of each pivot has |r_i| <= d_i / 2;
        on a diagonal lattice it is the largest distance."""
        return sum(sub.cols[i][i] // 2 for i in range(self.rank))

    def format(self, sub) -> str:
        return lattices.format_lattice(sub)

    def evaluate(self, domain, images, g):
        """The image of g: the images weighted by g's basis coordinates."""
        coords = lattices.coordinates(domain, g)
        if coords is None:
            raise PreconditionError(f"{g} is not in the domain lattice")
        return tuple(sum(c * img[r] for c, img in zip(coords, images)) for r in range(self.rank))

    def baseleaf_images(self, domain, images, radius):
        """The baseleaf map's images of ball(radius), in that order, as an
        iterator: each element's projection, evaluated, with one projection
        search per coset.  A vector is its own raw image, so dist and
        distance_rows read these as they are."""
        ball = self.ball(radius)
        return map(partial(self.evaluate, domain, images), self.projections(domain, ball))

    def on_rose(self, comm=None):
        """See Fk.on_rose: a map of Z^1 converts to F_1 (zn1_to_f1, mZ
        becomes the m-cycle cover of the circle); all else is refused."""
        if comm is None or self.rank != 1:
            raise PreconditionError(
                "this step runs on the rose: it takes F_k (a covering lift also a map of Z^1)"
            )
        from .commensurations import zn1_to_f1  # imports this module

        return zn1_to_f1(comm)

    def inverse_images(self, domain, images, codomain):
        """The preimages of the codomain's basis: eliminating the image
        rows of the columns (c_i; d_i) leaves the codomain's HNF basis on
        top and, below it, the domain vectors mapped onto that basis."""
        n = self.rank
        basis, _ = lattices._echelon([(*c, *d) for c, d in zip(images, domain.cols)], n)
        assert tuple(tuple(c[:n]) for c in basis) == codomain.cols, "image HNF must be the codomain"
        return tuple(tuple(c[n:]) for c in basis)

    def basis_size(self, sub) -> int:
        return self.rank

    def separating_index(self, g, depth: int):
        """The least index n <= depth of a subgroup missing g, None when
        every subgroup of index <= depth contains g: the least n that does
        not divide gcd(g), as the lattices of index n meet in n Z^n."""
        if depth < 1:
            raise PreconditionError("depth must be >= 1")
        common = math.gcd(*g)
        if not common:
            return None
        # lcm(2..n-1) divides a nonzero gcd, so n stays small whatever the depth
        return next((n for n in range(2, depth + 1) if common % n), None)

    def matrix(self, domain, images):
        """The rational matrix extending the map to Z^n: C D^-1."""
        return ratmat.mul(
            ratmat.from_int_columns(images), ratmat.inverse(ratmat.from_int_columns(domain.cols))
        )

    def translate(self, g, leaf):
        return tuple(Fraction(x) + y for x, y in zip(g, leaf))

    def leaf_distance(self, a, b):
        """Euclidean distance: an exact Fraction in dimension 1, else a float."""
        diffs = [Fraction(x) - Fraction(y) for x, y in zip(a, b)]
        if len(diffs) == 1:
            return abs(diffs[0])
        return math.sqrt(float(sum(d * d for d in diffs)))

    def leaf_reach(self, leaf) -> Fraction:
        """Distance of a leaf point from the origin; in dimension 2 and up,
        where it can be irrational, its exact ceiling: the least m with
        m^2 >= |leaf|^2, which is isqrt(n - 1) + 1 for n = ceil(|leaf|^2)."""
        if self.rank == 1:
            return abs(Fraction(leaf[0]))
        n = math.ceil(sum(Fraction(x) ** 2 for x in leaf))
        return Fraction(math.isqrt(n - 1) + 1 if n else 0)

    def split_leaf(self, leaf):
        """(deck, rest) with leaf = deck + rest and rest in [-1/2, 1/2)^n."""
        leaf = tuple(Fraction(x) for x in leaf)
        # nearest integer, ties upward
        shift = tuple(math.floor(x + Fraction(1, 2)) for x in leaf)
        return shift, tuple(x - s for x, s in zip(leaf, shift))

    def sigma_translates(self, reach):
        """Nonzero deck translations that can beat a sigma candidate, for
        reach = best + r1 + r2 (solenoid.sigma): the points of the box of
        radius floor(reach) within Euclidean length reach.  A translate g
        moves a leaf by at least |g| - r1 - r2 (triangle inequality), so it
        can only win when its Euclidean length is below reach; the 1e-9
        absorbs float rounding in reach."""
        reach += 1e-9
        bound, square = math.floor(reach), reach * reach
        return (
            g
            for g in product(range(-bound, bound + 1), repeat=self.rank)
            if any(g) and sum(x * x for x in g) <= square
        )


class Fk(_Group):
    """F_k acting on its Cayley tree: elements are reduced Words, leaf
    points are vertices (Words) or EdgePoints, and the word metric is word
    length."""

    tag = "F"
    subgroups = stallings
    mismatch = "rank mismatch"

    def __init__(self, k: int):
        self.rank = k
        self.identity = Word(k, "", _reduced=True)
        self.whole = stallings.whole_group(k)
        self.letters = _LOWER[:k] + _LOWER[:k].upper()

    def mul(self, a, b):
        return a * b

    def inv(self, a):
        return ~a

    def dist(self, a, b) -> int:
        """len(~a * b), from the letters (raw_dist)."""
        if a.rank != b.rank:
            raise PreconditionError(f"alphabet mismatch: rank {a.rank} vs {b.rank}")
        return self.raw_dist(a.letters, b.letters)

    @staticmethod
    def raw_dist(x: str, y: str) -> int:
        """The distance of two reduced letter strings: the letters past
        their common prefix."""
        if x == y:
            return 0
        n = 0
        for p, q in zip(x, y):
            if p != q:
                break
            n += 1
        return len(x) + len(y) - 2 * n

    def distance_rows(self, elems):
        """raw_distance_rows of the words' letters."""
        return self.raw_distance_rows([w.letters for w in elems])

    def raw_distance_rows(self, elems):
        """Per reduced letter string of the sequence `elems`, its distances
        to the strings after it, from integer codes: the letters as
        nonzero bytes, left-aligned under a leading 1.  Twice the common
        prefix of two strings is read from a table by the bit length of
        the XOR of their codes; equal strings XOR to 0, and that entry is
        twice the row's length."""
        spell = str.maketrans(dict(zip(self.letters, map("{:02x}".format, range(1, 53)))))
        lens = list(map(len, elems))
        width = 2 * max(lens, default=0)
        codes = [int("1" + w.translate(spell).ljust(width, "0"), 16) for w in elems]
        bits = 4 * width
        prefix2 = [2 * ((bits - t) // 8) for t in range(bits + 1)]
        for i, n in enumerate(lens):
            twice = prefix2.copy()
            twice[0] = 2 * n
            bit_lengths = map(int.bit_length, map(xor, repeat(codes[i]), codes[i + 1 :]))
            yield map(sub, map(add, repeat(n), lens[i + 1 :]), map(twice.__getitem__, bit_lengths))

    def _ball_size(self, radius: int) -> int:
        """Number of reduced words of length at most `radius`."""
        k = self.rank
        if k == 1:
            return 2 * radius + 1
        return 1 + 2 * k * ((2 * k - 1) ** radius - 1) // (2 * k - 2)

    def walk(self, radius, root, step):
        """One state per element of ball(radius), in that order: `root`
        for the identity, step(s, x) for a word ending in x with s the
        state of its parent.  A layer's children, each parent's in
        letter order, are the next layer in order, so one layer of
        states is held at a time.  The moves allowed after each last
        letter (all letters but its inverse, in order) are listed once
        per walk, and a state is held with the list of its children's
        moves, so no child tests for backtracking."""
        k = self.rank
        limits.guard(self.ball_size(radius), f"ball(F_{k}, R={radius})")
        letters = sorted(self.letters)
        # after[x]: the moves (y, after[y]) allowed once a word ends in x
        after = {x: [] for x in letters}
        for x in letters:
            after[x] += [(y, after[y]) for y in letters if y != x.swapcase()]
        yield root
        layer = [([(x, after[x]) for x in letters], root)]
        for r in range(radius - 1, -1, -1):
            nxt = []
            for moves, s in layer:
                for x, follow in moves:
                    t = step(s, x)
                    yield t
                    if r:
                        nxt.append((follow, t))
            layer = nxt

    @lru_cache(maxsize=64)
    def ball(self, radius):
        """All reduced words of length at most `radius`, sorted by
        (length, letter string)."""
        # built as a list: a tuple grown from a generator is reallocated
        # as it grows, which leaves the heap fragmented
        return tuple([Word(self.rank, w, _reduced=True) for w in self.walk(radius, "", add)])

    def path(self, g):
        """Prefixes of g: the vertices of its tree geodesic."""
        return [Word(g.rank, g.letters[:i], _reduced=True) for i in range(len(g) + 1)]

    def parse_element(self, text: str):
        return parse_word(text, Alphabet(self.rank))

    def format_element(self, g) -> str:
        return str(g)

    def format_coset(self, label) -> str:
        """The text of a coset label (coset): its vertex number."""
        return str(label)

    def basis(self, sub):
        return stallings.basis(sub)

    def enumerate(self, max_index: int):
        return stallings.enumerate_subgroups(self.rank, max_index)

    def coset(self, sub, g):
        """Coset label of g: the vertex its path reaches."""
        return stallings.trace(sub, g)

    def coset_reps(self, sub):
        return [Word(self.rank, tw, _reduced=True) for tw in stallings.tree_words(sub)]

    def coset_reps_within(self, inner, outer, g):
        """The representatives of the vertices of X_inner over g's vertex
        of X_outer, read from one covering walk (stallings.cover_vertices)
        rather than a trace per representative."""
        home = self.coset(outer, g)
        words = stallings.tree_words(inner)
        return [
            Word(self.rank, words[v], _reduced=True)
            for v, below in enumerate(stallings.cover_vertices(inner, outer))
            if below == home
        ]

    def projection_bound(self, sub) -> int:
        """The largest distance from an element to sub: the largest
        distance of a vertex of its graph from the base."""
        return max(stallings._return_table(sub).dist)

    def projection_work(self, sub, radius: int) -> int:
        """1: the baseleaf walk reads each projection from its parent's by
        one table row (baseleaf_step), whatever the radius."""
        return 1

    def format(self, sub) -> str:
        return stallings.format_subgroup(sub)

    def evaluate(self, domain, images, g):
        """The image of g: evaluate_all of g alone."""
        return self.evaluate_all(domain, images, (g,))[0]

    def evaluate_all(self, domain, images, elems):
        """The images of the elements of `elems`: each one's loop in the
        domain graph read through one fetch of the edge labels, and a
        stored image's own Word (the caller's, not the memoized table's)
        where it spells one, so caches hold no copies."""
        # the memo's key must be hashable, and a caller may pass a list
        labels = self.edge_labels(domain, tuple(images))
        shared = {w.letters: w for w in images}
        out = []
        for g in elems:
            letters = g.letters
            end, img = stallings.path_image(domain, letters, labels)
            if end is None:
                raise PreconditionError(f"{letters!r} leaves the subgroup graph")
            if end != 0:
                raise PreconditionError(f"{letters!r} is not in the subgroup")
            out.append(shared.get(img) or Word(self.rank, img, _reduced=True))
        return tuple(out)

    @lru_cache(maxsize=4096)
    def edge_labels(self, domain, images):
        """The edge labels of the map for stallings.path_image, by letter:
        labels[ch][v] is the image letters of the ch-edge out of v, those
        of its basis element on a nontree edge, their inverse on an edge
        crossed backward, and "" on a tree edge.  Memoized per map."""
        out = [[""] * domain.m for _ in range(self.rank)]
        for (v, x), img in zip(stallings._tree_data(domain).nontree, images):
            out[x][v] = img.letters
        return stallings.label_table(domain, out)

    def baseleaf_images(self, domain, images, radius):
        """The baseleaf map's images of ball(radius), in that order, as an
        iterator of reduced letter strings, which the metric kernels
        raw_dist and raw_distance_rows read as they are: a step per word
        down the ball's prefix tree."""
        return map(itemgetter(4), self.walk(radius, _ROOT, self.baseleaf_step(domain, images)))

    def baseleaf_step(self, domain, images):
        """step(state, x) for walk; a state is (letters, vertex, path image,
        least candidate, its image).  The image of a path in X_H is the
        product of the images of the nontree edges it crosses (phi(h) for
        a loop h).  The projection of g, the member of H nearest to g with
        the least letter string on ties, is the least candidate.  With v_j
        the vertex g[:j] reaches, n = len(g) and D = dist[v_n], the nearest
        members are the reduced strings g[:j] + r with r a shortest path
        from v_j to the base of length D - (n - j), so only the j with
        dist[v_j] - j = D - n give candidates, g[:j] + r for the least such
        r whose first letter does not cancel g[j - 1].  As dist[v_j] - j
        never increases (a letter moves dist by at most 1), those j are
        the outward run, the suffix where dist rises by 1 per letter: a
        word's candidates are its parent's plus its own length if its last
        letter steps outward, else that alone.

        All a step needs of the domain graph is read from one row per
        letter x, built before the walk: per vertex v, (t, e, outward, r,
        r_img), with t and e the end and image of the x-edge out of v
        (stallings.edge_images), outward whether it steps one farther
        from the base, and r the least return from t that does not step
        back along x (the return table's best, else its second), with its
        image."""
        labels = self.edge_labels(domain, images)
        dist, best, second = stallings._return_table(domain)
        returns = [
            (r, s, r and stallings.path_image(domain, r, labels, v)[1],
             s and stallings.path_image(domain, s, labels, v)[1])
            for v, (r, s) in enumerate(zip(best, second))
        ]

        def row(x, v, t, e):
            r, s, r_img, s_img = returns[t]
            if r[:1] == x.swapcase():
                r, r_img = s, s_img
            return t, e, dist[t] == dist[v] + 1, r, r_img

        rows = {
            x: [row(x, v, t, e) for v, (t, e) in enumerate(edges)]
            for x, edges in stallings.edge_images(domain, labels).items()
        }

        def step(state, x):
            letters, v, img, least, least_img = state
            t, e, outward, r, r_img = rows[x][v]
            letters += x
            img = _join(img, e)
            # off the outward run the new candidate is the only one and
            # exists, as the step back to v leads no closer
            if r is not None:
                s = letters + r
                if not outward or s < least:
                    least = s
                    least_img = _join(img, r_img)
            return letters, t, img, least, least_img

        return step

    def on_rose(self, comm=None):
        """comm as a map of F_k, for the steps that run on the rose (covers,
        lifts, the boundary); with no map, only the group is asked."""
        return comm

    def images_on(self, domain, images, sub):
        """Each loop of X_sub maps to the product of the images of the
        domain edges below its edges (stallings.cover_vertices), and is a
        stored image's own Word when it spells one."""
        below = stallings.cover_vertices(sub, domain)
        if below is None:
            raise PreconditionError("images_on: the subgroup is not inside the domain")
        labels = self.edge_labels(domain, images)
        columns = [list(map(labels[ch].__getitem__, below)) for ch in _LOWER[: self.rank]]
        imgs = stallings.tree_products(sub, columns, "", _join, lambda s: s[::-1].swapcase())
        shared = {w.letters: w for w in images}
        return tuple(shared.get(s) or Word(self.rank, s, _reduced=True) for s in imgs)

    def inverse_images(self, domain, images, codomain):
        """The preimages of the codomain's basis, expressed in the images
        by folding them, with the domain's basis substituted."""
        graph, exprs = stallings.fold_with_expressions(list(images), self.rank)
        assert graph == codomain, "image fold must reproduce the codomain"
        dom_basis = stallings.basis(domain)
        return tuple(stallings.substitute(e, dom_basis) for e in exprs)

    def basis_size(self, sub) -> int:
        """The rank of a finite-index subgroup (Schreier): 1 + m(k - 1)."""
        return 1 + self.index(sub) * (self.rank - 1)

    def separating_index(self, g, depth: int):
        """The least index n <= depth of a subgroup missing g, None when
        every subgroup of index <= depth contains g: the objects of the
        depth-N system are sorted by index, so it is that of the first one
        missing g."""
        from . import prosystems  # imports this module

        for obj in prosystems.build_system(self.tag, self.rank, depth).objects:
            if not self.contains(obj, g):
                return self.index(obj)
        return None

    def matrix(self, domain, images):
        """None: a map of F_k has no matrix."""
        return None

    def ambient(self, domain, images):
        """The images of the letters under the endomorphism of F_k that
        extends the map, None when there is none.  Roots are unique in F_k
        (Lyndon-Schupp, ch. I), so with m the least power of a letter a in
        the domain, an extension sends a to the m-th root of the image of
        a^m, and it exists exactly when those letter images reproduce the
        map on basis(domain)."""
        letters = []
        for a in _LOWER[: self.rank]:
            m = stallings.return_power(domain, a)
            power = Word(self.rank, a * m, _reduced=True)
            root, n = primitive_root(self.evaluate(domain, images, power))
            if n % m:
                return None
            letters.append(root ** (n // m))
        letters = tuple(letters)
        if self.evaluate_all(self.whole, letters, self.basis(domain)) != tuple(images):
            return None
        return letters

    def translate(self, g, leaf):
        if isinstance(leaf, EdgePoint):
            return EdgePoint(g * leaf.tail, leaf.letter, leaf.t)
        return g * leaf

    def leaf_distance(self, a, b) -> Fraction:
        """Tree metric with unit edges."""
        if isinstance(a, EdgePoint) and isinstance(b, EdgePoint):
            if a.tail == b.tail and a.letter == b.letter:
                return abs(a.t - b.t)
        if a == b:
            return Fraction(0)
        return min(
            oa + len(~va * vb) + ob for va, oa in _endpoints(a) for vb, ob in _endpoints(b)
        )

    def split_leaf(self, leaf):
        """(deck, rest) with leaf = deck . rest and rest at the base vertex
        or on an edge out of it."""
        if isinstance(leaf, EdgePoint):
            return leaf.tail, EdgePoint(self.identity, leaf.letter, leaf.t)
        return leaf, self.identity

    def sigma_translates(self, reach):
        """Nontrivial deck translations that can beat a sigma candidate,
        for reach = best + r1 + r2 (solenoid.sigma): the ball of radius
        floor(reach).  A translate g moves a leaf by at least
        |g| - r1 - r2 (triangle inequality in the tree), so it can only
        win when |g| < reach; the 1e-9 absorbs float rounding in reach."""
        return iter(self.ball(math.floor(reach + 1e-9))[1:])


# the baseleaf walk's state of the identity: it is its own projection, with
# image the identity
_ROOT = ("", 0, "", "", "")


class EdgePoint:
    """Interior point of a tree edge: parameter t in (0,1) along the
    (lowercase) letter edge out of `tail`."""

    __slots__ = ("tail", "letter", "t")

    def __init__(self, tail: Word, letter: str, t: Fraction):
        if not 0 < t < 1:
            raise PreconditionError("edge parameter must be in (0,1)")
        self.tail = tail
        self.letter = letter
        self.t = Fraction(t)

    def __eq__(self, other):
        return (
            isinstance(other, EdgePoint)
            and (other.tail, other.letter, other.t) == (self.tail, self.letter, self.t)
        )

    def __hash__(self):
        return hash((self.tail, self.letter, self.t))

    def __repr__(self):
        return f"EdgePoint({self.tail}, {self.letter}, {self.t})"


def _endpoints(p):
    """(vertex, offset) pairs bracketing a tree point."""
    if isinstance(p, EdgePoint):
        head = p.tail * Word(p.tail.rank, p.letter)
        return ((p.tail, p.t), (head, 1 - p.t))
    return ((p, Fraction(0)),)


def _sphere(n: int, d: int):
    """Vectors of Z^n with l1 norm d, in lexicographic order."""
    if n == 1:
        yield from ((-d,), (d,)) if d else ((0,),)
        return
    for x in range(-d, d + 1):
        for rest in _sphere(n - 1, d - abs(x)):
            yield (x,) + rest


_FAMILIES = {"Z": Zn, "F": Fk}


@lru_cache(maxsize=None)
def group(tag: str, rank: int) -> _Group:
    """The group named by a family tag and a rank."""
    family = _FAMILIES.get(tag)
    if family is None:
        raise PreconditionError(f"unknown group tag {tag!r}")
    if rank < 1:
        raise PreconditionError(f"group rank must be at least 1, got {rank}")
    return family(rank)


def of_element(x) -> _Group:
    """The group of an element or universal-cover leaf point."""
    if isinstance(x, EdgePoint):
        x = x.tail
    if isinstance(x, Word):
        return group("F", x.rank)
    return group("Z", len(x))


def of_subgroup(sub) -> _Group:
    """The group of a finite-index subgroup: a lattice or a subgroup graph."""
    if isinstance(sub, lattices.Lattice):
        return group("Z", sub.n)
    return group("F", sub.k)

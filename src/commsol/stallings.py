"""Finite-index subgroups of F_k as folded covering graphs of the rose.

A subgroup graph is a based, k-edge-labeled graph in which each letter
defines a partial injection on vertices (folded).  Based loops spell
exactly the elements of the subgroup.  The subgroup has finite index
precisely when every letter is a total permutation (the graph covers the
rose); then index = vertex count.

Canonical labels come from one place, `orbit_graph`: a breadth-first
search from the base that labels vertices as it meets them, trying, for
each letter in order, first the outgoing then the incoming edge.  Based
isomorphism of covers is subgroup equality, so equal subgroups have
identical stored arrays.  Every SubgroupGraph is built in this order,
which the readers of a graph rely on: the spanning tree is the edges
that reach the next label, and a walk that must read each vertex after
the vertex it was met from reads them in label order.  Fiber products
(`intersect`, over pairs of vertices), permutation covers
(`from_permutations`, over the points permuted), preimage covers
(`preimage`, over pairs of a vertex and a coset, each image permuting
the cosets by the target's per-letter rows), folds (over the roots of
the folded graph) and profinite kernels (over coset families) are each
that one search over their own nodes.  The low-index search of
`enumerate_subgroups` fills coset tables in this same scan order, so it
emits tables already in canonical form.  It reads its slots from a flat
table built once, and it fills the last level in closed form: once every
vertex is open the labels are fixed, and the tables below are each
letter's partial bijection completed independently (the product over the
letters of their completions).

Folding reads each word into the graph folded so far (J. Stallings,
Topology of finite graphs, 1983; I. Kapovich and A. Myasnikov, Stallings
foldings and subgroups of free groups, 2002): the longest prefix that
reads forward from the base and the longest remaining suffix that reads
backward into it follow existing edges, and only the unread middle is
added as a fresh path and folded in.  Folding is implemented with a
weighted union-find.  The weights are words over an auxiliary alphabet
(one symbol per input generator), which lets the same pass record, for
every canonical basis element of the folded graph, an expression in the
input generators (`tree_products`) — valid whenever the inputs freely
generate their subgroup (a relation fold is then impossible, and is
reported if it occurs).

Inclusion of subgroups is the covering map between their graphs:
`cover_vertices` pairs each vertex of the smaller subgroup's graph with
the vertex below it in one pass, and fails where an edge has no partner
below.

The kernels that read a path letter by letter (`trace`, `coset_action`,
`path_image`, `edge_images`, `_return_table`) index the graph's rows by
the letter itself: rows[ch][v] is the end of the ch-edge out of v, 'a'
reading fwd[0] and 'A' bwd[0] (`_letter_rows`, built once per graph on
first read, not when the graph is made).  Edge labels are read the same
way, labels[ch][v] being the letters of the ch-edge out of v, with each
in-edge carrying the inverse of its out-edge's label (`label_table`):
the tables of a commensuration's values (groups.Fk.edge_labels) and of
its covering lift (solenoid.lift_through_covers) are both of this shape.
`preimage` reads, per letter and direction, a table of (end times the
subgroup's index, the permutation of its cosets or None), built once per
call.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from itertools import count, permutations, product
from operator import attrgetter, getitem

from . import limits
from .errors import InfiniteIndexError, ParseError, PreconditionError
from .freewords import (
    _LOWER,
    Alphabet,
    Word,
    _join,
    parse_int,
    parse_vector,
    parse_word,
    text_lines,
)

# -- decorations: reduced words over +-(i+1), i = generator index --------------


def _dec_mul(*parts):
    out = []
    for p in parts:
        for s in p:
            if out and out[-1] == -s:
                out.pop()
            else:
                out.append(s)
    return tuple(out)


def _dec_inv(d):
    return tuple(-s for s in reversed(d))


class _Folder:
    """Union-find folding with per-vertex frame words (see module docstring)."""

    def __init__(self, k: int, track: bool):
        self.k = k
        self.track = track
        self.parent: list[int] = []
        self.weight: list[tuple] = []
        self.out: list[dict] = []
        self.inn: list[dict] = []
        self.pending: list[tuple] = []

    def new_vertex(self) -> int:
        v = len(self.parent)
        self.parent.append(v)
        self.weight.append(())
        self.out.append({})
        self.inn.append({})
        return v

    def find(self, v: int):
        """Return (root, p) with frame(v) = frame(root) * p."""
        path = []
        while self.parent[v] != v:
            path.append(v)
            v = self.parent[v]
        if not self.track:
            # untracked weights are all (): compress without building words
            for u in path:
                self.parent[u] = v
            return v, ()
        p = ()
        for u in reversed(path):
            p = _dec_mul(p, self.weight[u])
            self.parent[u] = v
            self.weight[u] = p
        return v, p

    def _absorb(self, keep: int, gone: int, w: tuple):
        """Merge root `gone` into root `keep`; frame(gone) = frame(keep) * w.

        The base vertex (id 0) is never absorbed: expressions are loop
        decorations at the base, and absorbing it would conjugate them by
        the absorbing vertex's frame.
        """
        if gone == self.find(0)[0]:
            keep, gone, w = gone, keep, _dec_inv(w)
        self.parent[gone] = keep
        self.weight[gone] = w
        for x, (t, d) in self.out[gone].items():
            self.pending.append((gone, x, t, d))
        for x, (s, d) in self.inn[gone].items():
            self.pending.append((s, x, gone, d))
        self.out[gone] = {}
        self.inn[gone] = {}

    def read(self, letters: str, limit: int):
        """Follow up to `limit` letters from the base along existing edges:
        (root reached, decoration of the path, number of letters read)."""
        v, dec = 0, ()
        for i in range(limit):
            ch = letters[i]
            low = ch.islower()
            got = (self.out if low else self.inn)[v].get(ord(ch.lower()) - 97)
            if got is None:
                return v, dec, i
            v, p = self.find(got[0])
            if self.track:
                dec = _dec_mul(dec, got[1] if low else _dec_inv(got[1]), _dec_inv(p))
        return v, dec, limit

    def add_edge(self, u: int, x: int, v: int, d: tuple = ()):
        self.pending.append((u, x, v, d))

    def run(self):
        # Folding fixpoint: each popped edge is reconciled against both the
        # out-edge of its source and the in-edge of its target; a merge
        # re-queues the edge, since merging can surface new conflicts at the
        # surviving vertex.
        pending = self.pending
        while pending:
            item = pending.pop()
            u, x, v, d = item
            ru, pu = self.find(u)
            rv, pv = self.find(v)
            dd = _dec_mul(pu, d, _dec_inv(pv)) if self.track else ()
            got = self.out[ru].get(x)
            if got is not None:
                t, d0 = got
                rt, pt = self.find(t)
                d0 = _dec_mul(d0, _dec_inv(pt)) if self.track else ()
                self.out[ru][x] = (rt, d0)
                if rt != rv:
                    self._absorb(rt, rv, _dec_mul(_dec_inv(d0), dd))
                    pending.append(item)
                    continue
                if self.track and d0 != dd:
                    raise PreconditionError(
                        "generators are not a free basis of their subgroup"
                    )
            got = self.inn[rv].get(x)
            if got is not None:
                s, ds = got
                rs, ps = self.find(s)
                ds = _dec_mul(ps, ds) if self.track else ()
                self.inn[rv][x] = (rs, ds)
                if rs != ru:
                    self._absorb(ru, rs, _dec_mul(dd, _dec_inv(ds)))
                    pending.append(item)
                    continue
                if self.track and ds != dd:
                    raise PreconditionError(
                        "generators are not a free basis of their subgroup"
                    )
            self.out[ru][x] = (rv, dd)
            self.inn[rv][x] = (ru, dd)


class SubgroupGraph:
    """Folded based covering graph; immutable and canonically labeled.

    fwd[x][v] is the target of the x-edge out of v (-1 if absent);
    bwd[x][v] the source of the x-edge into v.  Base vertex is 0.
    """

    __slots__ = ("k", "m", "fwd", "bwd", "complete", "_hash")

    def __init__(self, k, m, fwd, bwd, complete):
        self.k = k
        self.m = m
        self.fwd = fwd
        self.bwd = bwd
        self.complete = complete
        self._hash = hash((k, fwd))

    def __eq__(self, other):
        return (
            isinstance(other, SubgroupGraph)
            and other.k == self.k
            and other.fwd == self.fwd
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        tag = "" if self.complete else ", infinite index"
        return f"SubgroupGraph(k={self.k}, m={self.m}{tag})"


def orbit_graph(k: int, base, step):
    """The graph of the nodes reachable from `base`, canonically labeled:
    (graph, order), order[i] being the node labeled i.

    `step(node, x, back)` gives the node the x-edge out of `node` reaches
    (into `node` when `back`), or None where there is none; it must be a
    folded action, each letter a partial injection.  One breadth-first
    search labels the nodes as it meets them, trying for each letter the
    out-edge, then the in-edge: the canonical order."""
    order = [base]
    pos = {base: 0}
    fwd = [[] for _ in range(k)]
    bwd = [[] for _ in range(k)]
    slots = [(x, back, row) for x in range(k) for back, row in ((False, fwd[x]), (True, bwd[x]))]
    for node in order:
        for x, back, row in slots:
            t = step(node, x, back)
            if t is None:
                row.append(-1)
                continue
            i = pos.get(t)
            if i is None:
                i = pos[t] = len(order)
                order.append(t)
            row.append(i)
    complete = all(-1 not in row for row in fwd)
    graph = SubgroupGraph(k, len(order), tuple(map(tuple, fwd)), tuple(map(tuple, bwd)), complete)
    return graph, order


def _canonicalize(k, base, out_maps, in_maps, decorations=None):
    """orbit_graph of edge maps node -> {x: (node, decoration)}; with
    `decorations`, also the decoration rows decf[x][i] of the out-edges."""

    def step(v, x, back):
        got = (in_maps if back else out_maps)[v].get(x)
        return None if got is None else got[0]

    graph, order = orbit_graph(k, base, step)
    if decorations is None:
        return graph
    return graph, [[out_maps[v].get(x, (None, None))[1] for v in order] for x in range(k)]


def _fold_words(words, k: int, track: bool):
    """Fold the wedge of `words`, reading each word into the graph folded
    so far (see the module docstring).  The unread middle of a word is
    added as a fresh path whose last edge carries the decoration that
    closes the word's loop.  The forward read stops a letter short of the
    end, so a word that reads all the way through re-adds its last edge,
    which `run` checks like any other."""
    # every word is checked before any is read, in the order given
    alphabet = set(_LOWER[:k] + _LOWER[:k].upper())
    for w in words:
        if w.rank != k:
            raise PreconditionError(f"word rank {w.rank} does not match k={k}")
        if not alphabet.issuperset(w.letters):
            ch = next(ch for ch in w.letters if ch not in alphabet)
            raise PreconditionError(f"letter {ch!r} outside alphabet of rank {k}")
        if track and not w.letters:
            raise PreconditionError("identity word cannot be part of a free basis")
    folder = _Folder(k, track)
    folder.new_vertex()
    for gi, w in enumerate(words):
        letters = w.letters
        n = len(letters)
        if not n:
            continue
        v, pre, i = folder.read(letters, n - 1)
        # the suffix read backward into the base is the inverse read forward
        u, back, r = folder.read(letters[::-1].swapcase(), n - 1 - i)
        for q in range(i, n - r):
            last = q == n - r - 1
            nxt = u if last else folder.new_vertex()
            dec = _dec_mul(_dec_inv(pre), (gi + 1,), back) if track and last else ()
            ch = letters[q]
            if ch.islower():
                folder.add_edge(v, ord(ch) - 97, nxt, dec)
            else:
                folder.add_edge(nxt, ord(ch) - 65, v, _dec_inv(dec))
            v = nxt
        folder.run()
    # run() leaves each edge stored between roots (absorbing a vertex
    # re-queues its edges), and the base is never absorbed
    return _canonicalize(k, 0, folder.out, folder.inn, decorations=True if track else None)


def from_generators(words, k: int) -> SubgroupGraph:
    """Fold the wedge of the given words.  The result is complete exactly
    when the generated subgroup has finite index; incomplete graphs are
    legal values and mark infinite index."""
    return _fold_words(list(words), k, track=False)


def fold_with_expressions(words, k: int):
    """Fold `words` (which must freely generate their subgroup) and express
    each canonical basis element of the result in terms of them.

    Returns (graph, exprs) where exprs[j] is a reduced tuple over +-(i+1)
    meaning words[i]^{+-1}, multiplying left to right.
    """
    graph, decf = _fold_words(list(words), k, track=True)
    return graph, tree_products(graph, decf)


def whole_group(k: int) -> SubgroupGraph:
    fwd = tuple((0,) for _ in range(k))
    return SubgroupGraph(k, 1, fwd, fwd, True)


def from_permutations(k: int, perms) -> SubgroupGraph:
    """Covering graph from k permutations of {0..m-1} with transitive joint
    action; base is vertex 0 (then relabeled canonically)."""
    m = len(perms[0])
    for p in perms:
        if sorted(p) != list(range(m)):
            raise PreconditionError(f"not a permutation of 0..{m - 1}: {p}")
    inverses = [[0] * m for _ in range(k)]
    for p, q in zip(perms, inverses):
        for v, t in enumerate(p):
            q[t] = v
    graph, _ = orbit_graph(k, 0, lambda v, x, back: (inverses if back else perms)[x][v])
    # the labeling reaches every vertex exactly when the action is transitive
    if graph.m != m:
        raise PreconditionError("permutations do not act transitively")
    return graph


# -- basic queries ---------------------------------------------------------------


def trace(graph: SubgroupGraph, word, start: int = 0):
    """Follow `word` (a Word or letter string) from `start`; None if it
    leaves the partial maps."""
    letters = word.letters if isinstance(word, Word) else word
    rows = _letter_rows(graph)
    v = start
    for ch in letters:
        v = rows[ch][v]
        if v == -1:
            return None
    return v


def contains(graph: SubgroupGraph, word, start: int = 0) -> bool:
    """True iff `word` read from vertex `start` ends at the base: for
    start = trace(graph, g), iff g*word is in the subgroup (the graph
    covering the rose, so that the unreduced g.word traces as g*word)."""
    return trace(graph, word, start) == 0


def return_power(graph: SubgroupGraph, word) -> int:
    """The least m >= 1 with word^m in the subgroup: the length of the
    base's orbit under word, at most the index of a cover."""
    v, m = trace(graph, word), 1
    while v != 0:
        v, m = trace(graph, word, v), m + 1
        if m > graph.m:
            raise AssertionError("coset orbit exceeded the index")
    return m


def index(graph: SubgroupGraph) -> int:
    if not graph.complete:
        raise InfiniteIndexError("subgroup has infinite index")
    return graph.m


@lru_cache(maxsize=2048)
def intersect(g1: SubgroupGraph, g2: SubgroupGraph) -> SubgroupGraph:
    """Based component of the fiber product."""
    if g1.k != g2.k:
        raise PreconditionError("rank mismatch")
    rows = ((g1.fwd, g2.fwd), (g1.bwd, g2.bwd))

    def step(pair, x, back):
        r1, r2 = rows[back]
        t1, t2 = r1[x][pair[0]], r2[x][pair[1]]
        return None if t1 == -1 or t2 == -1 else (t1, t2)

    return orbit_graph(g1.k, (0, 0), step)[0]


@lru_cache(maxsize=4096)
def cover_vertices(inner: SubgroupGraph, outer: SubgroupGraph):
    """The covering X_inner -> X_outer, as the tuple of the vertices of
    `outer` below the vertices of `inner`, or None when `inner` is not a
    subgroup of `outer`.

    One pass over X_inner pairs each vertex with the vertex of X_outer its
    paths reach; `outer` is folded, so the pairing is forced, and an edge
    of X_inner with no edge below it, or a vertex met again over another
    vertex, shows a loop of `inner` that is not one of `outer`.  The pass
    reads the vertices in label order: each was met along an edge out of
    a lower label (orbit_graph), so it is paired before it is read."""
    if inner.k != outer.k:
        raise PreconditionError("rank mismatch")
    rows = [*zip(inner.fwd, outer.fwd), *zip(inner.bwd, outer.bwd)]
    below = [0] + [-1] * (inner.m - 1)
    for v in range(inner.m):
        for row, orow in rows:
            t, d = row[v], orow[below[v]]
            if t == -1:
                continue
            if d == -1 or below[t] not in (-1, d):
                return None
            below[t] = d
    return tuple(below)


def coset_action(graph: SubgroupGraph, word) -> list[int]:
    """The permutation `word` induces on the cosets of a finite-index
    subgroup: entry c is trace(graph, word, c).  Built from the graph's
    per-letter rows, one pass over all cosets per letter."""
    rows = _letter_rows(graph)
    perm = list(range(graph.m))
    for ch in word.letters:
        perm = list(map(rows[ch].__getitem__, perm))
    return perm


def preimage(domain: SubgroupGraph, images, sub: SubgroupGraph) -> SubgroupGraph:
    """The preimage of `sub` under the map sending basis(domain) to
    `images`: the action of F_k on pairs (vertex of the domain graph, coset
    of sub), where a letter moves the vertex along its edge and, on the
    nontree edge of basis element i, the coset as images[i] does
    (`coset_action`).  Guarded by the number of pairs times k plus the row
    work of the images' permutations (cosets times image letters); no word
    is built or folded."""
    k, ms = domain.k, sub.m
    if sub.k != k or not sub.complete:
        raise PreconditionError("preimage_subgroup needs a finite-index subgroup of F_k")
    limits.guard(
        domain.m * ms * k + ms * sum(map(len, images)),
        f"preimage_subgroup(domain index {domain.m}, subgroup index {ms}, k={k})",
    )
    # per letter, per vertex: the permutation of the cosets on the edge
    # out of it (into it), None on a tree edge
    out_perms = [[None] * domain.m for _ in range(k)]
    in_perms = [[None] * domain.m for _ in range(k)]
    for (v, x), w in zip(_tree_data(domain).nontree, images):
        perm = coset_action(sub, w)
        inverse = [0] * ms
        for c, t in enumerate(perm):
            inverse[t] = c
        out_perms[x][v] = perm
        in_perms[x][domain.fwd[x][v]] = inverse
    # a pair (v, c) is stored as v * ms + c; tables[back][x][v] is the end
    # of the x-edge out of v (into v when back), times ms, and its permutation
    tables = tuple(
        [[(t * ms, perm) for t, perm in zip(ends, perms)] for ends, perms in zip(rows, perm_rows)]
        for rows, perm_rows in ((domain.fwd, out_perms), (domain.bwd, in_perms))
    )

    def step(node, x, back):
        v, c = divmod(node, ms)
        t, perm = tables[back][x][v]
        return t + (c if perm is None else perm[c])

    return orbit_graph(k, 0, step)[0]


def is_subgroup(inner: SubgroupGraph, outer: SubgroupGraph) -> bool:
    """True iff every based loop of `inner` is one of `outer`: iff X_inner
    covers X_outer (cover_vertices).  Between finite indices the index of
    `outer` must divide that of `inner`, which settles most pairs without
    a search."""
    if inner.complete and outer.complete and inner.k == outer.k and inner.m % outer.m:
        return False
    return cover_vertices(inner, outer) is not None


# -- spanning tree, basis, rewriting ----------------------------------------------


_TreeData = namedtuple("_TreeData", "tree_order tree_words nontree")


@lru_cache(maxsize=4096)
def _tree_data(graph: SubgroupGraph) -> _TreeData:
    """The canonical spanning tree: the edges along which orbit_graph met
    each vertex.  Labels are given in that order (vertices in label order,
    per letter the out-edge, then the in-edge), so an edge is a tree edge
    exactly when it reaches the next label."""
    k, m = graph.k, graph.m
    tree_order = []  # forward pairs (v, x) of the tree, in discovery order
    tree_words = [""] * m
    nxt = 1
    for v in range(m):
        for x in range(k):
            t = graph.fwd[x][v]
            if t == nxt:
                tree_order.append((v, x))
                tree_words[t] = tree_words[v] + _LOWER[x]
                nxt += 1
            s = graph.bwd[x][v]
            if s == nxt:
                tree_order.append((s, x))
                tree_words[s] = tree_words[v] + _LOWER[x].upper()
                nxt += 1
    tree_edges = set(tree_order)
    nontree = tuple(
        (v, x)
        for v in range(m)
        for x in range(k)
        if graph.fwd[x][v] != -1 and (v, x) not in tree_edges
    )
    return _TreeData(tuple(tree_order), tuple(tree_words), nontree)


@lru_cache(maxsize=4096)
def _letter_rows(graph: SubgroupGraph) -> dict:
    """The graph's rows by letter: rows[ch][v] is the end of the ch-edge
    out of v (-1 where there is none), so 'a' reads fwd[0] and 'A' reads
    bwd[0].  Built once per graph, on first read, for the kernels that
    read a path letter by letter."""
    rows = {}
    for ch, f, b in zip(_LOWER, graph.fwd, graph.bwd):
        rows[ch] = f
        rows[ch.upper()] = b
    return rows


@lru_cache(maxsize=4096)
def basis(graph: SubgroupGraph) -> tuple[Word, ...]:
    """Free basis from the canonical spanning tree (Schreier generators);
    size m(k-1)+1 for a complete graph on m vertices.  The word
    T(v) x T(w)^-1 of a nontree edge v -x-> w is reduced as it stands: in
    a folded graph, a cancellation at either junction would make (v, x)
    a tree edge."""
    data = _tree_data(graph)
    words, fwd = data.tree_words, graph.fwd
    return tuple(
        Word(graph.k, words[v] + _LOWER[x] + words[fwd[x][v]][::-1].swapcase(), _reduced=True)
        for v, x in data.nontree
    )


def tree_words(graph: SubgroupGraph) -> tuple[str, ...]:
    """Canonical coset representatives: the tree path to each vertex."""
    return _tree_data(graph).tree_words


def tree_products(graph: SubgroupGraph, labels) -> tuple:
    """Per element of basis(graph), the product of the decorations
    labels[x][v] over the edges v -x-> of its loop, inverted where the
    loop runs backward (fold_with_expressions): with P(v) the product
    along the tree path to v, the element crossing the nontree edge
    v -x-> w gives P(v) labels[x][v] P(w)^-1."""
    data = _tree_data(graph)
    paths = [None] * graph.m
    paths[0] = ()
    for v, x in data.tree_order:
        w = graph.fwd[x][v]
        if paths[w] is None:
            paths[w] = _dec_mul(paths[v], labels[x][v])
        else:
            paths[v] = _dec_mul(paths[w], _dec_inv(labels[x][v]))
    return tuple(
        _dec_mul(paths[v], labels[x][v], _dec_inv(paths[graph.fwd[x][v]]))
        for v, x in data.nontree
    )


_ReturnTable = namedtuple("_ReturnTable", "dist best second")


@lru_cache(maxsize=4096)
def _return_table(graph: SubgroupGraph) -> _ReturnTable:
    """Geodesic returns to the base of a complete graph: dist[v] is the
    distance from v to the base, best[v] the least letter string of a
    shortest path from v to the base, and second[v] the least one that
    does not start with best[v]'s first letter (None if there is none).

    The canonical tree is a BFS tree, so dist[v] is the length of v's tree
    word and never falls along the labels: each vertex is read after every
    vertex one closer.  All shortest paths from v have the same length, so
    the least is found greedily: the least letter that steps one closer,
    then the least path from there."""
    dist = tuple(map(len, _tree_data(graph).tree_words))
    steps = sorted(_letter_rows(graph).items())
    best = [""] * graph.m
    second = [None] * graph.m
    for v in range(graph.m):
        down = [ch + best[row[v]] for ch, row in steps if dist[row[v]] == dist[v] - 1]
        if down:
            best[v] = down[0]
            second[v] = down[1] if len(down) > 1 else None
    return _ReturnTable(dist, tuple(best), tuple(second))


def path_image(graph: SubgroupGraph, letters: str, labels, start: int = 0):
    """The path spelling `letters` from `start`, read through edge labels:
    (end, image).  `end` is the vertex the path reaches, or None where it
    leaves the graph; `image` is the reduced product of labels[ch][v], the
    reduced letter string of the ch-edge out of v (label_table), over the
    edges crossed, up to where the path leaves.  Letters cancel only at
    each junction (freewords._join), and an empty label is skipped.

    With the nontree edges of a commensuration's domain graph labelled by
    their basis elements' images (groups.Fk.edge_labels), a based loop's
    image is the commensuration's value on the element the loop spells."""
    rows = _letter_rows(graph)
    v = start
    out = ""
    for ch in letters:
        t = rows[ch][v]
        if t == -1:
            return None, out
        label = labels[ch][v]
        if label:
            out = _join(out, label)
        v = t
    return v, out


def label_table(graph: SubgroupGraph, out_labels) -> dict:
    """Edge labels by letter, for path_image, from out_labels[x][v], the
    letters of the x-edge out of v: labels['a'] is out_labels[0], and
    labels['A'][v] is the inverse of the label of the a-edge into v, ""
    where there is none."""
    labels = {}
    for ch, out, back in zip(_LOWER, out_labels, graph.bwd):
        labels[ch] = out
        labels[ch.upper()] = [out[s][::-1].swapcase() if s != -1 else "" for s in back]
    return labels


def edge_images(graph: SubgroupGraph, labels) -> dict:
    """path_image of each one-letter path: per letter ch, the list of
    (end, image) of the ch-edge out of each vertex, for walks that grow
    a path one letter at a time."""
    return {
        ch: [(None, "") if t == -1 else (t, label) for t, label in zip(row, labels[ch])]
        for ch, row in _letter_rows(graph).items()
    }


def substitute(expr, images) -> Word:
    """Evaluate a signed-index expression against image words."""
    if not images:
        raise PreconditionError("no images to substitute")
    rank = images[0].rank
    out = ""
    for s in expr:
        w = images[s - 1] if s > 0 else images[-s - 1]
        if w.rank != rank:
            raise PreconditionError(f"alphabet mismatch: rank {rank} vs {w.rank}")
        out = _join(out, w.letters if s > 0 else w.letters[::-1].swapcase())
    return Word(rank, out, _reduced=True)


# -- enumeration ----------------------------------------------------------------


def _hall_counts(k: int, max_index: int) -> list[int]:
    """a_1..a_N: the number of subgroups of F_k of each index (M. Hall,
    1949: a_n = n (n!)^(k-1) - sum_{i<n} ((n-i)!)^(k-1) a_i)."""
    fact = [1]
    for n in range(1, max_index + 1):
        fact.append(fact[-1] * n)
    a = [0]
    for n in range(1, max_index + 1):
        a.append(
            n * fact[n] ** (k - 1) - sum(fact[n - i] ** (k - 1) * a[i] for i in range(1, n))
        )
    return a[1:]


def enumerate_subgroups(k: int, max_index: int) -> list[SubgroupGraph]:
    """All subgroups of F_k of index <= max_index, canonically sorted.

    Sims' low-index search (C. C. Sims, Computation with Finitely Presented
    Groups, 1994, ch. 5): a backtracking search fills the coset table one
    slot at a time, always the first empty slot in the scan order of
    `orbit_graph`, with an existing vertex whose opposite slot is free
    or with the next new vertex.  Every table it completes is transitive,
    already canonically labeled and met once, so nothing is deduplicated.

    Once max_index vertices are open the labels are fixed: every vertex
    was first met at a slot already filled, and no slot can open another.
    The tables below that node are then exactly the completions of each
    letter's partial bijection, chosen independently, so the last level
    is filled in closed form: each letter's completed rows are built once
    and the leaves are their product, sharing the rows.
    The tables are collected in one bucket per index and each bucket is
    sorted by its forward rows, which lists them in (index, fwd) order.
    The guard estimate, from Hall's counts, is made before the search.
    """
    if k < 1 or max_index < 1:
        raise PreconditionError("need k >= 1 and max_index >= 1")
    work = sum(m * a for m, a in enumerate(_hall_counts(k, max_index), 1)) * max(k - 1, 1)
    limits.guard(work, f"enumerate_subgroups(k={k}, N={max_index})")
    fwd = [[-1] * max_index for _ in range(k)]
    bwd = [[-1] * max_index for _ in range(k)]
    # (row filled, opposite row, vertex) per slot, in the scan order of
    # orbit_graph: per vertex, per letter, the out-edge then the in-edge
    slots = [
        (here, there, v)
        for v in range(max_index)
        for f, b in zip(fwd, bwd)
        for here, there in ((f, b), (b, f))
    ]
    out = [[] for _ in range(max_index + 1)]

    def last_level():
        fwd_rows, bwd_rows = [], []
        for f, b in zip(fwd, bwd):
            tails = [v for v in range(max_index) if f[v] == -1]
            heads = [t for t in range(max_index) if b[t] == -1]
            fs, bs = [], []
            # each permutation overwrites every free slot of the letter
            for perm in permutations(heads):
                for v, t in zip(tails, perm):
                    f[v] = t
                    b[t] = v
                fs.append(tuple(f))
                bs.append(tuple(b))
            for v in tails:
                f[v] = -1
            for t in heads:
                b[t] = -1
            fwd_rows.append(fs)
            bwd_rows.append(bs)
        # the two products run in step, one choice per letter
        out[max_index].extend(
            SubgroupGraph(k, max_index, f, b, True)
            for f, b in zip(product(*fwd_rows), product(*bwd_rows))
        )

    def search(slot: int, m: int):
        if m == max_index:
            last_level()
            return
        end = 2 * k * m
        while slot < end:
            here, there, v = slots[slot]
            if here[v] == -1:
                break
            slot += 1
        else:
            out[m].append(
                SubgroupGraph(
                    k,
                    m,
                    tuple(tuple(r[:m]) for r in fwd),
                    tuple(tuple(r[:m]) for r in bwd),
                    True,
                )
            )
            return
        for t in range(m):
            if there[t] == -1:
                here[v] = t
                there[t] = v
                search(slot + 1, m)
                there[t] = -1
        # open the next new vertex, whose slots are all empty
        here[v] = m
        there[m] = v
        search(slot + 1, m + 1)
        there[m] = -1
        here[v] = -1

    search(0, 1)
    return [g for bucket in out for g in sorted(bucket, key=attrgetter("fwd"))]


def profinite_kernel(k: int, max_index: int) -> SubgroupGraph:
    """Intersection of all subgroups of index <= max_index: their fiber
    product, the orbit of the base family of cosets (one per subgroup)
    under the product action, metered per node expanded: the n-th costs
    an estimated n * (number of subgroups) * k, and the guard is called
    with that estimate once it passes the cap read at the start."""
    subs = enumerate_subgroups(k, max_index)
    # rows[back][x][i] is the x-row of subs[i], forward or backward
    rows = tuple(zip(*(s.fwd for s in subs))), tuple(zip(*(s.bwd for s in subs)))
    # coset labels lie below max_index: bytes take a quarter of a tuple's memory
    pack = bytes if max_index <= 256 else tuple
    expanded = count(1)
    per_node = len(subs) * k
    cap = limits.max_work()

    def step(node, x, back):
        if not (x or back):
            n = next(expanded)
            if n * per_node > cap:
                limits.guard(
                    n * per_node,
                    f"profinite_kernel(k={k}, N={max_index}): partial index reached {n}",
                )
        return pack(map(getitem, rows[back][x], node))

    return orbit_graph(k, pack([0] * len(subs)), step)[0]


# -- text format ------------------------------------------------------------------
#
#   F <k>                         F <k> graph <m>
#   <one generator word per line> <k permutation lines, images of 1..m>
#
# read through freewords.text_lines, so ';' and the colon form work too


def format_subgroup(graph: SubgroupGraph) -> str:
    lines = [f"F {graph.k} graph {graph.m}"]
    for x in range(graph.k):
        lines.append(" ".join(str(t + 1) for t in graph.fwd[x]))
    return "\n".join(lines)


def parse_subgroup(text: str) -> SubgroupGraph:
    head, *body = text_lines(text)
    parts = head.split()
    graph_form = len(parts) == 4 and parts[2] == "graph"
    if parts[:1] != ["F"] or not (len(parts) == 2 or graph_form):
        raise ParseError(f"expected 'F <k>' or 'F <k> graph <m>' header, got {head!r}")
    alphabet = Alphabet(parse_int(parts[1]))
    k = alphabet.rank
    if not graph_form:
        return from_generators([parse_word(ln, alphabet) for ln in body], k)
    m = parse_int(parts[3])
    if len(body) != k:
        raise ParseError(f"expected {k} permutation lines, got {len(body)}")
    return from_permutations(k, [[t - 1 for t in parse_vector(ln, m)] for ln in body])

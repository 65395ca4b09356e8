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
identical stored arrays.  Fiber products (`intersect`, over pairs of
vertices), permutation covers (`from_permutations`, over the points
permuted), preimage covers (`commensurations.preimage_subgroup`, over
pairs of cosets) and folds (over the roots of the folded graph) are each
that one search over their own nodes.  The low-index search of
`enumerate_subgroups` fills coset tables in this same scan order, so it
emits tables already in canonical form.

Folding reads each word into the graph folded so far (J. Stallings,
Topology of finite graphs, 1983; I. Kapovich and A. Myasnikov, Stallings
foldings and subgroups of free groups, 2002): the longest prefix that
reads forward from the base and the longest remaining suffix that reads
backward into it follow existing edges, and only the unread middle is
added as a fresh path and folded in.  Folding is implemented with a
weighted union-find.  The weights are words over an auxiliary alphabet
(one symbol per input generator), which lets the same pass record, for
every canonical basis element of the folded graph, an expression in the
input generators — valid whenever the inputs freely generate their
subgroup (a relation fold is then impossible, and is reported if it
occurs).

Inclusion of subgroups is the covering map between their graphs:
`cover_vertices` pairs each vertex of the smaller subgroup's graph with
the vertex below it in one search, and fails where an edge has no
partner below.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache

from . import limits
from .errors import InfiniteIndexError, ParseError, PreconditionError
from .freewords import Word, _LOWER

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

    def sort_key(self):
        return (self.m, self.fwd)


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
    for node in order:
        for x in range(k):
            for back, row in ((False, fwd[x]), (True, bwd[x])):
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
    return graph, tree_products(graph, lambda v, x: decf[x][v], (), _dec_mul, _dec_inv)


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
    v = start
    for ch in letters:
        x = ord(ch.lower()) - ord("a")
        v = graph.fwd[x][v] if ch.islower() else graph.bwd[x][v]
        if v == -1 or v is None:
            return None
    return v


def contains(graph: SubgroupGraph, word, start: int = 0) -> bool:
    """True iff `word` read from vertex `start` ends at the base: for
    start = trace(graph, g), iff g*word is in the subgroup (the graph
    covering the rose, so that the unreduced g.word traces as g*word)."""
    return trace(graph, word, start) == 0


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


def cover_vertices(inner: SubgroupGraph, outer: SubgroupGraph):
    """The covering X_inner -> X_outer, as the tuple of the vertices of
    `outer` below the vertices of `inner`, or None when `inner` is not a
    subgroup of `outer`.

    One search from the base pairs each vertex of X_inner with the vertex
    of X_outer its paths reach; `outer` is folded, so the pairing is forced,
    and an edge of X_inner with no edge below it, or a vertex met again over
    another vertex, shows a loop of `inner` that is not one of `outer`."""
    if inner.k != outer.k:
        raise PreconditionError("rank mismatch")
    rows = [*zip(inner.fwd, outer.fwd), *zip(inner.bwd, outer.bwd)]
    below = [0] + [-1] * (inner.m - 1)
    queue = [0]
    for v in queue:
        for row, orow in rows:
            t, d = row[v], orow[below[v]]
            if t == -1:
                continue
            if d == -1 or below[t] not in (-1, d):
                return None
            if below[t] == -1:
                below[t] = d
                queue.append(t)
    return tuple(below)


def is_subgroup(inner: SubgroupGraph, outer: SubgroupGraph) -> bool:
    """True iff every based loop of `inner` is one of `outer`: iff X_inner
    covers X_outer (cover_vertices).  Between finite indices the index of
    `outer` must divide that of `inner`, which settles most pairs without
    a search."""
    if inner.complete and outer.complete and inner.k == outer.k and inner.m % outer.m:
        return False
    return cover_vertices(inner, outer) is not None


# -- spanning tree, basis, rewriting ----------------------------------------------


_TreeData = namedtuple("_TreeData", "tree_order tree_words nontree nontree_index basis")


@lru_cache(maxsize=4096)
def _tree_data(graph: SubgroupGraph) -> _TreeData:
    k, m = graph.k, graph.m
    tree_edges = set()  # forward pairs (v, x) used by the tree
    tree_order = []  # those pairs in discovery order
    tree_words = [None] * m
    tree_words[0] = ""
    queue = [0]
    qi = 0
    visited = [False] * m
    visited[0] = True
    while qi < len(queue):
        v = queue[qi]
        qi += 1
        for x in range(k):
            t = graph.fwd[x][v]
            if t != -1 and not visited[t]:
                visited[t] = True
                tree_edges.add((v, x))
                tree_order.append((v, x))
                tree_words[t] = tree_words[v] + _LOWER[x]
                queue.append(t)
            s = graph.bwd[x][v]
            if s != -1 and not visited[s]:
                visited[s] = True
                tree_edges.add((s, x))
                tree_order.append((s, x))
                tree_words[s] = tree_words[v] + _LOWER[x].upper()
                queue.append(s)
    nontree = []
    for v in range(m):
        for x in range(k):
            if graph.fwd[x][v] != -1 and (v, x) not in tree_edges:
                nontree.append((v, x))
    basis_words = []
    for v, x in nontree:
        w = graph.fwd[x][v]
        basis_words.append(
            Word(k, tree_words[v] + _LOWER[x] + tree_words[w][::-1].swapcase())
        )
    nontree_index = {e: i for i, e in enumerate(nontree)}
    return _TreeData(
        tuple(tree_order),
        tuple(tree_words),
        tuple(nontree),
        nontree_index,
        tuple(basis_words),
    )


def basis(graph: SubgroupGraph) -> tuple[Word, ...]:
    """Free basis from the canonical spanning tree (Schreier generators);
    size m(k-1)+1 for a complete graph on m vertices."""
    return _tree_data(graph).basis


def tree_words(graph: SubgroupGraph) -> tuple[str, ...]:
    """Canonical coset representatives: the tree path to each vertex."""
    return _tree_data(graph).tree_words


def tree_products(graph: SubgroupGraph, label, one, mul, inv) -> tuple:
    """Per element of basis(graph), the product of label(v, x) over the
    edges v -x-> of its loop, inverted where the loop runs backward: with
    P(v) the product along the tree path to v, the element crossing the
    nontree edge v -x-> w gives P(v) label(v, x) P(w)^-1."""
    data = _tree_data(graph)
    paths = [None] * graph.m
    paths[0] = one
    for v, x in data.tree_order:
        w = graph.fwd[x][v]
        if paths[w] is None:
            paths[w] = mul(paths[v], label(v, x))
        else:
            paths[v] = mul(paths[w], inv(label(v, x)))
    return tuple(
        mul(mul(paths[v], label(v, x)), inv(paths[graph.fwd[x][v]])) for v, x in data.nontree
    )


_ReturnTable = namedtuple("_ReturnTable", "dist best second")


@lru_cache(maxsize=4096)
def _return_table(graph: SubgroupGraph) -> _ReturnTable:
    """Geodesic returns to the base of a complete graph: dist[v] is the
    distance from v to the base, best[v] the least letter string of a
    shortest path from v to the base, and second[v] the least one that
    does not start with best[v]'s first letter (None if there is none).

    The canonical tree is a BFS tree, so dist[v] is the length of v's tree
    word.  All shortest paths from v have the same length, so the least
    is found greedily: the least letter that steps one closer, then the
    least path from there."""
    dist = tuple(map(len, _tree_data(graph).tree_words))
    steps = []
    for ch in sorted(_LOWER[: graph.k] + _LOWER[: graph.k].upper()):
        x = ord(ch.lower()) - ord("a")
        steps.append((ch, graph.fwd[x] if ch.islower() else graph.bwd[x]))
    best = [""] * graph.m
    second = [None] * graph.m
    for v in sorted(range(graph.m), key=dist.__getitem__):
        down = [ch + best[row[v]] for ch, row in steps if dist[row[v]] == dist[v] - 1]
        if down:
            best[v] = down[0]
            second[v] = down[1] if len(down) > 1 else None
    return _ReturnTable(dist, tuple(best), tuple(second))


def geodesic_return(graph: SubgroupGraph, letters: str, verts) -> tuple[int, str]:
    """The element of the subgroup nearest to the reduced word `letters`,
    least letter string on ties, as (j, r): it spells letters[:j] + r.

    `verts[j]` is the vertex that letters[:j] reaches.  With D the
    distance of the whole word's vertex from the base, the nearest
    elements are the reduced strings letters[:j] + r with r a shortest
    path from verts[j] to the base of length D - (n - j), so only the j
    with dist[verts[j]] = D - (n - j) are candidates, each with its least
    return path whose first letter does not cancel letters[j - 1]."""
    table = _return_table(graph)
    dist = table.dist
    n = len(letters)
    far = dist[verts[n]] - n
    least = out = None
    for j in range(max(-far, 0), n + 1):
        v = verts[j]
        if dist[v] != far + j:
            continue
        r = table.best[v]
        if j and r[:1] == letters[j - 1].swapcase():
            r = table.second[v]
            if r is None:
                continue
        s = letters[:j] + r
        if least is None or s < least:
            least, out = s, (j, r)
    return out


def trace_path(graph: SubgroupGraph, letters: str) -> list[int]:
    """The vertices that letters[:j] reaches from the base, j = 0..n, in
    a complete graph."""
    out = [0]
    for ch in letters:
        x = ord(ch.lower()) - ord("a")
        out.append((graph.fwd[x] if ch.islower() else graph.bwd[x])[out[-1]])
    return out


def express(graph: SubgroupGraph, word) -> tuple[int, ...]:
    """Rewrite a subgroup element in the canonical basis.

    Returns signed 1-based indices into basis(graph), multiplying left to
    right.  Raises if the word is not in the subgroup.
    """
    data = _tree_data(graph)
    letters = word.letters if isinstance(word, Word) else word
    v = 0
    out = []
    for ch in letters:
        x = ord(ch.lower()) - ord("a")
        if ch.islower():
            t = graph.fwd[x][v]
            if t == -1:
                raise PreconditionError(f"{letters!r} leaves the subgroup graph")
            idx = data.nontree_index.get((v, x))
            if idx is not None:
                out.append(idx + 1)
            v = t
        else:
            s = graph.bwd[x][v]
            if s == -1:
                raise PreconditionError(f"{letters!r} leaves the subgroup graph")
            idx = data.nontree_index.get((s, x))
            if idx is not None:
                out.append(-(idx + 1))
            v = s
    if v != 0:
        raise PreconditionError(f"{letters!r} is not in the subgroup")
    return _dec_mul(out)


def substitute(expr, images) -> Word:
    """Evaluate a signed-index expression against image words."""
    if not images:
        raise PreconditionError("no images to substitute")
    rank = images[0].rank
    out: list[str] = []
    for s in expr:
        w = images[s - 1] if s > 0 else images[-s - 1]
        if w.rank != rank:
            raise PreconditionError(f"alphabet mismatch: rank {rank} vs {w.rank}")
        letters = w.letters if s > 0 else w.letters[::-1].swapcase()
        # every image is reduced, so letters cancel only at the junction
        j = 0
        while out and j < len(letters) and out[-1] == letters[j].swapcase():
            out.pop()
            j += 1
        out.extend(letters[j:])
    if len(expr) == 1 and expr[0] > 0:
        # share the image itself: cached results then hold no copies of it
        return images[expr[0] - 1]
    return Word(rank, "".join(out), _reduced=True)


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
    The guard estimate, from Hall's counts, is made before the search.
    """
    if k < 1 or max_index < 1:
        raise PreconditionError("need k >= 1 and max_index >= 1")
    work = sum(m * a for m, a in enumerate(_hall_counts(k, max_index), 1)) * max(k - 1, 1)
    limits.guard(work, f"enumerate_subgroups(k={k}, N={max_index})")
    fwd = [[-1] * max_index for _ in range(k)]
    bwd = [[-1] * max_index for _ in range(k)]
    out = []

    def search(slot: int, m: int):
        # slot 2(kv + x) is fwd[x][v], slot 2(kv + x) + 1 is bwd[x][v]
        end = 2 * k * m
        while slot < end:
            v, rest = divmod(slot, 2 * k)
            x, back = divmod(rest, 2)
            here, there = (bwd[x], fwd[x]) if back else (fwd[x], bwd[x])
            if here[v] == -1:
                break
            slot += 1
        else:
            out.append(
                SubgroupGraph(
                    k,
                    m,
                    tuple(tuple(r[:m]) for r in fwd),
                    tuple(tuple(r[:m]) for r in bwd),
                    True,
                )
            )
            return
        # t == m opens the next new vertex, whose slots are all empty
        for t in range(m + (m < max_index)):
            if there[t] == -1:
                here[v] = t
                there[t] = v
                search(slot + 1, max(m, t + 1))
                there[t] = -1
        here[v] = -1

    search(0, 1)
    out.sort(key=SubgroupGraph.sort_key)
    return out


def profinite_kernel(k: int, max_index: int) -> SubgroupGraph:
    """Intersection of all subgroups of index <= max_index."""
    out = whole_group(k)
    for g in enumerate_subgroups(k, max_index):
        limits.guard(
            out.m * g.m * k * 4,
            f"profinite_kernel(k={k}, N={max_index}): partial index reached {out.m}",
        )
        out = intersect(out, g)
    return out


# -- text format ------------------------------------------------------------------
#
#   F <k>                         F <k> graph <m>
#   <one generator word per line> <k permutation lines, images of 1..m>


def format_subgroup(graph: SubgroupGraph) -> str:
    lines = [f"F {graph.k} graph {graph.m}"]
    for x in range(graph.k):
        lines.append(" ".join(str(t + 1) for t in graph.fwd[x]))
    return "\n".join(lines)


def format_subgroup_inline(graph: SubgroupGraph) -> str:
    perms = " ; ".join(
        " ".join(str(t + 1) for t in graph.fwd[x]) for x in range(graph.k)
    )
    return f"F {graph.k} graph {graph.m} : {perms}"


def parse_subgroup(text: str) -> SubgroupGraph:
    lines = [ln.strip() for ln in text.strip().splitlines() if ln.strip()]
    if not lines:
        raise ParseError("empty subgroup text")
    if ":" in lines[0]:
        return parse_subgroup_inline(lines[0])
    head = lines[0].split()
    if not head or head[0] != "F":
        raise ParseError(f"expected 'F <k>' header, got {lines[0]!r}")
    k = int(head[1])
    if len(head) == 4 and head[2] == "graph":
        m = int(head[3])
        if len(lines) != k + 1:
            raise ParseError(f"expected {k} permutation lines")
        perms = []
        for ln in lines[1:]:
            imgs = [int(p) - 1 for p in ln.split()]
            if len(imgs) != m:
                raise ParseError(f"expected {m} images per line, got {ln!r}")
            perms.append(imgs)
        return from_permutations(k, perms)
    if len(head) != 2:
        raise ParseError(f"bad subgroup header {lines[0]!r}")
    words = [Word(k, ln if ln != "1" else "") for ln in lines[1:]]
    return from_generators(words, k)


def parse_subgroup_inline(line: str) -> SubgroupGraph:
    head, _, body = line.partition(":")
    parts = head.split()
    if len(parts) != 4 or parts[0] != "F" or parts[2] != "graph":
        raise ParseError(f"expected 'F <k> graph <m> : ...', got {line!r}")
    k, m = int(parts[1]), int(parts[3])
    perms = []
    for chunk in body.split(";"):
        imgs = [int(p) - 1 for p in chunk.split()]
        if len(imgs) != m:
            raise ParseError(f"expected {m} images per permutation in {line!r}")
        perms.append(imgs)
    if len(perms) != k:
        raise ParseError(f"expected {k} permutations in {line!r}")
    return from_permutations(k, perms)

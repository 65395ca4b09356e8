"""The references the tests check commsol against, one per capability, each
the most independent one at hand: a brute force, a count formula, or the
definition read off the paper; and the helpers more than one test module
shares.  No test module defines a function of the same name
(tests/test_invariants.py checks it).

- enumeration of finite-index subgroups: every transitive permutation
  tuple (subgroups_by_permutations), and M. Hall's count (hall_counts);
- K_N: the running meet of the enumerated subgroups (kernel_by_intersection);
- the least index of a subgroup missing an element: a scan of every
  object of the depth-N system (separating_index_by_full_scan);
- the covering X_H -> X_K: tree-word traces, checked edge by edge
  (covering_by_tree_words);
- path images through edge labels (trace, path_image, a lift's images):
  one Word product per edge crossed (path_by_products), over labels
  given as a callable and laid out by label_table;
- evaluation of an F_k commensuration: the element written in the
  canonical basis (express), then substituted;
- preimages of a subgroup: the Schreier generators of a coset stabilizer,
  folded (preimage_by_schreier_fold);
- the closest-point projection to a subgroup of F_k: a scan of reduced
  words by length (nearest_member).
"""

import importlib
import math
import pkgutil
import random
from functools import cache
from itertools import groupby, permutations, product

from hypothesis import settings

import commsol
from commsol import catalog, groups, prosystems, stallings
from commsol.errors import PreconditionError
from commsol.freewords import Word
from commsol.groups import group

_LOWER = "abcdefghijklmnopqrstuvwxyz"

# the hypothesis settings every property test starts from: reproducible
# examples, no example database and no per-example deadline
SETTINGS = settings(deadline=None, derandomize=True, database=None)
ORACLE = settings(SETTINGS, max_examples=200)


@cache
def _cache_sites():
    """Every cache at module or class level in commsol, as each benchmark
    pass finds them (perfbench/run.py, cache_sites)."""
    sites = []
    for info in pkgutil.iter_modules(commsol.__path__):
        mod = importlib.import_module(f"commsol.{info.name}")
        for obj in vars(mod).values():
            if hasattr(obj, "cache_clear"):
                sites.append(obj)
            elif isinstance(obj, type) and obj.__module__ == mod.__name__:
                sites += [m for m in vars(obj).values() if hasattr(m, "cache_clear")]
    return sites


def clear_every_cache():
    """Empty every cache at module or class level, as each benchmark pass
    does."""
    for site in _cache_sites():
        site.cache_clear()


def random_word(rng, k, max_len):
    """A word of F_k from at most max_len letters drawn uniformly, reduced."""
    letters = _LOWER[:k]
    n = rng.randrange(max_len + 1)
    return Word(k, "".join(rng.choice(letters + letters.upper()) for _ in range(n)))


# -- enumeration and K_N ---------------------------------------------------------


def hall_counts(k, nmax):
    """Hall's recursion for the number of index-m subgroups of F_k, m <= nmax."""
    counts = {}
    for m in range(1, nmax + 1):
        total = m * math.factorial(m) ** (k - 1)
        for i in range(1, m):
            total -= math.factorial(m - i) ** (k - 1) * counts[i]
        counts[m] = total
    return counts


def subgroups_by_permutations(k, max_index):
    """Every subgroup of F_k of index <= max_index, from every transitive
    k-tuple of permutations, canonicalized and deduplicated, sorted by
    (index, fwd)."""
    out = []
    for m in range(1, max_index + 1):
        seen = set()
        for tup in product(list(permutations(range(m))), repeat=k):
            try:
                g = stallings.from_permutations(k, tup)
            except PreconditionError:
                continue  # not transitive
            if g not in seen:
                seen.add(g)
                out.append(g)
    out.sort(key=lambda g: (g.m, g.fwd))
    return out


def kernel_by_intersection(grp, max_index):
    """K_N, the meet of every subgroup of index <= N, as the running
    intersection of the enumerated subgroups of the group `grp`."""
    out = grp.whole
    for sub in grp.enumerate(max_index):
        out = grp.subgroups.intersect(out, sub)
    return out


def separating_index_by_full_scan(grp, g, depth):
    """The least index n <= depth of a subgroup missing g, None when every
    subgroup of index <= depth contains g: the index of the first object
    of the depth-N system, which lists them by index, that misses g."""
    for obj in prosystems.build_system(grp.tag, grp.rank, depth).objects:
        if not grp.contains(obj, g):
            return grp.index(obj)
    return None


# -- the covering ----------------------------------------------------------------


def covering_by_tree_words(inner, outer):
    """The covering X_inner -> X_outer, as the vertex of X_outer that each
    vertex's tree word reaches, or None when `inner` is not a subgroup of
    `outer`: when a tree word leaves X_outer, or an edge v -x-> t of
    X_inner lies over no x-edge from the vertex below v to the one below t."""
    below = tuple(stallings.trace(outer, tw) for tw in stallings.tree_words(inner))
    if None in below:
        return None
    for row, outer_row in zip(inner.fwd, outer.fwd):
        for v, t in enumerate(row):
            if t != -1 and outer_row[below[v]] != below[t]:
                return None
    return below


@cache  # built once for the two tests that read it
def label_order_cases(k):
    """Graphs for the readers of the canonical label order: every subgroup
    of F_k of index <= 4; the meets of every pair of them (on F3, of every
    pair of index <= 3 and of 1,500 seeded pairs of index <= 4); on F2 the
    preimages of each under the catalog maps.  Returned as (graphs, pairs):
    `pairs` are (inner, outer) for the covering, both nested and not."""
    subs = stallings.enumerate_subgroups(k, 4)
    if k < 3:
        pairs = [(a, b) for a in subs for b in subs]
    else:
        small = [s for s in subs if s.m <= 3]
        rng = random.Random(27)
        pairs = [(a, b) for a in small for b in small]
        pairs += [(rng.choice(subs), rng.choice(subs)) for _ in range(1500)]
    graphs = set(subs)
    nested = []
    for a, b in pairs:
        meet = stallings.intersect(a, b)
        graphs.add(meet)
        nested += [(meet, a), (meet, b)]
    if k == 2:
        for phi in catalog.f2_catalog().values():
            for sub in subs:
                pre = stallings.preimage(phi.domain, phi.images, sub)
                graphs.add(pre)
                nested.append((pre, phi.domain))
    return sorted(graphs, key=lambda g: (g.m, g.fwd)), pairs + nested


# -- path images -----------------------------------------------------------------


def label_table(graph, label):
    """labels[ch][v] from label(v, x), the letters of the x-edge out of v:
    a lowercase letter reads label(v, x) on the out-edge, an uppercase one
    the inverse of label(s, x) on the x-edge from s into v, and a vertex
    with no such edge gets ""."""
    labels = {}
    for x in range(graph.k):
        ch = _LOWER[x]
        labels[ch] = [
            label(v, x) if graph.fwd[x][v] != -1 else "" for v in range(graph.m)
        ]
        labels[ch.upper()] = [
            label(s, x)[::-1].swapcase() if s != -1 else "" for s in graph.bwd[x]
        ]
    return labels


def path_by_products(graph, letters, label, start=0):
    """The path spelling `letters` from `start`, as (end, image): `end` the
    vertex it reaches, or None where it leaves the graph; `image` the
    product, up to there, of one Word per edge crossed, label(v, x) for
    the x-edge out of v crossed forward and its inverse crossed backward."""
    k = graph.k
    v = start
    out = Word(k, "")
    for ch in letters:
        x = _LOWER.index(ch.lower())
        if ch.islower():
            t = graph.fwd[x][v]
            if t == -1:
                return None, out
            out = out * Word(k, label(v, x))
        else:
            t = graph.bwd[x][v]
            if t == -1:
                return None, out
            out = out * ~Word(k, label(t, x))
        v = t
    return v, out


# -- evaluation and preimages ----------------------------------------------------


def express(graph, word):
    """A subgroup element in the canonical basis, as signed 1-based indices
    into basis(graph) multiplying left to right: the nontree edges its
    loop crosses, read off the definition of the basis (each nontree edge
    v -x-> w is T(v) x T(w)^-1); raises PreconditionError when the word is
    not in the subgroup."""
    nontree = {e: i for i, e in enumerate(stallings._tree_data(graph).nontree)}
    v = 0
    out = []
    for ch in word.letters:
        x = ord(ch.lower()) - ord("a")
        if ch.islower():
            t = graph.fwd[x][v]
            if t == -1:
                raise PreconditionError(f"{word.letters!r} leaves the subgroup graph")
            if (v, x) in nontree:
                out.append(nontree[(v, x)] + 1)
            v = t
        else:
            v = graph.bwd[x][v]
            if v == -1:
                raise PreconditionError(f"{word.letters!r} leaves the subgroup graph")
            if (v, x) in nontree:
                out.append(-(nontree[(v, x)] + 1))
    if v != 0:
        raise PreconditionError(f"{word.letters!r} is not in the subgroup")
    return stallings._dec_mul(out)


def preimage_by_schreier_fold(domain, images, sub):
    """The elements of `domain` whose image lies in `sub`, for the map
    sending basis(domain) to `images`: the stabilizer of the base coset of
    `sub` under the domain's action through the images, folded from its
    Schreier generators."""
    dom_basis = stallings.basis(domain)
    inv_images = [~w for w in images]
    orbit = {0: 0}
    order = [0]
    tree_words = [Word(domain.k, "")]
    qi = 0
    while qi < len(order):
        v = order[qi]
        qi += 1
        for i in range(len(images)):
            for w, forward in ((images[i], True), (inv_images[i], False)):
                t = stallings.trace(sub, w, v)
                if t not in orbit:
                    orbit[t] = len(order)
                    order.append(t)
                    step = dom_basis[i] if forward else ~dom_basis[i]
                    tree_words.append(tree_words[orbit[v]] * step)
    schreier = []
    for v in order:
        for i in range(len(images)):
            t = stallings.trace(sub, images[i], v)
            gen = tree_words[orbit[v]] * dom_basis[i] * ~tree_words[orbit[t]]
            if gen:
                schreier.append(gen)
    return stallings.from_generators(schreier, domain.k)


# -- projections -----------------------------------------------------------------


def nearest_member(sub, g):
    """The member of `sub` (of finite index in F_k) nearest to g, the least
    letter string on ties: the least g*w over the first length of reduced
    words w for which some g*w lies in sub, each w read from the vertex g
    reaches (the graph covers the rose, so g*w is in sub exactly when w
    leads from there to the base).  The nearest member is at most sub.m - 1
    away, the farthest a vertex of its graph can be from the base."""
    v = stallings.trace(sub, g)
    for _, layer in groupby(group("F", sub.k).ball(sub.m - 1), len):
        hits = [g * w for w in layer if stallings.contains(sub, w, v)]
        if hits:
            return min(hits, key=lambda h: h.letters)
    raise AssertionError(f"no member of the subgroup within {sub.m - 1} of {g}")


def step_project(sub, g):
    """The projection of g to sub as the baseleaf walk finds it, for
    checking against nearest_member one point at a time: the least
    candidate of the state that Fk.baseleaf_step reaches along g's letters,
    for the inclusion of sub.  Reading it off walk_images instead would
    walk the whole ball of radius |g|."""
    step = group("F", sub.k).baseleaf_step(sub, stallings.basis(sub))
    state = groups._ROOT
    for x in g.letters:
        state = step(state, x)
    return Word(sub.k, state[3])

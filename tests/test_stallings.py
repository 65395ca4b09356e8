"""Stallings graph tests; counts are cross-checked against permutation
brute force and Hall's recursion."""

import random
import time
from itertools import permutations, product

import pytest
from hypothesis import assume, given, settings, strategies as st

from commsol import stallings
from commsol.errors import InfiniteIndexError, PreconditionError, ResourceLimitError
from commsol.freewords import Word, identity
from commsol.groups import group
from commsol.stallings import (
    SubgroupGraph,
    basis,
    contains,
    enumerate_subgroups,
    express,
    fold_with_expressions,
    format_subgroup,
    from_generators,
    from_permutations,
    index,
    intersect,
    is_subgroup,
    parse_subgroup,
    profinite_kernel,
    substitute,
    trace,
    tree_words,
    whole_group,
)

W = lambda s: Word(2, s)

KER_A = ["aa", "b", "abA"]  # kernel of a->1, b->0 (mod 2)
KER_B = ["bb", "a", "baB"]  # kernel of a->0, b->1
KER_AB = ["ab", "ba", "aa"]  # kernel of a->1, b->1


def a_exp(w):
    return sum(1 if c == "a" else -1 if c == "A" else 0 for c in w.letters)


def b_exp(w):
    return sum(1 if c == "b" else -1 if c == "B" else 0 for c in w.letters)


def random_word(rng, k, max_len):
    letters = "abcdefghijklmnopqrstuvwxyz"[:k]
    n = rng.randrange(max_len + 1)
    return Word(k, "".join(rng.choice(letters + letters.upper()) for _ in range(n)))


def test_from_generators_examples():
    g = from_generators([W("a"), W("b")], 2)
    assert g == whole_group(2) and g.m == 1

    g = from_generators([W(w) for w in KER_A], 2)
    assert g.complete and g.m == 2
    # oracle: coset enumeration for the kernel of a->1, b->0 mod 2
    expected = from_permutations(2, [(1, 0), (0, 1)])
    assert g == expected

    g = from_generators([W("aa")], 2)
    assert not g.complete
    with pytest.raises(InfiniteIndexError):
        index(g)


def test_index_and_contains_examples():
    g = from_generators([W(w) for w in KER_A], 2)
    assert index(g) == 2
    assert not contains(g, W("ab"))  # a-exponent parity oracle
    assert contains(g, W("aa"))
    rng = random.Random(13)
    for _ in range(300):
        w = random_word(rng, 2, 10)
        assert contains(g, w) == (a_exp(w) % 2 == 0)


def test_intersect_examples():
    ga = from_generators([W(w) for w in KER_A], 2)
    gb = from_generators([W(w) for w in KER_B], 2)
    meet = intersect(ga, gb)
    assert index(meet) == 4
    # oracle: joint mod-2 coset enumeration: vertices (x, y) in (Z/2)^2
    perms_a = [2, 3, 0, 1]  # a adds (1,0) to (x,y) coded as 2x+y
    perms_b = [1, 0, 3, 2]  # b adds (0,1)
    assert meet == from_permutations(2, [perms_a, perms_b])

    assert intersect(ga, ga) == ga
    assert intersect(whole_group(2), ga) == ga


def test_intersect_matches_membership_and_sims_labels():
    # oracles: membership in both factors, and the labels Sims' search
    # gives the same subgroup independently of the fiber product
    subs = enumerate_subgroups(2, 3)
    words = group("F", 2).ball(5)
    listed = {}
    for g in enumerate_subgroups(2, 5):
        listed.setdefault(g.m, []).append(g)
    for i, g1 in enumerate(subs):
        for g2 in subs[i:]:
            meet = intersect(g1, g2)
            for w in words:
                assert contains(meet, w) == (contains(g1, w) and contains(g2, w))
            if meet.m > 5:
                continue
            (entry,) = [
                g for g in listed[meet.m] if is_subgroup(g, meet) and is_subgroup(meet, g)
            ]
            assert (meet.fwd, meet.bwd, meet.complete) == (entry.fwd, entry.bwd, entry.complete)


def test_basis_sizes_and_membership():
    assert len(basis(whole_group(2))) == 2
    ga = from_generators([W(w) for w in KER_A], 2)
    assert len(basis(ga)) == 2 * (2 - 1) + 1 == 3
    meet = intersect(ga, from_generators([W(w) for w in KER_B], 2))
    assert len(basis(meet)) == 4 * (2 - 1) + 1 == 5
    # basis generates the same subgroup
    assert from_generators(basis(ga), 2) == ga
    assert from_generators(basis(meet), 2) == meet
    for w in basis(ga):
        assert a_exp(w) % 2 == 0


def test_contains_iff_product_of_basis():
    rng = random.Random(17)
    ga = from_generators([W(w) for w in KER_A], 2)
    be = basis(ga)
    for _ in range(100):
        expr = [rng.choice([1, -1]) * rng.randrange(1, len(be) + 1) for _ in range(rng.randrange(6))]
        w = substitute(tuple(expr), be)
        assert contains(ga, w)
        assert substitute(express(ga, w), be) == w


def test_folding_confluence():
    rng = random.Random(29)
    for _ in range(40):
        words = [random_word(rng, 2, 6) for _ in range(rng.randrange(1, 5))]
        words = [w for w in words if w]
        if not words:
            continue
        g1 = from_generators(words, 2)
        shuffled = words[:]
        rng.shuffle(shuffled)
        assert from_generators(shuffled, 2) == g1


def hall_counts(k, nmax):
    """Oracle: Hall's recursion for the number of index-m subgroups of F_k."""
    import math

    counts = {}
    for m in range(1, nmax + 1):
        total = m * math.factorial(m) ** (k - 1)
        for i in range(1, m):
            total -= math.factorial(m - i) ** (k - 1) * counts[i]
        counts[m] = total
    return counts


def brute_force_transitive_tuples(k, m):
    count = 0
    for tup in product(list(permutations(range(m))), repeat=k):
        seen = {0}
        stack = [0]
        while stack:
            v = stack.pop()
            for p in tup:
                for t in (p[v], p.index(v)):
                    if t not in seen:
                        seen.add(t)
                        stack.append(t)
        if len(seen) == m:
            count += 1
    return count


def test_enumerate_counts():
    subs = enumerate_subgroups(2, 3)
    by_index = {}
    for g in subs:
        by_index.setdefault(g.m, []).append(g)
    assert [len(by_index.get(m, [])) for m in (1, 2, 3)] == [1, 3, 13]
    assert len(subs) == len(set(subs)) == 17

    # independent oracles: transitive-tuple counts and Hall's recursion
    import math

    for m in (1, 2, 3):
        tuples = brute_force_transitive_tuples(2, m)
        assert len(by_index[m]) == tuples // math.factorial(m - 1)
    assert hall_counts(2, 3) == {1: 1, 2: 3, 3: 13}

    assert len(enumerate_subgroups(2, 2)) == 4
    assert [g.m for g in enumerate_subgroups(1, 4)] == [1, 2, 3, 4]


def test_enumerate_matches_hall_at_index_4():
    subs = enumerate_subgroups(2, 4)
    count4 = sum(1 for g in subs if g.m == 4)
    assert count4 == hall_counts(2, 4)[4]


def enumerate_by_permutation_tuples(k, max_index):
    """Oracle: the permutation-tuple brute force the low-index search
    replaced (every transitive k-tuple, canonicalized, deduplicated)."""
    out = []
    for m in range(1, max_index + 1):
        seen = set()
        for tup in product(list(permutations(range(m))), repeat=k):
            try:
                g = from_permutations(k, tup)
            except PreconditionError:
                continue  # not transitive
            if g not in seen:
                seen.add(g)
                out.append(g)
    out.sort(key=SubgroupGraph.sort_key)
    return out


@pytest.mark.parametrize("k,max_index", [(1, 6), (2, 4), (2, 5), (3, 3)])
def test_enumerate_matches_permutation_brute_force(k, max_index):
    fast = enumerate_subgroups(k, max_index)
    slow = enumerate_by_permutation_tuples(k, max_index)
    assert [(g.k, g.m, g.fwd, g.bwd, g.complete) for g in fast] == [
        (g.k, g.m, g.fwd, g.bwd, g.complete) for g in slow
    ]


@pytest.mark.parametrize(
    "k,counts", [(2, [1, 3, 13, 71, 461, 3447, 29093]), (3, [1, 7, 97, 2143]), (4, [1, 15, 625])]
)
def test_enumerate_counts_match_hall(k, counts):
    top = len(counts)
    assert [hall_counts(k, top)[m] for m in range(1, top + 1)] == counts
    subs = enumerate_subgroups(k, top)
    assert [sum(1 for g in subs if g.m == m) for m in range(1, top + 1)] == counts
    assert len(set(subs)) == len(subs)
    assert all(g.complete and g.k == k for g in subs)


def test_enumerate_guard_refuses_from_hall_counts(monkeypatch):
    monkeypatch.delenv("COMMSOL_MAX_WORK", raising=False)
    # sum over m <= N of m * a_m(k), times max(k - 1, 1)
    for k, max_index, estimate in ((2, 9, 27877637), (3, 6, 36839322)):
        t0 = time.perf_counter()
        with pytest.raises(ResourceLimitError) as err:
            enumerate_subgroups(k, max_index)
        assert time.perf_counter() - t0 < 0.5
        assert f"enumerate_subgroups(k={k}, N={max_index})" in str(err.value)
        assert f"estimated work {estimate} exceeds cap 20000000" in str(err.value)
    # admitted exactly at the cap: F2 to index 2 is 1*1 + 2*3
    monkeypatch.setenv("COMMSOL_MAX_WORK", "7")
    assert len(enumerate_subgroups(2, 2)) == 4
    monkeypatch.setenv("COMMSOL_MAX_WORK", "6")
    t0 = time.perf_counter()
    with pytest.raises(ResourceLimitError) as err:
        enumerate_subgroups(2, 2)
    assert time.perf_counter() - t0 < 0.5
    assert "estimated work 7 exceeds cap 6" in str(err.value)


def test_profinite_kernel_examples():
    assert profinite_kernel(2, 1) == whole_group(2)

    ker = profinite_kernel(2, 2)
    # the three index-2 subgroups are the kernels of the surjections to
    # Z/2, and the third surjection is the sum of the other two, so the
    # intersection is the kernel of F2 -> (Z/2)^2: index 4; the
    # brute-force membership oracle below confirms it
    assert index(ker) == 4
    rng = random.Random(37)
    for _ in range(300):
        w = random_word(rng, 2, 8)
        assert contains(ker, w) == (a_exp(w) % 2 == 0 and b_exp(w) % 2 == 0)

    ker1 = profinite_kernel(1, 3)
    assert index(ker1) == 6  # matches lcm(1..3) from the lattice module


def test_profinite_kernel_depth3_definitional():
    # definitional oracle: w is in K_3 iff it lies in every subgroup of
    # index <= 3, checked directly against the enumeration
    ker = profinite_kernel(2, 3)
    subs = enumerate_subgroups(2, 3)
    rng = random.Random(47)
    for _ in range(200):
        w = random_word(rng, 2, 10)
        assert contains(ker, w) == all(contains(g, w) for g in subs)
    # genuine members: random products of the kernel's own basis
    ker_basis = basis(ker)
    for _ in range(10):
        expr = tuple(
            rng.choice([1, -1]) * rng.randrange(1, len(ker_basis) + 1)
            for _ in range(3)
        )
        w = substitute(expr, ker_basis)
        assert contains(ker, w) and all(contains(g, w) for g in subs)


def test_intersect_index_bound():
    rng = random.Random(43)
    subs = enumerate_subgroups(2, 3)
    for _ in range(40):
        g1, g2 = rng.choice(subs), rng.choice(subs)
        meet = intersect(g1, g2)
        assert index(meet) <= index(g1) * index(g2)
        assert is_subgroup(meet, g1) and is_subgroup(meet, g2)


def test_tree_words_reach_their_vertices():
    for g in enumerate_subgroups(2, 3):
        for v, tw in enumerate(tree_words(g)):
            assert trace(g, tw) == v


def test_fold_with_expressions_round_trip():
    cases = [
        [W("a"), W("ba")],  # folding absorbs the base unless guarded
        [W(w) for w in KER_A],
        [W(w) for w in KER_AB],
        basis(intersect(
            from_generators([W(w) for w in KER_A], 2),
            from_generators([W(w) for w in KER_B], 2),
        )),
    ]
    for gens in cases:
        graph, exprs = fold_with_expressions(list(gens), 2)
        assert graph == from_generators(list(gens), 2)
        for bw, expr in zip(basis(graph), exprs):
            assert substitute(expr, list(gens)) == bw


ORACLE = settings(max_examples=200, deadline=None, derandomize=True, database=None)


@ORACLE
@given(st.data())
def test_substitute_matches_repeated_products(data):
    k = data.draw(st.integers(1, 3))
    letters = "abc"[:k] + "ABC"[:k]
    n = data.draw(st.integers(1, 4))
    images = [Word(k, data.draw(st.text(letters, max_size=6))) for _ in range(n)]
    expr = data.draw(st.lists(st.integers(-n, n).filter(bool), max_size=12))
    want = identity(k)
    for s in expr:
        want = want * (images[s - 1] if s > 0 else ~images[-s - 1])
    assert substitute(expr, images) == want


def test_substitute_alphabet_mismatch():
    with pytest.raises(PreconditionError):
        substitute((1, 2), [Word(2, "a"), Word(3, "c")])


@ORACLE
@given(st.data())
def test_contains_from_a_vertex_matches_trace(data):
    m = data.draw(st.integers(1, 6))
    perms = [data.draw(st.permutations(range(m))) for _ in range(2)]
    try:
        sub = from_permutations(2, perms)
    except PreconditionError:
        assume(False)  # not transitive
    g, w = (W(data.draw(st.text("abAB", max_size=8))) for _ in range(2))
    start = data.draw(st.integers(0, sub.m - 1))
    assert contains(sub, w, start) == (trace(sub, w, start) == 0)
    # read from the vertex g reaches, w lands at the base iff g*w does
    assert contains(sub, w, trace(sub, g)) == contains(sub, g * w)


@ORACLE
@given(st.data())
def test_untracked_fold_matches_tracked_fold(data):
    # the tracked fold composes frame words in find(); the untracked one
    # only compresses paths, and must reach the same graph
    k = data.draw(st.integers(1, 3))
    letters = "abc"[:k] + "ABC"[:k]
    n = data.draw(st.integers(1, k + 1))
    words = [Word(k, data.draw(st.text(letters, min_size=1, max_size=10))) for _ in range(n)]
    try:
        tracked, _ = fold_with_expressions(words, k)
    except PreconditionError:
        assume(False)  # not a free basis, which the tracked fold refuses
    untracked = from_generators(words, k)
    assert (untracked.m, untracked.fwd, untracked.bwd, untracked.complete) == (
        tracked.m, tracked.fwd, tracked.bwd, tracked.complete
    )


def test_fold_with_expressions_rejects_non_basis():
    with pytest.raises(PreconditionError):
        fold_with_expressions([W("a"), W("b"), W("ab")], 2)


def test_text_round_trip():
    for g in enumerate_subgroups(2, 3):
        assert parse_subgroup(format_subgroup(g)) == g
    assert parse_subgroup("F 2\naa\nb\nabA") == from_generators([W(w) for w in KER_A], 2)


# -- oracles for the reading fold and the covering walk ------------------------


def per_letter_fold(words, k, track):
    """The fold the reading fold replaced: a fresh vertex for every letter
    of every word, all folded together at the end."""
    folder = stallings._Folder(k, track)
    base = folder.new_vertex()
    for gi, w in enumerate(words):
        if w.rank != k:
            raise PreconditionError(f"word rank {w.rank} does not match k={k}")
        cur = base
        n = len(w.letters)
        for i, ch in enumerate(w.letters):
            nxt = base if i == n - 1 else folder.new_vertex()
            dec = (gi + 1,) if (track and i == n - 1) else ()
            x = ord(ch.lower()) - ord("a")
            if x >= k:
                raise PreconditionError(f"letter {ch!r} outside alphabet of rank {k}")
            if ch.islower():
                folder.add_edge(cur, x, nxt, dec)
            else:
                folder.add_edge(nxt, x, cur, stallings._dec_inv(dec))
            cur = nxt
        if n == 0 and track:
            raise PreconditionError("identity word cannot be part of a free basis")
    folder.run()
    # read the folded graph off the roots, normalizing every stored edge
    dec_mul, dec_inv = stallings._dec_mul, stallings._dec_inv
    rbase, pbase = folder.find(base)
    assert pbase == ()
    out_maps, in_maps = {}, {}
    stack = [rbase]
    while stack:
        v = stack.pop()
        if v in out_maps:
            continue
        out_maps[v], in_maps[v] = {}, {}
        for x, (t, d) in folder.out[v].items():
            rt, pt = folder.find(t)
            out_maps[v][x] = (rt, dec_mul(d, dec_inv(pt)) if track else ())
            stack.append(rt)
        for x, (t, d) in folder.inn[v].items():
            rs, _ = folder.find(t)
            in_maps[v][x] = (rs, ())
            stack.append(rs)
    return stallings._canonicalize(k, rbase, out_maps, in_maps, decorations=True if track else None)


def fold_outcome(words, k, track):
    """What from_generators (untracked) or fold_with_expressions (tracked)
    gives: the graph's arrays and the expressions, or the error."""
    try:
        if track:
            graph, exprs = fold_with_expressions(words, k)
        else:
            graph, exprs = from_generators(words, k), None
    except PreconditionError as err:
        return type(err), str(err)
    return graph.m, graph.fwd, graph.bwd, graph.complete, exprs


@settings(max_examples=600, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_reading_fold_matches_per_letter_fold(data):
    k = data.draw(st.integers(1, 3))
    letters = "abc"[:k] + "ABC"[:k]
    words = [
        Word(k, data.draw(st.text(letters, max_size=10)))
        for _ in range(data.draw(st.integers(1, 5)))
    ]
    if data.draw(st.booleans()):
        # a relation: the product of two of the words
        words.append(words[0] * words[-1])
    spoil = data.draw(st.sampled_from(["none", "empty", "rank", "letter"]))
    if spoil != "none":
        bad = {
            "empty": identity(k),
            "rank": Word(k % 3 + 1, "a"),
            # a letter outside the alphabet, as only an unchecked Word holds it
            "letter": Word(k, "a" + "bcd"[k - 1], _reduced=True),
        }[spoil]
        words.insert(data.draw(st.integers(0, len(words))), bad)
    track = data.draw(st.booleans())
    got = fold_outcome(words, k, track)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(stallings, "_fold_words", per_letter_fold)
        assert fold_outcome(words, k, track) == got


def test_reading_fold_keeps_the_error_order():
    # every word is checked before any is read, so the invalid word is
    # reported even when an earlier pair is already a relation
    words = [W("a"), W("a"), identity(2)]
    for fold in (stallings._fold_words, per_letter_fold):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(stallings, "_fold_words", fold)
            with pytest.raises(PreconditionError, match="identity word"):
                fold_with_expressions(words, 2)
            with pytest.raises(PreconditionError, match="not a free basis"):
                fold_with_expressions(words[:2], 2)


def basis_trace_is_subgroup(inner, outer):
    """The test is_subgroup made before the covering walk: every basis
    element of `inner` traces to the base of `outer`."""
    return all(contains(outer, w) for w in basis(inner))


def test_is_subgroup_matches_basis_trace_on_index_4():
    subs = enumerate_subgroups(2, 4)
    hits = 0
    for inner in subs:
        for outer in subs:
            want = basis_trace_is_subgroup(inner, outer)
            assert is_subgroup(inner, outer) == want
            assert (stallings.cover_vertices(inner, outer) is not None) == want
            hits += want
    assert hits > len(subs)  # every subgroup is in itself and in F2


def test_is_subgroup_matches_basis_trace_on_infinite_index():
    rng = random.Random(31)
    subs = enumerate_subgroups(2, 3)
    for _ in range(150):
        gens = [random_word(rng, 2, 6) for _ in range(rng.randrange(1, 3))]
        thin = from_generators(gens, 2)
        for other in subs + [from_generators(gens[:1], 2)]:
            assert is_subgroup(thin, other) == basis_trace_is_subgroup(thin, other)
            assert is_subgroup(other, thin) == basis_trace_is_subgroup(other, thin)
        assert is_subgroup(whole_group(2), thin) == (thin == whole_group(2))


def test_cover_vertices_is_the_covering():
    outer = from_generators([W(w) for w in KER_A], 2)
    inner = intersect(outer, from_generators([W(w) for w in KER_B], 2))
    below = stallings.cover_vertices(inner, outer)
    for tw, v in zip(tree_words(inner), below):
        assert trace(outer, tw) == v
    assert stallings.cover_vertices(outer, inner) is None
    with pytest.raises(PreconditionError):
        stallings.cover_vertices(whole_group(3), outer)

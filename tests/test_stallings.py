"""Stallings graph tests; counts are cross-checked against permutation
brute force and Hall's recursion."""

import math
import random
import time
from itertools import permutations, product

import pytest
from hypothesis import assume, given, settings, strategies as st

from commsol import catalog, stallings
from commsol.commensurations import evaluate, make_fk
from commsol.errors import InfiniteIndexError, PreconditionError, ResourceLimitError
from commsol.freewords import Word, identity
from commsol.groups import group
from commsol.stallings import (
    basis,
    contains,
    coset_action,
    enumerate_subgroups,
    fold_with_expressions,
    format_subgroup,
    from_generators,
    from_permutations,
    index,
    intersect,
    is_subgroup,
    orbit_graph,
    path_image,
    parse_subgroup,
    profinite_kernel,
    substitute,
    trace,
    tree_words,
    whole_group,
)

from oracles import (
    ORACLE,
    SETTINGS,
    express,
    hall_counts,
    kernel_by_intersection,
    label_order_cases,
    label_table,
    nearest_member,
    path_by_products,
    preimage_by_schreier_fold,
    random_word,
    step_project,
    subgroups_by_permutations,
)

W = lambda s: Word(2, s)

KER_A = ["aa", "b", "abA"]  # kernel of a->1, b->0 (mod 2)
KER_B = ["bb", "a", "baB"]  # kernel of a->0, b->1
KER_AB = ["ab", "ba", "aa"]  # kernel of a->1, b->1


def a_exp(w):
    return sum(1 if c == "a" else -1 if c == "A" else 0 for c in w.letters)


def b_exp(w):
    return sum(1 if c == "b" else -1 if c == "B" else 0 for c in w.letters)


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


def test_schreier_words_are_reduced_as_built():
    # oracle: T(v) x T(w)^-1 read with free reduction
    graphs = [*enumerate_subgroups(2, 4), *enumerate_subgroups(3, 3), profinite_kernel(2, 3)]
    graphs += [from_generators([W("ab"), W("aBBa")], 2), from_generators([W("aab")], 2)]
    for graph in graphs:
        words = tree_words(graph)
        want = tuple(
            Word(graph.k, words[v] + chr(ord("a") + x) + words[graph.fwd[x][v]][::-1].swapcase())
            for v, x in stallings._tree_data(graph).nontree
        )
        assert basis(graph) == want


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


def stored(subs):
    return [(g.k, g.m, g.fwd, g.bwd, g.complete) for g in subs]


@pytest.mark.parametrize("k,max_index", [(1, 6), (2, 4), (2, 5), (3, 3), (4, 3)])
def test_enumerate_matches_permutation_brute_force(k, max_index):
    fast = enumerate_subgroups(k, max_index)
    slow = subgroups_by_permutations(k, max_index)
    assert stored(fast) == stored(slow)


@pytest.mark.parametrize("k,max_index", [(1, 5), (2, 1), (2, 4), (3, 2), (3, 3), (4, 2)])
def test_enumeration_is_a_prefix_of_the_next_index(k, max_index):
    longer = enumerate_subgroups(k, max_index + 1)
    assert stored(enumerate_subgroups(k, max_index)) == stored(
        g for g in longer if g.m <= max_index
    )


@pytest.mark.parametrize(
    "k,counts",
    [
        (2, [1, 3, 13, 71, 461, 3447, 29093]),
        (3, [1, 7, 97, 2143]),
        (4, [1, 15, 625]),
        (1, [1] * 4),
        (2, [1]),
        (2, [1, 3]),
    ],
)
def test_enumerate_counts_match_hall(k, counts):
    # Hall's counts per index, and every table complete, distinct and
    # canonical (relabeling it from its own permutations changes nothing),
    # in (index, fwd) order: together they force the exact list, checked
    # to index 6 (index 7 alone holds 29,093 tables)
    top = len(counts)
    assert [hall_counts(k, top)[m] for m in range(1, top + 1)] == counts
    # each subgroup of index m is the stabilizer of a point in (m - 1)! of
    # the transitive k-tuples of permutations of m points
    for m in range(1, min(top, 3) + 1):
        assert counts[m - 1] == brute_force_transitive_tuples(k, m) // math.factorial(m - 1)
    subs = enumerate_subgroups(k, top)
    assert [sum(1 for g in subs if g.m == m) for m in range(1, top + 1)] == counts
    assert len(set(subs)) == len(subs)
    assert all(g.complete and g.k == k for g in subs)
    assert [(g.m, g.fwd) for g in subs] == sorted((g.m, g.fwd) for g in subs)
    for g in subs:
        if g.m <= 6:
            again = from_permutations(k, g.fwd)
            assert again == g and again.bwd == g.bwd


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


@pytest.mark.parametrize(
    "k, max_index", [(1, n) for n in range(1, 7)] + [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2)]
)
def test_profinite_kernel_matches_intersection_loop(k, max_index):
    ker = profinite_kernel(k, max_index)
    want = kernel_by_intersection(group("F", k), max_index)
    assert (ker.fwd, ker.bwd, ker.m) == (want.fwd, want.bwd, want.m)


def test_profinite_kernel_guard_meters_expanded_families(monkeypatch):
    # K_3(F_2) has index 972 over the 17 subgroups of index <= 3; each
    # expanded family costs 17 * 2, and the last one meets the cap exactly;
    # the cap is read once per call, so one set between calls holds next
    monkeypatch.setenv("COMMSOL_MAX_WORK", str(972 * 17 * 2))
    assert profinite_kernel(2, 3).m == 972
    monkeypatch.setenv("COMMSOL_MAX_WORK", str(972 * 17 * 2 - 1))
    with pytest.raises(ResourceLimitError) as err:
        profinite_kernel(2, 3)
    assert "partial index reached 972" in str(err.value)
    # the refusal the CLI's `ball F 2 ab --depth 4` reports, word for word
    monkeypatch.setenv("COMMSOL_MAX_WORK", "10000")
    with pytest.raises(ResourceLimitError) as err:
        profinite_kernel(2, 4)
    assert str(err.value) == (
        "profinite_kernel(k=2, N=4): partial index reached 57: "
        "estimated work 10032 exceeds cap 10000 (set COMMSOL_MAX_WORK to override)"
    )
    # K_4(F_2) over its 88 subgroups: refused at 569 families, 569 * 88 * 2
    monkeypatch.setenv("COMMSOL_MAX_WORK", "100000")
    t0 = time.perf_counter()
    with pytest.raises(ResourceLimitError) as err:
        profinite_kernel(2, 4)
    assert time.perf_counter() - t0 < 0.5
    assert (
        "profinite_kernel(k=2, N=4): partial index reached 569: "
        "estimated work 100144 exceeds cap 100000"
    ) in str(err.value)
    # past index 256 coset labels outgrow a byte: the search goes on as
    # tuples (labels reach 256 after about 256 families) until the guard
    monkeypatch.setenv("COMMSOL_MAX_WORK", str(300 * 300))
    with pytest.raises(ResourceLimitError) as err:
        profinite_kernel(1, 300)
    assert "partial index reached 301: estimated work 90300" in str(err.value)


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


@settings(SETTINGS, max_examples=600)
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


def test_coset_action_matches_per_coset_trace():
    # the oracle is the former preimage step: one trace per coset
    rng = random.Random(13)
    for k in (1, 2, 3):
        for sub in enumerate_subgroups(k, 4):
            words = [identity(k)] + [random_word(rng, k, 8) for _ in range(3)]
            for w in words:
                assert coset_action(sub, w) == [trace(sub, w, c) for c in range(sub.m)]


def test_cover_vertices_is_the_covering():
    outer = from_generators([W(w) for w in KER_A], 2)
    inner = intersect(outer, from_generators([W(w) for w in KER_B], 2))
    below = stallings.cover_vertices(inner, outer)
    for tw, v in zip(tree_words(inner), below):
        assert trace(outer, tw) == v
    assert stallings.cover_vertices(outer, inner) is None
    with pytest.raises(PreconditionError):
        stallings.cover_vertices(whole_group(3), outer)


# -- path images: evaluate ------------------------------------------------------


def orbit_cover(data, k, m):
    """The cover of the stabilizer of 0 under k drawn permutations of m
    points: their action on the orbit of 0, of index at most m."""
    perms = [data.draw(st.permutations(range(m))) for _ in range(k)]
    return orbit_graph(k, 0, lambda v, x, back: perms[x].index(v) if back else perms[x][v])[0]


@ORACLE
@given(st.data())
def test_evaluate_matches_express_and_substitute(data):
    k = data.draw(st.integers(1, 3))
    letters = "abc"[:k] + "ABC"[:k]
    dom = orbit_cover(data, k, data.draw(st.integers(1, 6)))
    # a codomain of the same index: letter a acts as a dom.m-cycle
    cycle = data.draw(st.permutations(range(dom.m)))
    a = [0] * dom.m
    for i, c in enumerate(cycle):
        a[c] = cycle[(i + 1) % dom.m]
    rest = [data.draw(st.permutations(range(dom.m))) for _ in range(k - 1)]
    cod = from_permutations(k, [a, *rest])
    # any bijection of free bases is an isomorphism dom -> cod
    images = [
        w if data.draw(st.booleans()) else ~w
        for w in data.draw(st.permutations(basis(cod)))
    ]
    phi = make_fk(k, basis(dom), images)
    assert (phi.domain, phi.codomain) == (dom, cod)
    be = basis(dom)
    for b, img in zip(be, phi.images):
        assert evaluate(phi, b) == img
    for _ in range(4):
        if data.draw(st.booleans()):
            expr = data.draw(st.lists(st.integers(-len(be), len(be)).filter(bool), max_size=6))
            w = substitute(expr, be)
        else:
            w = Word(k, data.draw(st.text(letters, max_size=12)))
        try:
            want = substitute(express(dom, w), phi.images)
        except PreconditionError as err:
            with pytest.raises(PreconditionError) as got:
                evaluate(phi, w)
            assert str(got.value) == str(err)
        else:
            assert evaluate(phi, w) == want


@ORACLE
@given(st.data())
def test_apply_ambient_matches_letter_products(data):
    # evaluation on the whole group applies the endomorphism sending the
    # letters to letter_images
    k = data.draw(st.integers(1, 3))
    letters = "abc"[:k] + "ABC"[:k]
    letter_images = [Word(k, data.draw(st.text(letters, max_size=5))) for _ in range(k)]
    w = Word(k, data.draw(st.text(letters, max_size=12)))
    want = identity(k)
    for ch in w.letters:
        img = letter_images[ord(ch.lower()) - ord("a")]
        want = want * (img if ch.islower() else ~img)
    grp = group("F", k)
    assert grp.evaluate(grp.whole, letter_images, w) == want


def test_path_image_stops_where_the_path_leaves():
    graph = from_generators([W("ab")], 2)
    labels = label_table(graph, lambda v, x: "ab"[x])
    assert path_image(graph, "abBA", labels) == (0, "")
    assert path_image(graph, "ab", labels, start=0) == (0, "ab")
    assert path_image(graph, "b", labels, start=1) == (0, "b")
    # the path aA then b: b leaves the base, after the image of aA cancels
    assert path_image(graph, "aAb", labels) == (None, "")
    assert path_image(graph, "aa", labels) == (None, "a")


@ORACLE
@given(st.data())
def test_geodesic_return_candidates_are_the_outward_run(data):
    # F1-F3, subgroups of index <= 6 from random transitive permutations
    k = data.draw(st.integers(1, 3))
    m = data.draw(st.integers(1, 6))
    try:
        sub = from_permutations(k, [data.draw(st.permutations(range(m))) for _ in range(k)])
    except PreconditionError:
        assume(False)  # not transitive
    letters = Word(k, data.draw(st.text("abc"[:k] + "ABC"[:k], max_size=12))).letters
    n = j = len(letters)
    verts = [trace(sub, letters[:i]) for i in range(n + 1)]
    dist = stallings._return_table(sub).dist
    while j and dist[verts[j - 1]] == dist[verts[j]] - 1:
        j -= 1
    candidates = [i for i in range(n + 1) if dist[verts[i]] - i == dist[verts[n]] - n]
    assert candidates == list(range(j, n + 1))
    # the baseleaf walk's least candidate, over the word's letters, is the
    # nearest member
    g = Word(k, letters)
    assert step_project(sub, g) == nearest_member(sub, g)


# -- the per-letter kernels against Word products ---------------------------------


def label_pool(rng, k):
    """Edge labels to draw from: short reduced strings, a third of them
    empty."""
    return [""] * 20 + [random_word(rng, k, 3).letters for _ in range(40)]


def random_labels(rng, graph, pool):
    """label(v, x) and its out-label rows: a label drawn from `pool` on
    each edge, and "" where there is no edge."""
    out = [[rng.choice(pool) if t != -1 else "" for t in row] for row in graph.fwd]
    return (lambda v, x: out[x][v]), out


def check_kernels(graph, words, rng, pool):
    """trace and path_image of each of `words` from the base and from a
    random vertex, and the label table, against the Word products along
    the path (oracles.path_by_products)."""
    label, out = random_labels(rng, graph, pool)
    labels = label_table(graph, label)
    assert stallings.label_table(graph, out) == labels
    for w in words:
        for start in {0, rng.randrange(graph.m)}:
            end, img = path_by_products(graph, w, label, start)
            assert trace(graph, w, start) == end
            assert path_image(graph, w, labels, start) == (end, img.letters)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_per_letter_kernels_match_their_letter_decoding_versions(k):
    # every subgroup of index <= 4 and the meets of label_order_cases; each
    # (on F3 each subgroup) is also the domain of a preimage under random
    # images onto a subgroup of index 3, on whose cosets a permutation need
    # not be its own inverse
    graphs, _ = label_order_cases(k)
    rng = random.Random(29 + k)
    pool = [random_word(rng, k, 8) for _ in range(60)]
    labels = label_pool(rng, k)
    subs = [s for s in enumerate_subgroups(k, 3) if s.m == 3]
    for graph in graphs:
        w = rng.choice(pool)
        check_kernels(graph, [w.letters], rng, labels)
        assert coset_action(graph, w) == [trace(graph, w, c) for c in range(graph.m)]
        if k == 3 and graph.m > 4:
            continue
        images = [rng.choice(pool) for _ in basis(graph)]
        sub = rng.choice(subs)
        assert stallings.preimage(graph, images, sub) == preimage_by_schreier_fold(
            graph, images, sub
        )


def test_catalog_evaluate_images_on_and_preimage_match_their_references():
    grp = group("F", 2)
    for phi in catalog.f2_catalog().values():
        for obj in enumerate_subgroups(2, 3):
            pre = stallings.preimage(phi.domain, phi.images, obj)
            assert pre == preimage_by_schreier_fold(phi.domain, phi.images, obj)
            want = [substitute(express(phi.domain, b), phi.images) for b in basis(pre)]
            got = grp.images_on(phi.domain, phi.images, pre)
            assert list(got) == want
            assert [evaluate(phi, b) for b in basis(pre)] == want
            assert list(grp.evaluate_all(phi.domain, phi.images, basis(pre))) == want


@ORACLE
@given(st.data())
def test_per_letter_kernels_match_on_partial_graphs(data):
    # words read from the base and a random vertex of a folded graph, most
    # of infinite index, so that many paths leave it; and the tree words,
    # each of which reaches its vertex
    k = data.draw(st.integers(1, 3))
    letters = "abc"[:k] + "ABC"[:k]
    count = data.draw(st.integers(0, 3))
    gens = [Word(k, data.draw(st.text(letters, max_size=6))) for _ in range(count)]
    graph = from_generators(gens, k)
    words = [data.draw(st.text(letters, max_size=10)) for _ in range(3)]
    rng = random.Random(data.draw(st.integers(0, 2**16)))
    check_kernels(graph, words, rng, label_pool(rng, k))
    assert [trace(graph, tw) for tw in tree_words(graph)] == list(range(graph.m))

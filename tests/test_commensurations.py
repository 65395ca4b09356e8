"""Commensuration tests: pinned examples plus group-law spot checks.

The exhaustive group-axiom suite over the full catalog lives in
test_acceptance; here the examples and edge cases are pinned.
"""

import random
import time
from fractions import Fraction

import pytest

from commsol import catalog, commensurations, groups, lattices, ratmat, stallings
from commsol.commensurations import (
    compose,
    equivalent,
    evaluate,
    format_comm,
    format_comm_inline,
    from_ambient,
    identity_comm,
    images_on,
    inner,
    invert,
    make_fk,
    make_zn,
    parse_comm,
    restriction,
    restriction_onto,
    to_matrix,
    zn1_to_f1,
)
from commsol.errors import InfiniteIndexError, PreconditionError, ResourceLimitError
from commsol.freewords import Word, identity as word_identity
from commsol.prosystems import build_system, zeta, zeta_component

from oracles import preimage_by_schreier_fold

W = lambda s: Word(2, s)
F = Fraction


def times(q):
    return make_zn([[F(q)]])


def test_compose_z1_examples():
    two, three = times(2), times(3)
    six = compose(two, three)
    assert to_matrix(six) == ((F(6),),)
    assert equivalent(compose(two, identity_comm("Z", 1)), two)
    assert equivalent(compose(identity_comm("Z", 1), two), two)


def test_compose_f2_swap_involution():
    swap = catalog.f2_catalog()["swap"]
    assert equivalent(compose(swap, swap), identity_comm("F", 2))
    # evaluate on generators as the oracle
    assert evaluate(swap, W("a")) == W("b")
    assert evaluate(compose(swap, swap), W("a")) == W("a")


def test_invert_examples():
    two = times(2)
    half = invert(two)
    assert to_matrix(half) == ((F(1, 2),),)
    assert half.domain == lattices.from_generators([(2,)])
    assert half.codomain == lattices.whole_group(1)
    assert equivalent(compose(two, half), identity_comm("Z", 1))
    assert equivalent(compose(half, two), identity_comm("Z", 1))

    assert equivalent(invert(identity_comm("F", 2)), identity_comm("F", 2))

    shift_restricted = catalog.f2_catalog()["shift|ker_a"]
    inv = invert(shift_restricted)
    assert equivalent(compose(shift_restricted, inv), identity_comm("F", 2))
    assert equivalent(compose(inv, shift_restricted), identity_comm("F", 2))


def inverse_images_by_inverse_matrix(comm):
    """Reference: the codomain's basis mapped back by (C D^-1)^-1."""
    back = ratmat.inverse(comm.matrix)
    return tuple(tuple(int(x) for x in ratmat.mul_vec(back, t)) for t in comm.codomain.cols)


def test_zn_inverse_images_match_the_inverse_matrix():
    rng = random.Random(59)
    checked = 0
    while checked < 200:
        n = rng.choice([1, 2, 3])
        rows = [[F(rng.randrange(-5, 6), rng.randrange(1, 5)) for _ in range(n)] for _ in range(n)]
        if ratmat.det(ratmat.from_rows(rows)) == 0:
            continue
        comm = make_zn(rows)
        got = comm.group.inverse_images(comm.domain, comm.images, comm.codomain)
        assert got == inverse_images_by_inverse_matrix(comm)
        checked += 1


def test_invert_random_f2_round_trips():
    rng = random.Random(61)
    cat = list(catalog.f2_catalog().values())
    ident = identity_comm("F", 2)
    for c in cat:
        inv = invert(c)
        assert equivalent(compose(c, inv), ident)
        assert equivalent(compose(inv, c), ident)
    for _ in range(10):
        a, b = rng.choice(cat), rng.choice(cat)
        ab = compose(a, b)
        assert equivalent(compose(invert(b), invert(a)), invert(ab))


def test_equivalent_examples():
    cat = catalog.f2_catalog()
    ident = identity_comm("F", 2)
    assert equivalent(cat["identity|ker_a"], ident)
    assert not equivalent(cat["swap"], ident)
    # x -> 2x on Z versus the same formula on 3Z
    two = times(2)
    small = make_zn([[F(2)]], domain=lattices.from_generators([(3,)]))
    assert equivalent(two, small)


def test_matrix_round_trip_examples():
    assert to_matrix(identity_comm("Z", 2)) == ratmat.identity(2)
    half = make_zn([[F(1, 2)]], domain=lattices.from_generators([(2,)]))
    assert to_matrix(half) == ((F(1, 2),),)

    sw = make_zn([[0, 1], [1, 0]])
    assert equivalent(compose(sw, sw), identity_comm("Z", 2))
    with pytest.raises(PreconditionError):
        make_zn([[1, 1], [1, 1]])
    with pytest.raises(PreconditionError, match="square"):
        make_zn([[1, 0]])


A1 = Word(1, "a")


@pytest.mark.parametrize(
    "build",
    [
        lambda: make_zn([[1, 2], [2, 4]]),
        lambda: make_fk(1, [A1], [word_identity(1)]),
        lambda: make_fk(2, [W("a"), W("b")], [W("aa"), W("b")]),
        lambda: make_fk(2, [W("aa"), W("b"), W("abA")], [W("a"), W("b"), W("ab")]),
        lambda: make_fk(2, [W("a"), W("b")], [W("a")]),
    ],
    ids=["singular", "f1_to_identity", "infinite_index", "index_drops", "image_count"],
)
def test_constructors_refuse_non_injective_maps(build):
    with pytest.raises(PreconditionError):
        build()


def test_make_zn_canonical_domain():
    half = make_zn([[F(1, 2)]])
    assert half.domain == lattices.from_generators([(2,)])
    third = make_zn([[F(2, 3)]])
    assert third.domain == lattices.from_generators([(3,)])
    # oracle: v is in the canonical domain iff M v is integral
    m = [[F(1, 2), F(1, 3)], [F(0), F(1)]]
    c = make_zn(m)
    mat = ratmat.from_rows(m)
    for x in range(-6, 7):
        for y in range(-6, 7):
            integral = all(e.denominator == 1 for e in ratmat.mul_vec(mat, (x, y)))
            assert lattices.contains(c.domain, (x, y)) == integral


def test_restriction_and_inner_examples():
    ident = identity_comm("F", 2)
    assert equivalent(inner("F", 2, Word(2, "")), ident)
    got = evaluate(inner("F", 2, W("ab")), W("a"))
    assert got == W("ab") * W("a") * ~W("ab") == W("abaBA")
    assert equivalent(restriction(ident, catalog.ker_a()), ident)
    assert equivalent(inner("Z", 3), identity_comm("Z", 3))


def test_to_matrix_is_homomorphism():
    rng = random.Random(67)
    for _ in range(50):
        n = rng.choice([1, 2, 3])
        a = make_zn(catalog.random_zn_matrix(rng, n))
        b = make_zn(catalog.random_zn_matrix(rng, n))
        assert to_matrix(compose(a, b)) == ratmat.mul(to_matrix(a), to_matrix(b))


def test_inner_injective_at_desk_scale():
    # trivial center: inner(g) ~ inner(h) forces g == h (|g|,|h| <= 4)
    words = [""]
    frontier = [""]
    for _ in range(4):
        nxt = []
        for w in frontier:
            for ch in "abAB":
                if w and w[-1] != ch and w[-1].lower() == ch.lower():
                    continue
                nxt.append(w + ch)
        words.extend(nxt)
        frontier = nxt
    inners = {w: inner("F", 2, Word(2, w)) for w in words}
    items = list(inners.items())
    rng = random.Random(71)
    for _ in range(400):
        (w1, c1), (w2, c2) = rng.choice(items), rng.choice(items)
        assert equivalent(c1, c2) == (w1 == w2)


def test_preimage_subgroup_f2():
    cat = catalog.f2_catalog()
    shift = cat["shift"]
    ka = catalog.ker_a()
    pre = restriction_onto(shift, ka).domain
    # oracle: shift(w) has a-exponent = a-exponent of w, so preimage is ker_a
    assert pre == ka
    swap = cat["swap"]
    assert restriction_onto(swap, ka).domain == catalog.ker_b()
    # and phi(preimage) is exactly the subgroup (within the codomain)
    for b in stallings.basis(pre):
        assert stallings.contains(ka, evaluate(shift, b))


def assert_preimage_matches_fold(comm, sub):
    got = restriction_onto(comm, sub).domain
    want = preimage_by_schreier_fold(comm.domain, comm.images, sub)
    assert (got.m, got.fwd, got.bwd) == (want.m, want.fwd, want.bwd)
    assert got.complete


def test_preimage_matches_schreier_fold_on_catalog():
    subs = stallings.enumerate_subgroups(2, 4)
    for phi in catalog.f2_catalog().values():
        for sub in subs:
            assert_preimage_matches_fold(phi, stallings.intersect(sub, phi.codomain))


def test_preimage_matches_schreier_fold_on_composites():
    # the preimage each of the 144 catalog composites is defined on
    cat = list(catalog.f2_catalog().values())
    for phi in cat:
        for psi in cat:
            assert_preimage_matches_fold(psi, stallings.intersect(psi.codomain, phi.domain))


def random_zn_pairs(seed):
    """Six pairs of random GL_n(Q) maps on each of Z^2 and Z^3."""
    rng = random.Random(seed)
    draw = lambda n: make_zn(catalog.random_zn_matrix(rng, n))
    return [(draw(n), draw(n)) for n in (2, 3) for _ in range(6)]


def test_composite_codomain_matches_generated_images():
    # where the meet is all of phi's domain compose takes phi's codomain
    # instead of generating it; both branches are checked against the fold
    cat = list(catalog.f2_catalog().values())
    pairs = [(phi, psi) for phi in cat for psi in cat] + random_zn_pairs(29)
    known = 0
    for phi, psi in pairs:
        grp = phi.group
        got = compose(phi, psi)
        assert got.codomain == grp.generated(got.images)
        known += grp.intersect(psi.codomain, phi.domain) == phi.domain
    assert 0 < known < len(pairs)


@pytest.mark.parametrize("tag", ["F", "Z"])
def test_compose_after_zeta_searches_no_preimage_of_its_own(monkeypatch, tag):
    # compose pulls psi back through restriction_onto, the step zeta took
    # onto each object's meet: with phi's domain an object of the system,
    # each pullback is already in that memo and no preimage is searched
    if tag == "F":
        maps = list(catalog.f2_catalog().values())
        wholes = [identity_comm("F", 2), maps[1]]
    else:
        maps = [make_zn([[2, 0], [1, 3]]), make_zn([[F(1, 2), 1], [0, 3]])]
        wholes = [identity_comm("Z", 2), make_zn([[0, 1], [1, 0]])]
    depth = 3
    for psi in maps:
        zeta(psi, depth)
    searches = []
    for mod in (stallings, lattices):

        def counted(domain, images, sub, search=mod.preimage):
            # lattices.intersect is the preimage under the inclusion, which
            # it passes as the domain's own columns: a meet, not a pullback
            if images is not getattr(domain, "cols", None):
                searches.append((domain, images, sub))
            return search(domain, images, sub)

        monkeypatch.setattr(mod, "preimage", counted)
    composed = 0
    for obj in build_system(tag, 2, depth).objects:
        for whole in wholes:
            phi = restriction(whole, obj)
            for psi in maps:
                compose(phi, psi)
                composed += 1
    assert composed > 0 and searches == []


def derived_maps(seed):
    """Maps built by compose and restriction: every ordered catalog pair,
    each catalog map on its meets with the depth-3 objects, and seeded
    composites and restrictions on Z^2 and Z^3."""
    cat = list(catalog.f2_catalog().values())
    objects = build_system("F", 2, 3).objects
    maps = [compose(phi, psi) for phi in cat for psi in cat]
    maps += [restriction(phi, stallings.intersect(obj, phi.domain)) for phi in cat for obj in objects]
    for a, b in random_zn_pairs(seed):
        maps += [compose(a, b), compose(b, a)]
        for obj in build_system("Z", a.rank, 2).objects:
            maps.append(restriction(a, lattices.intersect(obj, a.domain)))
    return maps


def test_derived_codomains_match_the_eager_maps():
    # compose and restriction leave the codomain to its first read, where
    # it must be what _make would have generated, under the same rule
    maps = derived_maps(37)
    assert sum(c._codomain is None for c in maps) > len(maps) // 2
    for c in maps:
        grp = c.group
        eager = commensurations._make(grp, c.domain, c.images)
        assert c == eager and hash(c) == hash(eager)
        assert format_comm(c) == format_comm(eager)
        assert c.codomain == eager.codomain == grp.generated(c.images)
        assert grp.basis_size(c.codomain) == len(c.images)


def test_restriction_refuses_an_infinite_index_target():
    ident = identity_comm("F", 2)
    with pytest.raises(InfiniteIndexError):
        restriction(ident, stallings.from_generators([W("aa"), W("b")], 2))


def test_restriction_refusals():
    f_map, z_map = catalog.f2_catalog()["shift|ker_a"], make_zn([[2, 0], [1, 3]])
    outside = [
        (f_map, stallings.whole_group(2)),
        (f_map, catalog.ker_b()),
        # of infinite index and outside the domain: the outside comes first
        (f_map, stallings.from_generators([W("a")], 2)),
        (restriction(z_map, lattices.from_generators([(2, 0), (0, 2)])), lattices.whole_group(2)),
    ]
    for phi, sub in outside:
        with pytest.raises(PreconditionError, match="^restriction target is not inside the domain$"):
            restriction(phi, sub)
    with pytest.raises(PreconditionError, match="^rank mismatch$"):
        restriction(f_map, stallings.whole_group(3))
    with pytest.raises(PreconditionError, match="^dimension mismatch$"):
        restriction(z_map, lattices.whole_group(3))


def test_restriction_walks_the_covering_once(monkeypatch):
    walked = []
    cover_vertices = stallings.cover_vertices

    def counted(inner, outer):
        walked.append((inner, outer))
        return cover_vertices(inner, outer)

    monkeypatch.setattr(stallings, "cover_vertices", counted)
    images_on.cache_clear()
    shift = from_ambient(2, [W("ab"), W("b")])
    objects = [obj for obj in build_system("F", 2, 3).objects if obj != shift.domain]
    restricted = [restriction(shift, obj) for obj in objects]
    assert len(objects) == len(walked) == 16
    assert [r.images for r in restricted] == [images_on(shift, obj) for obj in objects]


def test_equal_arguments_are_answered_without_a_meet(monkeypatch):
    for grp in (groups.group("F", 2), groups.group("Z", 2)):
        for a in grp.enumerate(3):
            assert grp.intersect(a, a) is a
            assert grp.intersect(a, grp.generated(grp.basis(a))) is a
    maps = list(catalog.f2_catalog().values()) + [c for p in random_zn_pairs(41) for c in p]
    twins = [parse_comm(format_comm(c)) for c in maps]

    def no_meet(*args):
        raise AssertionError("a meet for equal arguments")

    monkeypatch.setattr(stallings, "intersect", no_meet)
    monkeypatch.setattr(lattices, "intersect", no_meet)
    for phi, twin in zip(maps, twins):
        assert equivalent(phi, phi)
        assert twin is not phi and equivalent(phi, twin)


def test_preimage_of_the_codomain_is_the_domain():
    maps = list(catalog.f2_catalog().values()) + [c for p in random_zn_pairs(31) for c in p]
    for c in maps:
        assert restriction_onto(c, c.codomain).domain == c.domain
        assert c.group.preimage(c.domain, c.images, c.codomain) == c.domain


def test_preimage_matches_schreier_fold_on_f1_and_f3():
    a1 = Word(1, "a")
    f1_maps = [
        zn1_to_f1(times(2)),
        zn1_to_f1(invert(times(3))),
        make_fk(1, [a1 ** 2], [a1 ** -3]),
        identity_comm("F", 1),
    ]
    for phi in f1_maps:
        for sub in stallings.enumerate_subgroups(1, 6):
            assert_preimage_matches_fold(phi, stallings.intersect(sub, phi.codomain))
    W3 = lambda s: Word(3, s)
    cycle = from_ambient(3, [W3("b"), W3("c"), W3("a")])
    nielsen = from_ambient(3, [W3("ab"), W3("b"), W3("cA")])
    ker_a3 = stallings.from_generators([W3(w) for w in ("aa", "b", "c", "abA", "acA")], 3)
    f3_maps = [cycle, nielsen, restriction(nielsen, ker_a3), compose(cycle, nielsen)]
    for phi in f3_maps:
        for sub in stallings.enumerate_subgroups(3, 3):
            assert_preimage_matches_fold(phi, stallings.intersect(sub, phi.codomain))


def test_preimage_subgroup_rejects_infinite_index():
    swap = catalog.f2_catalog()["swap"]
    with pytest.raises(PreconditionError):
        restriction_onto(swap, stallings.from_generators([W("a")], 2))
    with pytest.raises(PreconditionError):
        restriction_onto(swap, stallings.whole_group(3))


def test_preimage_subgroup_guard_refuses_before_the_search(monkeypatch):
    phi = catalog.f2_catalog()["swap|ker_a"]
    sub = stallings.intersect(catalog.ker_a(), catalog.ker_b())
    # pairs times k, plus cosets times image letters (bb, a, baB)
    estimate = phi.domain.m * sub.m * 2 + sub.m * 6  # 2 * 4 * 2 + 4 * 6
    monkeypatch.setenv("COMMSOL_MAX_WORK", str(estimate - 1))
    t0 = time.perf_counter()
    with pytest.raises(ResourceLimitError) as err:
        restriction_onto(phi, sub)
    assert time.perf_counter() - t0 < 0.5
    assert "preimage_subgroup(domain index 2, subgroup index 4, k=2)" in str(err.value)
    assert f"estimated work {estimate} exceeds cap {estimate - 1}" in str(err.value)
    monkeypatch.setenv("COMMSOL_MAX_WORK", str(estimate))
    assert restriction_onto(phi, sub).domain == preimage_by_schreier_fold(phi.domain, phi.images, sub)


def test_preimage_subgroup_guard_meters_long_images_before_any_row(monkeypatch):
    # a -> a b^40, b -> b on F2: 4 pairs-times-k, but 2 * 42 row steps
    phi = from_ambient(2, [W("a" + "b" * 40), W("b")])
    sub = catalog.ker_a()
    estimate = 1 * 2 * 2 + 2 * 42
    monkeypatch.setenv("COMMSOL_MAX_WORK", str(estimate - 1))

    def no_rows(*args):
        raise AssertionError("row built before the guard")

    with monkeypatch.context() as m:
        m.setattr(stallings, "coset_action", no_rows)
        with pytest.raises(ResourceLimitError) as err:
            restriction_onto(phi, sub)
    assert f"estimated work {estimate} exceeds cap {estimate - 1}" in str(err.value)
    monkeypatch.setenv("COMMSOL_MAX_WORK", str(estimate))
    assert restriction_onto(phi, sub).domain == preimage_by_schreier_fold(phi.domain, phi.images, sub)


def test_zeta_components_match_restriction_of_the_preimage():
    # restriction folds the images to find the codomain; the zeta
    # component is built onto the meet and must agree with it
    maps = list(catalog.f2_catalog().values())
    f2 = groups.group("F", 2)
    for phi in maps:
        extension = f2.ambient(phi.domain, phi.images)
        for obj in build_system("F", 2, 3).objects:
            meet = stallings.intersect(obj, phi.codomain)
            got = zeta_component(phi, obj)
            want = restriction(phi, f2.preimage(phi.domain, phi.images, meet))
            assert got.domain == want.domain and got.codomain == want.codomain
            assert got.images == want.images
            assert f2.ambient(got.domain, got.images) == extension
    phi = make_zn([[2, 0], [1, 3]])
    for obj in build_system("Z", 2, 3).objects:
        meet = lattices.intersect(obj, phi.codomain)
        got = zeta_component(phi, obj)
        want = restriction(phi, phi.group.preimage(phi.domain, phi.images, meet))
        assert (got.domain, got.codomain, got.matrix) == (want.domain, want.codomain, want.matrix)


def test_restriction_onto_rejects_a_forged_codomain(monkeypatch):
    cat = catalog.f2_catalog()
    # a target beyond the codomain: the images land in it, but they fill
    # only its intersection with the codomain
    shift_ka = cat["shift|ker_a"]
    with pytest.raises(PreconditionError, match="is not the image"):
        restriction_onto(shift_ka, stallings.whole_group(2))
    # a wrong preimage of the right index: swap^-1(ker_a) is ker_b, and
    # swap maps ker_a onto ker_b, so an image leaves the target
    commensurations.restriction_onto.cache_clear()
    monkeypatch.setattr(stallings, "preimage", lambda domain, images, sub: sub)
    with pytest.raises(PreconditionError, match="leaves the target"):
        restriction_onto(cat["swap"], catalog.ker_a())
    # compose pulls psi back onto the meet there, with the same checks
    with pytest.raises(PreconditionError, match="leaves the target"):
        compose(cat["identity|ker_a"], cat["swap"])


def test_preimage_subgroup_zn():
    two = times(2)
    pre = restriction_onto(two, lattices.from_generators([(12,)])).domain
    assert pre == lattices.from_generators([(6,)])
    m = make_zn([[F(1, 2), 0], [0, F(3)]])
    target = lattices.from_generators([(2, 0), (0, 3)])
    pre = m and restriction_onto(m, target).domain
    for x in range(-8, 9):
        for y in range(-8, 9):
            if lattices.contains(m.domain, (x, y)):
                img = tuple(int(v) for v in ratmat.mul_vec(m.matrix, (x, y)))
                assert lattices.contains(pre, (x, y)) == lattices.contains(target, img)


def test_zn1_to_f1_translation():
    two = times(2)
    f1 = zn1_to_f1(two)
    assert f1.rank == 1 and f1.domain.m == 1 and f1.codomain.m == 2
    half = invert(two)
    f1h = zn1_to_f1(half)
    assert f1h.domain.m == 2 and f1h.codomain.m == 1
    assert equivalent(compose(f1, f1h), identity_comm("F", 1))


def test_text_round_trip():
    cat = catalog.f2_catalog()
    for name, c in cat.items():
        again = parse_comm(format_comm(c))
        assert equivalent(again, c), name
        again = parse_comm(format_comm_inline(c))
        assert equivalent(again, c), name
    two = times(2)
    assert parse_comm(format_comm(two)) == two
    assert parse_comm(format_comm_inline(two)) == two


def test_ambient_provenance_propagates():
    # a composite of extendable maps extends, and its extension agrees with
    # the stored commensuration
    cat = catalog.f2_catalog()
    composed = compose(cat["swap"], cat["shift"])
    f2 = composed.group
    letters = f2.ambient(composed.domain, composed.images)
    assert letters is not None
    for bw, img in zip(stallings.basis(composed.domain), composed.images):
        assert f2.evaluate(f2.whole, letters, bw) == img


# -- images read off the covering, against evaluation ---------------------------


def evaluated_images(comm, sub):
    """The images images_on replaced: comm evaluated on each basis element
    of sub."""
    return tuple(evaluate(comm, b) for b in comm.group.basis(sub))


def test_images_on_matches_evaluate_on_catalog_meets():
    # depth-4 objects include the depth-3 ones
    objects = build_system("F", 2, 4).objects
    for phi in catalog.f2_catalog().values():
        assert images_on(phi, phi.domain) == phi.images
        for obj in objects:
            sub = stallings.intersect(obj, phi.domain)
            assert images_on(phi, sub) == evaluated_images(phi, sub)


def test_a_parsed_copy_is_answered_from_the_memo_with_its_own_words(monkeypatch):
    # a map equal to one already walked but built anew, here by a text round
    # trip, makes no walk of its own
    objects = build_system("F", 2, 3).objects
    walks = []
    walk = groups.Fk.images_on

    def counted(self, domain, images, sub):
        walks.append(sub)
        return walk(self, domain, images, sub)

    monkeypatch.setattr(groups.Fk, "images_on", counted)
    images_on.cache_clear()
    for phi in catalog.f2_catalog().values():
        copy = parse_comm(format_comm(phi))
        for obj in objects:
            sub = stallings.intersect(obj, phi.domain)
            if sub == phi.domain:
                continue
            walked = images_on(phi, sub)
            before = len(walks)
            got = images_on(copy, sub)
            assert len(walks) == before
            assert got == walked
    assert walks


def test_images_on_matches_evaluate_on_parsed_maps_and_composites():
    parsed = [parse_comm(format_comm(c)) for c in catalog.f2_catalog().values()]
    parsed.append(parse_comm("comm F 2 : aa -> bb ; b -> a ; abA -> baB"))
    composites = [compose(phi, psi) for phi in parsed[::3] for psi in parsed[1::3]]
    # maps that extend to F_2 and maps that do not
    f2 = groups.group("F", 2)
    assert {f2.ambient(c.domain, c.images) is None for c in parsed + composites} == {True, False}
    objects = build_system("F", 2, 3).objects
    for phi in parsed + composites:
        for obj in objects:
            sub = stallings.intersect(obj, phi.domain)
            assert images_on(phi, sub) == evaluated_images(phi, sub)


def test_images_on_matches_evaluate_on_zn():
    for phi in (make_zn([[2, 0], [1, 3]]), make_zn([[F(1, 2), 1], [0, 3]]), times(F(2, 3))):
        n = phi.rank
        for obj in build_system("Z", n, 4).objects:
            sub = lattices.intersect(obj, phi.domain)
            assert images_on(phi, sub) == evaluated_images(phi, sub)


def test_images_on_refuses_a_subgroup_outside_the_domain():
    shift_ka = catalog.f2_catalog()["shift|ker_a"]
    for sub in (stallings.whole_group(2), catalog.ker_b()):
        with pytest.raises(PreconditionError, match="not inside the domain"):
            images_on(shift_ka, sub)

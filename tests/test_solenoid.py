"""Solenoid model tests: covers, lifts, baseleaf, and the metric layer."""

import math
import random
import time
from fractions import Fraction
from functools import lru_cache
from itertools import count, product

import pytest
from hypothesis import given, settings, strategies as st

from commsol import catalog, groups, lattices, prosystems, solenoid, stallings
from commsol.commensurations import (
    compose,
    evaluate,
    format_comm,
    from_ambient,
    identity_comm,
    make_fk,
    make_zn,
    parse_comm,
    restriction,
    zn1_to_f1,
)
from commsol.errors import PreconditionError, ResourceLimitError
from commsol.freewords import Word, identity as word_identity
from commsol.solenoid import (
    INJECTIVITY_RADIUS,
    BallReport,
    EdgePoint,
    MetricValue,
    SolenoidPoint,
    ball_structure,
    baseleaf,
    baseleaf_path,
    d_inf,
    d_pro,
    distinct_fiber_count,
    fiber_representatives,
    kernel,
    leaf_distance,
    lift_through_covers,
    sheet_count,
    sigma,
)

from oracles import SETTINGS, covering_by_tree_words, label_order_cases, path_by_products


W = lambda s: Word(2, s)


def test_metric_value_rendering():
    assert MetricValue.exp(4).render().startswith("exp(-4) = 0.0183156")
    assert MetricValue.zero().render() == "0"
    assert float(MetricValue.exp(1)) == pytest.approx(math.exp(-1))


def test_equal_metric_values_hash_equal():
    half = MetricValue.of_fraction(Fraction(1, 2))
    assert half == MetricValue(approx=0.5)
    assert len({half, MetricValue(approx=0.5)}) == 1
    assert len({MetricValue.zero(note="pseudometric at depth 3"), MetricValue.zero()}) == 1
    assert len({MetricValue.exp(2), MetricValue.exp(2), MetricValue.exp(3)}) == 2


def test_cover_and_covering_map_examples():
    # the covering X_H -> X_K of nested subgroups, as the vertices below
    # (stallings.cover_vertices); the CLI's cover verb refuses an
    # incomplete graph (tests/test_cli.py)
    rose = stallings.whole_group(2)
    assert stallings.cover_vertices(rose, rose) == (0,)
    ka = catalog.ker_a()
    assert stallings.cover_vertices(ka, rose) == (0, 0)
    assert stallings.cover_vertices(ka, ka) == (0, 1)
    assert stallings.cover_vertices(rose, ka) is None


def test_covering_map_matches_tree_word_traces():
    # the vertex of X_K each vertex's tree word reaches, where every edge of
    # X_H lies over an edge of X_K, else None; on F1-F3, over every pair of
    # subgroups of index <= 4, their meets and, on F2, preimages
    # (oracles.label_order_cases), nested or not
    for k in (1, 2, 3):
        pairs = set(label_order_cases(k)[1])
        nested = 0
        for h, big in pairs:
            below = stallings.cover_vertices(h, big)
            assert below == covering_by_tree_words(h, big)
            nested += below is not None
        assert 0 < nested < len(pairs)
    subs = stallings.enumerate_subgroups(2, 4)
    assert sum(stallings.is_subgroup(h, big) for h in subs for big in subs) == 196


def test_covering_map_functoriality():
    subs = stallings.enumerate_subgroups(2, 3)
    whole = stallings.whole_group(2)
    count = 0
    for h in subs:
        for k in subs:
            if not stallings.is_subgroup(h, k):
                continue
            hk = stallings.cover_vertices(h, k)
            kl = stallings.cover_vertices(k, whole)
            hl = stallings.cover_vertices(h, whole)
            assert hl == tuple(kl[v] for v in hk)
            count += 1
    assert count > 17  # includes all (h, whole) pairs and more


def test_lift_identity():
    ident = identity_comm("F", 2)
    gm = lift_through_covers(ident)
    assert gm.vertex_map == (0,)
    ka = catalog.ker_a()
    gm = lift_through_covers(restriction(ident, ka))
    assert gm.vertex_map == (0, 1)
    assert lift_image(gm, W("aa")) == W("aa")


def test_lift_shift_on_kernel():
    cat = catalog.f2_catalog()
    phi = cat["shift|ker_a"]  # a -> ab, b -> b restricted to ker(a mod 2)
    # oracle: every basis image has even a-exponent, so the lift exists
    for img in phi.images:
        assert sum(1 if c == "a" else -1 if c == "A" else 0 for c in img.letters) % 2 == 0
    gm = lift_through_covers(phi)
    for h in [W("aa"), W("b"), W("abA"), W("aabB")]:
        assert lift_image(gm, h) == evaluate(phi, h)


def test_lift_swap_swaps_sheets():
    cat = catalog.f2_catalog()
    swap_on_ka = cat["swap|ker_a"]  # ker_a -> ker_b
    gm = lift_through_covers(swap_on_ka)
    # trace-coset-table oracle: the nontrivial sheet goes to the nontrivial sheet
    assert gm.vertex_map == (0, 1)
    assert lift_image(gm, W("aa")) == W("bb")


def test_lift_collapse_case_agrees_with_evaluation():
    cat = catalog.f2_catalog()
    phi = cat["ker_a_to_ker_total"]  # does not extend to F_2
    assert phi.group.ambient(phi.domain, phi.images) is None
    gm = lift_through_covers(phi)
    rng = random.Random(83)
    bas = stallings.basis(phi.domain)
    for _ in range(30):
        expr = [rng.choice([1, -1]) * rng.randrange(1, len(bas) + 1) for _ in range(4)]
        h = stallings.substitute(tuple(expr), list(bas))
        assert lift_image(gm, h) == evaluate(phi, h)


def lift_path(gm, letters):
    """(end, image) of the path spelling `letters` from the base of the
    lift's source, read through its labels by oracles.path_by_products."""
    labels = gm.labels
    return path_by_products(gm.src, letters, lambda v, x: labels["abc"[x]][v])


def lift_image(gm, word):
    """The lift's image of the based path spelling `word`: the word the
    image path reads."""
    return lift_path(gm, word.letters)[1]


def test_apply_to_path_matches_word_products():
    # lifts of maps that extend to F_k (edges map to the petal images) and
    # of maps that do not (whose tree edges collapse), the catalog maps and
    # their parsed twins, on closed and open paths: path_image through the
    # lift's label table spells the Word product along the path
    maps = list(catalog.f2_catalog().values())
    maps += [parse_comm(format_comm(phi)) for phi in maps]
    maps.append(zn1_to_f1(make_zn([[2]])))
    rng = random.Random(97)
    kinds = set()
    for phi in maps:
        gm = lift_through_covers(phi)
        kinds.add(phi.group.ambient(phi.domain, phi.images) is None)
        letters = "aA" if phi.rank == 1 else "abAB"
        words = [Word(phi.rank, "".join(rng.choice(letters) for _ in range(rng.randrange(9))))
                 for _ in range(40)]
        words += list(stallings.basis(phi.domain))
        for w in words:
            end, img = lift_path(gm, w.letters)
            assert stallings.path_image(gm.src, w.letters, gm.labels) == (end, img.letters)
    assert kinds == {True, False}


def test_lift_error_lists_violating_word():
    ident = identity_comm("F", 2)
    with pytest.raises(PreconditionError) as err:
        lift_through_covers(ident, target=catalog.ker_a())
    assert "a" in str(err.value)


def test_lift_unique():
    cat = catalog.f2_catalog()
    gm1 = lift_through_covers(cat["swap|ker_a"])
    gm2 = lift_through_covers(cat["swap|ker_a"])
    assert gm1.vertex_map == gm2.vertex_map and gm1.labels == gm2.labels


def vertex_map_from_the_base_map(phi, letters, target):
    """Reference: for a map built from the letter images `letters` of an
    endomorphism of F_k, the vertex of the target that the image of each
    tree word of phi's domain reaches; for one built without (None), the
    base for every vertex, as the spanning tree collapses to it."""
    if letters is None:
        return (0,) * phi.domain.m
    grp = phi.group
    return tuple(
        stallings.trace(target, grp.evaluate(grp.whole, letters, Word(phi.rank, tw)))
        for tw in stallings.tree_words(phi.domain)
    )


def catalog_letters():
    """The letter images each catalog map was built from (from_ambient and
    inner), restrictions under their original's name; None for the two
    maps built on ker_a's basis, which do not extend to F_2."""
    a, b = W("a"), W("b")
    conj = lambda g: (g * a * ~g, g * b * ~g)  # noqa: E731
    built = {"identity": (a, b), "swap": (b, a), "shift": (W("ab"), b),
             "inner_a": conj(a), "inner_b": conj(b), "inner_ab": conj(W("ab"))}
    return {name: built.get(name.split("|")[0]) for name in catalog.f2_catalog()}


def test_lift_vertex_map_matches_the_base_map():
    # the catalog into its codomain and every depth-2 object containing it,
    # the same maps parsed back from text (which lift as their originals),
    # and seeded Nielsen automorphisms restricted to subgroups of index <= 4
    letters = catalog_letters()
    cases = [(phi, letters[name]) for name, phi in catalog.f2_catalog().items()]
    cases += [(parse_comm(format_comm(phi)), built) for phi, built in cases]
    rng = random.Random(59)
    for _ in range(12):
        gens = [W("a"), W("b")]
        for _ in range(rng.randrange(1, 5)):
            i = rng.randrange(2)
            gens[i] = gens[i] * (gens[1 - i] if rng.randrange(2) else ~gens[1 - i])
        sub = rng.choice(stallings.enumerate_subgroups(2, 4))
        cases.append((restriction(from_ambient(2, gens), sub), gens))
    objects = prosystems.build_system("F", 2, 2).objects
    kinds = set()
    for phi, built in cases:
        kinds.add(built is None)
        targets = [phi.codomain] + [s for s in objects if stallings.is_subgroup(phi.codomain, s)]
        for target in targets:
            gm = lift_through_covers(phi, target)
            assert gm.vertex_map == vertex_map_from_the_base_map(phi, built, target)
    assert kinds == {True, False}


def test_lift_refuses_an_edge_image_that_does_not_lift(monkeypatch):
    # swap|ker_a's images, which lie in ker_b, read with the identity's
    # letters as its extension: the petal b maps to b, which leaves ker_b's
    # base
    phi = catalog.f2_catalog()["swap|ker_a"]
    monkeypatch.setattr(groups.Fk, "ambient", lambda self, domain, images: (W("a"), W("b")))
    with pytest.raises(PreconditionError, match="^edge image does not lift consistently$"):
        lift_through_covers(phi, catalog.ker_b())


# -- the extension to F_k that a lift reads (groups.Fk.ambient) --------------------


def brute_extension(phi):
    """Reference: every tuple of letter images that reproduces phi on the
    basis of its domain, searched over balls.  An extension sends a^m, for
    m the least power of the letter a in the domain, to phi(a^m), so a's
    image x has x^m = phi(a^m) and |x| <= |phi(a^m)|."""
    grp = phi.group
    candidates = []
    for a in "abc"[: phi.rank]:
        m = next(m for m in count(1) if stallings.contains(phi.domain, Word(phi.rank, a * m)))
        want = evaluate(phi, Word(phi.rank, a * m))
        candidates.append([x for x in grp.ball(len(want)) if x**m == want])
    return [
        letters
        for letters in product(*candidates)
        if all(
            grp.evaluate(grp.whole, letters, b) == img
            for b, img in zip(stallings.basis(phi.domain), phi.images)
        )
    ]


@settings(SETTINGS, max_examples=80)
@given(st.data())
def test_ambient_gives_the_letters_of_a_restricted_nielsen_automorphism(data):
    k = data.draw(st.integers(1, 3))
    gens = [Word(k, x) for x in "abc"[:k]]
    for _ in range(data.draw(st.integers(0, 5))):
        i, j = data.draw(st.integers(0, k - 1)), data.draw(st.integers(0, k - 1))
        if i == j:
            gens[i] = ~gens[i]
        elif data.draw(st.booleans()):
            gens[i], gens[j] = gens[j], gens[i]
        else:
            gens[i] = gens[i] * (gens[j] if data.draw(st.booleans()) else ~gens[j])
    sub = data.draw(st.sampled_from(stallings.enumerate_subgroups(k, 4)))
    phi = restriction(from_ambient(k, gens), sub)
    assert phi.group.ambient(phi.domain, phi.images) == tuple(gens)


def test_ambient_of_a_composite_applies_the_first_extension_to_the_second():
    # where both maps extend, the rule compose once applied to carry the
    # extension: phi's endomorphism applied to psi's letters.  The catalog
    # maps that extend are automorphisms of F_2, so where only one of the
    # two extends the composite cannot (the other would then extend too);
    # where neither does, the search decides.
    letters = catalog_letters()
    cat = catalog.f2_catalog()
    f2 = groups.group("F", 2)
    for f, phi in cat.items():
        for g, psi in cat.items():
            c = compose(phi, psi)
            got = f2.ambient(c.domain, c.images)
            if letters[f] and letters[g]:
                assert got == tuple(f2.evaluate(f2.whole, letters[f], w) for w in letters[g])
            elif letters[f] or letters[g]:
                assert got is None
            else:
                assert brute_extension(c) == ([] if got is None else [got])
    twice = compose(cat["ker_a_basis_swap"], cat["ker_a_basis_swap"])
    assert f2.ambient(twice.domain, twice.images) == (W("a"), W("b"))


def test_ambient_of_a_z1_map_is_a_power_of_a_exactly_when_h_divides_the_image():
    # zn1_to_f1 sends the map h -> img of Z^1 to a^h -> a^img of F_1; the
    # maps x -> (p/q) x on d times their largest domain
    f1 = groups.group("F", 1)
    a = Word(1, "a")
    maps = 0
    for p, q, d in product([*range(-6, 0), *range(1, 7)], (1, 2, 3), (1, 2, 3, 4)):
        z = make_zn([[Fraction(p, q)]])
        z = restriction(z, lattices.Lattice(1, [(d * z.domain.cols[0][0],)]))
        h, img = z.domain.cols[0][0], z.images[0][0]
        phi = zn1_to_f1(z)
        want = (a ** (img // h),) if img % h == 0 else None
        assert f1.ambient(phi.domain, phi.images) == want
        maps += 1
    assert maps == 144


def test_ambient_is_none_for_maps_that_do_not_extend():
    # the two catalog maps built on ker_a's basis, and the restrictions of
    # the catalog's automorphisms to the subgroups of index 2 with one
    # basis image inverted (still an isomorphism onto the same image)
    cat = catalog.f2_catalog()
    f2 = groups.group("F", 2)
    maps = [cat["ker_a_basis_swap"], cat["ker_a_to_ker_total"]]
    for name, built in catalog_letters().items():
        if built is None or "|" in name:
            continue
        for sub in stallings.enumerate_subgroups(2, 2)[1:]:
            r = restriction(cat[name], sub)
            for i in range(len(r.images)):
                images = list(r.images)
                images[i] = ~images[i]
                maps.append(make_fk(2, stallings.basis(sub), images))
    assert len(maps) == 2 + 6 * 3 * 3
    for phi in maps:
        assert f2.ambient(phi.domain, phi.images) is None
        assert brute_extension(phi) == []


def test_baseleaf_examples():
    p = baseleaf(word_identity(2), 2)
    assert p.fiber == word_identity(2) and p.leaf == word_identity(2)

    p = baseleaf((1,), 3)
    assert p.family() == ((0,), (1,), (1,))  # cosets of 1 in Z, 2Z, 3Z

    p = baseleaf(W("ab"), 2)
    objs = [o for o in __import__("commsol.prosystems", fromlist=["build_system"]).build_system("F", 2, 2).objects]
    assert p.family() == tuple(stallings.trace(o, W("ab")) for o in objs)


def test_baseleaf_path():
    pts = baseleaf_path(W("ab"), 2)
    assert len(pts) == 3
    assert pts[0] == baseleaf(word_identity(2), 2)
    assert pts[-1] == baseleaf(W("ab"), 2)
    pts = baseleaf_path((3,), 4)
    assert len(pts) == 4


def test_d_pro_examples():
    assert d_pro("F", 2, W("ab"), W("ab"), 3).is_zero
    val = d_pro("Z", 1, (0,), (12,), 5)
    assert val == MetricValue.exp(4)
    assert float(val) == pytest.approx(math.exp(-4))
    # 12 is in lcm(1..4)Z but not lcm(1..5)Z
    assert lattices.contains(kernel("Z", 1, 4), (12,))
    assert not lattices.contains(kernel("Z", 1, 5), (12,))


def test_d_pro_ultrametric_and_right_invariance():
    rng = random.Random(89)
    for _ in range(100):
        g, h, w = (rng.randrange(-500, 500),), (rng.randrange(-500, 500),), (rng.randrange(-500, 500),)
        dgh = float(d_pro("Z", 1, g, h, 5))
        dgw = float(d_pro("Z", 1, g, w, 5))
        dwh = float(d_pro("Z", 1, w, h, 5))
        assert dgh <= max(dgw, dwh) + 1e-12
        shift = (rng.randrange(-100, 100),)
        assert d_pro("Z", 1, (g[0] + shift[0],), (h[0] + shift[0],), 5) == d_pro("Z", 1, g, h, 5)


def test_sigma_z1_example_and_oracle():
    p0 = baseleaf((0,), 5)
    p12 = baseleaf((12,), 5)
    val = sigma(p0, p12)
    assert val == MetricValue.exp(4)
    assert float(val) == pytest.approx(0.0183156, abs=1e-6)
    # oracle: exhaustive search over g in [-20, 20] straight from the
    # definition min_g max(d_pro(fiber1, fiber2 - g), |leaf1 - (leaf2 + g)|)
    best = None
    for g in range(-20, 21):
        fiber = float(d_pro("Z", 1, (0,), (12 - g,), 5))
        leaf = abs(0 - (0 + g))
        cand = max(fiber, leaf)
        if best is None or cand < best:
            best = cand
    assert float(val) == pytest.approx(best)


def test_zn_leaf_reach_is_the_exact_ceiling_and_sigma_matches_the_padded_scan(monkeypatch):
    rng = random.Random(11)
    pairs = []
    for n in (2, 3):
        grp = groups.group("Z", n)
        assert grp.leaf_reach((0,) * n) == 0
        assert grp.leaf_reach((Fraction(3, 5), Fraction(4, 5), 0)[:n]) == 1
        for _ in range(5):
            g, h = (tuple(rng.randint(-7, 7) for _ in range(n)) for _ in range(2))
            leaf = tuple(Fraction(rng.randint(-6, 6), 4) for _ in range(n))
            leaf2 = tuple(Fraction(rng.randint(-9, 9), 5) for _ in range(n))
            for x in (leaf, leaf2, tuple(5 * v for v in leaf2)):
                r, sq = grp.leaf_reach(x), sum(v * v for v in x)
                assert r.denominator == 1 and (r == sq == 0 or (r - 1) ** 2 < sq <= r**2)
            pairs += [
                (baseleaf(g, 4), baseleaf(h, 4)),
                (SolenoidPoint("Z", n, 4, g, leaf), baseleaf(h, 4)),
                (SolenoidPoint("Z", n, 4, g, leaf), SolenoidPoint("Z", n, 4, h, leaf2)),
            ]
    exact = [sigma(p, q) for p, q in pairs]

    def padded_reach(self, leaf):
        # the float distance rounded with int(d) + 1, so 0.0 reaches 1
        d = self.leaf_distance(leaf, self.identity)
        return d if isinstance(d, Fraction) else Fraction(int(d) + 1)

    monkeypatch.setattr(groups.Zn, "leaf_reach", padded_reach)
    assert exact == [sigma(p, q) for p, q in pairs]


def random_sigma_pairs(rng, tag, rank, depth, count):
    """Pairs of points with random fibers and, about two times in three,
    a leaf off the base vertex: a fractional vector on Z^n, an EdgePoint
    on F_k."""
    grp = groups.group(tag, rank)

    def point():
        if tag == "Z":
            fiber = tuple(rng.randint(-30, 30) for _ in range(rank))
            leaf = tuple(Fraction(rng.randint(-9, 9), rng.choice([2, 3, 4, 5])) for _ in range(rank))
        else:
            fiber = Word(rank, "".join(rng.choice(grp.letters) for _ in range(rng.randrange(6))))
            leaf = EdgePoint(fiber, rng.choice(grp.letters[:rank]), Fraction(rng.randint(1, 7), 8))
        if rng.random() < 1 / 3:
            leaf = grp.identity
        return SolenoidPoint(tag, rank, depth, fiber, leaf)

    return [(point(), point()) for _ in range(count)]


def test_sigma_matches_the_padded_candidate_sets(monkeypatch):
    rng = random.Random(20)
    models = [("F", 1, 4), ("F", 2, 3), ("Z", 1, 5), ("Z", 2, 4), ("Z", 3, 3)]
    pairs = [pair for model in models for pair in random_sigma_pairs(rng, *model, 64)]
    exact = [sigma(p, q) for p, q in pairs]
    at_identity = [float(d_inf(p, q)) for p, q in pairs]
    reaches = [
        best + float(p.group.leaf_reach(p.leaf) + p.group.leaf_reach(q.leaf))
        for best, (p, q) in zip(at_identity, pairs)
    ]
    assert sum(r >= 1 for r in reaches) >= 100 and sum(r < 1 for r in reaches) >= 50
    # a nonzero translate wins often enough for the candidate sets to matter
    assert sum(float(v) < best for v, best in zip(exact, at_identity)) >= 50

    def padded_zn(self, reach):
        bound = int(reach) + 2
        return (g for g in product(range(-bound, bound + 1), repeat=self.rank) if any(g))

    def padded_fk(self, reach):
        return iter(self.ball(int(reach) + 1)[1:])

    monkeypatch.setattr(groups.Zn, "sigma_translates", padded_zn)
    monkeypatch.setattr(groups.Fk, "sigma_translates", padded_fk)
    padded = [sigma(p, q) for p, q in pairs]
    assert [v.render() for v in exact] == [v.render() for v in padded]


def test_sigma_on_zn_evaluates_only_translates_within_the_reach(monkeypatch):
    # the Z^2 and Z^3 pairs of the padded-set test: the box of radius
    # floor(reach) held 6,376 nonzero translates, the Euclidean ball of
    # radius reach holds 3,856, and no sigma value moves
    rng = random.Random(20)
    models = [("F", 1, 4), ("F", 2, 3), ("Z", 1, 5), ("Z", 2, 4), ("Z", 3, 3)]
    pairs = [pair for model in models for pair in random_sigma_pairs(rng, *model, 64)]
    pairs = [(p, q) for p, q in pairs if p.tag == "Z" and p.rank >= 2]
    assert len(pairs) == 128

    def box(self, reach):
        bound = math.floor(reach + 1e-9)
        return (g for g in product(range(-bound, bound + 1), repeat=self.rank) if any(g))

    runs = []
    for translates in (groups.Zn.sigma_translates, box):
        evaluated = []

        def counted(self, reach, translates=translates, evaluated=evaluated):
            for g in translates(self, reach):
                evaluated.append(g)
                yield g

        monkeypatch.setattr(groups.Zn, "sigma_translates", counted)
        values = [sigma(p, q).render() for p, q in pairs]
        runs.append((len(evaluated), values))
    (filtered, values), (boxed, box_values) = runs
    assert (filtered, boxed) == (3856, 6376)
    assert values == box_values


def test_sigma_on_baseleaf_points_evaluates_only_the_identity(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return d_pro(*args)

    monkeypatch.setattr(solenoid, "d_pro", counted)
    for points in (
        [baseleaf(g, 5) for g in ((0, 0), (1, 2), (-3, 4), (6, 0))],
        [baseleaf(W(w), 3) for w in ("", "a", "ab", "BaB")],
    ):
        for p in points:
            for q in points:
                calls.clear()
                sigma(p, q)
                # both leaves sit at the base, so reach = best <= exp(-1) < 1
                assert len(calls) == 1


def test_sigma_same_fiber_edge_points_is_leaf_distance():
    for t1, t2 in [(Fraction(1, 10), Fraction(1, 20)), (Fraction(1, 8), Fraction(1, 16))]:
        p = SolenoidPoint("F", 2, 2, W("ab"), EdgePoint(word_identity(2), "a", t1))
        q = SolenoidPoint("F", 2, 2, W("ab"), EdgePoint(word_identity(2), "a", t2))
        assert sigma(p, q) == MetricValue.of_fraction(abs(t1 - t2))
        assert leaf_distance(p.leaf, q.leaf).exact == abs(t1 - t2)


def test_sigma_symmetry_and_triangle_sampled():
    rng = random.Random(97)
    pts = [baseleaf(W("".join(rng.choice("abAB") for _ in range(rng.randrange(5)))), 2) for _ in range(12)]
    for _ in range(60):
        p, q, r = rng.choice(pts), rng.choice(pts), rng.choice(pts)
        spq, sqp = float(sigma(p, q)), float(sigma(q, p))
        assert spq == pytest.approx(sqp)
        assert float(sigma(p, r)) <= spq + float(sigma(q, r)) + 1e-9


def test_leaf_and_sheet_counts():
    assert sheet_count("F", 2, 2) == 4 == distinct_fiber_count("F", 2, 2)
    assert sheet_count("Z", 1, 5) == 60 == distinct_fiber_count("Z", 1, 5)
    assert sheet_count("Z", 2, 2) == lattices.index(kernel("Z", 2, 2)) == 4


def test_injectivity_radius_constants():
    assert INJECTIVITY_RADIUS == Fraction(1, 2)
    # ball_structure refuses 4 * eps = injrad, on the rose and on the torus
    for p in (baseleaf(word_identity(2), 2), baseleaf((0, 0), 2)):
        with pytest.raises(PreconditionError, match=r"4\*eps < injectivity radius 1/2"):
            ball_structure(p, Fraction(1, 8))


def rose_ball_projection_injective(radius: Fraction) -> bool:
    """Oracle: grid points of the tree ball at the base, projected to the
    rose; injectivity of the projection on this ball."""
    points = [("vertex", None, Fraction(0))]
    grid = [Fraction(i, 100) for i in range(1, 100)]
    for direction in "aAbB":
        for t in grid:
            if t < radius:
                points.append(("edge", direction, t))
    seen = {}
    for kind, direction, t in points:
        if kind == "vertex":
            proj = ("base",)
        else:
            letter = direction.lower()
            proj = (letter, t if direction.islower() else 1 - t)
            if proj[1] == 0:
                proj = ("base",)
        if proj in seen and seen[proj] != (kind, direction, t):
            return False
        seen[proj] = (kind, direction, t)
    return True


def test_rose_injectivity_radius_oracle():
    assert rose_ball_projection_injective(Fraction(49, 100))
    assert not rose_ball_projection_injective(Fraction(51, 100))


def test_ball_structure_examples():
    p = baseleaf(word_identity(2), 2)
    rep = ball_structure(p, Fraction(1, 10))
    assert rep.count == 1 and not rep.degenerate
    # at depth 2 the nonzero fiber distances are exp(-1) ~ 0.368 > 0.1
    for other in fiber_representatives("F", 2, 2):
        d = d_pro("F", 2, p.fiber, other, 2)
        assert d.is_zero or d == MetricValue.exp(1)

    rep = ball_structure(baseleaf(word_identity(2), 1), Fraction(2, 5))
    assert rep.degenerate and rep.count == 1

    with pytest.raises(PreconditionError) as err:
        ball_structure(p, Fraction(1, 5))
    assert "4" in str(err.value)


def test_ball_structure_counts_fibers_within_epsilon():
    # depth-3 fibers at distance exp(-2) ~ 0.135 exceed eps = 0.1, and the
    # zero-distance class is always its own single component
    p = baseleaf(W("ab"), 3)
    rep = ball_structure(p, Fraction(1, 10))
    expected = sum(
        1
        for other in fiber_representatives("F", 2, 3)
        if float(d_pro("F", 2, p.fiber, other, 3)) < 0.1
    )
    assert rep.count == expected == 1


def scanned_ball(p, epsilon) -> BallReport:
    """Oracle: the components by d_pro on every sheet of K_N; the other
    fields as reported."""
    rep = ball_structure(p, epsilon)
    comps = []
    for sheet in fiber_representatives(p.tag, p.rank, p.depth):
        dist = d_pro(p.tag, p.rank, p.fiber, sheet, p.depth)
        if float(dist) < float(epsilon):
            comps.append((sheet, dist))
    return BallReport(rep.depth, rep.epsilon, rep.degenerate, comps, rep.certificate)


BALL_EPSILONS = [-1, 0, Fraction(1, 10**9), Fraction(1, 1000), Fraction(1, 100),
                 Fraction(1, 20), Fraction(1, 9)]


def ball_points():
    for rank, depth in ((1, 5), (2, 3), (3, 2)):
        for n in range(1, depth + 1):
            for w in ("", "a", "AA", "ab", "abAB", "bbb", "ca", "aaaaaa"):
                if all(ord(ch.lower()) - ord("a") < rank for ch in w):
                    yield baseleaf(Word(rank, w), n)
    for rank, depth in ((1, 5), (2, 4), (3, 3)):
        for n in range(1, depth + 1):
            for v in ((0,), (1,), (6,), (-7,), (12,), (1, 2, 3), (6, 12, -18)):
                yield baseleaf((v * rank)[:rank], n)
    yield SolenoidPoint("F", 2, 3, W("ab"), EdgePoint(W("b"), "a", Fraction(1, 3)))


def test_ball_structure_matches_the_per_sheet_scan():
    several = 0
    for p in ball_points():
        for eps in BALL_EPSILONS + ([3] if p.depth == 1 else []):
            rep = ball_structure(p, eps)
            assert rep.render() == scanned_ball(p, eps).render(), (p, eps)
            several += rep.count > 1
    # Z^2 at depth 4 and eps = 1/20: [K_3 : K_4] = [6Z^2 : 12Z^2] = 4 components
    rep = ball_structure(baseleaf((1, 2), 4), Fraction(1, 20))
    assert rep.count == 4 and several > 0


def test_ball_structure_measures_only_the_home_coset(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return d_pro(*args)

    monkeypatch.setattr(solenoid, "d_pro", counted)
    rep = ball_structure(baseleaf(W("ab"), 3), Fraction(1, 20))
    assert rep.count == 1 and len(fiber_representatives("F", 2, 3)) == 972
    assert len(calls) == 1


def test_ball_structure_reads_the_home_coset_from_one_covering_walk(monkeypatch):
    point, line_point = baseleaf(W("ab"), 3), baseleaf(Word(1, "aa"), 5)
    traced, walked = [], []
    coset, cover_vertices = groups.Fk.coset, stallings.cover_vertices

    def counted_coset(self, sub, g):
        traced.append(g)
        return coset(self, sub, g)

    def counted_walk(inner, outer):
        walked.append((inner.m, outer.m))
        return cover_vertices(inner, outer)

    monkeypatch.setattr(groups.Fk, "coset", counted_coset)
    monkeypatch.setattr(stallings, "cover_vertices", counted_walk)
    rep = ball_structure(point, Fraction(1, 20))
    # only the point itself is traced, not each of the 972 sheets of K_3;
    # at depth 3 every epsilon below injrad/4 leaves the home kernel K_3
    assert rep.count == 1 and traced == [W("ab")]
    assert walked == [(972, 972)]
    # F_1 at depth 5 and epsilon 1/20: the 10 sheets of K_5 = 60Z over
    # the home coset of K_3 = 6Z, all within epsilon
    traced.clear()
    walked.clear()
    rep = ball_structure(line_point, Fraction(1, 20))
    assert rep.count == 10 and traced == [Word(1, "aa")]
    assert walked == [(60, 6)]


def test_ball_structure_and_tree_words_build_no_basis():
    ball_structure(baseleaf(W("ab"), 3), Fraction(1, 20))
    ball_structure(baseleaf((1, 2), 4), Fraction(1, 20))
    stallings.tree_words(kernel("F", 3, 2))
    assert stallings.basis.cache_info().misses == 0


def test_d_inf_mixes_fiber_and_leaf():
    p = baseleaf(W("a"), 2)
    q = baseleaf(W("b"), 2)
    v = d_inf(p, q)
    assert v == d_pro("F", 2, p.fiber, q.fiber, 2)
    r = SolenoidPoint("F", 2, 2, p.fiber, EdgePoint(word_identity(2), "a", Fraction(1, 2)))
    assert float(d_inf(p, r)) == pytest.approx(0.5)


def test_zn1_to_f1_lift_round_trip():
    two = make_zn([[2]])
    f1 = zn1_to_f1(two)
    gm = lift_through_covers(f1)
    a = Word(1, "a")
    assert lift_image(gm, a) == a**2
    assert gm.src.m == 1 and gm.dst.m == 2


def test_lift_refuses_a_target_in_another_group():
    f1 = zn1_to_f1(make_zn([[2]]))
    for phi in (f1, make_zn([[2]])):
        # F_3 and Z^1 targets are outside F_1, the group phi lifts in
        for target in (stallings.whole_group(3), lattices.whole_group(1)):
            with pytest.raises(PreconditionError, match="another group than phi's"):
                lift_through_covers(phi, target)
    # a Z^1 map lifts as its F_1 equivalent
    gm = lift_through_covers(make_zn([[2]]), stallings.whole_group(1))
    assert lift_image(gm, Word(1, "a")) == Word(1, "aa")


def test_points_refuse_depth_zero_on_construction():
    for g, leaf in ((Word(2, "ab"), word_identity(2)), ((1, 2), (Fraction(1, 3), 0))):
        grp = groups.of_element(g)
        with pytest.raises(PreconditionError, match="^depth must be >= 1$"):
            baseleaf(g, 0)
        with pytest.raises(PreconditionError, match="^depth must be >= 1$"):
            SolenoidPoint(grp.tag, grp.rank, 0, g, leaf)


def test_points_store_their_group_and_build_no_system():
    assert SolenoidPoint.__slots__ == ("group", "depth", "fiber", "leaf")
    before = prosystems.build_system.cache_info()
    p = baseleaf((1, 2), 6)
    assert prosystems.build_system.cache_info() == before
    assert (p.tag, p.rank, p.group) == ("Z", 2, groups.group("Z", 2))
    # the coset family is derived when read
    objs = prosystems.build_system("Z", 2, 6).objects
    assert p.family() == tuple(lattices.residue(obj, (1, 2)) for obj in objs)
    # every baseleaf point of a depth has the base as its leaf, and the
    # hash still tells the sheets apart
    points = [baseleaf(r, 3) for r in fiber_representatives("F", 2, 3)]
    assert len({hash(q) for q in points}) == len(set(points)) == 972


def test_a_deep_point_hashes_without_building_its_system():
    # equality reads separating_index, and the hash the cosets of the
    # depth-3 system, which contains K_N: neither builds the depth-N system
    start = time.perf_counter()
    p = baseleaf((0, 0), 10**6)
    assert p == baseleaf((0, 0), 10**6)
    assert hash(p) == hash(baseleaf((0, 0), 10**6))
    assert time.perf_counter() - start < 0.5
    # points whose fibers differ by an element of K_5 = 60Z are equal
    deep, shifted = (SolenoidPoint("Z", 1, 5, (f,), (0,)) for f in (0, 60))
    assert deep == shifted and hash(deep) == hash(shifted)


def test_zn_coset_enumeration_is_guarded(monkeypatch):
    monkeypatch.delenv("COMMSOL_MAX_WORK", raising=False)
    # K_10 of Z^2 is 2520 Z^2: 6,350,400 cosets at n^2 = 4 each
    t0 = time.perf_counter()
    with pytest.raises(ResourceLimitError) as err:
        fiber_representatives("Z", 2, 10)
    assert time.perf_counter() - t0 < 0.5
    assert "coset_reps(Z^2, index 6350400)" in str(err.value)
    assert "estimated work 25401600 exceeds cap 20000000" in str(err.value)
    # the sheet count needs no cosets
    assert sheet_count("Z", 2, 10) == 2520**2
    assert len(fiber_representatives("Z", 1, 5)) == 60
    assert len(fiber_representatives("Z", 2, 2)) == 4
    monkeypatch.setenv("COMMSOL_MAX_WORK", str(4 * 4 - 1))
    with pytest.raises(ResourceLimitError):
        fiber_representatives("Z", 2, 2)


# -- the metric path against coset-family oracles ------------------------------------

METRIC_ORACLE = settings(SETTINGS, max_examples=120)


@lru_cache(maxsize=None)
def subgroups_by_index(tag, rank, depth):
    """Per index n <= depth, the subgroups of index n, enumerated afresh."""
    subs = (
        stallings.enumerate_subgroups(rank, depth)
        if tag == "F"
        else lattices.enumerate_lattices(rank, depth)
    )
    index = stallings.index if tag == "F" else lattices.index
    return [[s for s in subs if index(s) == n] for n in range(1, depth + 1)]


def coset_label(tag, sub, g):
    return stallings.trace(sub, g) if tag == "F" else lattices.residue(sub, g)


def coset_family_dpro(tag, rank, g, h, depth) -> float:
    """exp(-n) for the largest n such that g and h lie in the same coset of
    every subgroup of index <= n; 0 when n reaches the depth."""
    agree = 0
    for level in subgroups_by_index(tag, rank, depth):
        if any(coset_label(tag, s, g) != coset_label(tag, s, h) for s in level):
            break
        agree += 1
    return 0.0 if agree == depth else math.exp(-agree)


def lcm_rule_dpro(g, h, depth) -> float:
    """exp(-n) for the largest n with g - h in lcm(1..n) Z^m, which is K_n on
    Z^m; 0 when n reaches the depth."""
    agree = max(
        n
        for n in range(1, depth + 1)
        if all((a - b) % lattices.lcm_range(n) == 0 for a, b in zip(g, h))
    )
    return 0.0 if agree == depth else math.exp(-agree)


def draw_f2_word(data):
    return W(data.draw(st.text("abAB", max_size=8)))


def draw_vector(data, n):
    return tuple(data.draw(st.integers(-120, 120)) for _ in range(n))


@METRIC_ORACLE
@given(st.data())
def test_d_pro_matches_coset_families_on_f2(data):
    depth = data.draw(st.integers(1, 5))
    g, h = draw_f2_word(data), draw_f2_word(data)
    kind = data.draw(st.sampled_from(["any", "k2", "k3"]))
    if kind == "k2":
        # members of every index-2 subgroup
        h = g * W(data.draw(st.sampled_from(["aa", "bb", "abAB", "aabb", "abab"])))
    elif kind == "k3":
        k3 = stallings.basis(kernel("F", 2, 3))
        h = g * k3[data.draw(st.integers(0, len(k3) - 1))]
    got = d_pro("F", 2, g, h, depth)
    assert float(got) == coset_family_dpro("F", 2, g, h, depth)
    assert got.is_zero == (float(got) == 0.0)


@METRIC_ORACLE
@given(st.data())
def test_d_pro_matches_the_lcm_rule_on_zn(data):
    n, depth = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 6))
    g = draw_vector(data, n)
    # differences in lcm(1..k) Z^n, which most often agree past index 2
    step = lattices.lcm_range(data.draw(st.integers(1, 7))) * data.draw(
        st.sampled_from([1, 2, 3, 5, 7])
    )
    h = tuple(x + step * data.draw(st.integers(-3, 3)) for x in g)
    want = lcm_rule_dpro(g, h, depth)
    assert float(d_pro("Z", n, g, h, depth)) == want == coset_family_dpro("Z", n, g, h, depth)


def test_zn_d_pro_needs_no_scan_up_to_the_depth():
    with pytest.raises(PreconditionError, match="depth must be >= 1"):
        d_pro("Z", 2, (0, 0), (1, 0), 0)
    # no scan up to the depth: equal points, and a difference in lcm(1..10) Z^2
    t0 = time.perf_counter()
    assert d_pro("Z", 2, (5, 7), (5, 7), 10**9).is_zero
    assert d_pro("Z", 2, (0, 0), (2520, -2520), 10**9) == MetricValue.exp(10)
    assert time.perf_counter() - t0 < 0.5


@METRIC_ORACLE
@given(st.data())
def test_baseleaf_family_is_the_per_object_cosets(data):
    tag = data.draw(st.sampled_from(["F", "Z"]))
    if tag == "F":
        rank, depth, g = 2, data.draw(st.integers(1, 5)), draw_f2_word(data)
    else:
        rank, depth = data.draw(st.integers(2, 3)), data.draw(st.integers(1, 6))
        g = draw_vector(data, rank)
    want = tuple(
        coset_label(tag, s, g) for level in subgroups_by_index(tag, rank, depth) for s in level
    )
    assert baseleaf(g, depth).family() == want


def kernel_coset_key(p):
    """The point identity of the K_N-coset model: the K_N coset of the
    fiber, and the leaf."""
    ker = kernel(p.tag, p.rank, p.depth)
    if p.tag == "F":
        return stallings.trace(ker, p.fiber), p.leaf
    return lattices.residue(ker, p.fiber), p.leaf


@METRIC_ORACLE
@given(st.data())
def test_point_equality_matches_kernel_cosets(data):
    tag, depth = data.draw(st.sampled_from(["F", "Z"])), data.draw(st.integers(1, 3))
    if tag == "F":
        rank = 2
        ker_basis = stallings.basis(kernel("F", 2, depth))
        fiber = draw_f2_word(data)
        leaf = data.draw(st.sampled_from([word_identity(2), W("a"), W("Ba")]))
        if data.draw(st.booleans()):
            leaf = EdgePoint(leaf, data.draw(st.sampled_from("ab")), Fraction(1, 3))
        deep = ker_basis[data.draw(st.integers(0, len(ker_basis) - 1))]
        other = fiber * deep if data.draw(st.booleans()) else draw_f2_word(data)
    else:
        rank = data.draw(st.integers(2, 3))
        step = lattices.lcm_range(depth)
        fiber = draw_vector(data, rank)
        leaf = tuple(Fraction(data.draw(st.integers(-6, 6)), 4) for _ in range(rank))
        if data.draw(st.booleans()):
            other = tuple(x + step * data.draw(st.integers(-2, 2)) for x in fiber)
        else:
            other = draw_vector(data, rank)
    p = SolenoidPoint(tag, rank, depth, fiber, leaf)
    q = SolenoidPoint(tag, rank, depth, other, leaf)
    assert (p == q) == (kernel_coset_key(p) == kernel_coset_key(q))
    if p == q:
        assert hash(p) == hash(q)


# a sigma on Z^3 between baseleaf points scans 5^3 translates
@settings(METRIC_ORACLE, max_examples=50)
@given(st.data())
def test_sigma_symmetric_and_below_d_pro_at_depth_4(data):
    if data.draw(st.booleans()):
        tag, rank, g, h = "F", 2, draw_f2_word(data), draw_f2_word(data)
    else:
        tag, rank = "Z", data.draw(st.integers(2, 3))
        g, h = draw_vector(data, rank), draw_vector(data, rank)
    p, q = baseleaf(g, 4), baseleaf(h, 4)
    s = sigma(p, q)
    assert s == sigma(q, p)
    assert s <= d_pro(tag, rank, g, h, 4)


def test_graph_map_on_ball_matches_per_path_lifts():
    # oracle: a membership trace and the path's image per ball element, on
    # the catalog maps, their parsed twins and a map of Z^1: raw_on_ball
    # spells the lift's image of each loop and holds None off the domain
    maps = list(catalog.f2_catalog().values())
    maps += [parse_comm(format_comm(phi)) for phi in maps]
    maps.append(zn1_to_f1(make_zn([[2]])))
    for phi in maps:
        gm = lift_through_covers(phi)
        radius = 9 if phi.rank == 1 else 4
        ball = groups.group("F", phi.rank).ball(radius)
        want = [lift_image(gm, g).letters if stallings.contains(phi.domain, g) else None for g in ball]
        assert list(gm.raw_on_ball(radius)) == want


def test_graph_map_raw_on_ball_matches_on_ball_and_per_path_lifts():
    # the catalog maps and seeded restrictions of them to random subgroups
    # of index <= 4: raw_on_ball has one slot per ball element, holds None
    # off the domain, and agrees with the per-path lifts
    cat = catalog.f2_catalog()
    assert len(cat) == 12
    rng = random.Random(24)
    subs = stallings.enumerate_subgroups(2, 4)
    maps = list(cat.values())
    for _ in range(12):
        phi = rng.choice(list(cat.values()))
        maps.append(restriction(phi, stallings.intersect(phi.domain, rng.choice(subs))))
    assert max(phi.domain.m for phi in maps[12:]) > max(phi.domain.m for phi in maps[:12])
    loops = 0
    for i, phi in enumerate(maps):
        gm = lift_through_covers(phi)
        radius = 5 if i % 2 else 4
        ball = groups.group("F", 2).ball(radius)
        raw = list(gm.raw_on_ball(radius))
        assert len(raw) == len(ball)
        for g, img in zip(ball, raw):
            if stallings.contains(phi.domain, g):
                assert img == lift_image(gm, g).letters
                loops += 1
            else:
                assert img is None
    assert loops < sum(groups.group("F", 2).ball_size(4 + i % 2) for i in range(len(maps)))

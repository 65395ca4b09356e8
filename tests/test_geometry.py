"""Geometry layer tests: projections, QI constants, bounded distance,
factorization, and the boundary fixed-point action."""

import random
import time
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from commsol import catalog, groups, lattices, solenoid, stallings
from commsol.commensurations import (
    compose,
    equivalent,
    evaluate,
    format_comm,
    from_ambient,
    identity_comm,
    inner,
    make_zn,
    parse_comm,
    restriction,
    zn1_to_f1,
)
from commsol.errors import InfiniteIndexError, PreconditionError, ResourceLimitError
from commsol.freewords import Word, identity as word_identity
from commsol.geometry import (
    QIEstimate,
    ball_distances,
    baseleaf_map,
    bounded_distance,
    boundary_action,
    certified_constants,
    distinct_pairs,
    factorization_check,
    fixed_point,
    qi_estimate,
)
from commsol.groups import group

from oracles import SETTINGS, nearest_member, step_project


W = lambda s: Word(2, s)

ORACLE = settings(SETTINGS, max_examples=25, suppress_health_check=[HealthCheck.too_slow])


def test_projection_examples_and_oracle():
    cat = catalog.f2_catalog()
    phi = cat["shift|ker_a"]
    m = baseleaf_map(phi)
    # golden value: nearest members of ker_a to "a" are "" and "aa";
    # the lexicographically least is "", so the image is the identity
    assert step_project(phi.domain, W("a")) == word_identity(2)
    assert walk_images(m, 1)[W("a")] == word_identity(2)
    rng = random.Random(101)
    for _ in range(40):
        g = W("".join(rng.choice("abAB") for _ in range(rng.randrange(5))))
        assert step_project(phi.domain, g) == nearest_member(phi.domain, g)


def box_scan_project(sub, g):
    """Reference: the least (l1 distance, vector) over the members in the
    box of radius r0 around g, r0 the distance from g to g minus its
    canonical residue, which is a member."""
    r0 = sum(map(abs, lattices.residue(sub, g)))
    box = (tuple(map(sum, zip(g, delta))) for delta in product(range(-r0, r0 + 1), repeat=len(g)))
    members = [h for h in box if lattices.contains(sub, h)]
    return min(members, key=lambda h: (sum(abs(a - b) for a, b in zip(g, h)), h))


def test_projection_zn_matches_box_scan():
    rng = random.Random(103)
    for _ in range(30):
        n = rng.choice([2, 3])
        phi = make_zn(catalog.random_zn_matrix(rng, n))
        g = tuple(rng.randrange(-6, 7) for _ in range(n))
        assert phi.group.project(phi.domain, g) == box_scan_project(phi.domain, g)
    for n, r in ((1, 4), (2, 3), (3, 2)):
        box = [p for p in product(range(-r, r + 1), repeat=n) if sum(map(abs, p)) <= r]
        assert list(group("Z", n).ball(r)) == sorted(box, key=lambda p: (sum(map(abs, p)), p))


@settings(ORACLE, max_examples=100)
@given(st.data())
def test_projection_matches_oracle_on_random_domains(data):
    # domains of index up to 8 from random transitive permutation pairs
    m = data.draw(st.integers(1, 8))
    perms = [data.draw(st.permutations(range(m))) for _ in range(2)]
    try:
        sub = stallings.from_permutations(2, perms)
    except PreconditionError:
        assume(False)  # not transitive
    phi = restriction(identity_comm("F", 2), sub)
    g = W(data.draw(st.text("abAB", max_size=6)))
    assert step_project(phi.domain, g) == nearest_member(phi.domain, g)


def draw_domain(data, max_index=8):
    """A subgroup of F1, F2 or F3 of index <= max_index."""
    k = data.draw(st.integers(1, 3))
    m = data.draw(st.integers(1, max_index))
    if k == 1:
        return stallings.from_generators([Word(1, "a" * m)], 1)
    perms = [data.draw(st.permutations(range(m))) for _ in range(k)]
    try:
        return stallings.from_permutations(k, perms)
    except PreconditionError:
        assume(False)  # not transitive


def draw_point(data, sub, max_len=8):
    """A word of length <= max_len: any word, one in sub, or one a letter
    past sub (whose projection then tends to cancel into it)."""
    letters = "abc"[: sub.k] + "ABC"[: sub.k]
    kind = data.draw(st.sampled_from(["any", "any", "member", "past"]))
    if kind == "any":
        return Word(sub.k, data.draw(st.text(letters, min_size=2, max_size=max_len)))
    w = Word(sub.k, data.draw(st.text(letters, max_size=max_len // 2)))
    h = w * ~Word(sub.k, stallings.tree_words(sub)[stallings.trace(sub, w)])
    assert stallings.contains(sub, h)
    if kind == "past":
        h = h * Word(sub.k, data.draw(st.sampled_from(letters)))
    assume(len(h) <= max_len)
    return h


@settings(ORACLE, max_examples=200)
@given(st.data())
def test_projection_matches_probe_search_on_f1_to_f3(data):
    sub = draw_domain(data)
    phi = restriction(identity_comm("F", sub.k), sub)
    for _ in range(data.draw(st.integers(1, 8))):
        g = draw_point(data, sub)
        assert step_project(phi.domain, g) == nearest_member(phi.domain, g)


def test_projection_matches_probe_search_on_whole_balls():
    # ties between nearest members and return paths that would cancel into
    # g are rare among random points (about 0.3% of these), so every point
    # of a ball is projected onto every small domain, read off the walk of
    # the inclusion
    for k, max_index, radius in ((1, 8, 8), (2, 4, 5), (3, 3, 3)):
        for sub in stallings.enumerate_subgroups(k, max_index):
            phi = restriction(identity_comm("F", k), sub)
            for g, img in walk_images(baseleaf_map(phi), radius).items():
                assert img == nearest_member(phi.domain, g)


def draw_map(data):
    """An F2 map of one of three kinds: an ambient automorphism restricted
    to a subgroup of index <= 4, a catalog composite that does not extend
    to F2, or a map parsed back from its text form."""
    kind = data.draw(st.sampled_from(["ambient", "composite", "parsed"]))
    cat = catalog.f2_catalog()
    f2 = groups.group("F", 2)
    if kind == "composite":
        composites = {(a, b): compose(cat[a], cat[b]) for a in cat for b in cat}
        pairs = [p for p, c in composites.items() if f2.ambient(c.domain, c.images) is None]
        a, b = data.draw(st.sampled_from(pairs))
        return compose(cat[a], cat[b])
    x, y = W("a"), W("b")
    for move in data.draw(st.lists(st.sampled_from(sorted(NIELSEN_MOVES)), max_size=4)):
        x, y = NIELSEN_MOVES[move](x, y)
    sub = data.draw(st.sampled_from(stallings.enumerate_subgroups(2, 4)))
    phi = restriction(from_ambient(2, [x, y]), sub)
    if kind == "parsed":
        phi = parse_comm(format_comm(phi))
        assert f2.ambient(phi.domain, phi.images) == (x, y)
    return phi


@settings(ORACLE, max_examples=60)
@given(st.data())
def test_baseleaf_images_match_evaluation_of_the_oracle_projection(data):
    phi = draw_map(data)
    images = walk_images(baseleaf_map(phi), data.draw(st.integers(0, 4)))
    for g, img in images.items():
        assert img == evaluate(phi, nearest_member(phi.domain, g))


@settings(ORACLE, max_examples=40)
@given(st.data())
def test_baseleaf_map_is_independent_of_call_order(data):
    # walks of one map at radii in any order are those of a fresh map, and
    # each is the start of the walk at a larger radius
    phi = draw_map(data)
    radii = data.draw(st.lists(st.integers(0, 6), min_size=1, max_size=4))
    shared = baseleaf_map(phi)
    got = [(r, list(shared.raw_on_ball(r))) for r in radii]
    longest = list(baseleaf_map(phi).raw_on_ball(max(radii)))
    assert all(raw == list(baseleaf_map(phi).raw_on_ball(r)) for r, raw in got)
    assert all(raw == longest[: len(raw)] for _, raw in got)


def test_baseleaf_map_fixes_domain_action():
    cat = catalog.f2_catalog()
    for name in ("identity", "swap|ker_a", "ker_a_to_ker_total"):
        phi = cat[name]
        basis = stallings.basis(phi.domain)
        images = walk_images(baseleaf_map(phi), max(map(len, basis)))
        for b in basis:
            assert images[b] == evaluate(phi, b)


def test_baseleaf_map_z1():
    images = walk_images(baseleaf_map(make_zn([[2]])), 5)
    assert images[(5,)] == (10,)
    assert images[(0,)] == (0,)


def test_qi_estimate_identity_and_doubling():
    ident = qi_estimate(baseleaf_map(identity_comm("F", 2)), 4)
    assert (ident.L, ident.C) == (Fraction(1), Fraction(0))
    doubling = qi_estimate(baseleaf_map(make_zn([[2]])), 12)
    assert (doubling.L, doubling.C) == (Fraction(2), Fraction(0))


def qi_estimate_two_pass(m, radius):
    """Reference: the pair-by-pair estimate, with the word metric computed
    as len(~a * b) on F_k and the l1 norm on Z^n, and the constants and
    their certificate pair by pair (fraction_constants)."""

    def dist(a, b):
        if isinstance(a, Word):
            return len(~a * b)
        return sum(abs(x - y) for x, y in zip(a, b))

    elems = m.comm.group.ball(radius)
    images = [per_element_image(m, x) for x in elems]
    tally = [
        (dist(elems[i], elems[j]), dist(images[i], images[j]))
        for i in range(len(elems))
        for j in range(i + 1, len(elems))
    ]
    return QIEstimate(radius, *fraction_constants(tally), len(tally))


def assert_same_estimate(m, radius):
    got, want = qi_estimate(m, radius), qi_estimate_two_pass(m, radius)
    fields = ("radius", "L", "C", "upper", "lower", "pairs")
    assert [getattr(got, f) for f in fields] == [getattr(want, f) for f in fields]
    size = group(m.comm.tag, m.comm.rank).ball_size(radius)
    assert got.pairs == size * (size - 1) // 2


NIELSEN_MOVES = {
    "x->xy": lambda x, y: (x * y, y),
    "x->xY": lambda x, y: (x * ~y, y),
    "x->yx": lambda x, y: (y * x, y),
    "x->Yx": lambda x, y: (~y * x, y),
    "x->X": lambda x, y: (~x, y),
    "swap": lambda x, y: (y, x),
}


@ORACLE
@given(
    st.lists(st.sampled_from(sorted(NIELSEN_MOVES)), max_size=4),
    st.data(),
    st.integers(0, 4),
)
def test_qi_estimate_matches_two_pass_on_nielsen_restrictions(moves, data, radius):
    x, y = W("a"), W("b")
    for move in moves:
        x, y = NIELSEN_MOVES[move](x, y)
    sub = data.draw(st.sampled_from(stallings.enumerate_subgroups(2, 4)))
    assert_same_estimate(baseleaf_map(restriction(from_ambient(2, [x, y]), sub)), radius)


@ORACLE
@given(st.data())
def test_qi_estimate_matches_two_pass_on_zn_maps(data):
    n = data.draw(st.sampled_from([2, 3]))
    entries = st.lists(
        st.lists(st.integers(-3, 3), min_size=n, max_size=n), min_size=n, max_size=n
    )
    matrix, gens = data.draw(entries), data.draw(entries)
    try:
        phi = make_zn(matrix, domain=lattices.Lattice(n, [tuple(col) for col in gens]))
    except (InfiniteIndexError, PreconditionError):
        assume(False)  # generators of infinite index, or a singular matrix
    assert_same_estimate(baseleaf_map(phi), data.draw(st.integers(0, 5 if n == 2 else 3)))


def test_qi_estimate_matches_two_pass_on_doubling():
    assert_same_estimate(baseleaf_map(make_zn([[2]])), 12)


def fraction_constants(tally):
    """Reference: the constants and the certificate in Fractions, from the
    (d, df) pairs of `tally` one by one."""
    up = max([Fraction(1)] + [Fraction(df, d) for d, df in tally if df])
    low = max([Fraction(1)] + [Fraction(d, df) for d, df in tally if df])
    collapse = max([0] + [d for d, df in tally if not df])
    L = max(up, low)
    C = Fraction(collapse, 1) / L if collapse else Fraction(0)
    for d, df in tally:
        assert df <= L * d + C and Fraction(d) / L - C <= df, "certificate failed"
    return L, C, up, low


def test_certified_constants_match_the_fraction_reference():
    rng = random.Random(20)
    kinds = set()
    for _ in range(400):
        keys = {(rng.randint(1, 16), rng.randint(0, 40)) for _ in range(rng.randint(1, 30))}
        got = certified_constants(keys)
        want = fraction_constants(keys)
        assert got == want and all(type(x) is Fraction for x in got)
        L, C, up, low = got
        kinds.add((C > 0, L == low > up))
    # collapsing tallies, and tallies whose L comes from the lower ratio
    assert kinds == {(False, False), (False, True), (True, False), (True, True)}


def test_qi_estimate_refuses_large_balls_early(monkeypatch):
    monkeypatch.setenv("COMMSOL_MAX_WORK", "1000")
    for comm, radius, pairs in (
        (identity_comm("F", 2), 8, 13121 * 13120 // 2),
        (make_zn([[1, 0, 0], [0, 1, 0], [0, 0, 1]]), 6, 377 * 376 // 2),
    ):
        t0 = time.perf_counter()
        with pytest.raises(ResourceLimitError) as err:
            qi_estimate(baseleaf_map(comm), radius)
        assert time.perf_counter() - t0 < 0.5
        assert "qi_estimate" in str(err.value)
        assert f"estimated work {pairs} exceeds cap 1000" in str(err.value)
    # at the cap the estimate is admitted: F2 at R=2 has 17 elements
    monkeypatch.setenv("COMMSOL_MAX_WORK", str(17 * 16 // 2))
    assert qi_estimate(baseleaf_map(identity_comm("F", 2)), 2).pairs == 17 * 16 // 2


def test_qi_estimate_at_the_default_cap_refuses_f2_at_radius_8(monkeypatch):
    # 13,121 elements: the pairs guard refuses before any work
    monkeypatch.delenv("COMMSOL_MAX_WORK", raising=False)
    t0 = time.perf_counter()
    with pytest.raises(ResourceLimitError) as err:
        qi_estimate(baseleaf_map(identity_comm("F", 2)), 8)
    assert time.perf_counter() - t0 < 0.5
    assert f"estimated work {13121 * 13120 // 2} exceeds cap 20000000" in str(err.value)


def test_qi_estimate_runs_f1_at_radius_11(monkeypatch):
    # the pairs guard is the one limit: 23 elements, 253 pairs
    monkeypatch.delenv("COMMSOL_MAX_WORK", raising=False)
    est = qi_estimate(baseleaf_map(identity_comm("F", 1)), 11)
    assert (est.pairs, est.L, est.C) == (23 * 22 // 2, 1, 0)


def test_projection_bound_covers_every_projection():
    # F_k: the largest distance from an element to the subgroup, found by
    # projecting a ball that meets every coset; Z^n: an upper bound on it
    f2 = group("F", 2)
    for sub in stallings.enumerate_subgroups(2, 4):
        phi = restriction(identity_comm("F", 2), sub)
        worst = max(f2.dist(g, img) for g, img in walk_images(baseleaf_map(phi), 3).items())
        assert f2.projection_bound(sub) == worst
    z2 = group("Z", 2)
    for sub in lattices.enumerate_lattices(2, 6):
        phi = make_zn([[1, 0], [0, 1]], sub)
        worst = max(z2.dist(g, phi.group.project(phi.domain, g)) for g in z2.coset_reps(sub))
        assert z2.projection_bound(sub) >= worst
        if sub.cols[0][1] == 0:
            # diagonal: the bound is the largest distance
            assert z2.projection_bound(sub) == worst


def test_bounded_distance_refuses_large_balls_early(monkeypatch):
    monkeypatch.delenv("COMMSOL_MAX_WORK", raising=False)
    cat = catalog.f2_catalog()
    shift, half = baseleaf_map(cat["shift"]), baseleaf_map(cat["shift|ker_a"])
    # 1,062,881 elements, each costing 12 * (1 + 1): each map's walk reads
    # one table row per element, whatever its domain
    t0 = time.perf_counter()
    with pytest.raises(ResourceLimitError) as err:
        bounded_distance(shift, half, 12)
    assert time.perf_counter() - t0 < 0.5
    assert "bounded_distance(F_2, R=12)" in str(err.value)
    assert "estimated work 25509144 exceeds cap 20000000" in str(err.value)
    # admitted exactly at the cap: 17 elements at R=2, each costing 2 * 2
    monkeypatch.setenv("COMMSOL_MAX_WORK", str(17 * 2 * 2))
    assert bounded_distance(shift, half, 2).equivalent
    monkeypatch.setenv("COMMSOL_MAX_WORK", str(17 * 2 * 2 - 1))
    with pytest.raises(ResourceLimitError):
        bounded_distance(shift, half, 2)
    # on Z^n each projection costs the nodes of a search within the
    # projection bound 2 // 2 + 3 // 2 = 2: 2 rows * (4 // 2 + 1) * (4 // 3 + 1)
    sub = lattices.from_generators([(2, 0), (0, 3)], 2)
    m = baseleaf_map(make_zn([[1, 0], [0, 1]], sub))
    grp = group("Z", 2)
    cost = grp.ball_size(3) * 3 * 2 * 12
    assert grp.projection_work(sub, grp.projection_bound(sub)) == 12
    monkeypatch.setenv("COMMSOL_MAX_WORK", str(cost - 1))
    t0 = time.perf_counter()
    with pytest.raises(ResourceLimitError) as err:
        bounded_distance(m, m, 3)
    assert time.perf_counter() - t0 < 0.5
    assert f"bounded_distance(Z_2, R=3): estimated work {cost} exceeds cap {cost - 1}" in str(
        err.value
    )
    monkeypatch.setenv("COMMSOL_MAX_WORK", str(cost))
    assert bounded_distance(m, m, 3).equivalent


def test_qi_estimate_certified_on_catalog_sample():
    cat = catalog.f2_catalog()
    est = qi_estimate(baseleaf_map(cat["swap|ker_a"]), 4)
    assert est.L >= 1 and est.C >= 0  # certification asserted internally
    est = qi_estimate(baseleaf_map(cat["shift"]), 4)
    assert est.L >= 2  # a -> ab doubles some distances


def test_qi_composition_law():
    cat = catalog.f2_catalog()
    for a, b in [("swap", "shift"), ("shift", "inner_a")]:
        fa, fb = baseleaf_map(cat[a]), baseleaf_map(cat[b])
        fc = baseleaf_map(compose(cat[a], cat[b]))
        ea, eb, ec = qi_estimate(fa, 3), qi_estimate(fb, 3), qi_estimate(fc, 3)
        assert ec.L <= ea.L * eb.L
        assert ec.C <= ea.L * eb.C + ea.C + eb.C + 2


def test_bounded_distance_self_is_zero():
    m = baseleaf_map(catalog.f2_catalog()["shift"])
    rep = bounded_distance(m, m, 4)
    assert rep.equivalent and rep.bound == 0 and rep.stabilized_at == 0


def test_bounded_distance_equivalent_pair_stabilizes():
    cat = catalog.f2_catalog()
    rep = bounded_distance(
        baseleaf_map(cat["shift"]), baseleaf_map(cat["shift|ker_a"]), 6
    )
    assert rep.equivalent
    assert rep.maxima[6] == rep.maxima[rep.stabilized_at]
    assert rep.stabilized_at <= 6


def test_bounded_distance_inequivalent_grows():
    cat = catalog.f2_catalog()
    rep = bounded_distance(baseleaf_map(cat["swap"]), baseleaf_map(cat["identity"]), 6)
    assert not rep.equivalent
    assert rep.maxima[6] > rep.maxima[3] > 0
    # oracle: on powers of a, swap sends a^n to b^n at distance 2n
    swap, ident = (walk_images(baseleaf_map(cat[x]), 6) for x in ("swap", "identity"))
    for n in (2, 4, 6):
        g = W("a" * n)
        assert group("F", 2).dist(swap[g], ident[g]) == 2 * n


def test_factorization_examples():
    cat = catalog.f2_catalog()
    assert factorization_check(cat["identity"], 2, 4).passed
    assert factorization_check(cat["shift|ker_a"], 2, 5).passed
    assert factorization_check(cat["ker_a_to_ker_total"], 2, 5).passed
    assert factorization_check(make_zn([[2]]), 4, 12).passed


def test_factorization_check_refuses_large_balls_early(monkeypatch):
    phi = catalog.f2_catalog()["shift|ker_a"]
    # 1457 elements in the F2 ball of radius 6, each costing about 6
    cost = group("F", 2).ball_size(6) * 6
    monkeypatch.setenv("COMMSOL_MAX_WORK", str(cost - 1))
    t0 = time.perf_counter()
    with pytest.raises(ResourceLimitError) as err:
        factorization_check(phi, 2, 6)
    assert time.perf_counter() - t0 < 0.5
    assert (
        f"factorization_check(F_2, R=6): estimated work {cost} exceeds cap {cost - 1}"
        in str(err.value)
    )
    monkeypatch.setenv("COMMSOL_MAX_WORK", str(cost))
    assert factorization_check(phi, 2, 6).passed
    # at the default cap R=6 is admitted with room to spare, while R=13
    # (3,188,645 elements) is refused before its ball is built
    monkeypatch.delenv("COMMSOL_MAX_WORK", raising=False)
    assert cost * 1000 < 20_000_000
    t0 = time.perf_counter()
    with pytest.raises(ResourceLimitError) as err:
        factorization_check(phi, 2, 13)
    assert time.perf_counter() - t0 < 0.5
    assert f"estimated work {3188645 * 13} exceeds cap 20000000" in str(err.value)


def test_fixed_point_examples():
    p = fixed_point(W("ab"))
    assert (str(p.prefix), str(p.period)) == ("1", "ab")
    p = fixed_point(W("Aba"))
    assert (str(p.prefix), str(p.period)) == ("A", "b")
    p = fixed_point(W("a"), "-")
    assert (str(p.prefix), str(p.period)) == ("1", "A")
    with pytest.raises(PreconditionError):
        fixed_point(word_identity(2))


def test_fixed_point_power_invariance():
    rng = random.Random(103)
    for _ in range(50):
        g = W("".join(rng.choice("abAB") for _ in range(rng.randrange(1, 5))))
        if not g:
            continue
        for k in (2, 3):
            assert fixed_point(g) == fixed_point(g**k)


def test_fixed_point_iteration_converges():
    rng = random.Random(107)
    words = [W(s) for s in ("ab", "Aba", "aab", "bA")]
    for g in words:
        p = fixed_point(g)
        for wlen in range(3):
            w = W("".join(rng.choice("abAB") for _ in range(wlen)))
            iterate = g**15 * w
            depth = min(10, len(iterate))
            assert iterate.letters[:depth] == p.expansion(depth)


def test_boundary_action_examples():
    cat = catalog.f2_catalog()
    p = fixed_point(W("ab"))
    assert boundary_action(cat["identity"], p) == p

    q = boundary_action(inner("F", 2, W("a")), fixed_point(W("b")))
    assert (str(q.prefix), str(q.period)) == ("a", "b")
    # oracle: (aba^-1)^n = a b^n a^-1 converges to the expansion a b b b ...
    conj = inner("F", 2, W("a"))
    iterate = evaluate(conj, W("b")) ** 12
    assert iterate.letters[:8] == q.expansion(8)


def test_boundary_action_refuses_a_point_of_a_smaller_group():
    # F_1's a is not F_2's a, though it spells the same letter
    with pytest.raises(PreconditionError, match="another group"):
        boundary_action(catalog.f2_catalog()["swap"], fixed_point(Word(1, "a")))


def test_boundary_action_refuses_a_point_of_a_larger_group():
    # a letter the map's alphabet lacks is refused, not looked up
    with pytest.raises(PreconditionError, match="another group"):
        boundary_action(catalog.f2_catalog()["swap"], fixed_point(Word(3, "c")))


def test_boundary_action_power_independence():
    cat = catalog.f2_catalog()
    phi = cat["inner_a|ker_a_mod3"]
    g = W("a")
    v, m = stallings.trace(phi.domain, g, 0), 1
    while v != 0:
        v, m = stallings.trace(phi.domain, g, v), m + 1
    for mult in (1, 2):
        img = evaluate(phi, g ** (m * mult))
        assert fixed_point(img) == boundary_action(phi, fixed_point(g))


def test_boundary_action_equivariance_sample():
    cat = catalog.f2_catalog()
    gs = [W("a"), W("b"), W("ab"), W("aB")]
    for a, b in [("swap", "shift"), ("inner_a", "swap"), ("shift|ker_a", "inner_b")]:
        phi, psi = cat[a], cat[b]
        comp = compose(phi, psi)
        for g in gs:
            lhs = boundary_action(comp, fixed_point(g))
            rhs = boundary_action(phi, boundary_action(psi, fixed_point(g)))
            assert lhs == rhs


def test_boundary_action_respects_equivalence():
    cat = catalog.f2_catalog()
    gs = [W("a"), W("b"), W("ab"), W("ba"), W("aab")]
    for a, b in catalog.EQUIVALENT_PAIRS:
        assert equivalent(cat[a], cat[b])
        for g in gs:
            assert boundary_action(cat[a], fixed_point(g)) == boundary_action(
                cat[b], fixed_point(g)
            )


def test_factorization_check_reports_a_wrong_lift(monkeypatch):
    # the word equality is the whole check: a lift that spells a wrong
    # word for one element is reported with that word
    phi = catalog.f2_catalog()["shift|ker_a"]
    real = solenoid.lift_through_covers(phi)
    wrong = W("ab")

    class Spoiled:
        def raw_on_ball(self, radius):
            for g, img in zip(group("F", 2).ball(radius), real.raw_on_ball(radius)):
                yield wrong.letters if g == W("aa") else img

    monkeypatch.setattr(solenoid, "lift_through_covers", lambda comm: Spoiled())
    rep = factorization_check(phi, 2, 3)
    assert not rep.passed
    assert rep.mismatches == [(W("aa"), per_element_image(baseleaf_map(phi), W("aa")), wrong)]


def test_factorization_check_validates_depth_first():
    phi = catalog.f2_catalog()["swap"]
    with pytest.raises(PreconditionError) as want:
        solenoid.kernel("F", 2, 0)
    for depth in (0, -1):
        with pytest.raises(PreconditionError) as got:
            factorization_check(phi, depth, 3)
        assert str(got.value) == str(want.value)
    # before the guard, which would refuse this radius
    with pytest.raises(PreconditionError):
        factorization_check(phi, 0, 40)


# -- ball-at-once evaluation against the per-element paths ---------------------------


def per_element_image(m, g):
    """Reference: the projection of g to the domain, then the map; on F_k
    the projection is oracles.nearest_member, which shares no code with
    the walk."""
    if isinstance(g, Word):
        return evaluate(m.comm, nearest_member(m.comm.domain, g))
    return evaluate(m.comm, m.comm.group.project(m.comm.domain, g))


def walk_images(m, radius):
    """The baseleaf walk's images of the ball of `radius`, in ball order,
    by element, as group elements."""
    grp = m.comm.group
    ball, raw = grp.ball(radius), list(m.raw_on_ball(radius))
    assert len(raw) == len(ball)
    return {g: Word(grp.rank, x) if isinstance(x, str) else x for g, x in zip(ball, raw)}


def assert_walk_matches(m, radius):
    for g, img in walk_images(m, radius).items():
        assert img == per_element_image(m, g)


def random_restriction(rng, k, max_index):
    """An automorphism of F_k from random Nielsen moves, restricted to a
    random subgroup of index <= max_index."""
    gens = [Word(k, x) for x in "abc"[:k]]
    for _ in range(rng.randrange(5)):
        i, j = rng.sample(range(k), 2)
        gens[i] = gens[i] * (gens[j] if rng.randrange(2) else ~gens[j])
    sub = rng.choice(stallings.enumerate_subgroups(k, max_index))
    return restriction(from_ambient(k, gens), sub)


def test_f_ball_is_sorted_by_length_then_letters():
    from itertools import product

    for k, radius in ((1, 6), (2, 4), (3, 3)):
        alphabet = "abc"[:k] + "ABC"[:k]
        words = [
            "".join(t) for n in range(radius + 1) for t in product(alphabet, repeat=n)
        ]
        reduced = [w for w in words if Word(k, w).letters == w]
        want = sorted(reduced, key=lambda w: (len(w), w))
        assert [g.letters for g in group("F", k).ball(radius)] == want


def test_on_ball_matches_per_element_images_on_the_catalog():
    cat = catalog.f2_catalog()
    maps = list(cat.values()) + [parse_comm(format_comm(phi)) for phi in cat.values()]
    for phi in maps:
        m = baseleaf_map(phi)
        for radius in (0, 1, 3, 6):
            assert_walk_matches(m, radius)


def test_on_ball_matches_per_element_images_on_restrictions():
    rng = random.Random(2024)
    for k, max_index, radius in [(2, 4, 5)] * 30 + [(3, 3, 3)] * 20:
        assert_walk_matches(baseleaf_map(random_restriction(rng, k, max_index)), radius)


def test_on_ball_matches_per_element_images_on_f1_and_zn():
    f1 = identity_comm("F", 1)
    for m in (3, 4):
        sub = stallings.from_generators([Word(1, "a" * m)], 1)
        assert_walk_matches(baseleaf_map(restriction(f1, sub)), 9)
    assert_walk_matches(baseleaf_map(zn1_to_f1(make_zn([[3]]))), 9)
    rng = random.Random(31)
    for _ in range(5):
        assert_walk_matches(baseleaf_map(make_zn(catalog.random_zn_matrix(rng, 2))), 4)


def bounded_distance_reference(m1, m2, radius):
    """Reference: running maxima of the per-element displacement."""
    grp = m1.comm.group
    maxima, cur = [], 0
    for g in grp.ball(radius):
        r = grp.dist(g, grp.identity)
        cur = max(cur, grp.dist(per_element_image(m1, g), per_element_image(m2, g)))
        while len(maxima) <= r:
            maxima.append(cur)
        maxima[r] = cur
    return maxima + [cur] * (radius + 1 - len(maxima))


def test_bounded_distance_matches_the_per_element_reference():
    cat = catalog.f2_catalog()
    pairs = [(cat[a], cat[b]) for a, b in catalog.EQUIVALENT_PAIRS]
    pairs.append(tuple(cat[x] for x in catalog.INEQUIVALENT_WITNESS))
    rng = random.Random(37)
    pairs += [(random_restriction(rng, 2, 4), random_restriction(rng, 2, 4)) for _ in range(6)]
    for phi, psi in pairs:
        m1, m2 = baseleaf_map(phi), baseleaf_map(psi)
        for radius in (0, 2, 6):
            want = bounded_distance_reference(m1, m2, radius)
            assert bounded_distance(m1, m2, radius).maxima == want
    for _ in range(4):
        m1, m2 = (baseleaf_map(make_zn(catalog.random_zn_matrix(rng, 2))) for _ in "12")
        assert bounded_distance(m1, m2, 4).maxima == bounded_distance_reference(m1, m2, 4)


def factorization_reference(phi, radius):
    """Reference: per ball element, a membership trace, the lift applied
    to its path and the per-element image."""
    lift = solenoid.lift_through_covers(phi)
    m = baseleaf_map(phi)
    checked, mismatches = 0, []
    for g in group("F", phi.rank).ball(radius):
        if stallings.contains(phi.domain, g):
            checked += 1
            via_map = per_element_image(m, g)
            via_lift = Word(phi.rank, stallings.path_image(lift.src, g.letters, lift.labels)[1])
            if via_map != via_lift:
                mismatches.append((g, via_map, via_lift))
    return checked, mismatches


def test_factorization_check_matches_the_per_element_reference():
    cat = catalog.f2_catalog()
    rng = random.Random(41)
    maps = list(cat.values()) + [parse_comm(format_comm(phi)) for phi in cat.values()]
    maps += [random_restriction(rng, 2, 4) for _ in range(6)]
    for phi in maps:
        rep = factorization_check(phi, 2, 6)
        assert (rep.checked, rep.mismatches) == factorization_reference(phi, 6)
    rep = factorization_check(make_zn([[2]]), 3, 12)
    assert (rep.checked, rep.mismatches) == factorization_reference(zn1_to_f1(make_zn([[2]])), 12)


@pytest.mark.parametrize(
    "tag, rank, radius, one_byte",
    [("F", 2, 4, True), ("F", 1, 130, False), ("Z", 2, 4, True), ("Z", 1, 130, False)],
)
def test_ball_distances_are_the_flattened_distance_rows(tag, rank, radius, one_byte):
    # one byte a pair, read-only, while 2R fits in one
    grp = group(tag, rank)
    flat = ball_distances(grp, radius)
    rows = grp.distance_rows(grp.ball(radius))
    assert list(flat) == [d for row in rows for d in row]
    assert isinstance(flat, memoryview) == one_byte
    if one_byte:
        assert flat.itemsize == 1 and flat.readonly


def test_zn_project_guard_refuses_before_the_search(monkeypatch):
    # pivots 1 and 10,000,001, and g at radius 5,000,000 from the member g
    # reduces to: 2 rows * (2 * 5,000,000 + 1) * (0 + 1) nodes, just past the cap
    monkeypatch.delenv("COMMSOL_MAX_WORK", raising=False)
    z2 = group("Z", 2)
    sub = lattices.Lattice(2, ((1, 3_000_000), (0, 10_000_001)))
    start = time.perf_counter()
    with pytest.raises(ResourceLimitError) as err:
        z2.project(sub, (0, 5_000_000))
    assert time.perf_counter() - start < 0.5
    assert "project(Z^2, radius 5000000): estimated work 20000002 exceeds cap 20000000" in str(
        err.value
    )


def test_zn_project_guard_admits_its_estimate(monkeypatch):
    # radius 2 + 1 = 3 on 5Z x 3Z: 2 rows * (6 // 5 + 1) * (6 // 3 + 1) nodes
    z2 = group("Z", 2)
    sub = lattices.from_generators([(5, 0), (0, 3)])
    monkeypatch.setenv("COMMSOL_MAX_WORK", "12")
    assert z2.project(sub, (2, 1)) == (0, 0)
    # (-2, -1) reduces by the nearest multiples to itself, not to (3, 2)
    assert z2.project(sub, (-2, -1)) == (0, 0)
    monkeypatch.setenv("COMMSOL_MAX_WORK", "11")
    with pytest.raises(ResourceLimitError, match="estimated work 12 exceeds cap 11"):
        z2.project(sub, (2, 1))


def test_zn_project_runs_large_diagonal_domains_at_the_default_cap(monkeypatch):
    monkeypatch.delenv("COMMSOL_MAX_WORK", raising=False)
    z3 = group("Z", 3)
    diagonal = lattices.from_generators([(61, 0, 0), (0, 59, 0), (0, 0, 53)])
    assert z3.project(diagonal, (30, 29, 26)) == (0, 0, 0)
    assert z3.project(diagonal, (31, -30, 27)) == (61, -59, 53)
    phi = parse_comm("comm Z 3 : 1/97 0 0 ; 0 1/89 0 ; 0 0 1/83")
    est = qi_estimate(baseleaf_map(phi), 2)
    assert (est.L, est.C, est.pairs) == (1, 4, 25 * 24 // 2)


def test_zn_project_starts_from_the_nearer_residue(monkeypatch):
    monkeypatch.delenv("COMMSOL_MAX_WORK", raising=False)
    z2 = group("Z", 2)
    # g = (2, 0) reduces by the nearest multiples to (-1, -8,000,000) but is
    # its own canonical residue: 2 rows * (4 // 3 + 1) * 1 nodes
    sub = lattices.Lattice(2, ((3, 8_000_000), (0, 16_000_000)))
    assert z2.projection_work(sub, 2) == 4
    assert z2.project(sub, (2, 0)) == (0, 0) == box_scan_project(sub, (2, 0))
    # wherever the canonical residue is small, under pivots and entries
    # below them in the millions, the search runs at the default cap
    rng = random.Random(31)
    scanned = 0
    for _ in range(400):
        n = rng.randint(1, 4)
        sub = random_hnf(rng, n, (1, 2, 3, 5, 1_000_003, 16_000_000), 10**7)
        g = tuple(rng.randint(-3, 3) for _ in range(n))
        if sum(map(abs, lattices.residue(sub, g))) <= 4:
            assert group("Z", n).project(sub, g) == box_scan_project(sub, g)
            scanned += 1
    assert scanned >= 100


def random_hnf(rng, n, pivots, spread):
    """An HNF basis with pivots drawn from `pivots` and entries below them
    drawn from [-spread, spread] (the constructor reduces them)."""
    cols = [
        [0] * j + [rng.choice(pivots)] + [rng.randint(-spread, spread) for _ in range(n - j - 1)]
        for j in range(n)
    ]
    return lattices.Lattice(n, cols)


# (rank, pivots, spread of the entries below them, cases): unit pivots and
# large off-diagonals, in boxes small enough to scan
BOX_SCAN_SHAPES = [
    (1, (1, 2, 5, 12, 37), 0, 80),
    (2, (1, 1, 2, 3, 7, 11), 40, 80),
    (3, (1, 1, 2, 3, 5), 40, 60),
    (4, (1, 1, 2), 40, 30),
]


@pytest.mark.parametrize("rank, pivots, spread, cases", BOX_SCAN_SHAPES)
def test_zn_project_matches_a_box_scan(rank, pivots, spread, cases):
    rng = random.Random(rank)
    z = group("Z", rank)
    for _ in range(cases):
        sub = random_hnf(rng, rank, pivots, spread)
        g = tuple(rng.randint(-40, 40) for _ in range(rank))
        assert z.project(sub, g) == box_scan_project(sub, g)


def test_zn_project_breaks_ties_by_the_least_vector():
    cases = [
        (lattices.from_generators([(2,)]), (1,), (0,)),
        (lattices.from_generators([(2,)]), (-3,), (-4,)),
        (lattices.from_generators([(2, 0), (0, 2)]), (1, 1), (0, 0)),
        (lattices.from_generators([(2, 0), (0, 2)]), (-1, 3), (-2, 2)),
        (lattices.from_generators([(1, 1), (0, 2)]), (0, 1), (-1, 1)),
        (lattices.from_generators([(2, 0, 0), (0, 2, 0), (0, 0, 2)]), (1, -1, 1), (0, -2, 0)),
        (lattices.from_generators([(1, 1, 1), (0, 2, 0), (0, 0, 2)]), (0, 1, 1), (-1, 1, 1)),
    ]
    for sub, g, want in cases:
        assert group("Z", sub.n).project(sub, g) == want == box_scan_project(sub, g)


def test_zn_project_is_equivariant_under_the_lattice():
    rng = random.Random(17)
    for _ in range(200):
        n = rng.randint(1, 4)
        z = group("Z", n)
        sub = random_hnf(rng, n, (1, 2, 3, 7, 40), 60)
        g = tuple(rng.randint(-100, 100) for _ in range(n))
        coeffs = [rng.randint(-50, 50) for _ in range(n)]
        h = tuple(sum(c * col[i] for c, col in zip(coeffs, sub.cols)) for i in range(n))
        assert z.project(sub, z.mul(g, h)) == z.mul(z.project(sub, g), h)


def test_zn_project_nodes_stay_within_the_guard_estimate():
    rng = random.Random(19)
    for _ in range(300):
        n = rng.randint(1, 4)
        z = group("Z", n)
        sub = random_hnf(rng, n, (1, 1, 2, 5, 13, 61), 100)
        g = tuple(rng.randint(-200, 200) for _ in range(n))
        radius = min(
            sum(map(abs, lattices.residue(sub, g))),
            sum(map(abs, lattices.centered_residue(sub, g))),
        )
        member, nodes = lattices.nearest(sub, g, radius)
        assert member == z.project(sub, g)
        assert n <= nodes <= z.projection_work(sub, radius)


def test_zn_projections_are_the_projections_one_by_one():
    rng = random.Random(23)
    for n, radius in ((1, 9), (2, 4), (3, 2)):
        z = group("Z", n)
        ball = z.ball(radius)
        for _ in range(10):
            sub = random_hnf(rng, n, (1, 2, 3, 4, 6), 20)
            assert list(z.projections(sub, ball)) == [z.project(sub, g) for g in ball]


@pytest.mark.parametrize("rank", [1, 2, 3])
def test_zn_distance_rows_match_dist_pair_by_pair(rank):
    grp = group("Z", rank)
    rng = random.Random(rank)
    vecs = [tuple(rng.randint(-50, 50) for _ in range(rank)) for _ in range(30)]
    # repeats, the identity, and distances over 255
    vecs += [vecs[0], vecs[0], grp.identity, grp.identity, (200,) * rank, (-150,) * rank]
    rows = [list(row) for row in grp.distance_rows(vecs)]
    assert rows == [[grp.dist(x, y) for y in vecs[i + 1 :]] for i, x in enumerate(vecs)]
    assert max(map(max, filter(None, rows))) == 350 * rank
    assert list(map(list, grp.distance_rows([]))) == []
    assert list(map(list, grp.distance_rows([grp.identity]))) == [[]]


@pytest.mark.parametrize("rank", [1, 2, 3, 26])
def test_fk_distance_rows_match_dist_pair_by_pair(rank):
    grp = group("F", rank)
    rng = random.Random(rank)
    a, big = grp.letters[0], grp.letters[-1]
    words = [
        Word(rank, "".join(rng.choice(grp.letters) for _ in range(rng.randrange(10))))
        for _ in range(30)
    ]
    # repeats, prefixes of each other, the identity, and distances over 255
    words += [words[0], words[0], grp.identity, grp.identity]
    words += [Word(rank, words[1].letters[:i]) for i in range(len(words[1].letters) + 1)]
    words += [Word(rank, a * 200), Word(rank, a.upper() * 100), Word(rank, a * 130 + big)]
    rows = [list(row) for row in grp.distance_rows(words)]
    assert rows == [[grp.dist(x, y) for y in words[i + 1 :]] for i, x in enumerate(words)]
    assert max(map(max, filter(None, rows))) == 300
    assert list(map(list, grp.distance_rows([]))) == []
    assert list(map(list, grp.distance_rows([grp.identity]))) == [[]]


def test_qi_estimate_on_f1_at_radius_130_matches_the_pair_tally():
    # 261 elements: distances on the ball reach 260 and between images 520
    assert_same_estimate(baseleaf_map(zn1_to_f1(make_zn([[2]]))), 130)


def test_qi_estimate_with_image_distances_past_a_byte_matches_the_pair_tally():
    # 121 elements: distances on the ball reach 120, one byte each, and
    # between images 360, which do not fit
    tripling = make_zn([[3]])
    for m in (baseleaf_map(tripling), baseleaf_map(zn1_to_f1(tripling))):
        grp = m.comm.group
        assert isinstance(ball_distances(grp, 60), memoryview)
        images = list(m.raw_on_ball(60))
        assert grp.raw_dist(images[-2], images[-1]) == 360
        assert_same_estimate(m, 60)


def test_distinct_pairs_agree_across_widths():
    rng = random.Random(5)
    ds = [rng.randrange(256) for _ in range(2000)]
    fs = [rng.randrange(256) for _ in range(2000)]
    got = distinct_pairs(bytes(ds), fs)
    assert len(got) == len(set(got)) and set(got) == set(zip(ds, fs))
    # the ball side or the image side past a byte
    assert distinct_pairs(ds + [300], fs + [7]) == set(zip(ds, fs)) | {(300, 7)}
    assert distinct_pairs(ds + [7], fs + [300]) == set(zip(ds, fs)) | {(7, 300)}
    assert list(distinct_pairs(b"", [])) == []


def test_the_qi_layer_builds_no_word_per_ball_element(monkeypatch):
    # the baseleaf walks and the lift's walk yield letter strings, which
    # the distance kernels and the factorization check read as they are:
    # bounded_distance, qi_estimate and factorization_check build almost
    # no Word, only those of their set-up (the lift's among them)
    cat = catalog.f2_catalog()
    ball_distances(group("F", 2), 4)  # the ball side, shared by every map
    built = []
    init = Word.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Word, "__init__", counted)
    few = 20
    assert few * 8 < group("F", 2).ball_size(4) < group("F", 2).ball_size(6)
    for a, b in catalog.EQUIVALENT_PAIRS:
        del built[:]
        assert bounded_distance(baseleaf_map(cat[a]), baseleaf_map(cat[b]), 6).equivalent
        assert len(built) < few
    restrictions = [cat[b] for _, b in catalog.EQUIVALENT_PAIRS]
    assert all(phi.domain.m > 1 for phi in restrictions)
    for phi in restrictions:
        del built[:]
        qi_estimate(baseleaf_map(phi), 4)
        assert len(built) < few
        del built[:]
        rep = factorization_check(phi, 2, 6)
        assert rep.passed and len(built) < few

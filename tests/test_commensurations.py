"""Commensuration tests: pinned examples plus group-law spot checks.

The exhaustive group-axiom suite over the full catalog lives in
test_acceptance; here the examples and edge cases are pinned.
"""

import random
from fractions import Fraction

import pytest

from commsol import catalog, lattices, ratmat, stallings
from commsol.commensurations import (
    apply_ambient,
    compose,
    equivalent,
    evaluate,
    format_comm,
    format_comm_inline,
    from_ambient,
    from_matrix,
    identity_comm,
    inner,
    invert,
    make_fk,
    make_zn,
    parse_comm,
    preimage_subgroup,
    restriction,
    to_matrix,
    zn1_to_f1,
)
from commsol.errors import PreconditionError
from commsol.freewords import Word

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

    sw = from_matrix([[0, 1], [1, 0]], 2)
    assert equivalent(compose(sw, sw), identity_comm("Z", 2))
    with pytest.raises(PreconditionError):
        from_matrix([[1, 1], [1, 1]], 2)


def test_from_matrix_canonical_domain():
    half = from_matrix([[F(1, 2)]], 1)
    assert half.domain == lattices.from_generators([(2,)])
    third = from_matrix([[F(2, 3)]], 1)
    assert third.domain == lattices.from_generators([(3,)])
    # oracle: v is in the canonical domain iff M v is integral
    m = [[F(1, 2), F(1, 3)], [F(0), F(1)]]
    c = from_matrix(m, 2)
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
    pre = preimage_subgroup(shift, ka)
    # oracle: shift(w) has a-exponent = a-exponent of w, so preimage is ker_a
    assert pre == ka
    swap = cat["swap"]
    assert preimage_subgroup(swap, ka) == catalog.ker_b()
    # and phi(preimage) is exactly the subgroup (within the codomain)
    for b in stallings.basis(pre):
        assert stallings.contains(ka, evaluate(shift, b))


def test_preimage_subgroup_zn():
    two = times(2)
    pre = preimage_subgroup(two, lattices.from_generators([(12,)]))
    assert pre == lattices.from_generators([(6,)])
    m = make_zn([[F(1, 2), 0], [0, F(3)]])
    target = lattices.from_generators([(2, 0), (0, 3)])
    pre = m and preimage_subgroup(m, target)
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
    cat = catalog.f2_catalog()
    composed = compose(cat["swap"], cat["shift"])
    assert composed.ambient is not None
    # ambient provenance must agree with the stored commensuration
    for bw, img in zip(stallings.basis(composed.domain), composed.images):
        assert apply_ambient(composed.ambient, bw) == img


def test_cached_results_keep_their_own_provenance():
    # a parsed map and the same map built from ambient images are equal as
    # commensurations; cached restriction/compose/zeta must still return
    # results carrying each one's own provenance, whatever the call order
    from commsol.prosystems import zeta
    from commsol.solenoid import lift_through_covers

    parsed = parse_comm("comm F 2 : a -> b ; b -> a")
    built = from_ambient(2, [W("b"), W("a")])
    assert parsed == built and parsed.ambient is None and built.ambient is not None
    expected = {id(parsed): (0, 0), id(built): (0, 1)}
    for order in ((parsed, built), (built, parsed)):
        for phi in order:
            r = restriction(phi, catalog.ker_a())
            assert r.ambient == phi.ambient
            assert lift_through_covers(r).vertex_map == expected[id(phi)]
            c = compose(phi, phi)
            assert (c.ambient is None) == (phi.ambient is None)
            z = zeta(phi, 2)
            assert all(comp.ambient == phi.ambient for comp in z.components)

"""Adversarial cross-checks of the core machinery against classical
formulas and brute force: Nielsen-perturbed bases through the expression
fold, preimage subgroups, the exactness of the sigma search, and count
formulas for sublattices and low-index subgroups."""

import math
import random
from fractions import Fraction

from commsol import catalog, lattices, stallings
from commsol.commensurations import (
    compose,
    equivalent,
    evaluate,
    identity_comm,
    preimage_subgroup,
    restriction,
)
from commsol.freewords import Word, identity as word_identity
from commsol.groups import group
from commsol.solenoid import SolenoidPoint, baseleaf, d_pro, kernel, leaf_distance, sigma
from commsol.stallings import (
    basis,
    contains,
    enumerate_subgroups,
    fold_with_expressions,
    from_generators,
    intersect,
    is_subgroup,
    substitute,
)



def nielsen_perturb(rng, words, rounds=6):
    """Apply random elementary Nielsen moves; the result is again a free
    basis of the same subgroup."""
    words = list(words)
    for _ in range(rounds):
        i = rng.randrange(len(words))
        move = rng.randrange(3)
        if move == 0:
            words[i] = ~words[i]
        elif move == 1 and len(words) > 1:
            j = rng.randrange(len(words))
            if j != i:
                words[i] = words[i] * words[j]
        elif move == 2 and len(words) > 1:
            j = rng.randrange(len(words))
            if j != i:
                words[i] = words[j] * words[i]
    return words


def test_expression_fold_on_nielsen_bases():
    rng = random.Random(131)
    pool = enumerate_subgroups(2, 3)
    for _ in range(60):
        sub = rng.choice(pool)
        gens = nielsen_perturb(rng, basis(sub))
        graph, exprs = fold_with_expressions(gens, 2)
        assert graph == sub
        for bw, expr in zip(basis(graph), exprs):
            assert substitute(expr, gens) == bw


def test_preimage_subgroup_properties():
    rng = random.Random(137)
    cat = list(catalog.f2_catalog().values())
    pool = enumerate_subgroups(2, 2)
    for _ in range(40):
        phi = rng.choice(cat)
        j = intersect(rng.choice(pool), phi.codomain)
        pre = preimage_subgroup(phi, j)
        assert is_subgroup(pre, phi.domain)
        # phi maps the preimage exactly onto j (not just into it)
        assert from_generators([evaluate(phi, b) for b in basis(pre)], 2) == j
        # index transport: [H : pre] = [K : j]
        assert pre.m // phi.domain.m == j.m // phi.codomain.m
        # spot membership both ways
        for b in basis(pre):
            assert contains(j, evaluate(phi, b))


def test_sigma_matches_brute_force_fractional_leaves():
    rng = random.Random(139)
    for _ in range(40):
        c1, c2 = rng.randrange(0, 60), rng.randrange(0, 60)
        x1 = Fraction(rng.randrange(-8, 9), rng.choice([2, 3, 4]))
        x2 = Fraction(rng.randrange(-8, 9), rng.choice([2, 3, 4]))
        p = SolenoidPoint("Z", 1, 5, (c1,), (x1,))
        q = SolenoidPoint("Z", 1, 5, (c2,), (x2,))
        got = float(sigma(p, q))
        brute = min(
            max(
                float(d_pro("Z", 1, p.fiber, (q.fiber[0] - g,), 5)),
                abs(float(p.leaf[0] - (q.leaf[0] + g))),
            )
            for g in range(-100, 101)
        )
        assert abs(got - brute) < 1e-12


def test_sigma_matches_brute_force_f2_edge_points():
    from commsol.solenoid import EdgePoint

    rng = random.Random(149)
    reps = [Word(2, w) for w in ("", "a", "b", "ab")]
    for _ in range(30):
        def rnd_point():
            fiber = rng.choice(reps)
            if rng.random() < 0.5:
                leaf = EdgePoint(word_identity(2), rng.choice("ab"), Fraction(rng.randrange(1, 8), 8))
                return SolenoidPoint("F", 2, 2, fiber, leaf)
            return SolenoidPoint("F", 2, 2, fiber, word_identity(2))

        p, q = rnd_point(), rnd_point()
        got = float(sigma(p, q))
        candidates = group("F", 2).ball(3)
        brute = min(
            max(
                float(d_pro("F", 2, p.fiber, q.fiber * ~g, 2)),
                float(
                    leaf_distance(
                        p.leaf,
                        q.leaf if not g else _translate(g, q.leaf),
                    )
                ),
            )
            for g in candidates
        )
        assert abs(got - brute) < 1e-12


def _translate(g, leaf):
    from commsol.solenoid import EdgePoint

    if isinstance(leaf, EdgePoint):
        return EdgePoint(g * leaf.tail, leaf.letter, leaf.t)
    return g * leaf


def test_sublattice_counts_match_divisor_sums():
    lats = lattices.enumerate_lattices(2, 6)
    counts = {}
    for lat in lats:
        counts[lattices.index(lat)] = counts.get(lattices.index(lat), 0) + 1
    # classical: the number of index-m sublattices of Z^2 is sigma(m)
    for m in range(1, 7):
        divisor_sum = sum(d for d in range(1, m + 1) if m % d == 0)
        assert counts[m] == divisor_sum


def test_subgroup_counts_hall_rank3():
    subs = enumerate_subgroups(3, 3)
    counts = {}
    for g in subs:
        counts[g.m] = counts.get(g.m, 0) + 1
    # Hall's recursion at k=3: N1=1, N2=7, N3=97
    expected = {}
    for m in (1, 2, 3):
        total = m * math.factorial(m) ** 2
        for i in range(1, m):
            total -= math.factorial(m - i) ** 2 * expected[i]
        expected[m] = total
    assert counts == expected == {1: 1, 2: 7, 3: 97}


def test_lift_of_deep_restriction():
    from commsol.solenoid import lift_through_covers

    ker2 = stallings.profinite_kernel(2, 2)
    ident = identity_comm("F", 2)
    deep = restriction(ident, ker2)
    gm = lift_through_covers(deep, target=catalog.ker_a())
    # the lift of an inclusion acts as the covering projection on sheets
    for h in basis(ker2):
        assert stallings.path_image(gm.src, h.letters, gm.labels) == (0, h.letters)


def test_compose_chain_domains_shrink_correctly():
    rng = random.Random(151)
    cat = list(catalog.f2_catalog().values())
    for _ in range(30):
        a, b = rng.choice(cat), rng.choice(cat)
        ab = compose(a, b)
        # defining property of the composite domain
        for w in basis(ab.domain):
            assert contains(b.domain, w)
            assert contains(a.domain, evaluate(b, w))
            assert evaluate(ab, w) == evaluate(a, evaluate(b, w))
        # and it is the largest such subgroup: the preimage construction
        expected = preimage_subgroup(b, intersect(b.codomain, a.domain))
        assert ab.domain == expected


def test_kernel_tower_is_nested():
    for tag, rank, depths in (("F", 2, (1, 2, 3)), ("Z", 1, (1, 2, 3, 4, 5))):
        prev = None
        for n in depths:
            ker = kernel(tag, rank, n)
            if prev is not None:
                if tag == "F":
                    assert stallings.is_subgroup(ker, prev)
                else:
                    assert lattices.is_subgroup(ker, prev)
            prev = ker


def test_baseleaf_injective_at_truncation():
    # truncation-level shadow of baseleaf injectivity: two group elements
    # hit the same depth-N point exactly when they differ by the kernel
    rng = random.Random(157)
    words = [Word(2, "".join(rng.choice("abAB") for _ in range(rng.randrange(6)))) for _ in range(40)]
    ker = kernel("F", 2, 2)
    for g in words:
        for h in words:
            same = baseleaf(g, 2) == baseleaf(h, 2)
            assert same == contains(ker, ~g * h)

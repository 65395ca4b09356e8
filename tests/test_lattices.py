"""Lattice (Z^n subgroup) tests with brute-force membership oracles."""

import math
import random
from itertools import product

import pytest

from commsol import ratmat
from commsol.errors import InfiniteIndexError, ParseError, PreconditionError, ResourceLimitError
from commsol.groups import group
from commsol.lattices import (
    contains,
    enumerate_lattices,
    format_lattice,
    from_generators,
    index,
    intersect,
    is_subgroup,
    lcm_range,
    parse_lattice,
    preimage,
    profinite_kernel,
    whole_group,
)

from oracles import kernel_by_intersection


def residues_mod(gens, n, mod):
    """Oracle: the subgroup's image in (Z/mod)^n, spanned by BFS."""
    seen = {(0,) * n}
    frontier = [(0,) * n]
    while frontier:
        v = frontier.pop()
        for g in gens:
            for sign in (1, -1):
                w = tuple((v[i] + sign * g[i]) % mod for i in range(n))
                if w not in seen:
                    seen.add(w)
                    frontier.append(w)
    return seen


def test_from_generators_examples():
    lat = from_generators([(2, 0), (0, 3)])
    assert lat.cols == ((2, 0), (0, 3))
    assert index(lat) == 6

    assert from_generators([(1, 0), (0, 1)]) == whole_group(2)

    lat = from_generators([(2, 0), (1, 1), (0, 2)])
    assert index(lat) == 2
    # oracle: the subgroup's residues mod 4 determine membership (4Z^2 <= L)
    res = residues_mod([(2, 0), (1, 1), (0, 2)], 2, 4)
    assert len(res) == 16 // 2
    for x in range(4):
        for y in range(4):
            assert contains(lat, (x, y)) == ((x, y) in res)


def test_from_generators_rank_deficient():
    with pytest.raises(InfiniteIndexError):
        from_generators([(1, 2), (2, 4)])
    with pytest.raises(InfiniteIndexError):
        from_generators([], 2)


def det2(a, b, c, d):
    return a * d - b * c


def test_index_examples():
    assert index(from_generators([(2, 0), (0, 3)])) == 6
    assert index(whole_group(3)) == 1
    lat = from_generators([(2, 1), (0, 5)])
    assert index(lat) == abs(det2(2, 0, 1, 5)) == 10


def test_membership_and_intersection_examples():
    l1 = from_generators([(2, 0), (0, 1)])
    l2 = from_generators([(1, 0), (0, 3)])
    meet = intersect(l1, l2)
    assert meet == from_generators([(2, 0), (0, 3)])
    assert index(meet) == 6
    # oracle: brute-force over residues mod 6
    res1 = residues_mod(l1.cols, 2, 6)
    res2 = residues_mod(l2.cols, 2, 6)
    resm = residues_mod(meet.cols, 2, 6)
    assert resm == res1 & res2

    assert intersect(l1, l1) == l1
    assert contains(from_generators([(2, 0), (0, 3)]), (2, 3))
    assert is_subgroup(meet, l1) and is_subgroup(meet, l2)


def test_intersection_properties_random():
    rng = random.Random(19)
    for _ in range(60):
        n = rng.choice([1, 2, 3])
        gens1 = [[rng.randrange(-4, 5) for _ in range(n)] for _ in range(n + 1)]
        gens2 = [[rng.randrange(-4, 5) for _ in range(n)] for _ in range(n + 1)]
        try:
            l1, l2 = from_generators(gens1, n), from_generators(gens2, n)
        except InfiniteIndexError:
            continue
        meet = intersect(l1, l2)
        assert is_subgroup(meet, l1) and is_subgroup(meet, l2)
        lcm = index(l1) * index(l2) // math.gcd(index(l1), index(l2))
        assert index(meet) % lcm == 0


def test_canonicality_under_permutation():
    rng = random.Random(23)
    for _ in range(50):
        n = rng.choice([2, 3])
        gens = [[rng.randrange(-5, 6) for _ in range(n)] for _ in range(n)]
        try:
            lat = from_generators(gens, n)
        except InfiniteIndexError:
            continue
        cols = list(lat.cols)
        rng.shuffle(cols)
        assert from_generators(cols, n) == lat


def test_contains_matches_residue_oracle():
    rng = random.Random(31)
    for _ in range(40):
        n = rng.choice([1, 2, 3])
        gens = [[rng.randrange(-6, 7) for _ in range(n)] for _ in range(n)]
        try:
            lat = from_generators(gens, n)
        except InfiniteIndexError:
            continue
        mod = index(lat)
        res = residues_mod(lat.cols, n, mod)
        for _ in range(40):
            v = tuple(rng.randrange(-10, 11) for _ in range(n))
            assert contains(lat, v) == (tuple(x % mod for x in v) in res)


def test_enumerate_examples():
    lats = enumerate_lattices(1, 4)
    assert [c.cols[0][0] for c in lats] == [1, 2, 3, 4]

    assert enumerate_lattices(2, 1) == [whole_group(2)]

    lats = enumerate_lattices(2, 2)
    assert len(lats) == 4
    assert len(set(lats)) == 4
    # oracle count: HNF matrices with det 2 in dimension 2: diag (1,2) has one
    # free entry mod 2, diag (2,1) has none
    assert sum(1 for c in lats if index(c) == 2) == 2 + 1


@pytest.mark.parametrize("n, max_index", [(1, 40), (2, 24), (3, 12), (4, 6)])
def test_enumerate_lattices_is_sorted_by_index_then_columns(n, max_index):
    lats = enumerate_lattices(n, max_index)
    assert lats == sorted(lats, key=lambda lat: (index(lat), lat.cols))
    assert len(set(lats)) == len(lats)
    # the count per index is the number of HNF matrices of that determinant
    assert len(lats) == sum(
        math.prod(d**i for i, d in enumerate(diag))
        for diag in product(range(1, max_index + 1), repeat=n)
        if math.prod(diag) <= max_index
    )


def test_profinite_kernel_examples():
    assert profinite_kernel(1, 4).cols[0][0] == lcm_range(4) == 12
    assert profinite_kernel(1, 1) == whole_group(1)
    assert profinite_kernel(2, 2) == from_generators([(2, 0), (0, 2)])


def test_profinite_kernel_z1_brute_force():
    for n in range(1, 9):
        ker = profinite_kernel(1, n)
        assert ker.cols[0][0] == lcm_range(n)
        for v in range(-50, 51):
            member_oracle = all(v % m == 0 for m in range(1, n + 1))
            assert contains(ker, (v,)) == member_oracle


@pytest.mark.parametrize(
    "n, max_index",
    [(1, m) for m in range(1, 9)] + [(2, m) for m in range(1, 7)] + [(3, m) for m in range(1, 5)],
)
def test_profinite_kernel_closed_form_matches_intersection(n, max_index):
    assert profinite_kernel(n, max_index) == kernel_by_intersection(group("Z", n), max_index)


def test_profinite_kernel_keeps_the_enumeration_precondition():
    for n, max_index in ((2, 0), (0, 3)):
        with pytest.raises(PreconditionError) as want:
            enumerate_lattices(n, max_index)
        with pytest.raises(PreconditionError) as got:
            profinite_kernel(n, max_index)
        assert str(got.value) == str(want.value)


def test_dimension_mismatch():
    with pytest.raises(PreconditionError):
        contains(whole_group(2), (1, 2, 3))
    with pytest.raises(PreconditionError):
        intersect(whole_group(2), whole_group(3))


def test_text_round_trip():
    rng = random.Random(41)
    for _ in range(30):
        n = rng.choice([1, 2, 3])
        gens = [[rng.randrange(-5, 6) for _ in range(n)] for _ in range(n)]
        try:
            lat = from_generators(gens, n)
        except InfiniteIndexError:
            continue
        assert parse_lattice(format_lattice(lat)) == lat


def test_preimage_matches_membership_on_a_box():
    # X = {x : C x in T} contains index(T) Z^n, and {x : D x in P} has index
    # index(P) / index(D): each has its HNF basis in [0, B]^n, so agreement
    # on that box makes the two lattices equal
    rng = random.Random(53)
    largest = {1: 200, 2: 30, 3: 10}
    checked = 0
    while checked < 150:
        n = rng.choice([1, 2, 3])
        square = lambda r: [tuple(rng.randrange(-r, r + 1) for _ in range(n)) for _ in range(n)]
        try:
            domain, target = from_generators(square(4), n), from_generators(square(3), n)
        except InfiniteIndexError:
            continue
        images = square(4)
        if ratmat.det(ratmat.from_int_columns(images)) == 0:
            continue
        got = preimage(domain, images, target)
        assert is_subgroup(got, domain)
        bound = max(index(target), index(got) // index(domain))
        if bound > largest[n]:
            continue
        checked += 1
        for x in product(range(bound + 1), repeat=n):
            dx = [sum(x[t] * domain.cols[t][r] for t in range(n)) for r in range(n)]
            cx = [sum(x[t] * images[t][r] for t in range(n)) for r in range(n)]
            assert contains(got, dx) == contains(target, cx)


def test_enumerate_lattices_guard_estimates(monkeypatch):
    monkeypatch.setenv("COMMSOL_MAX_WORK", "1000")
    for n, max_index, estimate in ((3, 30, 169812), (3, 16, 26649)):
        with pytest.raises(ResourceLimitError) as err:
            enumerate_lattices(n, max_index)
        assert f"enumerate_lattices(n={n}, N={max_index}): estimated work {estimate}" in str(
            err.value
        )


def test_rank_zero_lattice_text_is_a_parse_error():
    for text in ("Z 0", "Z -1"):
        with pytest.raises(ParseError):
            parse_lattice(text)

"""Group capabilities that are otherwise reached only through their callers:
`coset_reps_within`, `split_leaf`, `format_coset`, `edge_labels` and the
meet with the whole group, each against an oracle that shares no code
with it."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from commsol import catalog, commensurations, lattices, prosystems, stallings
from commsol.cli import run
from commsol.errors import PreconditionError
from commsol.freewords import Word
from commsol.groups import EdgePoint, _Group, group

from oracles import ORACLE, random_word


def inclusions(grp, subs):
    """Every pair (inner, outer) of `subs` with inner <= outer: distinct
    subgroups of one finite index are never nested, so only a larger index
    asks is_subgroup."""
    pairs = [(s, s) for s in subs]
    for outer in subs:
        d = grp.index(outer)
        pairs += [
            (inner, outer)
            for inner in subs
            if grp.index(inner) > d and grp.is_subgroup(inner, outer)
        ]
    return pairs


def coset_reps_by_membership(grp, inner, outer, g):
    """The coset representatives r of `inner` in g's coset of `outer`, the
    right coset outer.g of a coset label (`coset`): those with r g^-1 in
    outer."""
    return [r for r in grp.coset_reps(inner) if grp.contains(outer, grp.mul(r, grp.inv(g)))]


@pytest.mark.parametrize(
    "tag,rank,max_index", [("F", 1, 4), ("F", 2, 4), ("F", 3, 4), ("Z", 2, 12)]
)
def test_coset_reps_within_matches_the_coset_test_and_membership(tag, rank, max_index):
    grp = group(tag, rank)
    rng = random.Random(rank)
    pairs = inclusions(grp, grp.enumerate(max_index))
    assert len(pairs) > len(grp.enumerate(max_index))
    for inner, outer in pairs:
        # one element per coset of outer, and one drawn anywhere
        if tag == "F":
            far = random_word(rng, rank, 8)
        else:
            far = tuple(rng.randrange(-9, 10) for _ in range(rank))
        for g in [*grp.coset_reps(outer), far]:
            expected = coset_reps_by_membership(grp, inner, outer, g)
            assert grp.coset_reps_within(inner, outer, g) == expected
            assert _Group.coset_reps_within(grp, inner, outer, g) == expected


fractions = st.fractions(min_value=-6, max_value=6, max_denominator=4)


@ORACLE
@given(st.integers(1, 3).flatmap(lambda n: st.tuples(*[fractions] * n)))
def test_split_leaf_on_zn_rests_in_the_fundamental_domain(leaf):
    grp = group("Z", len(leaf))
    deck, rest = grp.split_leaf(leaf)
    assert all(isinstance(x, int) for x in deck)
    assert all(Fraction(-1, 2) <= x < Fraction(1, 2) for x in rest)
    assert grp.translate(deck, rest) == leaf


@ORACLE
@given(st.data())
def test_split_leaf_on_fk_rests_at_the_base_or_on_an_edge_out_of_it(data):
    k = data.draw(st.integers(1, 3))
    grp = group("F", k)
    tail = Word(k, data.draw(st.text("abc"[:k] + "ABC"[:k], max_size=8)))
    if data.draw(st.booleans()):
        t = Fraction(data.draw(st.integers(1, 6)), 7)
        leaf = EdgePoint(tail, data.draw(st.sampled_from("abc"[:k])), t)
    else:
        leaf = tail
    deck, rest = grp.split_leaf(leaf)
    if isinstance(rest, EdgePoint):
        assert rest.tail == grp.identity
    else:
        assert rest == grp.identity
    assert grp.translate(deck, rest) == leaf


@pytest.mark.parametrize(
    "tag,rank,depth",
    [("Z", 1, 4), ("Z", 2, 3), ("Z", 3, 2), ("F", 1, 4), ("F", 2, 3), ("F", 3, 2)],
)
def test_format_coset_agrees_with_the_baseleaf_line(tag, rank, depth, capsys):
    grp = group(tag, rank)
    rng = random.Random(depth)
    objs = prosystems.build_system(tag, rank, depth).objects
    for _ in range(6):
        if tag == "F":
            g = random_word(rng, rank, 6)
            # a coset label is the vertex the element's path reaches
            plain = [str(stallings.trace(obj, g)) for obj in objs]
        else:
            g = tuple(rng.randrange(-7, 8) for _ in range(rank))
            # a coset label is the residue vector, written entry by entry
            plain = [",".join(map(str, lattices.residue(obj, g))) for obj in objs]
        # "--" ends the options, so a vector may start with a minus sign
        args = ["baseleaf", "--depth", str(depth), "--", tag, str(rank), grp.format_element(g)]
        assert run(args) == 0
        line = capsys.readouterr().out.strip()
        cosets = line.split("cosets=[")[1].split("]")[0]
        assert cosets == ",".join(grp.format_coset(grp.coset(obj, g)) for obj in objs)
        assert cosets == ",".join(plain)


def maps_with_images():
    """The catalog maps, and on F1-F3 the identity and conjugations
    restricted to every subgroup of index <= 3."""
    maps = list(catalog.f2_catalog().values())
    rng = random.Random(5)
    for k in (1, 2, 3):
        for sub in stallings.enumerate_subgroups(k, 3):
            g = random_word(rng, k, 4)
            maps.append(commensurations.restriction(commensurations.identity_comm("F", k), sub))
            maps.append(commensurations.restriction(commensurations.inner("F", k, g), sub))
    return maps


def test_edge_labels_spell_the_image_of_each_basis_loop():
    for phi in maps_with_images():
        grp = phi.group
        labels = grp.edge_labels(phi.domain, phi.images)
        for b, img in zip(stallings.basis(phi.domain), phi.images):
            assert stallings.path_image(phi.domain, b.letters, labels) == (0, img.letters)


@pytest.mark.parametrize(
    "tag,rank,max_index", [("F", 1, 3), ("F", 2, 3), ("F", 3, 3), ("Z", 2, 12)]
)
def test_meets_with_the_whole_group_are_the_fiber_product(tag, rank, max_index):
    # the meet with the whole group, in either order, is the family's own
    # intersection, and one of the arguments comes back with no search
    grp = group(tag, rank)
    module = stallings if tag == "F" else lattices
    for sub in grp.enumerate(max_index):
        for a, b in ((grp.whole, sub), (sub, grp.whole)):
            meet = grp.intersect(a, b)
            assert meet == module.intersect(a, b)
            assert meet is a or meet is b
    # a subgroup of another rank is refused as the family's own meet refuses it
    other = group(tag, rank + 1).whole
    for a, b in ((grp.whole, other), (other, grp.whole)):
        with pytest.raises(PreconditionError) as want:
            module.intersect(a, b)
        with pytest.raises(PreconditionError) as got:
            grp.intersect(a, b)
        assert str(got.value) == str(want.value)

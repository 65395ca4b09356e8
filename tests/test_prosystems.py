"""Truncated inverse system tests: the zeta correspondence both ways,
straightened commutation, and cofinal restriction."""

from fractions import Fraction

import pytest

from commsol import catalog, commensurations, groups, lattices, prosystems, stallings
from commsol.commensurations import (
    compose,
    equivalent,
    identity_comm,
    inner,
    make_zn,
    restriction,
)
from commsol.errors import PreconditionError
from commsol.freewords import Word
from commsol.prosystems import (
    TruncatedSystem,
    build_system,
    cofinal_restrict,
    compose_morphisms,
    format_morphism,
    format_system,
    identity_morphism,
    morphisms_equivalent,
    reconstruct,
    zeta,
)

W = lambda s: Word(2, s)


def test_build_system_examples():
    s = build_system("Z", 1, 3)
    assert [c.cols[0][0] for c in s.objects] == [1, 2, 3]
    assert set(s.bonds) == {(0, 1), (0, 2)}

    s = build_system("F", 2, 2)
    assert len(s.objects) == 4
    assert set(s.bonds) == {(0, 1), (0, 2), (0, 3)}

    s = build_system("Z", 2, 1)
    assert len(s.objects) == 1 and s.bonds == ()


def eager_bonds(system):
    """Oracle: every ordered pair of objects scanned for inclusion."""
    grp = system.group
    return tuple(
        (i, j)
        for i, big in enumerate(system.objects)
        for j, small in enumerate(system.objects)
        if i != j and grp.is_subgroup(small, big)
    )


@pytest.mark.parametrize(
    "tag,rank,depth",
    [("F", 2, d) for d in range(1, 6)]
    + [("F", 3, d) for d in range(1, 4)]
    + [("Z", 2, 6), ("Z", 3, 4)],
)
def test_bonds_are_computed_on_first_read_and_match_the_eager_scan(
    tag, rank, depth, monkeypatch
):
    # a fresh system over the cached objects, so no earlier read has
    # computed its bonds
    objects = build_system(tag, rank, depth).objects
    grp = groups.group(tag, rank)
    calls = []
    monkeypatch.setattr(grp, "is_subgroup", lambda a, b: calls.append(1))
    system = TruncatedSystem(tag, rank, depth, objects)
    assert calls == []
    monkeypatch.undo()
    assert system.bonds == eager_bonds(system)


@pytest.mark.parametrize(
    "tag,rank,depth",
    [("Z", 1, 3), ("Z", 1, 4), ("Z", 1, 6), ("Z", 2, 1), ("Z", 2, 3), ("F", 2, 2), ("F", 2, 3)],
)
def test_system_bonds_are_transitive(tag, rank, depth):
    # the inclusion bonds compose (and so do those of any subsystem), which
    # lets morphisms store one component per object and check commutation
    # bond by bond
    bonds = build_system(tag, rank, depth).bonds
    bond_set = set(bonds)
    for i, j in bonds:
        for j2, l in bonds:
            if j2 == j:
                assert (i, l) in bond_set


def test_zeta_identity():
    for tag, rank in (("Z", 1), ("F", 2)):
        ident = identity_comm(tag, rank)
        m = zeta(ident, 2)
        for obj, c in zip(m.target.objects, m.components):
            assert c.domain == obj and c.codomain == obj
            assert equivalent(c, restriction(ident, obj))


def test_zeta_z1_times_two():
    two = make_zn([[2]])
    m = zeta(two, 2)
    # objects are Z, 2Z; both components have source Z and matrix x2
    assert [c.cols[0][0] for c in m.target.objects] == [1, 2]
    for c in m.components:
        assert c.domain == lattices.whole_group(1)
        assert c.matrix == ((2,),) or c.matrix[0][0] == 2
        assert c.codomain == lattices.from_generators([(2,)])


def test_zeta_inner_lands_in_conjugates():
    conj = inner("F", 2, W("a"))
    m = zeta(conj, 2)
    for obj, c in zip(m.target.objects, m.components):
        # fold-and-compare oracle: the source must be a^-1 (obj) a
        expected_src = stallings.from_generators(
            [~W("a") * b * W("a") for b in stallings.basis(obj)], 2
        )
        assert c.domain == expected_src
        assert stallings.is_subgroup(c.codomain, obj)


def test_zeta_round_trip_examples():
    assert equivalent(reconstruct(zeta(identity_comm("F", 2), 3)), identity_comm("F", 2))
    two = make_zn([[2]])
    assert equivalent(reconstruct(zeta(two, 4)), two)
    swap = catalog.f2_catalog()["swap"]
    assert equivalent(reconstruct(zeta(swap, 2)), swap)


def test_zeta_well_defined_on_restrictions():
    cat = catalog.f2_catalog()
    for a, b in catalog.EQUIVALENT_PAIRS:
        assert morphisms_equivalent(zeta(cat[a], 2), zeta(cat[b], 2))


def test_compose_morphisms_identity_and_functoriality():
    cat = catalog.f2_catalog()
    sysf = build_system("F", 2, 2)
    ident_m = identity_morphism(sysf)
    m = zeta(cat["shift"], 2)
    assert morphisms_equivalent(compose_morphisms(m, ident_m), m)
    assert morphisms_equivalent(compose_morphisms(ident_m, m), m)
    for a, b in [("swap", "shift"), ("inner_a", "swap|ker_a"), ("shift|ker_a", "inner_b")]:
        lhs = zeta(compose(cat[a], cat[b]), 2)
        rhs = compose_morphisms(zeta(cat[a], 2), zeta(cat[b], 2))
        assert morphisms_equivalent(lhs, rhs)


def test_zeta_injective_on_sample():
    cat = catalog.f2_catalog()
    assert not morphisms_equivalent(zeta(cat["swap"], 2), zeta(cat["identity"], 2))
    assert not morphisms_equivalent(zeta(cat["inner_a"], 2), zeta(cat["inner_b"], 2))


def test_strict_commutation_is_checked():
    # all zeta morphisms pass their construction-time check; a doctored
    # morphism must fail it
    from commsol.prosystems import SystemMorphism

    m = zeta(catalog.f2_catalog()["shift"], 2)
    bad = list(m.components)
    bad[0], bad[-1] = bad[-1], bad[0]
    sysf = m.target
    swapped = False
    try:
        SystemMorphism(sysf, sysf, bad)
        swapped = True
    except PreconditionError:
        pass
    assert not swapped


def test_strict_commutation_compares_images_on_nested_sources():
    # a component with the right source but another map's images
    from commsol.prosystems import SystemMorphism

    cat = catalog.f2_catalog()
    for phi, other in ((cat["shift"], cat["identity"]), (make_zn([[2]]), make_zn([[3]]))):
        m = zeta(phi, 2)
        bad = list(m.components)
        bad[1] = commensurations.restriction(other, bad[1].domain)
        with pytest.raises(PreconditionError, match="do not commute strictly"):
            SystemMorphism(m.target, m.target, bad)


@pytest.mark.parametrize(
    "phi, other",
    [
        (catalog.f2_catalog()["shift|ker_a"], catalog.f2_catalog()["swap"]),
        (make_zn([[Fraction(1, 2), 0], [0, 1]]), make_zn([[0, 1], [1, 0]])),
    ],
    ids=["F2", "Z2"],
)
def test_strict_check_names_each_tampering(phi, other):
    from commsol.prosystems import SystemMorphism

    grp = phi.group
    # zeta of both maps leaves every walk check_strict could ask in the
    # memos, and an untampered check answers its comparisons from them;
    # each tampering must still be caught
    for depth in (2, 3):
        zeta(phi, depth)
        zeta(other, depth)
    hits = commensurations.images_on.cache_info().hits
    m = zeta(phi, 2)
    SystemMorphism(m.target, m.target, m.components)
    assert commensurations.images_on.cache_info().hits > hits
    # phi's domain is proper, so the whole group is not inside the top
    # component's source
    nested = list(m.components)
    nested[1] = identity_comm(grp.tag, grp.rank)
    with pytest.raises(PreconditionError, match=r"bond \(0,1\) have non-nested sources"):
        SystemMorphism(m.target, m.target, nested)
    strict = list(m.components)
    strict[1] = restriction(other, strict[1].domain)
    with pytest.raises(PreconditionError, match="do not commute strictly"):
        SystemMorphism(m.target, m.target, strict)
    # restrictions of one map commute strictly, but `other` moves objects
    system = build_system(grp.tag, grp.rank, 2)
    moved = [restriction(other, obj) for obj in system.objects]
    with pytest.raises(PreconditionError, match="does not land in its object"):
        SystemMorphism(system, system, moved)


def test_cofinal_restrict_even_index():
    s = build_system("Z", 1, 6)
    sub, restr, inv = cofinal_restrict(s, lambda lat: lattices.index(lat) % 2 == 0)
    assert [lattices.index(o) for o in sub.objects] == [2, 4, 6]
    assert morphisms_equivalent(compose_morphisms(inv, restr), identity_morphism(s))
    assert morphisms_equivalent(compose_morphisms(restr, inv), identity_morphism(sub))


def test_cofinal_restrict_everything_is_identity():
    s = build_system("F", 2, 2)
    sub, restr, inv = cofinal_restrict(s, lambda g: True)
    assert sub == s
    assert morphisms_equivalent(restr, identity_morphism(s))
    assert morphisms_equivalent(compose_morphisms(inv, restr), identity_morphism(s))


def test_cofinal_restrict_error_names_uncovered_object():
    s = build_system("Z", 1, 4)
    with pytest.raises(PreconditionError) as err:
        cofinal_restrict(s, lambda lat: lattices.index(lat) == 3)
    assert "2" in str(err.value)  # 2Z is the uncovered object


def test_dump_formats():
    s = build_system("Z", 1, 3)
    text = format_system(s)
    assert "idx=0 index=1" in text and "bond 0 1" in text
    m = zeta(make_zn([[2]]), 2)
    dump = format_morphism(m)
    assert "comp 0:" in dump and "->" in dump
    mf = zeta(catalog.f2_catalog()["swap"], 2)
    dump = format_morphism(mf)
    assert "comp 3:" in dump


def test_zeta_components_are_built_without_folding(monkeypatch):
    # the component's codomain is the meet it was pulled back from, and the
    # preimage is a coset-action search: neither folds a word
    cat = catalog.f2_catalog()
    systems = [build_system("F", 2, depth) for depth in (1, 2, 3)]
    for cache in (prosystems.zeta, commensurations.restriction_onto):
        cache.cache_clear()
    # the catalog's restrictions generate their codomain, by a fold, when
    # it is first read, which zeta_component does: read it before the stub
    for phi in cat.values():
        phi.codomain

    def no_fold(*args, **kwargs):
        raise AssertionError("fold on the zeta path")

    monkeypatch.setattr(stallings, "_fold_words", no_fold)
    for phi in cat.values():
        for system in systems:
            assert len(zeta(phi, system.depth).components) == len(system.objects)


def test_zeta_composites_of_whole_group_maps_are_built_without_folding(monkeypatch):
    # each component of zeta(g) is onto the object the matching component
    # of zeta(f) is defined on, so every composite takes f's codomain
    cat = catalog.f2_catalog()
    names = ["identity", "swap", "shift", "inner_a", "inner_b", "inner_ab"]
    systems = [build_system("F", 2, depth) for depth in (1, 2, 3)]
    for cache in (prosystems.zeta, commensurations.compose, commensurations.restriction_onto):
        cache.cache_clear()

    def no_fold(*args, **kwargs):
        raise AssertionError("fold on the zeta composition path")

    monkeypatch.setattr(stallings, "_fold_words", no_fold)
    for system in systems:
        for f in names:
            for g in names:
                m = compose_morphisms(zeta(cat[f], system.depth), zeta(cat[g], system.depth))
                assert len(m.components) == len(system.objects)


def test_composing_zeta_morphisms_of_proper_maps_folds_nothing(monkeypatch):
    # a composite's codomain is generated only when read, and composing
    # zeta morphisms never reads it
    cat = catalog.f2_catalog()
    m1, m2 = zeta(cat["ker_a_to_ker_total"], 3), zeta(cat["inner_a|ker_a_mod3"], 3)
    commensurations.compose.cache_clear()
    folds = []
    fold = stallings._fold_words
    monkeypatch.setattr(
        stallings, "_fold_words", lambda *args, **kw: folds.append(args) or fold(*args, **kw)
    )
    m = compose_morphisms(m1, m2)
    assert folds == []
    assert all(c.codomain == c.group.generated(c.images) for c in m.components)
    assert folds

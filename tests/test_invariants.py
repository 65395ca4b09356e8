"""Cross-module invariants that do not belong to a single module's suite:
equivalence-relation laws on the catalog, the resource guards, the
declared error paths, and results that do not depend on what earlier
calls left in the caches."""

import importlib
import pkgutil
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import commsol
from commsol import catalog, commensurations, geometry, lattices, prosystems, solenoid, stallings
from commsol.commensurations import equivalent, identity_comm, make_zn, restriction
from commsol.errors import PreconditionError, ResourceLimitError
from commsol.freewords import Word, identity as word_identity


def test_equivalent_is_an_equivalence_relation():
    cat = catalog.f2_catalog()
    items = list(cat.values())
    for c in items:
        assert equivalent(c, c)
    for a in items:
        for b in items:
            assert equivalent(a, b) == equivalent(b, a)
    named = dict(cat)
    # transitivity through the known equivalent chains
    for x, y in catalog.EQUIVALENT_PAIRS:
        for z in items:
            if equivalent(named[y], z):
                assert equivalent(named[x], z)


def test_resource_guard_lattices(monkeypatch):
    monkeypatch.setenv("COMMSOL_MAX_WORK", "10")
    with pytest.raises(ResourceLimitError):
        lattices.enumerate_lattices(3, 30)


def test_resource_guard_stallings(monkeypatch):
    monkeypatch.setenv("COMMSOL_MAX_WORK", "10")
    with pytest.raises(ResourceLimitError):
        stallings.enumerate_subgroups(2, 6)
    with pytest.raises(ResourceLimitError) as err:
        stallings.profinite_kernel(2, 2)
    assert "partial index" in str(err.value)


def test_declared_error_paths():
    with pytest.raises(PreconditionError):
        # the whole group is not inside an index-2 domain
        restriction(catalog.f2_catalog()["identity|ker_a"], stallings.whole_group(2))
    with pytest.raises(PreconditionError):
        solenoid.EdgePoint(word_identity(2), "a", Fraction(3, 2))
    with pytest.raises(PreconditionError):
        geometry.qi_estimate(
            geometry.baseleaf_map(identity_comm("F", 2)), 11
        )
    with pytest.raises(PreconditionError):
        geometry.fixed_point(Word(2, "ab"), sign="x")
    with pytest.raises(PreconditionError):
        solenoid.injectivity_radius(("klein bottle", 2))


# -- cache-order independence ------------------------------------------------------


def _clear_every_cache():
    for info in pkgutil.iter_modules(commsol.__path__):
        mod = importlib.import_module(f"commsol.{info.name}")
        for obj in vars(mod).values():
            if hasattr(obj, "cache_clear"):
                obj.cache_clear()


def _key(x):
    """Everything a result holds, the ambient provenance included (which
    Commensuration equality ignores)."""
    if isinstance(x, commensurations.Commensuration):
        return (x.tag, x.rank, x.domain, x.codomain, x.matrix, x.images, x.ambient)
    if isinstance(x, prosystems.SystemMorphism):
        return (x.source, x.target, tuple(map(_key, x.components)))
    if isinstance(x, stallings.SubgroupGraph):
        return (x.k, x.m, x.fwd, x.bwd, x.complete)
    return x


def _outcome(op, args):
    try:
        return _key(op(*args))
    except PreconditionError as err:
        return type(err), str(err)


def _twin(c):
    """c without its ambient provenance: a map equal to c, which a cache
    key must still tell apart from c."""
    if c.ambient is None:
        return c
    return commensurations.make_fk(c.rank, stallings.basis(c.domain), c.images)


def _calls(phi, psi, sub, other):
    onto = phi.group.intersect(sub, phi.codomain)
    return [
        (commensurations.compose, (phi, psi)),
        (commensurations.invert, (phi,)),
        (commensurations.restriction, (phi, sub)),
        (commensurations.restriction_onto, (phi, onto)),
        (prosystems.zeta, (phi, 2)),
        (commensurations.preimage_subgroup, (phi, onto)),
        (phi.group.intersect, (sub, other)),
        (commensurations.equivalent, (phi, psi)),
    ]


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_results_do_not_depend_on_cache_order(data):
    if data.draw(st.booleans()):
        maps = list(catalog.f2_catalog().values())
        subs = stallings.enumerate_subgroups(2, 3)
    else:
        maps = [make_zn([[2, 1], [0, 1]]), make_zn([[Fraction(1, 2), 0], [1, 3]])]
        subs = lattices.enumerate_lattices(2, 3)
    index = st.integers(0, len(maps) - 1)
    calls = []
    for _ in range(data.draw(st.integers(1, 5))):
        i, j = data.draw(index), data.draw(index)
        sub, other = data.draw(st.sampled_from(subs)), data.draw(st.sampled_from(subs))
        op = data.draw(st.integers(0, 7))
        # each call comes right after the same call on the twins
        calls.append(_calls(_twin(maps[i]), _twin(maps[j]), sub, other)[op])
        calls.append(_calls(maps[i], maps[j], sub, other)[op])
    # in sequence, each call sees what the calls before it cached
    warm = [_outcome(op, args) for op, args in calls]
    for (op, args), got in zip(calls, warm):
        _clear_every_cache()
        assert _outcome(op, args) == got, (op.__name__, args)

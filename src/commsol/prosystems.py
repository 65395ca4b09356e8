"""Truncated inverse systems of finite-index subgroups and their morphisms.

The depth-N system has one object per subgroup of index <= N, ordered by
reverse inclusion, with inclusion bonding maps.  Morphisms are stored in
straightened form: strictly commuting components, one per target object,
each a commensuration from a materialized source subgroup (which may have
index beyond N: truncation overflow is recorded, not an error).

zeta realizes a commensuration phi: H -> K as a system endomorphism: the
component at an object G is phi restricted to phi^-1(G ∩ K), which phi maps
onto G ∩ K.  So a component is built with its codomain known
(commensurations.restriction_onto): on F_k the preimage is the cover of a
coset action and the images are checked against G ∩ K, and no word is
folded.  reconstruct reads the commensuration back off the component at the
top object (the whole group), where the component is phi itself.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from functools import lru_cache

from . import commensurations as comm_mod
from . import groups
from .errors import PreconditionError
from .freewords import inline


class TruncatedSystem:
    """Objects and reverse-inclusion bonds; index_of gives an object's
    position among the objects."""

    __slots__ = ("group", "depth", "objects", "index_of", "_bonds")

    def __init__(self, tag, rank, depth, objects):
        self.group = groups.group(tag, rank)
        self.depth = depth
        self.objects = tuple(objects)
        self.index_of = {obj: i for i, obj in enumerate(self.objects)}
        self._bonds = None

    tag = property(lambda self: self.group.tag)
    rank = property(lambda self: self.group.rank)

    @property
    def bonds(self):
        """(i, j) for each pair with objects[j] inside objects[i], computed
        on first read: only format_system and check_strict need them.  A
        proper subgroup's index is a proper multiple of its overgroup's,
        and only objects of such an index are tested for inclusion."""
        if self._bonds is None:
            grp = self.group
            index = [grp.index(obj) for obj in self.objects]
            # the objects are sorted by index, so the pairs come out in order;
            # bonding maps are inclusions, so they compose automatically
            self._bonds = tuple(
                (i, j)
                for i, big in enumerate(self.objects)
                for d in range(2 * index[i], index[-1] + 1, index[i])
                for j in range(bisect_left(index, d), bisect_right(index, d))
                if grp.is_subgroup(self.objects[j], big)
            )
        return self._bonds

    def __eq__(self, other):
        return (
            isinstance(other, TruncatedSystem)
            and (other.group, other.depth, other.objects)
            == (self.group, self.depth, self.objects)
        )

    def __hash__(self):
        return hash((self.group, self.depth, self.objects))

    def __repr__(self):
        return (
            f"TruncatedSystem({self.tag} rank={self.rank}, depth={self.depth}, "
            f"{len(self.objects)} objects)"
        )

    @property
    def top(self):
        return self.objects[0]


@lru_cache(maxsize=64)
def build_system(tag: str, rank: int, depth: int) -> TruncatedSystem:
    if depth < 1:
        raise PreconditionError("depth must be >= 1")
    system = TruncatedSystem(tag, rank, depth, groups.group(tag, rank).enumerate(depth))
    assert system.group.index(system.top) == 1
    return system


class SystemMorphism:
    """Strictly commuting morphism; components[j] maps a materialized
    source subgroup into target.objects[j]."""

    __slots__ = ("source", "target", "components")

    def __init__(self, source, target, components, check=True):
        self.source = source
        self.target = target
        self.components = tuple(components)
        if check:
            self.check_strict()

    def check_strict(self):
        """Assert strict commutation: along every bond, the deeper
        component is the restriction of the shallower one (compared on
        the basis of the deeper source, commensurations.images_on, which
        refuses a source outside the shallower one)."""
        grp = self.target.group
        for i, j in self.target.bonds:
            fi, fj = self.components[i], self.components[j]
            try:
                restricted = comm_mod.images_on(fi, fj.domain)
            except PreconditionError:
                raise PreconditionError(
                    f"components at bond ({i},{j}) have non-nested sources"
                ) from None
            if restricted != fj.images:
                raise PreconditionError(
                    f"components at bond ({i},{j}) do not commute strictly"
                )
        for j, f in enumerate(self.components):
            if not grp.is_subgroup(f.codomain, self.target.objects[j]):
                raise PreconditionError(f"component {j} does not land in its object")

    def component_at(self, subgroup):
        """The component at an arbitrary subgroup object (materializing
        beyond the recorded depth via the top component's rule)."""
        idx = self.target.index_of.get(subgroup)
        if idx is not None:
            return self.components[idx]
        top = self.components[0]
        return zeta_component(top, subgroup)

    def __repr__(self):
        return f"SystemMorphism({len(self.components)} components, depth {self.target.depth})"


def zeta_component(phi, obj):
    """phi restricted to phi^-1(obj ∩ codomain): the component of
    zeta(phi) at the object `obj`."""
    return comm_mod.restriction_onto(phi, phi.group.intersect(obj, phi.codomain))


@lru_cache(maxsize=512)
def zeta(phi, depth: int) -> SystemMorphism:
    """Realize a commensuration as a depth-N system endomorphism.  Source
    subgroups deeper than N are materialized and recorded, which keeps the
    commutation exact instead of approximate."""
    system = build_system(phi.tag, phi.rank, depth)
    components = [zeta_component(phi, obj) for obj in system.objects]
    return SystemMorphism(system, system, components)


def identity_morphism(system: TruncatedSystem) -> SystemMorphism:
    ident = comm_mod.identity_comm(system.tag, system.rank)
    comps = [comm_mod.restriction(ident, obj) for obj in system.objects]
    return SystemMorphism(system, system, comps, check=False)


def reconstruct(morphism: SystemMorphism):
    """Read the commensuration off the top component (at the whole group).

    For morphism = zeta(phi, N) this is phi itself (up to equivalence);
    for hand-built morphisms the declared preconditions are diagnosed.
    """
    if morphism.target.group.index(morphism.target.top) != 1:
        raise PreconditionError(
            "not a pro-automorphism at this depth: no component at the whole group"
        )
    # injectivity and finite-index image are enforced by the Commensuration
    # type itself, so the top component is the answer
    return morphism.components[0]


def compose_morphisms(m1: SystemMorphism, m2: SystemMorphism) -> SystemMorphism:
    """m1 after m2, chasing index functions: the component at an object is
    m1's component there, precomposed with m2's component at its source."""
    if m2.target != m1.source:
        raise PreconditionError("systems do not match for composition")
    comps = []
    for f1 in m1.components:
        f2 = m2.component_at(f1.domain)
        comps.append(comm_mod.compose(f1, f2))
    return SystemMorphism(m2.source, m1.target, comps, check=False)


def morphisms_equivalent(m1: SystemMorphism, m2: SystemMorphism) -> bool:
    """Component-wise agreement after restriction to the intersection of
    the two source subgroups (the depth-N semantic of pro-equivalence)."""
    if m1.target != m2.target:
        return False
    return all(
        comm_mod.equivalent(c1, c2) for c1, c2 in zip(m1.components, m2.components)
    )


def cofinal_restrict(system: TruncatedSystem, predicate):
    """Restrict to the subsystem selected by `predicate`, with the
    restriction morphism and an explicit inverse up to equivalence.

    Cofinality within visible depth: every object must contain either a
    selected object, or a materialized intersection with one satisfying
    the predicate; otherwise the uncovered object is reported.
    """
    grp = system.group
    selected = [i for i, obj in enumerate(system.objects) if predicate(obj)]
    if not selected:
        raise PreconditionError("predicate selects no objects")
    covers = []
    for i, obj in enumerate(system.objects):
        cover = None
        for j in selected:
            if grp.is_subgroup(system.objects[j], obj):
                cover = system.objects[j]
                break
        if cover is None:
            for j in selected:
                meet = grp.intersect(obj, system.objects[j])
                if predicate(meet):
                    cover = meet
                    break
        if cover is None:
            raise PreconditionError(
                f"predicate is not cofinal within depth {system.depth}: "
                f"object not covered: {inline(grp.format(obj))}"
            )
        covers.append(cover)
    sub = TruncatedSystem(
        system.tag, system.rank, system.depth, [system.objects[j] for j in selected]
    )
    ident = comm_mod.identity_comm(system.tag, system.rank)
    restr = SystemMorphism(
        system, sub, [comm_mod.restriction(ident, obj) for obj in sub.objects], check=False
    )
    inverse = SystemMorphism(
        sub, system, [comm_mod.restriction(ident, c) for c in covers], check=False
    )
    return sub, restr, inverse


# -- dump format -------------------------------------------------------------------


def format_system(system: TruncatedSystem) -> str:
    grp = system.group
    lines = [
        f"idx={i} index={grp.index(obj)} subgroup={inline(grp.format(obj))}"
        for i, obj in enumerate(system.objects)
    ]
    lines += [f"bond {i} {j}" for i, j in system.bonds]
    return "\n".join(lines)


def format_morphism(m: SystemMorphism) -> str:
    grp = m.target.group
    lines = [format_system(m.target)]
    for j, c in enumerate(m.components):
        for b, img in zip(grp.basis(c.domain), comm_mod.images_on(c, c.domain)):
            lines.append(f"comp {j}: {grp.format_element(b)} -> {grp.format_element(img)}")
    return "\n".join(lines)

"""Cross-module invariants that do not belong to a single module's suite:
equivalence-relation laws on the catalog, the resource guards, the
declared error paths, and results that do not depend on what earlier
calls left in the caches."""

import ast
import importlib
from fractions import Fraction
from operator import add
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import commsol
from commsol import (
    catalog,
    commensurations,
    geometry,
    groups,
    lattices,
    limits,
    prosystems,
    solenoid,
    stallings,
)
from commsol.commensurations import equivalent, identity_comm, make_zn, restriction
from commsol.errors import CommsolError, PreconditionError, ResourceLimitError
from commsol.freewords import Word, identity as word_identity

from oracles import SETTINGS, _cache_sites, clear_every_cache


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


def test_resource_guard_ball_counts_the_whole_ball(monkeypatch):
    monkeypatch.delenv("COMMSOL_MAX_WORK", raising=False)
    f2 = groups.group("F", 2)
    # 28,697,813 words of length <= 15, its last layer alone 19,131,876
    with pytest.raises(ResourceLimitError, match=r"ball\(F_2, R=15\): estimated work 28697813"):
        f2.ball(15)
    for k, radius in ((1, 4), (2, 3), (3, 2)):
        fk = groups.group("F", k)
        size = fk.ball_size(radius)
        monkeypatch.setenv("COMMSOL_MAX_WORK", str(size))
        assert len(list(fk.walk(radius, "", add))) == size
        monkeypatch.setenv("COMMSOL_MAX_WORK", str(size - 1))
        with pytest.raises(ResourceLimitError):
            list(fk.walk(radius, "", add))


def test_malformed_max_work_is_refused(monkeypatch):
    for raw in ("1e6", "", "twenty"):
        monkeypatch.setenv("COMMSOL_MAX_WORK", raw)
        with pytest.raises(CommsolError, match="COMMSOL_MAX_WORK"):
            limits.max_work()
        with pytest.raises(CommsolError, match=f"COMMSOL_MAX_WORK={raw!r}"):
            stallings.enumerate_subgroups(2, 3)


def test_declared_error_paths():
    with pytest.raises(PreconditionError):
        # the whole group is not inside an index-2 domain
        restriction(catalog.f2_catalog()["identity|ker_a"], stallings.whole_group(2))
    with pytest.raises(PreconditionError):
        solenoid.EdgePoint(word_identity(2), "a", Fraction(3, 2))
    with pytest.raises(ResourceLimitError):
        geometry.qi_estimate(
            geometry.baseleaf_map(identity_comm("F", 2)), 11
        )
    with pytest.raises(PreconditionError):
        geometry.fixed_point(Word(2, "ab"), sign="x")


# -- cache-order independence ------------------------------------------------------


def _key(x):
    """Everything a result holds."""
    if isinstance(x, commensurations.Commensuration):
        return (x.tag, x.rank, x.domain, x.codomain, x.matrix, x.images)
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


def test_maps_built_on_either_side_of_emptied_caches_still_meet():
    swap = catalog.f2_catalog()["swap"]
    zn = make_zn([[2, 1], [0, 1]])
    clear_every_cache()
    assert commensurations.parse_comm(commensurations.format_comm(swap)) == swap
    assert equivalent(commensurations.compose(swap, swap), identity_comm("F", 2))
    assert commensurations.compose(zn, identity_comm("Z", 2)) == zn


def _twin(c):
    """c read back from its text: a map equal to c but distinct from it,
    which a cache keyed by value answers from c's entry."""
    return commensurations.parse_comm(commensurations.format_comm(c))


def _calls(phi, psi, sub, other):
    onto = phi.group.intersect(sub, phi.codomain)
    return [
        (commensurations.compose, (phi, psi)),
        (commensurations.invert, (phi,)),
        (commensurations.restriction, (phi, sub)),
        (commensurations.restriction_onto, (phi, onto)),
        (prosystems.zeta, (phi, 2)),
        (commensurations.images_on, (phi, sub)),
        (phi.group.intersect, (sub, other)),
        (commensurations.equivalent, (phi, psi)),
    ]


@settings(SETTINGS, max_examples=60)
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
        clear_every_cache()
        assert _outcome(op, args) == got, (op.__name__, args)


def test_zeta_compose_and_equivalent_do_not_depend_on_warm_caches():
    # each call once from cold caches, then every call again on an equal
    # but distinct copy of the catalog after the first copy warmed every
    # memo: the memos keyed by value answer the copy from the first one
    names = list(catalog.f2_catalog())
    pairs = [(f, g) for f in names for g in names[::4]]

    def composed(f, g):
        return prosystems.compose_morphisms(prosystems.zeta(f, 3), prosystems.zeta(g, 3))

    def calls(cat):
        return (
            [(prosystems.zeta, (cat[f], 3)) for f in names]
            + [(composed, (cat[f], cat[g])) for f, g in pairs]
            + [(equivalent, (cat[f], cat[g])) for f in names for g in names]
        )

    cold = []
    for op, args in calls(catalog.f2_catalog()):
        clear_every_cache()
        cold.append(_outcome(op, args))
    clear_every_cache()
    for op, args in calls(catalog.f2_catalog()):
        op(*args)
    assert [_outcome(op, args) for op, args in calls(catalog.f2_catalog())] == cold


def test_equal_maps_lift_equally():
    # a catalog map and its parsed twin are equal, so each lifts as the
    # other into each of criterion 9's targets, whichever is lifted first
    # after every cache is emptied
    objects = prosystems.build_system("F", 2, 2).objects
    lifts = 0
    for phi in catalog.f2_catalog().values():
        twin = _twin(phi)
        assert twin == phi and twin is not phi
        targets = [phi.codomain] + [s for s in objects if stallings.is_subgroup(phi.codomain, s)]
        for target in targets:
            got = []
            for order in ((phi, twin), (twin, phi)):
                clear_every_cache()
                for m in order:
                    gm = solenoid.lift_through_covers(m, target)
                    got.append((gm.vertex_map, gm.labels))
            assert all(g == got[0] for g in got), target
            lifts += 1
    assert lifts == 29


def _is_cache_decorator(dec):
    target = dec.func if isinstance(dec, ast.Call) else dec
    name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", "")
    return name in ("lru_cache", "cache")


def _cached_definitions(path):
    """(scope, name) for each function of a module's source decorated with
    lru_cache or cache; scope names the classes and
    functions it is defined in, outermost first."""
    found = []
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, functions) and any(map(_is_cache_decorator, child.decorator_list)):
                found.append((scope, child.name))
            named = isinstance(child, (*functions, ast.ClassDef))
            visit(child, scope + (child.name,) if named else scope)

    visit(ast.parse(path.read_text()), ())
    return found


def test_every_cache_site_is_a_module_or_class_attribute_with_its_statistics():
    # each pass of the benchmark empties the caches it finds on modules and
    # classes, and per-site statistics read cache_info() there: a memo kept
    # anywhere else would outlive the emptying
    package = Path(commsol.__file__).parent
    sites = []
    for path in sorted(package.glob("*.py")):
        mod = importlib.import_module(f"commsol.{path.stem}")
        for scope, name in _cached_definitions(path):
            assert len(scope) <= 1, (path.name, scope, name)
            owner = vars(mod)[scope[0]] if scope else mod
            assert isinstance(owner, type) or not scope, (path.name, scope, name)
            site = vars(owner)[name]
            assert callable(site.cache_clear) and callable(site.cache_info), (path.name, name)
            sites.append(f"{path.stem}.{name}")
    for site in ("commensurations.images_on", "stallings.cover_vertices",
                 "commensurations.compose", "groups.ball"):
        assert site in sites


def test_every_cache_is_found_once():
    # a cached function imported by name into another module would be
    # found there too, under a second name, and cleared and counted twice
    sites = _cache_sites()
    assert len({id(site) for site in sites}) == len(sites)


def test_qi_estimate_does_not_depend_on_warm_caches():
    # a radius's ball and its cached distances, left by an earlier call at
    # another radius or for another map, leave the estimate as it is cold
    fields = ("radius", "L", "C", "upper", "lower", "pairs")
    cat = catalog.f2_catalog()
    for first, then in (("shift", "swap|ker_a"), ("swap|ker_a", "shift|ker_a")):
        for r0, r in ((3, 4), (4, 3), (4, 4)):
            clear_every_cache()
            geometry.qi_estimate(geometry.baseleaf_map(cat[first]), r0)
            warm = geometry.qi_estimate(geometry.baseleaf_map(cat[then]), r)
            clear_every_cache()
            cold = geometry.qi_estimate(geometry.baseleaf_map(cat[then]), r)
            assert [getattr(warm, f) for f in fields] == [getattr(cold, f) for f in fields]
    zn = make_zn([[2, 1], [0, 1]])
    geometry.qi_estimate(geometry.baseleaf_map(make_zn([[1, 0], [0, 3]])), 4)
    warm = geometry.qi_estimate(geometry.baseleaf_map(zn), 4)
    clear_every_cache()
    cold = geometry.qi_estimate(geometry.baseleaf_map(zn), 4)
    assert [getattr(warm, f) for f in fields] == [getattr(cold, f) for f in fields]


# the text codec names the families in its headers; everything else asks the
# group object (groups.group, of_element, of_subgroup and the capabilities)
_CODEC = {
    "commensurations.py": {"format_comm", "parse_comm"},
    "cli.py": {"_parse_subgroup_arg"},
    "lattices.py": {"parse_lattice"},
    "stallings.py": {"parse_subgroup"},
}

# isinstance(..., int) tells an F_k coset label (a vertex) from a Z^n one (a
# vector); the one argument check that may ask it refuses a rank
_ARGUMENT_CHECKS = {"freewords.py": {"Alphabet.__init__"}}


def _names_family(node):
    """Whether an operand is a `tag` (attribute or name), the literal "Z" or
    "F", or a tuple or list holding one; an argument of a call is not."""
    if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
        return any(map(_names_family, node.elts))
    return (
        (isinstance(node, ast.Attribute) and node.attr == "tag")
        or (isinstance(node, ast.Name) and node.id == "tag")
        or (isinstance(node, ast.Constant) and node.value in ("Z", "F"))
    )


def _is_int_test(node):
    """Whether a node is a call isinstance(x, int), int alone or in a tuple
    of types."""
    if not (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "isinstance"
        and len(node.args) == 2
    ):
        return False
    types = node.args[1]
    return any(
        isinstance(t, ast.Name) and t.id == "int"
        for t in (types.elts if isinstance(types, ast.Tuple) else [types])
    )


def _family_tests(path):
    """(qualified function, line) of each comparison in a module's source
    with an operand that names a family (_names_family), outside the text
    codec, and of each isinstance(..., int) outside the argument checks."""
    found = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{function}.{child.name}" if function else child.name)
                continue
            if isinstance(child, ast.Compare) and function not in _CODEC.get(path.name, ()):
                if any(map(_names_family, [child.left, *child.comparators])):
                    found.append((function, child.lineno))
            if _is_int_test(child) and function not in _ARGUMENT_CHECKS.get(path.name, ()):
                found.append((function, child.lineno))
            visit(child, function)

    visit(ast.parse(path.read_text()), None)
    return found


def test_only_groups_and_the_text_codec_test_the_family():
    package = Path(commsol.__file__).parent
    found = {
        path.name: sites
        for path in sorted(package.glob("*.py"))
        if path.name != "groups.py" and (sites := _family_tests(path))
    }
    assert found == {}


def test_the_family_test_finds_a_coset_label_told_apart_by_type(tmp_path):
    # the test the coset labels were once told apart with, in and out of a
    # class, alone and in a tuple of types
    source = tmp_path / "cli.py"
    source.write_text(
        "def line(p):\n"
        "    return [str(v) if isinstance(v, int) else 0 for v in p]\n"
        "class Alphabet:\n"
        "    def __init__(self, rank):\n"
        "        assert isinstance(rank, (str, int))\n"
    )
    assert _family_tests(source) == [("line", 2), ("Alphabet.__init__", 5)]


# the function-local imports that close an import cycle: groups is imported
# by commensurations, which this step calls
_CYCLE_IMPORTS = {
    ("groups.py", "Zn.on_rose", "commensurations"),
}


def _local_relative_imports(path):
    """(file, qualified function, module) of each relative import made
    inside a function of a module's source; `from . import m` names m."""
    found = set()
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)

    def visit(node, scope, in_function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (*functions, ast.ClassDef)):
                visit(child, scope + (child.name,), in_function or isinstance(child, functions))
            elif isinstance(child, ast.ImportFrom) and child.level and in_function:
                for module in [child.module] if child.module else [a.name for a in child.names]:
                    found.add((path.name, ".".join(scope), module))
            else:
                visit(child, scope, in_function)

    visit(ast.parse(path.read_text()), (), False)
    return found


def test_function_local_imports_are_the_ones_that_close_a_cycle():
    package = Path(commsol.__file__).parent
    found = set().union(*map(_local_relative_imports, sorted(package.glob("*.py"))))
    assert found == _CYCLE_IMPORTS


# every SubgroupGraph is canonically labeled, which the readers of the label
# order rely on (stallings._tree_data, cover_vertices, _return_table): it is
# built only by the labeling search, by the one-vertex graph and by the
# low-index search, which fills its tables in the labeling's scan order
_GRAPH_BUILDERS = {"orbit_graph", "whole_group", "enumerate_subgroups"}


def _graph_constructions(path):
    """(qualified function, line) of each call SubgroupGraph(...) in a
    module's source outside the functions of _GRAPH_BUILDERS and the
    functions nested in them."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + (child.name,))
                continue
            if isinstance(child, ast.Call):
                func = child.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
                if name == "SubgroupGraph" and not _GRAPH_BUILDERS.intersection(scope[:1]):
                    found.append((".".join(scope), child.lineno))
            visit(child, scope)

    visit(ast.parse(path.read_text()), ())
    return found


def test_every_subgroup_graph_is_built_by_a_canonical_labeling():
    package = Path(commsol.__file__).parent
    found = {
        path.name: sites
        for path in sorted(package.glob("*.py"))
        if (sites := _graph_constructions(path))
    }
    assert found == {}


def test_the_construction_test_finds_a_graph_built_elsewhere(tmp_path):
    # a graph relabeled by hand, a method building one, and one at module
    # level; the builders' own constructions, nested ones included, pass
    source = tmp_path / "stallings.py"
    source.write_text(
        "def relabel(g, perm):\n"
        "    return SubgroupGraph(g.k, g.m, perm, perm, True)\n"
        "class Cover:\n"
        "    def graph(self):\n"
        "        return stallings.SubgroupGraph(1, 1, ((0,),), ((0,),), True)\n"
        "WHOLE = SubgroupGraph(1, 1, ((0,),), ((0,),), True)\n"
        "def enumerate_subgroups(k, n):\n"
        "    def last_level():\n"
        "        return SubgroupGraph(k, n, (), (), True)\n"
        "def whole_group(k):\n"
        "    return SubgroupGraph(k, 1, (), (), True)\n"
    )
    assert _graph_constructions(source) == [("relabel", 2), ("Cover.graph", 5), ("", 6)]


# the private names of stallings and lattices (their memoized tables and
# elimination helpers) are read through the group objects of groups.py,
# so every other module reaches a kernel's internals through one place
_PRIVATE_OWNERS = {"stallings", "lattices"}


def _private_reads(path):
    """(line, name) of each read of a private name of stallings or
    lattices in a module's source, as an attribute (stallings._x) or in a
    from-import (from .stallings import _x), in line order."""
    found = []

    def private(name):
        return name.startswith("_") and not name.endswith("__")

    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id in _PRIVATE_OWNERS and private(node.attr):
                found.append((node.lineno, f"{node.value.id}.{node.attr}"))
        elif isinstance(node, ast.ImportFrom):
            owner = (node.module or "").rsplit(".", 1)[-1]
            if owner in _PRIVATE_OWNERS:
                found += [(node.lineno, f"{owner}.{a.name}") for a in node.names if private(a.name)]
    return sorted(found)


def test_only_groups_reads_the_private_names_of_stallings_and_lattices():
    package = Path(commsol.__file__).parent
    found = {path.name for path in sorted(package.glob("*.py")) if _private_reads(path)}
    assert found == {"groups.py"}


def test_the_private_read_test_finds_a_planted_read(tmp_path):
    # an attribute read, a from-import and one of lattices; public names
    # and dunders pass
    source = tmp_path / "solenoid.py"
    source.write_text(
        "from . import lattices, stallings\n"
        "from .stallings import _tree_data, basis\n"
        "def lift(h):\n"
        "    return stallings._tree_data(h).nontree, stallings.basis(h)\n"
        "ECHELON = lattices._echelon\n"
        "NAME = stallings.__name__\n"
    )
    assert _private_reads(source) == [
        (2, "stallings._tree_data"), (4, "stallings._tree_data"), (5, "lattices._echelon")
    ]


# -- one home per test reference --------------------------------------------------


def _functions(path):
    """The names of the functions a module's source defines at top level."""
    tree = ast.parse(path.read_text())
    return {n.name for n in tree.body if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))}


def _redefined(oracles, modules):
    """(module name, function name) for each top-level function of one of
    `modules` that `oracles` also defines, sorted."""
    shared = _functions(oracles)
    return sorted((m.name, name) for m in modules for name in _functions(m) & shared)


def test_no_test_module_redefines_a_reference_of_oracles():
    # a reference kept in a test module beside its tests/oracles.py namesake
    # is a second copy that can drift from the first
    tests = Path(__file__).parent
    assert _redefined(tests / "oracles.py", sorted(tests.glob("test_*.py"))) == []


def test_the_redefinition_test_finds_a_planted_copy(tmp_path):
    # a top-level copy is found; a method, a nested function and an
    # imported name of the same name are not
    oracles = tmp_path / "oracles.py"
    oracles.write_text("def random_word(rng, k, n):\n    pass\nORACLE = 1\n")
    module = tmp_path / "test_words.py"
    module.write_text(
        "from oracles import random_word\n"
        "class Helper:\n"
        "    def random_word(self):\n"
        "        pass\n"
        "def test_words():\n"
        "    def random_word():\n"
        "        pass\n"
        "def random_word(rng, k, n):\n"
        "    pass\n"
        "def ORACLE():\n"
        "    pass\n"
    )
    assert _redefined(oracles, [module]) == [("test_words.py", "random_word")]


# -- every import of a test module is read ----------------------------------------


def _unread_imports(path):
    """(line, name) of each name a module's source imports and never reads,
    in line order: `import a.b` binds a, and a read is a load of the bare
    name, which an attribute read, a call and a decorator all start with."""
    tree = ast.parse(path.read_text())
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return sorted(
        (node.lineno, name)
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for name in (a.asname or a.name.split(".")[0] for a in node.names)
        if name not in read
    )


def test_no_test_module_imports_a_name_it_never_reads():
    tests = Path(__file__).parent
    found = {p.name: u for p in sorted(tests.glob("test_*.py")) if (u := _unread_imports(p))}
    assert found == {}


def test_the_unread_import_test_finds_a_planted_import(tmp_path):
    # an unread dotted module, an unread alias and a name only stored over;
    # names read through a decorator, a default, an attribute and a call pass
    source = tmp_path / "test_words.py"
    source.write_text(
        "import os.path\n"
        "import pytest\n"
        "from commsol import groups, stallings as st\n"
        "from commsol.freewords import Word, parse_word\n"
        "from oracles import ORACLE\n"
        "@ORACLE\n"
        "def test_words(k=pytest.approx):\n"
        "    parse_word = groups.group('F', 2)\n"
        "    return Word(2, 'a')\n"
    )
    assert _unread_imports(source) == [(1, "os"), (3, "st"), (4, "parse_word")]

"""The four seeded workloads.

Each `build_<name>(rng)` makes its inputs with the library's constructors
and returns the task list of one pass.  In a Task, `run()` is the timed
call into the library and `check(output)` returns None when the output
passes its oracle, or a message saying why not.
Checks use the reference code in oracles.py or facts fixed by the
construction of the inputs, never the code path that produced the output.
"""

from __future__ import annotations

import contextlib
import io
import math
from collections import namedtuple
from fractions import Fraction
from itertools import product

import oracles as ref
from commsol import catalog, cli, lattices, prosystems, ratmat, solenoid, stallings
from commsol import commensurations as comm
from commsol import geometry
from commsol.freewords import Word


Task = namedtuple("Task", "kind run check")


def _expect(ok: bool, message: str):
    return None if ok else message


def _nielsen_automorphism(rng, length: int):
    """Letter images (x, y) of a random product of Nielsen moves on (a, b)
    with len(x) + len(y) == length.  Fixing the length per slot, rather
    than the number of moves, fixes how much word work the map costs."""
    x, y = "a", "b"
    while len(x) + len(y) != length:
        if len(x) + len(y) > length:
            x, y = "a", "b"
        u = y if rng.random() < 0.5 else ref.inverse(y)
        x = ref.reduce_word(x + u if rng.random() < 0.5 else u + x)
        if rng.random() < 0.5:
            x, y = y, x
    return (x, y)


def _random_word(rng, rank: int, length: int) -> Word:
    letters = "abcdefghijklmnopqrstuvwxyz"[:rank]
    letters += letters.upper()
    s = ""
    while len(s) < length:
        s = ref.reduce_word(s + rng.choice(letters))
    return Word(rank, s)


def _ambient_map(images):
    return comm.from_ambient(2, [Word(2, w) for w in images])


def _check_zeta_f(morphism, images, objects):
    """Each component agrees with the ambient map a_i -> images[i] on its
    domain basis and lands in its object."""
    if len(morphism.components) != len(objects):
        return f"{len(morphism.components)} components for {len(objects)} objects"
    for comp, obj in zip(morphism.components, objects):
        for b, img in zip(stallings.basis(comp.domain), comp.images):
            want = ref.ambient_apply(images, b.letters)
            if img.letters != want:
                return f"image of {b} is {img}, the ambient map gives {want}"
            if ref.trace(obj, img.letters) != 0:
                return f"image {img} leaves its object"
    return None


def _coset_dpro(subgroups_by_index, g: str, h: str, depth: int) -> float:
    """exp(-n) for the largest n < depth with Hg = Hh for every subgroup of
    index <= n, or 0 when that holds at the full depth."""
    diff = ref.reduce_word(g + ref.inverse(h))
    agree = 0
    for n in range(1, depth + 1):
        if all(ref.trace(s, diff) == 0 for s in subgroups_by_index[n]):
            agree = n
        else:
            break
    return 0.0 if agree == depth else math.exp(-agree)


# -- tower: the F_k index/depth axis --------------------------------------------


def build_tower(rng):
    depth = 3
    system3 = prosystems.build_system("F", 2, depth)
    objects3 = system3.objects
    by_index = {n: [s for s in objects3 if s.m <= n] for n in range(1, depth + 1)}

    def counts_of(subs, top):
        got = [0] * top
        for s in subs:
            got[s.m - 1] += 1
        return got

    def check_enum(k, top):
        def check(subs):
            want = ref.hall_counts(k, top)
            got = counts_of(subs, top)
            if got != want:
                return f"per-index counts {got} != Hall {want}"
            return _expect(all(s.complete for s in subs) and len(set(subs)) == len(subs),
                           "duplicate or infinite-index subgroup")
        return check

    def check_system(system):
        want = sum(ref.hall_counts(2, 4))
        if len(system.objects) != want:
            return f"{len(system.objects)} objects, Hall gives {want}"
        return _expect(system.objects[0].m == 1, "top object is not the whole group")

    def check_kernel(ker):
        if ker.m != 972:
            return f"kernel index {ker.m} != 972"
        for b in stallings.basis(ker)[:64]:
            if any(ref.trace(s, b.letters) != 0 for s in objects3):
                return f"kernel element {b} misses a subgroup of index <= 3"
        return None

    tasks = [
        Task("enumerate", lambda: stallings.enumerate_subgroups(2, 5), check_enum(2, 5)),
        Task("enumerate", lambda: stallings.enumerate_subgroups(3, 4), check_enum(3, 4)),
        Task("build_system", lambda: prosystems.build_system("F", 2, 4), check_system),
        Task("kernel", lambda: solenoid.kernel("F", 2, 3), check_kernel),
    ]

    # zeta of seeded automorphisms, and functoriality on consecutive pairs
    autos = [_nielsen_automorphism(rng, 3 + i % 3) for i in range(6)]
    maps = [_ambient_map(a) for a in autos]
    for images, phi in zip(autos, maps):
        tasks.append(Task(
            "zeta",
            lambda phi=phi: prosystems.zeta(phi, depth),
            lambda m, images=images: _check_zeta_f(m, images, objects3),
        ))
    for i in range(len(maps)):
        a, b = maps[i], maps[(i + 1) % len(maps)]
        composite = tuple(ref.ambient_apply(autos[i], w) for w in autos[(i + 1) % len(maps)])
        tasks.append(Task(
            "compose_morphisms",
            lambda a=a, b=b: prosystems.compose_morphisms(
                prosystems.zeta(a, depth), prosystems.zeta(b, depth)
            ),
            lambda m, images=composite: _check_zeta_f(m, images, objects3),
        ))

    # metric layer on seeded words
    words = [_random_word(rng, 2, 4 + i % 5) for i in range(24)]
    for i in range(0, len(words), 3):
        g, h, w = words[i : i + 3]

        def dpro_triple(g=g, h=h, w=w):
            return (
                solenoid.d_pro("F", 2, g, h, depth),
                solenoid.d_pro("F", 2, g, w, depth),
                solenoid.d_pro("F", 2, w, h, depth),
            )

        def check_triple(vals, g=g, h=h, w=w):
            dgh, dgw, dwh = (float(v) for v in vals)
            if dgh > max(dgw, dwh) + 1e-12:
                return "ultrametric inequality fails"
            for (x, y), v in zip(((g, h), (g, w), (w, h)), (dgh, dgw, dwh)):
                want = _coset_dpro(by_index, x.letters, y.letters, depth)
                if abs(v - want) > 1e-12:
                    return f"d_pro({x},{y}) = {v}, coset families give {want}"
            return None

        tasks.append(Task("d_pro", dpro_triple, check_triple))
    for g in words[:8]:
        def check_baseleaf(p, g=g):
            want = tuple(ref.trace(s, g.letters) for s in objects3)
            return _expect(p.family() == want, f"baseleaf({g}) has the wrong coset family")

        tasks.append(Task("baseleaf", lambda g=g: solenoid.baseleaf(g, depth), check_baseleaf))
    for i in range(0, 8, 2):
        g, h = words[i], words[i + 1]

        def sigma_pair(g=g, h=h):
            p, q = solenoid.baseleaf(g, depth), solenoid.baseleaf(h, depth)
            return solenoid.sigma(p, q), solenoid.sigma(q, p)

        def check_sigma(vals, g=g, h=h):
            s1, s2 = (float(v) for v in vals)
            bound = _coset_dpro(by_index, g.letters, h.letters, depth)
            return _expect(abs(s1 - s2) < 1e-12 and s1 <= bound + 1e-12,
                           f"sigma({g},{h}) = {s1}/{s2}, d_pro bound {bound}")

        tasks.append(Task("sigma", sigma_pair, check_sigma))
    for g in words[8:10]:
        def ball(g=g):
            return solenoid.ball_structure(solenoid.baseleaf(g, depth), Fraction(1, 20))

        def check_ball(report, g=g):
            # exp(-2) > 1/20, so only the point's own K_3 coset is within eps
            return _expect(report.count == 1 and report.components[0][1].is_zero,
                           f"ball at {g} has {report.count} components, expected 1")

        tasks.append(Task("ball_structure", ball, check_ball))
    return tasks


# -- catalog: reuse of the fixed F2 catalog --------------------------------------

# Equivalence classes of the catalog, fixed by its construction: a
# restriction is equivalent to the map it restricts, and maps that differ
# as automorphisms of F2 are inequivalent (unique roots).
CATALOG_CLASSES = [
    {"identity", "identity|ker_a"},
    {"swap", "swap|ker_a"},
    {"shift", "shift|ker_a"},
    {"inner_a", "inner_a|ker_a_mod3"},
    {"inner_b"},
    {"inner_ab"},
    {"ker_a_basis_swap"},
    {"ker_a_to_ker_total"},
]


CATALOG_ROUNDS = 8


def _same_class(x: str, y: str) -> bool:
    return any(x in c and y in c for c in CATALOG_CLASSES)


def _check_composite(result, factors):
    """result(h) == f1(f2(...(h))) on the basis of result's domain."""
    for h in stallings.basis(result.domain):
        v = h
        for f in reversed(factors):
            v = comm.evaluate(f, v)
        if comm.evaluate(result, h) != v:
            return f"composite disagrees with stepwise evaluation at {h}"
    return None


def _run_cli(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.run(argv)
    return code, buf.getvalue()


def _zeta_lines(text):
    """(component index, basis word, image word) triples of a zeta dump."""
    out = []
    for line in text.splitlines():
        if line.startswith("comp "):
            head, _, arrow = line.partition(": ")
            b, _, img = arrow.partition(" -> ")
            out.append((int(head.split()[1]), b, img))
    return out


def build_catalog(rng):
    depth = 3
    cat = catalog.f2_catalog()
    names = list(cat)
    inline = {n: comm.format_comm_inline(cat[n]) for n in names}
    objects3 = prosystems.build_system("F", 2, depth).objects
    tasks = []

    # zeta functoriality on a fixed design in which every map is the left
    # and the right factor twice.  One pair can cost 100x another, so these
    # pairs are not drawn; they run first, so their cache state is fixed too
    for step in (1, 5):
        for i, x in enumerate(names):
            y = names[(i + step) % len(names)]
            fx, fy = cat[x], cat[y]

            def zeta_functor(fx=fx, fy=fy):
                lhs = prosystems.zeta(comm.compose(fx, fy), depth)
                rhs = prosystems.compose_morphisms(
                    prosystems.zeta(fx, depth), prosystems.zeta(fy, depth)
                )
                return lhs, rhs, prosystems.morphisms_equivalent(lhs, rhs)

            def check_functor(out, fs=(fx, fy)):
                lhs, rhs, eq = out
                if not eq:
                    return "zeta is not functorial on this pair"
                for c, obj in zip(lhs.components, objects3):
                    bad = _check_composite(c, fs)
                    if bad:
                        return bad
                    if any(ref.trace(obj, img.letters) != 0 for img in c.images):
                        return "zeta component leaves its object"
                return None

            tasks.append(Task("zeta_functor", zeta_functor, check_functor))

    # seeded rounds: in each, every map takes each argument position once
    for _ in range(CATALOG_ROUNDS):
        p1, p2, p3 = (rng.sample(names, len(names)) for _ in range(3))
        for x, y, z in zip(p1, p2, p3):
            fx, fy, fz = cat[x], cat[y], cat[z]

            def assoc(fx=fx, fy=fy, fz=fz):
                lhs = comm.compose(comm.compose(fx, fy), fz)
                rhs = comm.compose(fx, comm.compose(fy, fz))
                return lhs, rhs, comm.equivalent(lhs, rhs)

            def check_assoc(out, fs=(fx, fy, fz)):
                lhs, rhs, eq = out
                if not eq:
                    return "associativity: composites are not equivalent"
                return _check_composite(lhs, fs) or _check_composite(rhs, fs)

            tasks.append(Task("associativity", assoc, check_assoc))
            tasks.append(Task(
                "equivalent",
                lambda fx=fx, fz=fz: comm.equivalent(fx, fz),
                lambda eq, x=x, z=z: _expect(eq == _same_class(x, z),
                                             f"equivalent({x}, {z}) = {eq}"),
            ))
        x, y, z = p1[0], p2[0], p3[0]
        tasks.append(Task(
            "cli_compose",
            lambda x=x, y=y: _run_cli(["--format", "lines", "compose", inline[x], inline[y]]),
            lambda out, x=x, y=y: _expect(
                out[0] == 0 and comm.parse_comm(out[1]) == comm.compose(cat[x], cat[y]),
                f"cli compose {x} {y} does not re-parse to the library composite"),
        ))
        tasks.append(Task(
            "cli_equiv",
            lambda x=x, z=z: _run_cli(["equiv", inline[x], inline[z]]),
            lambda out, x=x, z=z: _expect(
                out[0] == 0 and out[1].strip()
                == ("equivalent" if comm.equivalent(cat[x], cat[z]) else "inequivalent"),
                f"cli equiv {x} {z} disagrees with the library"),
        ))

        def check_cli_zeta(out, y=y):
            code, text = out
            m = prosystems.zeta(cat[y], 2)
            want = [
                (j, str(b), str(img))
                for j, c in enumerate(m.components)
                for b, img in zip(stallings.basis(c.domain), c.images)
            ]
            return _expect(code == 0 and _zeta_lines(text) == want,
                           f"cli zeta {y} disagrees with the library")

        tasks.append(Task(
            "cli_zeta",
            lambda y=y: _run_cli(["zeta", inline[y], "--depth", "2"]),
            check_cli_zeta,
        ))

    for x in rng.sample(names, len(names)):
        f = cat[x]

        def inverse_law(f=f):
            inv = comm.invert(f)
            return inv, comm.compose(f, inv), comm.compose(inv, f)

        def check_inverse(out, f=f):
            inv, right, left = out
            for h in stallings.basis(inv.domain):
                if comm.evaluate(f, comm.evaluate(inv, h)) != h:
                    return f"f(f^-1({h})) != {h}"
            for h in stallings.basis(f.domain):
                if comm.evaluate(inv, comm.evaluate(f, h)) != h:
                    return f"f^-1(f({h})) != {h}"
            for e in (right, left):
                for h in stallings.basis(e.domain):
                    if comm.evaluate(e, h) != h:
                        return "composite with the inverse is not the identity"
            return None

        tasks.append(Task("inverse", inverse_law, check_inverse))
    return tasks


# -- qi: the F2 radius axis on fresh maps ----------------------------------------


def build_qi(rng):
    subgroups = stallings.enumerate_subgroups(2, 4)
    by_index = {m: [s for s in subgroups if s.m == m] for m in (2, 3, 4)}
    ball4 = ref.words_up_to(2, 4)
    ball6 = ref.words_up_to(2, 6)
    def index_2_in(dom):
        """Meets of `dom` with index-2 subgroups that have index 2 in dom."""
        meets = (stallings.intersect(dom, h) for h in by_index[2])
        return [m for m in meets if m.m == 2 * dom.m]

    tasks = []
    for i in range(4):
        images = _nielsen_automorphism(rng, 4 + i % 3)
        # even slots restrict further, so their domain needs an index-2
        # subgroup that is a meet (the mod-2 kernel has none)
        dom = rng.choice([s for s in by_index[2 + i % 3] if i % 2 or index_2_in(s)])
        phi = comm.restriction(_ambient_map(images), dom)
        if i % 2 == 0:
            other_images = images
            other = comm.restriction(phi, rng.choice(index_2_in(dom)))
        else:
            other_images = _nielsen_automorphism(rng, 4 + i % 3)
            other = comm.restriction(_ambient_map(other_images), rng.choice(by_index[2]))
        truth = tuple(images) == tuple(other_images)

        def check_qi(est, dom=dom, images=images):
            got = [ref.ambient_apply(images, ref.project_f(dom, x, 2)) for x in ball4]
            if est.pairs != len(ball4) * (len(ball4) - 1) // 2:
                return f"{est.pairs} pairs on a ball of {len(ball4)} elements"
            return _expect(est.L >= 1 and ref.certificate_holds(ball4, got, ref.f_dist, est.L, est.C),
                           f"certificate L={est.L} C={est.C} fails on a recomputed pair")

        tasks.append(Task(
            "qi_estimate",
            lambda phi=phi: geometry.qi_estimate(geometry.baseleaf_map(phi), 4),
            check_qi,
        ))
        tasks.append(Task(
            "bounded_distance",
            lambda phi=phi, other=other: geometry.bounded_distance(
                geometry.baseleaf_map(phi), geometry.baseleaf_map(other), 6
            ),
            lambda rep, phi=phi, other=other, truth=truth: _expect(
                rep.equivalent == truth == comm.equivalent(phi, other)
                and rep.maxima == sorted(rep.maxima),
                f"bounded_distance says equivalent={rep.equivalent}, truth {truth}"),
        ))
        in_domain = sum(1 for w in ball6 if ref.trace(dom, w) == 0)
        tasks.append(Task(
            "factorization_check",
            lambda phi=phi: geometry.factorization_check(phi, 2, 6),
            lambda rep, n=in_domain: _expect(rep.passed and rep.checked == n,
                                             f"factorization: {rep.render()}, {n} domain points"),
        ))
        for _ in range(3):
            g = _random_word(rng, 2, 2 + rng.randrange(3))

            def check_baction(point, g=g, images=images):
                want = ref.attracting_prefix(ref.ambient_apply(images, g.letters), 24)
                return _expect(point.expansion(24) == want,
                               f"boundary image of {g}+ is {point.render()}")

            tasks.append(Task(
                "boundary_action",
                lambda phi=phi, g=g: geometry.boundary_action(phi, geometry.fixed_point(g)),
                check_baction,
            ))
    return tasks


# -- zn: Z^2 and Z^3 -------------------------------------------------------------

# Diagonals of the qi domains: every shape of index 24 in Z^2 twice and
# four of index 24 in Z^3, so that a seed moves only the off-diagonal
# entries and the maps.  The projection scans a box of side 2 r0 + 1 with
# r0 up to sum(d - 1), so the shape sets the cost; twenty smaller maps keep
# the seed-to-seed spread of the total box size near 3%.
ZN_QI_DIAGONALS = [(1, 24), (2, 12), (3, 8), (4, 6), (6, 4), (8, 3), (12, 2), (24, 1)] * 2 + [
    (2, 3, 4), (4, 3, 2), (2, 2, 6), (3, 2, 4)]


def _random_int_matrix(rng, n):
    while True:
        rows = [[Fraction(rng.randrange(-2, 3)) for _ in range(n)] for _ in range(n)]
        if ratmat.det(ratmat.from_rows(rows)) != 0:
            return rows


def _random_hnf(rng, diag):
    n = len(diag)
    cols = [[0] * n for _ in range(n)]
    for j in range(n):
        cols[j][j] = diag[j]
        for i in range(j + 1, n):
            cols[j][i] = rng.randrange(diag[i])
    return lattices.Lattice(n, tuple(tuple(c) for c in cols))


def _z_dpro(g, h, depth):
    agree = 0
    for n in range(1, depth + 1):
        step = ref.lcm_upto(n)
        if all((a - b) % step == 0 for a, b in zip(g, h)):
            agree = n
    return 0.0 if agree == depth else math.exp(-agree)


def build_zn(rng):
    tasks = []

    def check_enum(n, top):
        def check(lats):
            got = [0] * top
            for lat in lats:
                got[lattices.index(lat) - 1] += 1
            want = ref.zn_counts(n, top)
            return _expect(got == want and len(set(lats)) == len(lats),
                           f"Z^{n} counts {got} != {want}")
        return check

    def check_kernel(n, depth):
        step = ref.lcm_upto(depth)

        def check(ker):
            want = tuple(tuple(step if i == j else 0 for i in range(n)) for j in range(n))
            return _expect(ker.cols == want, f"K_{depth}(Z^{n}) is not {step}Z^{n}")
        return check

    tasks += [
        Task("enumerate", lambda: lattices.enumerate_lattices(2, 48), check_enum(2, 48)),
        Task("enumerate", lambda: lattices.enumerate_lattices(3, 16), check_enum(3, 16)),
        Task("kernel", lambda: solenoid.kernel("Z", 2, 7), check_kernel(2, 7)),
        Task("kernel", lambda: solenoid.kernel("Z", 3, 5), check_kernel(3, 5)),
        Task("build_system", lambda: prosystems.build_system("Z", 2, 6),
              lambda s: _expect(len(s.objects) == sum(ref.zn_counts(2, 6)),
                                f"{len(s.objects)} objects in the Z^2 depth-6 system")),
    ]

    for i in range(12):
        n = 2 + i % 2
        a = comm.make_zn(catalog.random_zn_matrix(rng, n))
        b = comm.make_zn(catalog.random_zn_matrix(rng, n))
        sub = lattices.intersect(a.domain, _random_hnf(rng, (2,) + (1,) * (n - 1)))

        def check_compose(c, a=a, b=b):
            if c.matrix != ref.mat_mul(a.matrix, b.matrix):
                return "composite matrix is not the product"
            for v in c.domain.cols:
                bv = ref.mat_vec(b.matrix, v)
                if any(x.denominator != 1 for x in bv) or not ref.lattice_contains(
                    a.domain.cols, tuple(int(x) for x in bv)
                ):
                    return f"{v} is not mapped into the domain of the outer map"
            return None

        tasks.append(Task("compose", lambda a=a, b=b: comm.compose(a, b), check_compose))
        tasks.append(Task(
            "invert",
            lambda a=a: comm.invert(a),
            lambda inv, a=a, n=n: _expect(
                ref.mat_mul(a.matrix, inv.matrix) == ref.identity_matrix(n)
                and inv.domain == a.codomain,
                "inverse matrix or domain is wrong"),
        ))
        tasks.append(Task(
            "equivalent",
            lambda a=a, b=b, sub=sub: (
                comm.equivalent(a, comm.restriction(a, sub)), comm.equivalent(a, b)
            ),
            lambda out, a=a, b=b: _expect(out == (True, a.matrix == b.matrix),
                                          f"equivalence results {out}"),
        ))

    system5 = prosystems.build_system("Z", 2, 5).objects
    for _ in range(3):
        phi = comm.make_zn(catalog.random_zn_matrix(rng, 2))

        def check_zeta(m, phi=phi):
            if len(m.components) != len(system5):
                return f"{len(m.components)} components"
            for c, obj in zip(m.components, system5):
                if c.matrix != phi.matrix:
                    return "component matrix differs from the map"
                if not all(ref.lattice_contains(obj.cols, v) for v in c.codomain.cols):
                    return "component leaves its object"
            return None

        tasks.append(Task("zeta", lambda phi=phi: prosystems.zeta(phi, 5), check_zeta))
    for _ in range(6):
        g = (rng.randrange(-60, 61), rng.randrange(-60, 61))
        h = (rng.randrange(-60, 61), rng.randrange(-60, 61))

        def sigma_pair(g=g, h=h):
            p, q = solenoid.baseleaf(g, 5), solenoid.baseleaf(h, 5)
            return solenoid.sigma(p, q), solenoid.sigma(q, p)

        tasks.append(Task(
            "sigma",
            sigma_pair,
            lambda vals, g=g, h=h: _expect(
                abs(float(vals[0]) - float(vals[1])) < 1e-12
                and float(vals[0]) <= _z_dpro(g, h, 5) + 1e-12,
                f"sigma({g},{h}) = {vals[0]}"),
        ))

    for diag in ZN_QI_DIAGONALS:
        n = len(diag)
        lat = _random_hnf(rng, diag)
        phi = comm.make_zn(_random_int_matrix(rng, n), domain=lat)
        radius = 4 if n == 2 else 2
        ball = [
            p for p in product(range(-radius, radius + 1), repeat=n)
            if sum(map(abs, p)) <= radius
        ]

        def check_qi(est, lat=lat, phi=phi, ball=ball):
            got = [
                tuple(int(x) for x in ref.mat_vec(phi.matrix, ref.project_z(lat.cols, g)))
                for g in ball
            ]
            return _expect(ref.certificate_holds(ball, got, ref.z_dist, est.L, est.C),
                           f"certificate L={est.L} C={est.C} fails on a recomputed pair")

        tasks.append(Task(
            "qi_estimate",
            lambda phi=phi, radius=radius: geometry.qi_estimate(geometry.baseleaf_map(phi), radius),
            check_qi,
        ))
    return tasks


WORKLOADS = {
    "tower": build_tower,
    "catalog": build_catalog,
    "qi": build_qi,
    "zn": build_zn,
}

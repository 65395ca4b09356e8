"""The acceptance suite: one runnable check per criterion, exact
tolerances pinned, each reporting PASS/FAIL plus its elapsed time.

Every expected value here is produced by an independent oracle (brute
force, enumeration, direct evaluation of definitions), never by the code
path under test.
"""

from __future__ import annotations

import math
import random
import time
from fractions import Fraction
from itertools import permutations, product

from . import catalog, lattices, ratmat, stallings
from . import commensurations as comm_mod
from . import geometry, prosystems, solenoid
from .freewords import Word, identity as word_identity
from .groups import group


class CriterionResult:
    __slots__ = ("number", "name", "ok", "detail", "elapsed", "budget")

    def __init__(self, number, name, ok, detail, elapsed, budget):
        self.number = number
        self.name = name
        self.ok = ok
        self.detail = detail
        self.elapsed = elapsed
        self.budget = budget

    def render(self) -> str:
        verdict = "PASS" if self.ok else "FAIL"
        return (
            f"{verdict} criterion {self.number} ({self.name}): {self.detail} "
            f"[{self.elapsed:.2f}s / budget {self.budget:.0f}s]"
        )


# -- criterion 1: GL_n(Q) realization ------------------------------------------------


def criterion_1():
    rng = random.Random(2026)
    checked = 0
    for _ in range(200):
        n = rng.choice([1, 2, 3])
        a = comm_mod.make_zn(catalog.random_zn_matrix(rng, n))
        b = comm_mod.make_zn(catalog.random_zn_matrix(rng, n))
        ab = comm_mod.compose(a, b)
        if comm_mod.to_matrix(ab) != ratmat.mul(comm_mod.to_matrix(a), comm_mod.to_matrix(b)):
            return False, f"matrix of composition differs at pair {checked}"
        for c in (a, b):
            if not comm_mod.equivalent(comm_mod.from_matrix(comm_mod.to_matrix(c), n), c):
                return False, f"from_matrix round trip failed at pair {checked}"
        checked += 1
    return True, f"{checked} random pairs: exact matrix homomorphism + round trips"


# -- criterion 2: Comm group axioms ---------------------------------------------------


def criterion_2():
    cat = list(catalog.f2_catalog().values())
    ident = comm_mod.identity_comm("F", 2)
    for f in cat:
        if not comm_mod.equivalent(comm_mod.compose(f, ident), f):
            return False, "identity is not right-neutral"
        if not comm_mod.equivalent(comm_mod.compose(ident, f), f):
            return False, "identity is not left-neutral"
        inv = comm_mod.invert(f)
        if not comm_mod.equivalent(comm_mod.compose(f, inv), ident):
            return False, "right inverse failed"
        if not comm_mod.equivalent(comm_mod.compose(inv, f), ident):
            return False, "left inverse failed"
    triples = 0
    for a in cat:
        for b in cat:
            ab = comm_mod.compose(a, b)
            for c in cat:
                lhs = comm_mod.compose(ab, c)
                rhs = comm_mod.compose(a, comm_mod.compose(b, c))
                if not comm_mod.equivalent(lhs, rhs):
                    return False, f"associativity failed on triple {triples}"
                triples += 1
    named = catalog.f2_catalog()
    congruences = 0
    for x, y in catalog.EQUIVALENT_PAIRS:
        fx, fy = named[x], named[y]
        for h in cat:
            if not comm_mod.equivalent(comm_mod.compose(fx, h), comm_mod.compose(fy, h)):
                return False, f"right congruence failed at ({x},{y})"
            if not comm_mod.equivalent(comm_mod.compose(h, fx), comm_mod.compose(h, fy)):
                return False, f"left congruence failed at ({x},{y})"
            congruences += 2
    return True, (
        f"{len(cat)} catalog maps: axioms + {triples} associativity triples "
        f"+ {congruences} congruence instances"
    )


# -- criterion 3: zeta correspondence -------------------------------------------------


def criterion_3():
    cat = list(catalog.f2_catalog().values())
    for depth in (2, 3):
        for phi in cat:
            if not comm_mod.equivalent(
                prosystems.reconstruct(prosystems.zeta(phi, depth)), phi
            ):
                return False, f"round trip failed at depth {depth}"
        for a in cat:
            for b in cat:
                lhs = prosystems.zeta(comm_mod.compose(a, b), depth)
                rhs = prosystems.compose_morphisms(
                    prosystems.zeta(a, depth), prosystems.zeta(b, depth)
                )
                if not prosystems.morphisms_equivalent(lhs, rhs):
                    return False, f"functoriality failed at depth {depth}"
    pairs = 0
    for i, a in enumerate(cat):
        for b in cat[i + 1 :]:
            pairs += 1
            zeq = prosystems.morphisms_equivalent(
                prosystems.zeta(a, 3), prosystems.zeta(b, 3)
            )
            if zeq != comm_mod.equivalent(a, b):
                return False, "injectivity at depth 3 failed"
    return True, (
        f"round trips + {len(cat) ** 2} functoriality pairs at depths 2,3; "
        f"injectivity across {pairs} pairs at depth 3"
    )


# -- criterion 4: Galois correspondence counts ----------------------------------------


def criterion_4():
    subs = stallings.enumerate_subgroups(2, 3)
    by_index = {}
    for g in subs:
        by_index.setdefault(g.m, []).append(g)
    counts = [len(by_index.get(m, [])) for m in (1, 2, 3)]
    if counts != [1, 3, 13]:
        return False, f"per-index counts {counts} != [1, 3, 13]"
    # independent oracle: transitive permutation pairs / (m-1)! relabelings
    for m in (1, 2, 3):
        transitive = 0
        for tup in product(list(permutations(range(m))), repeat=2):
            seen = {0}
            stack = [0]
            while stack:
                v = stack.pop()
                for p in tup:
                    for t in (p[v], p.index(v)):
                        if t not in seen:
                            seen.add(t)
                            stack.append(t)
            if len(seen) == m:
                transitive += 1
        if m == 3 and transitive != 26:
            return False, f"expected 26 transitive pairs in S3, got {transitive}"
        if len(by_index[m]) * math.factorial(m - 1) != transitive:
            return False, f"count mismatch against brute force at index {m}"
    # each subgroup's complete graph is its cover, canonically labeled
    if not all(g.complete for g in subs) or len(set(subs)) != len(subs):
        return False, "covers do not biject with subgroups"
    return True, "counts 1,3,13 match the 26/2! brute force; covers biject"


# -- criterion 5: profinite kernel ----------------------------------------------------


def criterion_5():
    for n in range(1, 9):
        ker = lattices.profinite_kernel(1, n)
        step = lattices.lcm_range(n)
        if ker.cols[0][0] != step:
            return False, f"kernel at depth {n} is not lcm(1..{n})Z"
        for v in range(-10_000, 10_001):
            if (v % step == 0) != all(v % m == 0 for m in range(1, n + 1)):
                return False, f"membership mismatch at {v}, depth {n}"
    val = solenoid.d_pro("Z", 1, (0,), (12,), 5)
    if val.exp_n != 4:
        return False, f"d_pro(0,12,5) = {val.render()}, expected exp(-4)"
    return True, "kernels equal lcm(1..N)Z for N<=8 on [-10^4,10^4]; d_pro symbolic exp(-4)"


# -- criterion 6: ultrametric and sigma -----------------------------------------------


def criterion_6():
    rng = random.Random(606)
    for _ in range(250):
        g, h, w = ((rng.randrange(-2000, 2000),) for _ in range(3))
        dgh = float(solenoid.d_pro("Z", 1, g, h, 5))
        dgw = float(solenoid.d_pro("Z", 1, g, w, 5))
        dwh = float(solenoid.d_pro("Z", 1, w, h, 5))
        if dgh > max(dgw, dwh) + 1e-12:
            return False, "Z ultrametric inequality failed"
        s = rng.randrange(-500, 500)
        if solenoid.d_pro("Z", 1, (g[0] + s,), (h[0] + s,), 5) != solenoid.d_pro(
            "Z", 1, g, h, 5
        ):
            return False, "Z right-invariance failed"
    words = [w for layer in group("F", 2).layers(6) for w in layer]
    for _ in range(250):
        g, h, w = rng.choice(words), rng.choice(words), rng.choice(words)
        dgh = float(solenoid.d_pro("F", 2, g, h, 2))
        dgw = float(solenoid.d_pro("F", 2, g, w, 2))
        dwh = float(solenoid.d_pro("F", 2, w, h, 2))
        if dgh > max(dgw, dwh) + 1e-12:
            return False, "F ultrametric inequality failed"
        s = rng.choice(words)
        if solenoid.d_pro("F", 2, g * s, h * s, 2) != solenoid.d_pro("F", 2, g, h, 2):
            return False, "F right-invariance failed"
    zpts = [solenoid.baseleaf((rng.randrange(-100, 100),), 5) for _ in range(10)]
    fpts = [solenoid.baseleaf(rng.choice(words), 2) for _ in range(10)]
    for pts in (zpts, fpts):
        for _ in range(100):
            p, q, r = rng.choice(pts), rng.choice(pts), rng.choice(pts)
            spq = float(solenoid.sigma(p, q))
            if abs(spq - float(solenoid.sigma(q, p))) > 1e-12:
                return False, "sigma symmetry failed"
            if float(solenoid.sigma(p, r)) > spq + float(solenoid.sigma(q, r)) + 1e-9:
                return False, "sigma triangle inequality failed"
    val = solenoid.sigma(solenoid.baseleaf((0,), 5), solenoid.baseleaf((12,), 5))
    best = min(
        max(float(solenoid.d_pro("Z", 1, (0,), (12 - g,), 5)), abs(g))
        for g in range(-20, 21)
    )
    if val.exp_n != 4 or abs(float(val) - best) > 1e-12:
        return False, f"sigma example {val.render()} != exhaustive minimum {best}"
    return True, "500 ultrametric/right-invariance triples; sigma laws; exp(-4) example"


# -- criterion 7: ball structure -------------------------------------------------------


def criterion_7():
    for eps in (Fraction(1, 20), Fraction(1, 10)):
        if not eps < Fraction(1, 8):
            return False, "epsilon out of range"
        for fiber_rep in solenoid.fiber_representatives("F", 2, 2):
            center = solenoid.SolenoidPoint("F", 2, 2, fiber_rep, word_identity(2))
            report = solenoid.ball_structure(center, eps)
            within = sum(
                1
                for other in solenoid.fiber_representatives("F", 2, 2)
                if float(solenoid.d_pro("F", 2, fiber_rep, other, 2)) < float(eps)
            )
            if report.count != within:
                return False, f"component count {report.count} != {within}"
            # exhaustive isometry check on the finite depth-2 model: points
            # of one component are at sigma = leaf distance
            ts = [eps * Fraction(i, 8) for i in range(1, 8)]
            sample = [center] + [
                solenoid.SolenoidPoint(
                    "F", 2, 2, fiber_rep, solenoid.EdgePoint(word_identity(2), lett, t)
                )
                for lett in ("a", "b")
                for t in ts
            ]
            for i, p in enumerate(sample):
                for q in sample[i + 1 :]:
                    sv = solenoid.sigma(p, q)
                    lv = solenoid.leaf_distance(p.leaf, q.leaf)
                    if sv != lv:
                        return False, "component is not isometric to the leaf ball"
    return True, "eps in {0.05, 0.1}: counts match fibers within eps; leaf-ball isometry exact"


# -- criterion 8: baseleaf density and leaf count ---------------------------------------


def criterion_8():
    for depth in (1, 2, 3):
        objs = prosystems.build_system("F", 2, depth).objects
        for oi, obj in enumerate(objs):
            for v, tw in enumerate(stallings.tree_words(obj)):
                point = solenoid.baseleaf(Word(2, tw), depth)
                if point.family()[oi] != v:
                    return False, f"coset {v} of object {oi} not hit at depth {depth}"
        sheets = solenoid.sheet_count("F", 2, depth)
        if sheets != solenoid.distinct_fiber_count("F", 2, depth):
            return False, f"F sheet count mismatch at depth {depth}"
    for depth in range(1, 6):
        objs = prosystems.build_system("Z", 1, depth).objects
        for oi, obj in enumerate(objs):
            m = lattices.index(obj)
            hit = {solenoid.baseleaf((g,), depth).family()[oi] for g in range(m)}
            if len(hit) != m:
                return False, f"Z stage of index {m} not covered at depth {depth}"
        if solenoid.sheet_count("Z", 1, depth) != solenoid.distinct_fiber_count(
            "Z", 1, depth
        ):
            return False, f"Z sheet count mismatch at depth {depth}"
    return True, "baseleaf hits every coset of every stage (F2 N<=3, Z N<=5); sheet counts agree"


# -- criterion 9: lifts and factorization ------------------------------------------------


def criterion_9():
    cat = catalog.f2_catalog()
    system2 = prosystems.build_system("F", 2, 2)
    lifts = 0
    for name, phi in cat.items():
        targets = [phi.codomain] + [
            obj for obj in system2.objects if stallings.is_subgroup(phi.codomain, obj)
        ]
        for target in targets:
            gm1 = solenoid.lift_through_covers(phi, target=target)
            gm2 = solenoid.lift_through_covers(phi, target=target)
            if gm1.vertex_map != gm2.vertex_map or gm1.edge_words != gm2.edge_words:
                return False, f"lift of {name} is not deterministic/unique"
            lifts += 1
        report = geometry.factorization_check(phi, 2, 5)
        if not report.passed:
            return False, f"factorization failed for {name}: {report.render()}"
    z_report = geometry.factorization_check(comm_mod.make_zn([[2]]), 4, 12)
    if not z_report.passed:
        return False, "factorization failed for x2 on Z"
    return True, f"{lifts} lifts exist and are unique; factorization exact on radius-5 balls"


# -- criterion 10: QI layer ---------------------------------------------------------------


def criterion_10():
    est = geometry.qi_estimate(geometry.baseleaf_map(comm_mod.identity_comm("F", 2)), 4)
    if (est.L, est.C) != (Fraction(1), Fraction(0)):
        return False, f"identity estimate is ({est.L}, {est.C}), not (1, 0)"
    cat = catalog.f2_catalog()
    for x, y in catalog.EQUIVALENT_PAIRS:
        rep = geometry.bounded_distance(
            geometry.baseleaf_map(cat[x]), geometry.baseleaf_map(cat[y]), 8
        )
        if not rep.equivalent:
            return False, f"({x},{y}) not detected as equivalent"
        if rep.maxima[8] != rep.maxima[6]:
            return False, f"({x},{y}) did not stabilize between R=6 and R=8"
    wx, wy = catalog.INEQUIVALENT_WITNESS
    rep = geometry.bounded_distance(
        geometry.baseleaf_map(cat[wx]), geometry.baseleaf_map(cat[wy]), 8
    )
    if rep.equivalent or rep.maxima[8] <= rep.maxima[6]:
        return False, "inequivalent witness did not grow"
    return True, (
        "identity = (1,0); equivalent pairs stable R=6..8; witness distance grows"
    )


# -- criterion 11: boundary action ---------------------------------------------------------


def criterion_11():
    elements = [w for layer in group("F", 2).layers(4) for w in layer if w]
    for g in elements:
        p = geometry.fixed_point(g)
        iterate = g**30
        depth = min(20, len(iterate))
        if iterate.letters[:depth] != p.expansion(depth):
            return False, f"fixed point of {g} disagrees with 30-step iteration"
    cat = catalog.f2_catalog()
    names = list(cat)
    sample = [Word(2, s) for s in ("a", "b", "ab", "aB", "ba")]
    for x in names:
        for y in names:
            comp = comm_mod.compose(cat[x], cat[y])
            for g in sample:
                lhs = geometry.boundary_action(comp, geometry.fixed_point(g))
                rhs = geometry.boundary_action(
                    cat[x], geometry.boundary_action(cat[y], geometry.fixed_point(g))
                )
                if lhs != rhs:
                    return False, f"equivariance failed for ({x},{y}) at {g}"
    separated = 0
    for i, x in enumerate(names):
        for y in names[i + 1 :]:
            if comm_mod.equivalent(cat[x], cat[y]):
                continue
            if not any(
                geometry.boundary_action(cat[x], geometry.fixed_point(g))
                != geometry.boundary_action(cat[y], geometry.fixed_point(g))
                for g in elements
            ):
                return False, f"({x},{y}) not separated by any |g| <= 4"
            separated += 1
    return True, (
        f"{len(elements)} fixed points match iteration; equivariance on all pairs; "
        f"{separated} inequivalent pairs separated"
    )


CRITERIA = [
    (1, "GL_n(Q) realization", 5.0, criterion_1),
    (2, "Comm group axioms", 60.0, criterion_2),
    (3, "zeta correspondence", 60.0, criterion_3),
    (4, "Galois correspondence counts", 10.0, criterion_4),
    (5, "profinite kernel", 10.0, criterion_5),
    (6, "ultrametric and sigma", 30.0, criterion_6),
    (7, "ball structure", 30.0, criterion_7),
    (8, "baseleaf density and leaf count", 30.0, criterion_8),
    (9, "lift and factorization", 60.0, criterion_9),
    (10, "QI layer", 120.0, criterion_10),
    (11, "boundary action", 60.0, criterion_11),
]


def run_criterion(number: int) -> CriterionResult:
    for num, name, budget, func in CRITERIA:
        if num == number:
            start = time.perf_counter()
            ok, detail = func()
            elapsed = time.perf_counter() - start
            return CriterionResult(num, name, ok, detail, elapsed, budget)
    raise ValueError(f"no criterion {number}")


def run_all(write=print) -> bool:
    all_ok = True
    total = 0.0
    for num, _, _, _ in CRITERIA:
        result = run_criterion(num)
        total += result.elapsed
        all_ok = all_ok and result.ok and result.elapsed < result.budget
        write(result.render())
    write(f"{'PASS' if all_ok else 'FAIL'} total wall time {total:.2f}s (budget 360s)")
    return all_ok and total < 360.0

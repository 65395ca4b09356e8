"""Solenoid model tests: covers, lifts, baseleaf, and the metric layer."""

import math
import random
import time
from fractions import Fraction

import pytest

from commsol import catalog, lattices, stallings
from commsol.commensurations import (
    evaluate,
    format_comm,
    identity_comm,
    make_zn,
    parse_comm,
    restriction,
    zn1_to_f1,
)
from commsol.errors import PreconditionError, ResourceLimitError
from commsol.freewords import Word, identity as word_identity
from commsol.solenoid import (
    EdgePoint,
    MetricValue,
    SolenoidPoint,
    ball_structure,
    baseleaf,
    baseleaf_path,
    covering_map,
    d_inf,
    d_pro,
    distinct_fiber_count,
    fiber_representatives,
    injectivity_radius,
    kernel,
    leaf_distance,
    lift_through_covers,
    sheet_count,
    sigma,
)

W = lambda s: Word(2, s)


def test_metric_value_rendering():
    assert MetricValue.exp(4).render().startswith("exp(-4) = 0.0183156")
    assert MetricValue.zero().render() == "0"
    assert float(MetricValue.exp(1)) == pytest.approx(math.exp(-1))


def test_cover_and_covering_map_examples():
    rose = stallings.whole_group(2)
    assert covering_map(rose, rose).dst.m == 1

    ka = catalog.ker_a()
    cm = covering_map(ka, stallings.whole_group(2))
    assert cm.vertex_map == (0, 0)
    assert (cm.src, cm.dst) == (ka, rose)

    assert covering_map(ka, ka).vertex_map == (0, 1)

    with pytest.raises(PreconditionError):
        covering_map(stallings.whole_group(2), ka)
    a_only = stallings.from_generators([W("a")], 2)
    with pytest.raises(PreconditionError, match="needs a complete graph"):
        covering_map(a_only, rose)


def test_covering_map_matches_tree_word_traces():
    # the former vertex map: the vertex below each vertex's tree word
    subs = stallings.enumerate_subgroups(2, 4)
    pairs = 0
    for h in subs:
        for k in subs:
            if stallings.is_subgroup(h, k):
                want = tuple(stallings.trace(k, tw) for tw in stallings.tree_words(h))
                assert covering_map(h, k).vertex_map == want
                pairs += 1
            else:
                with pytest.raises(PreconditionError, match="inside the target"):
                    covering_map(h, k)
    assert pairs == 196


def test_covering_map_functoriality():
    subs = stallings.enumerate_subgroups(2, 3)
    whole = stallings.whole_group(2)
    count = 0
    for h in subs:
        for k in subs:
            if not stallings.is_subgroup(h, k):
                continue
            hk = covering_map(h, k)
            kl = covering_map(k, whole)
            hl = covering_map(h, whole)
            assert hl.vertex_map == tuple(
                kl.vertex_map[v] for v in hk.vertex_map
            )
            count += 1
    assert count > 17  # includes all (h, whole) pairs and more


def test_lift_identity():
    ident = identity_comm("F", 2)
    gm = lift_through_covers(ident)
    assert gm.vertex_map == (0,)
    ka = catalog.ker_a()
    gm = lift_through_covers(restriction(ident, ka))
    assert gm.vertex_map == (0, 1)
    assert gm.apply_to_path(W("aa")) == W("aa")


def test_lift_shift_on_kernel():
    cat = catalog.f2_catalog()
    phi = cat["shift|ker_a"]  # a -> ab, b -> b restricted to ker(a mod 2)
    # oracle: every basis image has even a-exponent, so the lift exists
    for img in phi.images:
        assert sum(1 if c == "a" else -1 if c == "A" else 0 for c in img.letters) % 2 == 0
    gm = lift_through_covers(phi)
    for h in [W("aa"), W("b"), W("abA"), W("aabB")]:
        assert gm.apply_to_path(h) == evaluate(phi, h)


def test_lift_swap_swaps_sheets():
    cat = catalog.f2_catalog()
    swap_on_ka = cat["swap|ker_a"]  # ker_a -> ker_b
    gm = lift_through_covers(swap_on_ka)
    # trace-coset-table oracle: the nontrivial sheet goes to the nontrivial sheet
    assert gm.vertex_map == (0, 1)
    assert gm.apply_to_path(W("aa")) == W("bb")


def test_lift_collapse_case_agrees_with_evaluation():
    cat = catalog.f2_catalog()
    phi = cat["ker_a_to_ker_total"]  # no ambient extension recorded
    assert phi.ambient is None
    gm = lift_through_covers(phi)
    rng = random.Random(83)
    bas = stallings.basis(phi.domain)
    for _ in range(30):
        expr = [rng.choice([1, -1]) * rng.randrange(1, len(bas) + 1) for _ in range(4)]
        h = stallings.substitute(tuple(expr), list(bas))
        assert gm.apply_to_path(h) == evaluate(phi, h)


def apply_by_products(gm, word):
    """Reference: the path image as one Word product per letter."""
    v = 0
    out = word_identity(gm.dst.k)
    for ch in word.letters:
        x = ord(ch.lower()) - ord("a")
        if ch.islower():
            out = out * gm.edge_words[(v, x)]
            v = gm.src.fwd[x][v]
        else:
            v = gm.src.bwd[x][v]
            out = out * ~gm.edge_words[(v, x)]
    return out


def test_apply_to_path_matches_word_products():
    # lifts with ambient provenance (edges map to the petal images) and
    # without it (the catalog maps parsed back from text, whose tree
    # edges collapse), on closed and open paths
    maps = list(catalog.f2_catalog().values())
    maps += [parse_comm(format_comm(phi)) for phi in maps]
    maps.append(zn1_to_f1(make_zn([[2]])))
    rng = random.Random(97)
    kinds = set()
    for phi in maps:
        gm = lift_through_covers(phi)
        kinds.add(phi.ambient is None)
        letters = "aA" if phi.rank == 1 else "abAB"
        words = [Word(phi.rank, "".join(rng.choice(letters) for _ in range(rng.randrange(9))))
                 for _ in range(40)]
        words += list(stallings.basis(phi.domain))
        for w in words:
            assert gm.apply_to_path(w) == apply_by_products(gm, w)
    assert kinds == {True, False}


def test_lift_error_lists_violating_word():
    ident = identity_comm("F", 2)
    with pytest.raises(PreconditionError) as err:
        lift_through_covers(ident, target=catalog.ker_a())
    assert "a" in str(err.value)


def test_lift_unique():
    cat = catalog.f2_catalog()
    gm1 = lift_through_covers(cat["swap|ker_a"])
    gm2 = lift_through_covers(cat["swap|ker_a"])
    assert gm1.vertex_map == gm2.vertex_map and gm1.edge_words == gm2.edge_words


def test_baseleaf_examples():
    p = baseleaf(word_identity(2), 2)
    assert p.fiber == word_identity(2) and p.leaf == word_identity(2)

    p = baseleaf((1,), 3)
    assert p.family() == ((0,), (1,), (1,))  # cosets of 1 in Z, 2Z, 3Z

    p = baseleaf(W("ab"), 2)
    objs = [o for o in __import__("commsol.prosystems", fromlist=["build_system"]).build_system("F", 2, 2).objects]
    assert p.family() == tuple(stallings.trace(o, W("ab")) for o in objs)


def test_baseleaf_path():
    pts = baseleaf_path(W("ab"), 2)
    assert len(pts) == 3
    assert pts[0] == baseleaf(word_identity(2), 2)
    assert pts[-1] == baseleaf(W("ab"), 2)
    pts = baseleaf_path((3,), 4)
    assert len(pts) == 4


def test_d_pro_examples():
    assert d_pro("F", 2, W("ab"), W("ab"), 3).is_zero
    val = d_pro("Z", 1, (0,), (12,), 5)
    assert val == MetricValue.exp(4)
    assert float(val) == pytest.approx(math.exp(-4))
    # 12 is in lcm(1..4)Z but not lcm(1..5)Z
    assert lattices.contains(kernel("Z", 1, 4), (12,))
    assert not lattices.contains(kernel("Z", 1, 5), (12,))


def test_d_pro_ultrametric_and_right_invariance():
    rng = random.Random(89)
    for _ in range(100):
        g, h, w = (rng.randrange(-500, 500),), (rng.randrange(-500, 500),), (rng.randrange(-500, 500),)
        dgh = float(d_pro("Z", 1, g, h, 5))
        dgw = float(d_pro("Z", 1, g, w, 5))
        dwh = float(d_pro("Z", 1, w, h, 5))
        assert dgh <= max(dgw, dwh) + 1e-12
        shift = (rng.randrange(-100, 100),)
        assert d_pro("Z", 1, (g[0] + shift[0],), (h[0] + shift[0],), 5) == d_pro("Z", 1, g, h, 5)


def test_sigma_z1_example_and_oracle():
    p0 = baseleaf((0,), 5)
    p12 = baseleaf((12,), 5)
    val = sigma(p0, p12)
    assert val == MetricValue.exp(4)
    assert float(val) == pytest.approx(0.0183156, abs=1e-6)
    # oracle: exhaustive search over g in [-20, 20] straight from the
    # definition min_g max(d_pro(fiber1, fiber2 - g), |leaf1 - (leaf2 + g)|)
    best = None
    for g in range(-20, 21):
        fiber = float(d_pro("Z", 1, (0,), (12 - g,), 5))
        leaf = abs(0 - (0 + g))
        cand = max(fiber, leaf)
        if best is None or cand < best:
            best = cand
    assert float(val) == pytest.approx(best)


def test_sigma_same_fiber_edge_points_is_leaf_distance():
    for t1, t2 in [(Fraction(1, 10), Fraction(1, 20)), (Fraction(1, 8), Fraction(1, 16))]:
        p = SolenoidPoint("F", 2, 2, W("ab"), EdgePoint(word_identity(2), "a", t1))
        q = SolenoidPoint("F", 2, 2, W("ab"), EdgePoint(word_identity(2), "a", t2))
        assert sigma(p, q) == MetricValue.of_fraction(abs(t1 - t2))
        assert leaf_distance(p.leaf, q.leaf).exact == abs(t1 - t2)


def test_sigma_symmetry_and_triangle_sampled():
    rng = random.Random(97)
    pts = [baseleaf(W("".join(rng.choice("abAB") for _ in range(rng.randrange(5)))), 2) for _ in range(12)]
    for _ in range(60):
        p, q, r = rng.choice(pts), rng.choice(pts), rng.choice(pts)
        spq, sqp = float(sigma(p, q)), float(sigma(q, p))
        assert spq == pytest.approx(sqp)
        assert float(sigma(p, r)) <= spq + float(sigma(q, r)) + 1e-9


def test_leaf_and_sheet_counts():
    assert sheet_count("F", 2, 2) == 4 == distinct_fiber_count("F", 2, 2)
    assert sheet_count("Z", 1, 5) == 60 == distinct_fiber_count("Z", 1, 5)
    assert sheet_count("Z", 2, 2) == lattices.index(kernel("Z", 2, 2)) == 4


def test_injectivity_radius_constants():
    assert injectivity_radius(("rose", 2)) == Fraction(1, 2)
    assert injectivity_radius(("torus", 2)) == Fraction(1, 2)


def rose_ball_projection_injective(radius: Fraction) -> bool:
    """Oracle: grid points of the tree ball at the base, projected to the
    rose; injectivity of the projection on this ball."""
    points = [("vertex", None, Fraction(0))]
    grid = [Fraction(i, 100) for i in range(1, 100)]
    for direction in "aAbB":
        for t in grid:
            if t < radius:
                points.append(("edge", direction, t))
    seen = {}
    for kind, direction, t in points:
        if kind == "vertex":
            proj = ("base",)
        else:
            letter = direction.lower()
            proj = (letter, t if direction.islower() else 1 - t)
            if proj[1] == 0:
                proj = ("base",)
        if proj in seen and seen[proj] != (kind, direction, t):
            return False
        seen[proj] = (kind, direction, t)
    return True


def test_rose_injectivity_radius_oracle():
    assert rose_ball_projection_injective(Fraction(49, 100))
    assert not rose_ball_projection_injective(Fraction(51, 100))


def test_ball_structure_examples():
    p = baseleaf(word_identity(2), 2)
    rep = ball_structure(p, Fraction(1, 10))
    assert rep.count == 1 and not rep.degenerate
    # at depth 2 the nonzero fiber distances are exp(-1) ~ 0.368 > 0.1
    for other in fiber_representatives("F", 2, 2):
        d = d_pro("F", 2, p.fiber, other, 2)
        assert d.is_zero or d == MetricValue.exp(1)

    rep = ball_structure(baseleaf(word_identity(2), 1), Fraction(2, 5))
    assert rep.degenerate and rep.count == 1

    with pytest.raises(PreconditionError) as err:
        ball_structure(p, Fraction(1, 5))
    assert "4" in str(err.value)


def test_ball_structure_counts_fibers_within_epsilon():
    # depth-3 fibers at distance exp(-2) ~ 0.135 exceed eps = 0.1, and the
    # zero-distance class is always its own single component
    p = baseleaf(W("ab"), 3)
    rep = ball_structure(p, Fraction(1, 10))
    expected = sum(
        1
        for other in fiber_representatives("F", 2, 3)
        if float(d_pro("F", 2, p.fiber, other, 3)) < 0.1
    )
    assert rep.count == expected == 1


def test_d_inf_mixes_fiber_and_leaf():
    p = baseleaf(W("a"), 2)
    q = baseleaf(W("b"), 2)
    v = d_inf(p, q)
    assert v == d_pro("F", 2, p.fiber, q.fiber, 2)
    r = SolenoidPoint("F", 2, 2, p.fiber, EdgePoint(word_identity(2), "a", Fraction(1, 2)))
    assert float(d_inf(p, r)) == pytest.approx(0.5)


def test_zn1_to_f1_lift_round_trip():
    two = make_zn([[2]])
    f1 = zn1_to_f1(two)
    gm = lift_through_covers(f1)
    a = Word(1, "a")
    assert gm.apply_to_path(a) == a**2
    assert gm.src.m == 1 and gm.dst.m == 2


def test_zn_coset_enumeration_is_guarded(monkeypatch):
    monkeypatch.delenv("COMMSOL_MAX_WORK", raising=False)
    # K_10 of Z^2 is 2520 Z^2: 6,350,400 cosets at n^2 = 4 each
    t0 = time.perf_counter()
    with pytest.raises(ResourceLimitError) as err:
        fiber_representatives("Z", 2, 10)
    assert time.perf_counter() - t0 < 0.5
    assert "coset_reps(Z^2, index 6350400)" in str(err.value)
    assert "estimated work 25401600 exceeds cap 20000000" in str(err.value)
    # the sheet count needs no cosets
    assert sheet_count("Z", 2, 10) == 2520**2
    assert len(fiber_representatives("Z", 1, 5)) == 60
    assert len(fiber_representatives("Z", 2, 2)) == 4
    monkeypatch.setenv("COMMSOL_MAX_WORK", str(4 * 4 - 1))
    with pytest.raises(ResourceLimitError):
        fiber_representatives("Z", 2, 2)

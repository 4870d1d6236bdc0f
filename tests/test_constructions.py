import math
from fractions import Fraction

import numpy as np
import pytest

from conelab import constructions
from conelab.constructions import (CurveExclusionReport, ScheduleConstants,
                                   _strips, ball_hits_plane_cone,
                                   binomial_tree, constant_binomial_tree,
                                   default_binomial_schedule,
                                   diameter_bookkeeping,
                                   horizontal_strip_ratio, level_ball_count,
                                   level_radius, override_schedule,
                                   epoch_schedule, perpendicular_cone_hits,
                                   rotating_ball_tree, rotation_angle,
                                   schedule_constants, six_interval_constant,
                                   strip_block_tree, strip_weight_constant,
                                   strip_weight_constant_fraction,
                                   support_halfwidth, support_point,
                                   verify_curve_exclusion)
from conelab.homogeneity import (hom_estimate, large_child_frequency,
                                 order_children)
from conelab.measure import ResourceGuard, address_of_point, lebesgue_tree


def test_binomial_weights():
    tree = binomial_tree()
    kids = tree.children(())
    assert kids[0][1] == pytest.approx(1.0 - 1.0 / 3.0)
    assert kids[1][1] == pytest.approx(1.0 / 3.0)
    deeper = tree.children((0, 1))
    assert deeper[1][1] == pytest.approx(default_binomial_schedule(3))


def test_binomial_schedule_validation():
    bad = binomial_tree(lambda i: 0.7)
    with pytest.raises(ValueError):
        bad.children(())


def test_constant_binomial():
    tree = constant_binomial_tree(0.25)
    assert tree.children(())[1][1] == pytest.approx(0.25)


def test_level_radius_values():
    assert level_radius(2) == pytest.approx(1.0 / 16.0)
    assert level_radius(3) == pytest.approx(1.0 / 288.0)
    assert rotation_angle(4) == pytest.approx(0.5)


def test_rotating_ball_fan():
    tree = rotating_ball_tree()
    addr = (0, 0)
    kids = tree.children(addr)
    assert len(kids) == 18
    _, mass = tree.node(addr + (0,))
    assert mass == pytest.approx(1.0 / (2 * 8 * 18))
    assert kids[0][0].radius == pytest.approx(level_radius(3))


def test_rotating_ball_children_stay_inside_parent():
    tree = rotating_ball_tree()
    for addr in [(), (1,), (0, 5)]:
        region, _ = tree.node(addr)
        for child, _ in tree.children(addr):
            d = float(np.linalg.norm(child.center - region.center))
            assert d + child.radius <= region.radius + 1e-9


def test_rotating_ball_tree_refuses_radii_below_coordinate_resolution():
    # R_9 ~ 1.5e-14 is some 11 or more rounding bounds of the coordinates;
    # R_10 ~ 7.4e-17 is about one ulp of them
    tree = rotating_ball_tree()
    region, _ = tree.node((0,) * 9)
    assert region.radius == level_radius(9)
    with pytest.raises(ResourceGuard, match="level 10"):
        tree.node((0,) * 10)


def test_rotating_ball_sibling_separation():
    # siblings at level n sit at least n * R_n / 2 apart from non-siblings
    # outside their parent; checked exactly at shallow levels
    tree = rotating_ball_tree()
    for n in (2, 3):
        rn = level_radius(n)
        parents = [(0,), (1,)] if n == 2 else [(0, 0), (0, 1)]
        a = [c.center for c, _ in tree.children(parents[0])]
        b = [c.center for c, _ in tree.children(parents[1])]
        gap = min(float(np.linalg.norm(p - q)) for p in a for q in b)
        assert gap >= n * rn / 2.0


def test_rotating_ball_angle_variance_grows():
    # cumulative rotation along random branches spreads like the harmonic sum
    rng = np.random.default_rng(2)
    branches = 2000

    def spread(levels):
        sums = np.zeros(branches)
        for i in range(1, levels + 1):
            signs = rng.choice([-1.0, 1.0], size=branches)
            sums += signs * rotation_angle(i)
        return float(np.var(sums))

    v_short, v_long = spread(20), spread(200)
    harmonic = lambda m: sum(1.0 / i for i in range(1, m + 1))
    assert v_long > 1.3 * v_short
    assert abs(v_long - harmonic(200)) < 0.25 * harmonic(200)


def test_diameter_bookkeeping():
    info = diameter_bookkeeping(3)
    assert info["count"] == level_ball_count(3) == 2 * 8 * 18
    assert info["count_times_radius"] == pytest.approx(1.0)
    assert info["count_times_diameter"] == pytest.approx(2.0)


def test_strip_weight_constants():
    c2 = strip_weight_constant_fraction(2)
    assert c2 == Fraction(32, 85)
    assert strip_weight_constant(2) == pytest.approx(float(Fraction(32, 85)))
    assert strip_weight_constant_fraction(3) is None
    assert strip_weight_constant(3) == pytest.approx(0.3402069, abs=1e-6)


def test_schedule_constants_and_epoch_schedule():
    sc2 = schedule_constants(2)
    assert sc2.n == 471
    sc3 = schedule_constants(3)
    assert 1.0e7 < sc3.n < 1.2e7
    ns = [schedule_constants(i).n for i in range(2, 7)]
    assert ns == sorted(ns)
    assert epoch_schedule(1) == 2
    assert epoch_schedule(471) == 2
    assert epoch_schedule(472) == 3
    assert override_schedule(5) == 6


def test_strip_block_children():
    tree = strip_block_tree(override_schedule)
    kids = tree.children(())
    assert len(kids) == 2 * 2 ** 3
    assert sum(w for _, w in kids) == pytest.approx(1.0, abs=1e-12)
    # weights repeat across the two strips and are symmetric in h
    w = [wt for _, wt in kids]
    assert w[:8] == pytest.approx(w[8:])
    assert w[:8] == pytest.approx(w[7::-1])


def test_strip_block_regions_bound_support():
    tree = strip_block_tree(override_schedule)
    kids = tree.children(())
    w1 = support_halfwidth(override_schedule, 1)
    for region, _ in kids:
        # horizontal half-width is the support bound scaled by the child map
        assert region.half[0] == pytest.approx(w1 * 2.0 * region.half[1])
        assert region.half[1] == pytest.approx(1.0 / 32.0)
    xs = sorted({float(r.center[0]) for r, _ in kids})
    assert xs == pytest.approx([-0.125, 0.125])


def test_support_halfwidth_bound():
    w = support_halfwidth(override_schedule, 0)
    assert 0.0 < w < 0.15
    assert support_halfwidth(override_schedule, 5) < w


def test_six_interval_constant_uniform():
    tree = lebesgue_tree(1)
    val = six_interval_constant(tree, 0.5, 0.125, depth=8)
    # equal dyadic masses: best min is one interval mass over the certified
    # upper bound of mu(3r ball), which carries boundary slack at depth 8
    assert 2.0 ** -8 / 0.77 <= val <= 2.0 ** -8 / 0.75


def test_six_interval_constant_infeasible_window():
    tree = lebesgue_tree(1)
    assert six_interval_constant(tree, 0.5, 0.01, depth=8) == 0.0


# (tree, x, r, depth, value) recorded before the threshold search became one
# max-min pass; the binomial centers are support_point(tree, 34, seed) for
# seeds 0, 3 and 8, and the zeros are windows too narrow for six intervals.
SIX_INTERVAL_TREES = {"binomial": binomial_tree, "lebesgue": lambda: lebesgue_tree(1),
                      "constant-binomial": lambda: constant_binomial_tree(0.3),
                      "ternary": lambda: lebesgue_tree(1, k=3)}
SIX_INTERVAL_GOLDEN = [
    ("binomial", 0.016601573704974726, 0.00390625, 12, 0.0027626782630939444),
    ("binomial", 0.016601573704974726, 0.000244140625, 16, 0.0012193190815518607),
    ("binomial", 0.016601573704974726, 1.52587890625e-05, 20, 5.065984045819848e-06),
    ("binomial", 0.016601573704974726, 9.5367431640625e-07, 24, 2.5345421884331623e-06),
    ("binomial", 0.12501549723674543, 0.00390625, 12, 3.327890383727948e-05),
    ("binomial", 0.12501549723674543, 0.000244140625, 16, 0.0024533586740770534),
    ("binomial", 0.12501549723674543, 1.52587890625e-05, 20, 0.00214749727088004),
    ("binomial", 0.12501549723674543, 9.5367431640625e-07, 24, 0.001278923541048333),
    ("binomial", 0.28125000002910383, 0.00390625, 12, 0.0005822981366459627),
    ("binomial", 0.28125000002910383, 0.000244140625, 16, 1.168542245066866e-05),
    ("binomial", 0.28125000002910383, 1.52587890625e-05, 20, 5.066173159937955e-06),
    ("binomial", 0.28125000002910383, 9.5367431640625e-07, 24, 2.5345421892651197e-06),
    ("lebesgue", 0.5, 0.125, 8, 0.005154639175257732),
    ("lebesgue", 0.5, 0.01, 8, 0.0),
    ("lebesgue", 0.3, 0.05, 9, 0.0064516129032258064),
    ("constant-binomial", 0.37, 0.1, 8, 0.0072918364433898165),
    ("constant-binomial", 0.81, 0.02, 10, 0.006501817293387749),
    ("constant-binomial", 0.5, 0.004, 8, 0.0),
    ("ternary", 0.4, 0.2, 5, 0.004115226337448559),
    ("ternary", 0.62, 0.03, 6, 0.007575757575757573),
    ("ternary", 0.5, 0.02, 4, 0.0),
]


@pytest.mark.parametrize("kind, x, r, depth, value", SIX_INTERVAL_GOLDEN)
def test_six_interval_constant_golden(kind, x, r, depth, value):
    assert six_interval_constant(SIX_INTERVAL_TREES[kind](), x, r, depth=depth) == value


def test_ball_hits_plane_cone_cases():
    x = np.zeros(2)
    d = np.array([1.0, 0.0])
    assert ball_hits_plane_cone(x, d, 0.5, np.array([2.0, 0.0]), 0.1)
    assert ball_hits_plane_cone(x, d, 0.5, np.array([-2.0, 0.0]), 0.1)
    assert not ball_hits_plane_cone(x, d, 0.5, np.array([0.0, 2.0]), 0.1)
    # ball containing the apex always hits
    assert ball_hits_plane_cone(x, d, 0.5, np.array([0.0, 2.0]), 2.5)
    # grazing: center on the axis normal at distance b hits iff b cos(g) < rho
    g = math.asin(0.5)
    b = 1.0
    rho = b * math.cos(g)
    assert ball_hits_plane_cone(x, d, 0.5, np.array([0.0, b]), rho + 1e-9)
    assert not ball_hits_plane_cone(x, d, 0.5, np.array([0.0, b]), rho - 1e-9)


def test_perpendicular_cone_hits_constant():
    for n in (2, 5, 16):
        rep = perpendicular_cone_hits(n, 0.9)
        assert rep["hits"] == 3
        assert rep["fan_size"] == 2 * n * n


def test_horizontal_strip_ratio_bound():
    tree = strip_block_tree(override_schedule)
    x, trail = support_point(tree, 8, seed=3)
    prev = None
    for lev in range(6):
        rep = horizontal_strip_ratio(tree, trail[lev], x, 0.1)
        assert rep["ratio"] <= rep["bound"] + 1e-12
        if prev is not None:
            assert rep["ratio"] < prev
        prev = rep["ratio"]


def test_curve_exclusion_no_violations():
    tree = strip_block_tree(override_schedule)
    rep = verify_curve_exclusion(tree, level=1)
    assert rep.violations == 0
    assert rep.pairs_checked > 0 and rep.triples_checked > 0


# Exact node geometry along a few branches. Equality pins the order of the
# map products: reordering them changes the low bits.
ROTATING_BALL_GOLDEN = {
    (0,): ((-0.5, 0.0), 0.5),
    (0, 0): ((-0.7363822588173111, 0.3681435558534547), 0.0625),
    (0, 0, 0): ((-0.7283610492922555, 0.4266237982190424), 0.003472222222222222),
    (0, 0, 0, 0): ((-0.7261591426012892, 0.42916666813200166), 0.00010850694444444444),
    (1,): ((0.5, 0.0), 0.5),
    (1, 5): ((0.6013066823502762, 0.15777580965148058), 0.0625),
    (1, 5, 9): ((0.6008348464958612, 0.16121582390827985), 0.003472222222222222),
    (1, 5, 9, 16): ((0.6007638172477655, 0.16129785196998822), 0.00010850694444444444),
    (0, 6): ((-0.3311555294162063, -0.26295968275246767), 0.0625),
    (0, 6, 13): ((-0.3354020521059416, -0.29391981106366116), 0.003472222222222222),
    (0, 6, 13, 27): ((-0.33433670486176165, -0.29617665680461036), 0.00010850694444444444),
}

STRIP_BLOCK_GOLDEN = {
    (0,): ((0.125, 0.03125), (0.0035085725518133617, 0.03125)),
    (0, 0): ((0.1284722222222222, 0.0005787037037037037),
             (3.6350329591139716e-05, 0.0005787037037037037)),
    (0, 0, 0): ((0.1285083912037037, 4.521122685185185e-06),
                (1.813481096582323e-07, 4.521122685185185e-06)),
    (9,): ((-0.125, 0.59375), (0.0035085725518133617, 0.03125)),
    (9, 27): ((-0.1284722222222222, 0.5943287037037037),
              (3.6350329591139716e-05, 0.0005787037037037037)),
    (9, 27, 70): ((-0.12843605324074073, 0.5943874782986112),
                  (1.813481096582323e-07, 4.521122685185185e-06)),
    (4,): ((0.125, 0.28125), (0.0035085725518133617, 0.03125)),
    (4, 40): ((0.1284722222222222, 0.296875),
              (3.6350329591139716e-05, 0.0005787037037037037)),
    (4, 40, 99): ((0.12843605324074073, 0.29719599971064814),
                  (1.813481096582323e-07, 4.521122685185185e-06)),
    (15,): ((-0.125, 0.96875), (0.0035085725518133617, 0.03125)),
    (15, 53): ((-0.12152777777777778, 0.9994212962962963),
               (3.6350329591139716e-05, 0.0005787037037037037)),
    (15, 53, 127): ((-0.12156394675925926, 0.9999954788773149),
                    (1.813481096582323e-07, 4.521122685185185e-06)),
}


def test_rotating_ball_geometry_golden():
    tree = rotating_ball_tree()
    for addr, (center, radius) in ROTATING_BALL_GOLDEN.items():
        region, _ = tree.node(addr)
        assert (tuple(map(float, region.center)), region.radius) == (center, radius), addr


def test_strip_block_geometry_golden():
    tree = strip_block_tree()
    for addr, (center, half) in STRIP_BLOCK_GOLDEN.items():
        region, _ = tree.node(addr)
        assert (tuple(map(float, region.center)), tuple(map(float, region.half))) == (center, half), addr


@pytest.mark.parametrize("make_tree, levels", [(binomial_tree, 12), (strip_block_tree, 3)])
def test_support_point_is_one_sample_descent(make_tree, levels):
    tree = make_tree()
    for seed in (0, 5):
        x, trail = support_point(tree, levels, seed=seed)
        assert np.array_equal(x, tree.sample_points(1, levels, seed)[0])
        assert len(trail) == levels + 1 and len(trail[-1]) == levels
        assert all(trail[j] == trail[-1][:j] for j in range(levels + 1))
        assert np.array_equal(x, tree.node(trail[-1])[0].center)


@pytest.mark.parametrize("make_tree", [rotating_ball_tree, strip_block_tree])
@pytest.mark.parametrize("query", [
    lambda tree: order_children(tree, ()),
    lambda tree: hom_estimate(tree, 1, 2),
    lambda tree: address_of_point(tree, tree.root_region.center, 2),
    lambda tree: six_interval_constant(tree, 0.5, 0.1),
    lambda tree: large_child_frequency(tree, tree.root_region.center, 0, 1, 0.1, 1.0, 2),
], ids=["order_children", "hom_estimate", "address_of_point", "six_interval_constant",
        "large_child_frequency"])
def test_kadic_only_functions_refuse_other_trees(make_tree, query):
    with pytest.raises(ValueError):
        query(make_tree())


# Hit counts recorded by walking the middle branch of rotating_ball_tree() to
# each level's fan; the fan's local frame must give the same counts.
CONE_HITS_GOLDEN = {  # alpha -> hits at levels 2..64
    0.1: (1,) * 63,
    0.5: (1,) * 63,
    0.9: (3,) * 63,
    1.0: (
        3, 3, 5, 5, 7, 7, 9, 9, 11, 11, 13, 14, 15, 15, 17, 17, 19, 19, 21, 21, 23, 23,
        25, 25, 27, 27, 29, 29, 31, 31, 33, 34, 35, 35, 37, 37, 39, 39, 41, 41, 43, 44,
        45, 46, 47, 47, 49, 49, 51, 51, 53, 54, 55, 55, 57, 57, 59, 59, 61, 61, 63, 63,
        65,
    ),
}


def test_perpendicular_cone_hits_golden():
    for alpha, hits in CONE_HITS_GOLDEN.items():
        got = tuple(perpendicular_cone_hits(n, alpha)["hits"] for n in range(2, 65))
        assert got == hits, alpha


# (hits, ratio) at the 9 nodes of support_point(strip_block_tree(), 8, seed):
# the first seven levels agree for every seed and alpha but one.
_FIRST_SEVEN = ((1, 0.5), (1, 0.33333333333333337), (1, 0.25000000000000006), (1, 0.2),
                (1, 0.1666666666666667), (1, 0.14285714285714285), (1, 0.125))
_LAST_TWO = {0: ((5, 0.5555555555555555), (10, 1.0)),
             1: ((5, 0.5555555555555555), (10, 1.0)),
             2: ((3, 0.33333333333333326), (10, 1.0)),
             3: ((3, 0.33333333333333326), (10, 1.0)),
             4: ((5, 0.5555555555555555), (10, 1.0))}
STRIP_RATIO_GOLDEN = {(seed, alpha): _FIRST_SEVEN + _LAST_TWO[seed]
                      for seed in range(5) for alpha in (0.05, 0.1, 0.3, 0.6)}
STRIP_RATIO_GOLDEN[1, 0.6] = ((2, 1.0),) + _FIRST_SEVEN[1:] + _LAST_TWO[1]


def test_horizontal_strip_ratio_golden():
    tree = strip_block_tree()
    for seed in range(5):
        x, trail = support_point(tree, 8, seed)
        for alpha in (0.05, 0.1, 0.3, 0.6):
            got = tuple((rep["hits"], rep["ratio"])
                        for rep in (horizontal_strip_ratio(tree, addr, x, alpha)
                                    for addr in trail))
            assert got == STRIP_RATIO_GOLDEN[seed, alpha], (seed, alpha)


# Strip boxes (lo, hi) of the children of a few nodes: the support half-width
# around each strip's x, and its first block's bottom to its last block's top.
STRIP_BOXES_GOLDEN = {
    (): (
        ((0.12149142744818664, 0.0),
         (0.12850857255181336, 0.5)),
        ((-0.12850857255181336, 0.5),
         (-0.12149142744818664, 1.0)),
    ),
    (3,): (
        ((0.12843587189263106, 0.1875),
         (0.12850857255181336, 0.20833333333333331)),
        ((0.12149142744818664, 0.20833333333333334),
         (0.12156412810736891, 0.22916666666666663)),
        ((0.12843587189263106, 0.22916666666666666),
         (0.12850857255181336, 0.24999999999999997)),
    ),
    (9, 27): (
        ((-0.1284362345888504, 0.59375),
         (-0.12843587189263106, 0.594039351851852)),
        ((-0.12850857255181336, 0.5940393518518519),
         (-0.12850820985559402, 0.5943287037037038)),
        ((-0.1284362345888504, 0.5943287037037037),
         (-0.12843587189263106, 0.5946180555555557)),
        ((-0.12850857255181336, 0.5946180555555556),
         (-0.12850820985559402, 0.5949074074074076)),
    ),
}


def test_strip_boxes_golden():
    tree = strip_block_tree()
    for addr, boxes in STRIP_BOXES_GOLDEN.items():
        got = tuple((tuple(map(float, first[0])), tuple(map(float, last[1])))
                    for first, last in _strips(tree, tree.node(addr)[0], len(addr) + 1))
        assert got == boxes, addr


def test_curve_exclusion_golden():
    tree = strip_block_tree()
    golden = {  # level -> (pairs, triples, pairs met, triples met)
        0: (1, 0, 1, 0),
        1: (32, 16, 0, 0),
        2: (2592, 3456, 0, 0),
    }
    for level, counts in golden.items():
        assert verify_curve_exclusion(tree, level) == CurveExclusionReport(level, *counts)


def _record_line_checks(monkeypatch):
    """Record the boxes and verdicts of each _lines_meet call: the steep pairs
    (x and y swapped) first, then the shallow triples."""
    calls = []
    lines_meet = constructions._lines_meet

    def record(lo, hi):
        met = lines_meet(lo, hi)
        calls.append((lo, hi, met))
        return met

    monkeypatch.setattr(constructions, "_lines_meet", record)
    return calls


def test_curve_exclusion_pairs_top_block_with_next_bottom_block(monkeypatch):
    """The steep-line test at level 0 is handed the top block of strip 0 and
    the bottom block of strip 1: with I = 2 strips of 2 I^2 = 8 blocks each,
    those are children 7 and 8 of the root."""
    tree = strip_block_tree()
    assert tree.schedule(1) == 2
    calls = _record_line_checks(monkeypatch)
    rep = verify_curve_exclusion(tree, 0)
    assert rep.pairs_checked == 1
    lo, hi, _ = calls[0]
    got = [(tuple(map(float, a[::-1])), tuple(map(float, b[::-1])))
           for a, b in zip(lo[0], hi[0])]
    kids = tree.children(())
    expect = [(tuple(map(float, r.center - r.half)), tuple(map(float, r.center + r.half)))
              for r in (kids[7][0], kids[8][0])]
    assert got == expect


def _sampled_lines(trials, seed):
    """The lines of the random-line check that verify_curve_exclusion
    replaced, drawn in its order: per line a point uniform in [-1, 1] x [0, 1],
    then an angle uniform in [0, pi)."""
    draws = np.random.default_rng(seed).uniform([-1.0, 0.0, 0.0], [1.0, 1.0, math.pi],
                                                 size=(trials, 3))
    return draws[:, :2], np.stack([np.cos(draws[:, 2]), np.sin(draws[:, 2])], axis=1)


def _line_hits_boxes(p, u, lo, hi):
    """hits[t, r]: does the line p[t] + s u[t] meet every box [lo[r, i], hi[r, i]]?
    A line meets a rectangle iff its corners do not lie strictly on one side."""
    corners = np.stack([lo, np.stack([lo[..., 0], hi[..., 1]], axis=-1),
                        np.stack([hi[..., 0], lo[..., 1]], axis=-1), hi], axis=-2)
    p, u = p[:, None, None, None, :], u[:, None, None, None, :]
    cross = ((corners[None, ..., 0] - p[..., 0]) * u[..., 1]
             - (corners[None, ..., 1] - p[..., 1]) * u[..., 0])
    return ((cross.min(axis=-1) <= 0.0) & (cross.max(axis=-1) >= 0.0)).all(axis=-1)


@pytest.mark.parametrize("level, steep_violations", [(0, 11), (1, 0)])
def test_curve_exclusion_agrees_with_sampled_lines(monkeypatch, level, steep_violations):
    """The 10,000-line sampler, as the reference: every sampled steep line that
    meets both boxes of a pair, and every sampled shallow line that meets all
    three strips of a triple, meets one that the exact check counts as met.
    At level 0 the seed-0 lines give the 11 violations the sampled check
    reported; at level 1 none."""
    calls = _record_line_checks(monkeypatch)
    verify_curve_exclusion(strip_block_tree(), level)
    (pair_lo, pair_hi, pair_met), (tri_lo, tri_hi, tri_met) = calls
    p, u = _sampled_lines(10_000, seed=0)
    # the pair boxes come with x and y swapped, so swap the lines too
    steep = (np.abs(u[:, 1]) >= 1.0 / 3.0)[:, None] & _line_hits_boxes(
        p[:, ::-1], u[:, ::-1], pair_lo, pair_hi)
    shallow = (np.abs(u[:, 0]) >= 1.0 / 3.0)[:, None] & _line_hits_boxes(p, u, tri_lo, tri_hi)
    assert not (steep & ~pair_met).any()
    assert not (shallow & ~tri_met).any()
    assert (steep.any(axis=1).sum(), shallow.any(axis=1).sum()) == (steep_violations, 0)


def test_lines_meet_matches_box_difference_and_slope_grid():
    """Steep pairs against the closed form: a line with |u_y| >= |u|/3 meets
    boxes A and B iff min |d_x| <= sqrt(8) max |d_y| over D = B - A. Shallow
    triples against a grid of slopes, where the grid decides: some slope s
    with max_i lo_i(s) <= min_j hi_j(s) is met, and a grid minimum above the
    grid's Lipschitz error is not."""
    rng = np.random.default_rng(5)
    center = rng.uniform(-1.0, 1.0, (2000, 2, 2))
    half = rng.uniform(0.0, 0.05, (2000, 2, 2))
    a_lo, b_lo = (center - half).transpose(1, 0, 2)
    a_hi, b_hi = (center + half).transpose(1, 0, 2)
    d_lo, d_hi = b_lo - a_hi, b_hi - a_lo
    min_dx = np.maximum(np.maximum(d_lo[:, 0], -d_hi[:, 0]), 0.0)
    max_dy = np.maximum(np.abs(d_lo[:, 1]), np.abs(d_hi[:, 1]))
    margin = min_dx - math.sqrt(8.0) * max_dy
    met = constructions._lines_meet((center - half)[..., ::-1], (center + half)[..., ::-1])
    assert (np.abs(margin) > 1e-12).all() and 100 < met.sum() < 1900
    assert np.array_equal(met, margin <= 0.0)

    center = rng.uniform(-1.0, 1.0, (400, 3, 2))
    half = rng.uniform(0.0, 0.3, (400, 3, 2))
    lo, hi = center - half, center + half
    met = constructions._lines_meet(lo, hi)
    s = np.linspace(-math.sqrt(8.0), math.sqrt(8.0), 4001)[:, None, None]
    sx0, sx1 = s * lo[None, ..., 0], s * hi[None, ..., 0]
    g = ((lo[None, ..., 1] - np.maximum(sx0, sx1)).max(axis=2)
         - (hi[None, ..., 1] - np.minimum(sx0, sx1)).min(axis=2)).min(axis=0)
    # coordinates lie in [-1.3, 1.3], so g has slopes of at most 2.6
    step = float(s[1, 0, 0] - s[0, 0, 0])
    assert met[g <= 0.0].all()
    assert not met[g > 2.6 * step].any()
    assert 50 < met.sum() < 350

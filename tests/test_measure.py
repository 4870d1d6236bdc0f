import json
import math
import pathlib

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conelab import measure
from conelab.constructions import (binomial_tree, rotating_ball_tree,
                                   strip_block_tree)
from conelab.density import worst_cone_ratio
from conelab.geometry import Subspace, build_direction_net, build_subspace_net
from conelab.homogeneity import doubling_constant, doubling_frequency
from conelab.measure import (Ball, Box, MeasureInterval, MeasureTree,
                             RegionQuery, address_of_point, cube,
                             kadic_tree, lebesgue_tree, region_measure)


def test_ball_dist_bounds():
    b = Ball(np.array([0.0, 0.0]), 1.0)
    lo, hi = b.dist_bounds(np.array([3.0, 0.0]))
    assert lo == pytest.approx(2.0) and hi == pytest.approx(4.0)
    lo, _ = b.dist_bounds(np.array([0.5, 0.0]))
    assert lo == 0.0


def test_box_dist_bounds_and_cube():
    q = cube(np.array([0.0, 0.0]), 1.0)
    assert np.allclose(q.center, [0.5, 0.5])
    lo, hi = q.dist_bounds(np.array([2.0, 0.5]))
    assert lo == pytest.approx(1.0)
    assert hi == pytest.approx(math.hypot(2.0, 0.5))
    assert q.bounding_radius == pytest.approx(math.sqrt(0.5))


def test_interval_clamps_and_orders():
    iv = MeasureInterval(-0.2, 1.4)
    assert iv.lo == 0.0 and iv.hi == 1.0
    iv = MeasureInterval(0.3, 0.5, depth_used=4)
    assert iv.width == pytest.approx(0.2)
    assert iv.mid == pytest.approx(0.4)
    assert iv.contains(0.35) and not iv.contains(0.6)


def test_interval_refuses_hi_below_lo():
    with pytest.raises(ValueError):
        MeasureInterval(0.5, 0.4)


def _halving_tree(weights_fn):
    def child_fn(region, _level, idx):
        side = float(region.half[0])
        return cube(region.center - region.half + idx * side, side)

    return MeasureTree(cube(np.zeros(1), 1.0), weights_fn, child_fn)


def test_tree_rejects_bad_weights():
    for weights in [(0.6, 0.6), (0.5, 0.5, 0.0), (1.5, -0.5), (math.nan, 1.0), ()]:
        tree = _halving_tree(lambda level: weights)
        for call in (lambda: tree.weights(1), lambda: tree.children(()),
                     lambda: tree.node((0,)), lambda: tree.sample_points(1, 1, seed=0)):
            with pytest.raises(ValueError):
                call()


def test_weights_are_checked_once_per_level():
    calls = []

    def weights_fn(level):
        calls.append(level)
        return (0.25, 0.75)

    tree = _halving_tree(weights_fn)
    tree.sample_points(20, 3, seed=0)
    region_measure(tree, RegionQuery(ball=Ball(np.array([0.3]), 0.1)), 3)
    assert tree.weights(2) == (0.25, 0.75)
    assert sorted(calls) == [1, 2, 3]


def test_one_child_walks_build_one_child_per_level():
    built = []

    def child_fn(region, level, idx):
        built.append(level)
        side = float(region.half[0])
        return cube(region.center - region.half + idx * side, side)

    tree = MeasureTree(cube(np.zeros(1), 1.0), lambda level: (0.5, 0.5), child_fn, k=2)
    tree.sample_points(20, 3, seed=0)
    assert built == [1, 2, 3] * 20
    del built[:]
    tree.node((1, 0, 1, 1))
    address_of_point(tree, [0.3], 5)
    assert built == [1, 2, 3, 4, 1, 2, 3, 4, 5]


def _two_ball_tree(child_radius, parent_radius=1.0):
    def child_fn(region, _level, idx):
        offset = (idx - 0.5) * parent_radius
        return Ball(region.center + np.array([offset, 0.0]), child_radius)

    return MeasureTree(Ball(np.zeros(2), parent_radius), lambda level: (0.5, 0.5), child_fn)


def test_tree_refuses_child_ball_escaping_its_parent():
    # 3.1e-10 is about the level-7 rotating-ball radius R_7
    for parent_radius, escape in [(1.0, 1e-6), (3.1e-10, 1e-10)]:
        with pytest.raises(ValueError, match="escapes its parent"):
            _two_ball_tree(0.5 * parent_radius + escape, parent_radius).children(())
        # internally tangent children lie inside the closed parent ball
        assert len(_two_ball_tree(0.5 * parent_radius, parent_radius).children(())) == 2


def test_node_and_branch_fan():
    tree = lebesgue_tree(1)
    region, mass = tree.node((0, 1))
    assert mass == pytest.approx(0.25)
    assert np.allclose(region.center, [0.375])
    fan = tree.branch_fan((0, 1))
    assert len(fan) == 2
    assert sum(m for _, m in fan) == pytest.approx(0.5)
    with pytest.raises(ValueError):
        tree.branch_fan(())


def test_out_of_range_child_index_raises():
    tree = lebesgue_tree(1)
    with pytest.raises(IndexError):
        tree.node((0, 2))
    with pytest.raises(IndexError):
        tree.children((0, -1))


def test_children_memoized_identity():
    tree = lebesgue_tree(2)
    first, again = tree.children((0,)), tree.children((0,))
    assert len(first) == 4
    assert all(a[0] is b[0] and a[1] == b[1] for a, b in zip(first, again))


def test_address_of_point_roundtrip():
    tree = lebesgue_tree(2, k=3)
    rng = np.random.default_rng(0)
    for _ in range(50):
        x = rng.uniform(0.0, 1.0, size=2)
        addr = address_of_point(tree, x, 3)
        region, _ = tree.node(addr)
        lo = region.center - region.half
        hi = region.center + region.half
        assert np.all(x >= lo - 1e-12) and np.all(x < hi + 1e-12)
    with pytest.raises(ValueError):
        address_of_point(tree, np.array([1.0, 0.5]), 2)


def test_lebesgue_ball_measure_1d():
    tree = lebesgue_tree(1)
    iv = region_measure(tree, RegionQuery(ball=Ball(np.array([0.5]), 0.25)), 10)
    assert iv.contains(0.5)
    assert iv.width < 0.01


def test_lebesgue_disk_measure_2d():
    tree = lebesgue_tree(2)
    iv = region_measure(tree, RegionQuery(ball=Ball(np.array([0.5, 0.5]), 0.25)), 10)
    assert iv.contains(math.pi / 16.0)
    assert iv.width < 0.02


def test_box_query_measure():
    tree = lebesgue_tree(2)
    q = RegionQuery(box=Box(np.array([0.5, 0.5]), np.array([0.25, 0.25])))
    iv = region_measure(tree, q, 8)
    assert iv.contains(0.25)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 6), st.integers(0, 6))
def test_enclosures_nest_with_depth(d1, extra):
    tree = lebesgue_tree(1)
    q = RegionQuery(ball=Ball(np.array([0.31]), 0.17))
    shallow = region_measure(tree, q, d1)
    deep = region_measure(tree, q, d1 + extra)
    assert shallow.lo <= deep.lo + 1e-15
    assert deep.hi <= shallow.hi + 1e-15


def test_cone_query_classification():
    tree = lebesgue_tree(2)
    x = np.array([0.5, 0.5])
    V = Subspace(np.array([[1.0, 0.0]]))
    q = RegionQuery(ball=Ball(x, 0.3), plane_cone=(V, 0.5))
    iv = region_measure(tree, q, 12)
    # two wedges of half-angle asin(0.5) out of the disk
    expect = 2.0 * math.asin(0.5) / math.pi * math.pi * 0.09
    assert iv.contains(expect)


def test_half_cone_exclusion():
    tree = lebesgue_tree(2)
    x = np.array([0.5, 0.5])
    theta = np.array([1.0, 0.0])
    q = RegionQuery(ball=Ball(x, 0.3), half_cone_excluded=(theta, 0.5))
    iv = region_measure(tree, q, 12)
    expect = (1.0 - math.acos(0.5) / math.pi) * math.pi * 0.09
    assert iv.contains(expect)


def test_early_stop_is_sound():
    tree = lebesgue_tree(2)
    q = RegionQuery(ball=Ball(np.array([0.5, 0.5]), 0.25))
    full = region_measure(tree, q, 10)
    stopped = region_measure(tree, q, 10, early_stop_lo=0.01)
    assert stopped.lo > 0.01
    assert stopped.lo <= full.lo + 1e-15
    assert stopped.hi >= full.hi - 1e-15
    exact = math.pi / 16.0
    assert stopped.lo <= exact <= stopped.hi


def test_query_validation():
    with pytest.raises(ValueError):
        RegionQuery()
    with pytest.raises(ValueError):
        RegionQuery(ball=Ball(np.zeros(2), 0.0))
    tree = lebesgue_tree(1)
    with pytest.raises(ValueError):
        region_measure(tree, RegionQuery(ball=Ball(np.array([0.5]), 0.1)), -1)


_MID = np.array([0.5, 0.5])


@pytest.mark.parametrize("base", [
    dict(ball=Ball(_MID, math.nan)),
    dict(ball=Ball(_MID, math.inf)),
    dict(ball=Ball(np.array([math.nan, 0.5]), 0.2)),
    dict(box=Box(np.array([0.5, math.inf]), np.array([0.2, 0.2]))),
    dict(box=Box(_MID, np.array([math.nan, 0.2]))),
    dict(box=Box(_MID, np.array([0.2]))),
    dict(box=Box(_MID, np.array([0.2, 0.2, 0.2]))),
    dict(box=Box(_MID, np.array([0.0, 0.2]))),
    dict(box=Box(_MID, np.array([0.2, -0.1]))),
], ids=["nan-radius", "inf-radius", "nan-center", "inf-box-center", "nan-half",
        "half-shape-1", "half-shape-3", "zero-half", "negative-half"])
def test_query_refuses_bad_base(base):
    with pytest.raises(ValueError):
        RegionQuery(**base)


@pytest.mark.parametrize("n,query", [
    (2, RegionQuery(ball=Ball(np.array([0.5]), 0.2))),
    (1, RegionQuery(box=Box(np.array([0.5, 0.5]), np.array([0.2, 0.2])))),
], ids=["1-d-ball-on-2-d-tree", "2-d-box-on-1-d-tree"])
def test_query_of_another_dimension_raises(n, query):
    with pytest.raises(ValueError):
        region_measure(lebesgue_tree(n), query, 6)


def test_sample_points_distribution():
    tree = lebesgue_tree(1)
    pts = tree.sample_points(2000, 8, seed=1)
    assert pts.shape == (2000, 1)
    frac = float(np.mean(pts[:, 0] < 0.5))
    assert abs(frac - 0.5) < 4.0 * math.sqrt(0.25 / 2000)


def test_ball_only_query_does_no_cone_work():
    class NoRadiusBox(Box):
        @property
        def bounding_radius(self):
            raise AssertionError("ball-only queries need no bounding radius")

    def child_fn(region, _level, idx):
        h = 0.5 * float(region.half[0])
        return NoRadiusBox(region.center + (2 * idx - 1) * h, np.array([h]))

    tree = MeasureTree(NoRadiusBox(np.array([0.5]), np.array([0.5])),
                       lambda level: (0.5, 0.5), child_fn)
    iv = region_measure(tree, RegionQuery(ball=Ball(np.array([0.3]), 0.1)), 12)
    assert iv.contains(0.2) and iv.width < 1e-3


TILT = np.array([math.cos(0.3), math.sin(0.3)])


@pytest.mark.parametrize("cone", [
    dict(one_sided_cone=(np.array([4.0, 0.0]), 0.5)),
    dict(half_cone_excluded=(np.array([0.6, 0.6]), 0.5)),
    dict(half_cone_excluded=(np.array([1.0, 0.0, 0.0]), 0.5)),
    dict(one_sided_cone=(np.array([[1.0, 0.0]]), 0.5)),
    dict(one_sided_cone=(np.array([math.nan, 1.0]), 0.5)),
    dict(plane_cone=(Subspace(np.eye(3)[:2]), 0.5)),
    dict(plane_cone=(Subspace(np.array([[1.0, 0.0]])), 0.0)),
    dict(one_sided_cone=(TILT, 1.5)),
    dict(half_cone_excluded=(TILT, -0.1)),
    dict(half_cone_excluded=(TILT, math.nan)),
], ids=["one-sided-long", "half-short", "half-3d", "one-sided-2d-array",
        "one-sided-nan", "plane-3d", "plane-alpha-0", "one-sided-alpha-1.5",
        "half-alpha-neg", "half-alpha-nan"])
def test_query_refuses_bad_cones(cone):
    with pytest.raises(ValueError):
        RegionQuery(ball=Ball(np.array([0.5, 0.5]), 0.3), **cone)


# (lo, hi, depth_used) recorded with the three separate cone blocks that the
# single cone loop replaced; every enclosure must stay bit for bit the same.
_V1 = Subspace(np.array([[1.0, 0.0]]))
_VDIAG = Subspace(np.array([[math.sqrt(0.5), math.sqrt(0.5)]]))
_C = np.array([0.5, 0.5])
_OFF = np.array([0.42, 0.57])
GOLDEN_REGION_MEASURE = [
    ("binomial-a", binomial_tree, dict(ball=Ball(np.array([0.3]), 0.05)), 30, None,
     (0.1326244019616224, 0.1326244019616224, 30)),
    ("binomial-b", binomial_tree, dict(ball=Ball(np.array([0.71]), 0.013)), 30, None,
     (0.0019235980924750097, 0.0019235980924750542, 30)),
    ("binomial-dyadic", binomial_tree, dict(ball=Ball(np.array([0.5]), 0.25)), 30, None,
     (0.4166666666666667, 0.42708333333333337, 30)),
    ("binomial-small", binomial_tree, dict(ball=Ball(np.array([1.0 / 3.0]), 1e-4)), 30,
     None, (1.052927367138176e-06, 1.0529273671382084e-06, 30)),
    ("strip-a", strip_block_tree, dict(ball=Ball(np.array([0.125, 0.03]), 0.01)), 6,
     None, (0.0009803905152058335, 0.0009803905152058335, 6)),
    ("strip-b", strip_block_tree, dict(ball=Ball(np.array([0.1285, 0.0006]), 0.0003)), 6,
     None, (1.2160421565435566e-10, 1.2160421565435566e-10, 6)),
    ("rot-a", rotating_ball_tree, dict(ball=Ball(np.array([-0.7, 0.4]), 0.1)), 6, None,
     (0.06021044319058644, 0.060210473331404335, 6)),
    ("rot-b", rotating_ball_tree, dict(ball=Ball(np.array([0.6, 0.15]), 0.02)), 5, None,
     (0.02006293402777777, 0.02006727430555555, 5)),
    ("box-k3", lambda: lebesgue_tree(2, k=3),
     dict(box=Box(np.array([0.4, 0.55]), np.array([0.2, 0.13]))), 5, None,
     (0.10079764263577871, 0.10621687073447741, 5)),
    ("plane-half", lambda: lebesgue_tree(2),
     dict(ball=Ball(_C, 0.3), plane_cone=(_V1, 0.5), half_cone_excluded=(TILT, 0.5)),
     8, None, (0.0435791015625, 0.0511474609375, 8)),
    ("plane-diag", lambda: lebesgue_tree(2),
     dict(ball=Ball(np.array([0.4, 0.45]), 0.2), plane_cone=(_VDIAG, 0.3)), 8, None,
     (0.0207977294921875, 0.0280609130859375, 8)),
    ("half-only", lambda: lebesgue_tree(2),
     dict(ball=Ball(_C, 0.25), half_cone_excluded=(TILT, 0.9)), 8, None,
     (0.1594696044921875, 0.1781768798828125, 8)),
    ("one-sided-plus", lambda: lebesgue_tree(2),
     dict(ball=Ball(_OFF, 0.3), one_sided_cone=(TILT, 0.6)), 8, None,
     (0.051788330078125, 0.063629150390625, 8)),
    ("one-sided-minus", lambda: lebesgue_tree(2),
     dict(ball=Ball(_OFF, 0.3), one_sided_cone=(-TILT, 0.6)), 8, None,
     (0.0518035888671875, 0.063629150390625, 8)),
    ("box-plane", lambda: lebesgue_tree(2),
     dict(box=Box(_C, np.array([0.3, 0.2])), plane_cone=(_V1, 0.4)), 7, None,
     (0.06640625, 0.092529296875, 7)),
    ("plane-3d", lambda: lebesgue_tree(3),
     dict(ball=Ball(np.array([0.5, 0.4, 0.6]), 0.3),
          plane_cone=(Subspace(np.eye(3)[:2]), 0.7),
          half_cone_excluded=(np.array([0.0, 0.0, 1.0]), 0.7)), 4, None,
     (0.013671875, 0.1748046875, 4)),
    # 1-d cones whose margins meet the node boundaries exactly: pins <= and >
    ("edge-one-sided-1d", lambda: lebesgue_tree(1),
     dict(ball=Ball(np.array([0.5]), 0.25), one_sided_cone=(np.array([1.0]), 1.0)), 8,
     None, (0.24609375, 0.25390625, 8)),
    ("edge-half-1d", lambda: lebesgue_tree(1),
     dict(ball=Ball(np.array([0.5]), 0.25), half_cone_excluded=(np.array([1.0]), 0.5)),
     8, None, (0.25, 0.26171875, 8)),
    ("early-stop", lambda: lebesgue_tree(2),
     dict(ball=Ball(_C, 0.3), plane_cone=(_V1, 0.5), half_cone_excluded=(TILT, 0.5)),
     10, 0.05, (0.046234130859375, 0.048061370849609375, 10)),
]


@pytest.mark.parametrize("make_tree,query,depth,stop,expect",
                         [case[1:] for case in GOLDEN_REGION_MEASURE],
                         ids=[case[0] for case in GOLDEN_REGION_MEASURE])
def test_region_measure_golden(make_tree, query, depth, stop, expect):
    iv = region_measure(make_tree(), RegionQuery(**query), depth, early_stop_lo=stop)
    assert (iv.lo, iv.hi, iv.depth_used) == expect


# tests/sampling_golden.json holds sampled points, node regions and masses,
# and addresses of points, recorded while every tree built whole fans of
# children to draw, locate or address one; one-child walks must reproduce
# them bit for bit.
SAMPLING_GOLDEN = json.loads((pathlib.Path(__file__).parent
                              / "sampling_golden.json").read_text())
GOLDEN_TREES = {"lebesgue-2d": lambda: lebesgue_tree(2), "binomial": binomial_tree,
                "rotating-ball": rotating_ball_tree, "strip-block": strip_block_tree,
                "lebesgue-2d-k3": lambda: lebesgue_tree(2, k=3)}


@pytest.mark.parametrize("name", SAMPLING_GOLDEN["sample_points"])
def test_sample_points_golden(name):
    case = SAMPLING_GOLDEN["sample_points"][name]
    pts = GOLDEN_TREES[name]().sample_points(case["count"], case["depth"], seed=case["seed"])
    assert [tuple(map(float, p)) for p in pts] == [tuple(p) for p in case["points"]]


@pytest.mark.parametrize("name", GOLDEN_TREES)
def test_node_golden(name):
    tree = GOLDEN_TREES[name]()
    for case in SAMPLING_GOLDEN["node"][name]:
        region, mass = tree.node(tuple(case["addr"]))
        extent = region.radius if isinstance(region, Ball) else list(map(float, region.half))
        assert (tuple(map(float, region.center)), extent, mass) == (
            tuple(case["center"]), case["extent"], case["mass"]), case["addr"]
        assert tree.node_measure(tuple(case["addr"])) == case["mass"]


def test_address_of_point_golden():
    tree = lebesgue_tree(2, k=3)
    for case in SAMPLING_GOLDEN["address_of_point"]:
        assert address_of_point(tree, case["x"], 3) == tuple(case["addr"]), case["x"]


@pytest.mark.parametrize("name", GOLDEN_TREES)
def test_sample_branch_draws_as_rng_choice(name):
    # sample_branch bisects a cached cumulative sum; rng.choice with p
    # validates p and builds the same sum on every draw
    tree = GOLDEN_TREES[name]()
    depth = SAMPLING_GOLDEN["sample_points"].get(name, {"depth": 4})["depth"]
    fast, slow = np.random.default_rng(8), np.random.default_rng(8)
    for _ in range(300):
        trail, _ = tree.sample_branch(fast, depth)
        drawn = []
        for level in range(1, depth + 1):
            w = np.array(tree.weights(level))
            drawn.append(int(slow.choice(len(w), p=w / w.sum())))
        assert trail[-1] == tuple(drawn)
    assert fast.bit_generator.state == slow.bit_generator.state


# ---------------------------------------------------------------------------
# The float kernel _classify against the numpy reference _classify_reference


@pytest.mark.parametrize("n", [1, 2, 3])
def test_norm_is_sqrt_of_self_dot(n):
    # the kernel and the reference rely on this identity bit for bit
    rng = np.random.default_rng(100 + n)
    scales = 10.0 ** rng.integers(-30, 30, size=(4000, 1))
    for v in rng.standard_normal((4000, n)) * scales:
        assert np.linalg.norm(v) == math.sqrt(v.dot(v))


def _verdicts(node, query):
    """(kernel verdict, reference verdict, whether the kernel fell back) for
    a node record."""
    reference, calls = measure._classify_reference, []

    def counting(r, q):
        calls.append(1)
        return reference(r, q)

    measure._classify_reference = counting
    try:
        fast = measure._classify(node, query)
    finally:
        measure._classify_reference = reference
    return fast, reference(node.region, query), bool(calls)


def _nudge(v, ulps):
    for _ in range(abs(ulps)):
        v = math.nextafter(v, math.copysign(math.inf, ulps))
    return v


def _unit(pick, n):
    v = np.array([float(pick(-3, 3)) for _ in range(n)])
    if not v.any():
        v[0] = 1.0
    return v / math.sqrt(v.dot(v))


def _near_tie_case(pick):
    """A node region of a dyadic cube and a query whose decision sits within
    a few ulps of its threshold: a ball radius at the node's dmin or dmax,
    box half-widths at the node's face gaps, or a cone opening that puts a
    margin at +-(1 + a) rho. Returns None for an opening outside (0, 1]."""
    n, level = pick(1, 3), pick(1, 30)
    side = 2.0 ** -level
    region = cube([pick(0, 2 ** level - 1) * side for _ in range(n)], side)
    if pick(0, 1):
        region = Ball(region.center, side / pick(1, 3))
    x = np.array([pick(0, 2 ** 20) * 2.0 ** -20 for _ in range(n)])
    kind = pick(0, 2)
    if kind == 0:
        dmin, dmax = region.dist_bounds(x)
        r = _nudge(dmax if pick(0, 1) or dmin == 0.0 else dmin, pick(-3, 3))
        return region, RegionQuery(ball=Ball(x, r))
    if kind == 1:
        gap = np.abs(region.center - x)
        ext = region.half if isinstance(region, Box) else np.full(n, region.radius)
        half = [_nudge(g - e if pick(0, 1) and g > e else g + e, pick(-3, 3))
                for g, e in zip(gap, ext)]
        return region, RegionQuery(box=Box(x, np.array(half)))
    d = region.center - x
    nd, rho = math.sqrt(d.dot(d)), region.bounding_radius
    theta, cone, sign = _unit(pick, n), pick(0, 2), 1 - 2 * pick(0, 1)
    if cone == 0:  # a nd - dist(d, V) = sign (1 + a) rho
        frame = [theta]
        if n == 3 and pick(0, 1):
            w = _unit(pick, n)
            w = w - (w @ theta) * theta
            if w.dot(w) > 0.1:
                frame.append(w / math.sqrt(w.dot(w)))
        V = Subspace(np.array(frame))
        a = (V.dist(d) + sign * rho) / (nd - sign * rho) if nd != sign * rho else -1.0
        alpha = _nudge(a, pick(-3, 3))
        parts = dict(plane_cone=(V, alpha))
    else:  # d . theta - a nd = sign (1 + a) rho
        a = (d @ theta - sign * rho) / (nd + sign * rho) if nd != -sign * rho else -1.0
        if cone == 1:
            if not 0.0 <= a < 1.0:
                return None
            alpha = _nudge(math.sqrt(1.0 - a * a), pick(-3, 3))
            parts = dict(one_sided_cone=(theta, alpha))
        else:
            alpha = _nudge(a, pick(-3, 3))
            parts = dict(half_cone_excluded=(theta, alpha))
    if not 0.0 < alpha <= 1.0:
        return None
    return region, RegionQuery(ball=Ball(x, 4.0), **parts)


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_classify_matches_reference_at_near_ties(data):
    case = _near_tie_case(lambda lo, hi: data.draw(st.integers(lo, hi)))
    assume(case is not None)
    fast, ref, _ = _verdicts(measure._Node(case[0]), case[1])
    assert fast == ref


def test_classify_falls_back_only_at_near_ties_in_two_or_more_dimensions():
    rng = np.random.default_rng(7)
    seen = {1: [0, 0], 2: [0, 0], 3: [0, 0]}  # n -> [cases, fallbacks]
    for _ in range(3000):
        case = _near_tie_case(lambda lo, hi: int(rng.integers(lo, hi + 1)))
        if case is None:
            continue
        fast, ref, fell_back = _verdicts(measure._Node(case[0]), case[1])
        assert fast == ref
        n = len(case[1].center)
        seen[n][0] += 1
        seen[n][1] += fell_back
    assert all(cases > 300 for cases, _ in seen.values())
    assert seen[1][1] == 0  # one-dimensional sums are exact
    assert seen[2][1] > 0 and seen[3][1] > 0


def _check_every_node(monkeypatch):
    """Make region_measure compare the kernel with the reference on every
    node it classifies; returns [nodes, fallbacks]."""
    kernel, reference = measure._classify, measure._classify_reference
    counts = [0, 0]

    def counting(region, query):
        counts[1] += 1
        return reference(region, query)

    def checked(node, query):
        counts[0] += 1
        verdict = kernel(node, query)
        assert verdict == reference(node.region, query)
        return verdict

    monkeypatch.setattr(measure, "_classify_reference", counting)
    monkeypatch.setattr(measure, "_classify", checked)
    return counts


def test_classify_matches_reference_on_criterion_03_walks(monkeypatch):
    counts = _check_every_node(monkeypatch)
    tree, c = binomial_tree(), doubling_constant(1, 2, 0.9)
    for x in tree.sample_points(3, 45, seed=3):
        doubling_frequency(tree, x, 1.0, 2, c, 30, 45)
    doubling_frequency(lebesgue_tree(1), np.array([0.4]), 1.0, 2, c, 30, 45)
    assert counts[0] > 5000
    assert counts[1] == 0


def test_classify_matches_reference_on_cone_net_walks(monkeypatch):
    tree = lebesgue_tree(2)
    dir_net = build_direction_net(2, 0.5, seed=0)
    sub_net = build_subspace_net(2, 1, 0.5, seed=0)
    points = tree.sample_points(2, 8, seed=5)
    counts = _check_every_node(monkeypatch)
    worst_cone_ratio(tree, points[0], 0.07, 0.5, dir_net, sub_net, 5, compute_estimate=True)
    worst_cone_ratio(tree, points[1], 0.035, 0.5, dir_net, sub_net, 8,
                     compute_estimate=False, early_stop_lo=1e-6)
    assert counts[0] > 20000


# ---------------------------------------------------------------------------
# The distance bounds that a node record keeps for its last ball-query center


def _records(tree, depth):
    """The tree's node records down to depth, expanding every node."""
    nodes = frontier = [tree._root]
    for level in range(1, depth + 1):
        frontier = [kid for node in frontier for kid in tree._kids(node, level)]
        nodes = nodes + frontier
    return nodes


@pytest.mark.parametrize("n,depth", [(1, 6), (2, 4), (3, 3)])
def test_center_cache_matches_reference_as_queries_alternate(n, depth):
    rng = np.random.default_rng(60 + n)
    boxes = _records(lebesgue_tree(n), depth)
    balls = [measure._Node(Ball(node.region.center, node.region.bounding_radius))
             for node in boxes]
    records = boxes + balls
    a = rng.integers(1, 2 ** 12, size=n) * 2.0 ** -12
    one_ulp = a.copy()
    one_ulp[0] = math.nextafter(a[0], 1.0)
    far = rng.integers(1, 2 ** 12, size=n) * 2.0 ** -12
    zero, negative_zero = a.copy(), a.copy()
    zero[-1], negative_zero[-1] = 0.0, -0.0
    centers = [a, one_ulp, zero, negative_zero, far]
    for step in range(40):
        x = centers[step % 5]
        # thresholds from another center's bounds: a stale cache decides
        # these nodes wrongly
        other = centers[(step + 1 + step // 5) % 5]
        region = records[int(rng.integers(len(boxes)))].region
        kind = step % 4
        if kind == 1:
            half = np.abs(region.center - other) + region.half
            query = RegionQuery(box=Box(x, half))
        else:
            dmin, dmax = region.dist_bounds(other)
            r = dmax if step % 3 or dmin == 0.0 else dmin
            theta = _unit(lambda lo, hi: int(rng.integers(lo, hi + 1)), n)
            cone = [{}, {}, dict(one_sided_cone=(theta, 0.5)),
                    dict(half_cone_excluded=(theta, 0.5)),
                    dict(plane_cone=(Subspace(theta[None, :]), 0.5))][step % 5]
            query = RegionQuery(ball=Ball(x, r), **cone)
        for node in records:
            assert measure._classify(node, query) == \
                measure._classify_reference(node.region, query), (step, node.region)
            if query.ball is not None:
                assert node.qc == tuple(x)


def test_interleaved_queries_on_one_tree_match_fresh_trees():
    x = np.array([0.4375, 0.5625])
    x_ulp = np.array([math.nextafter(0.4375, 1.0), 0.5625])
    theta = np.array([0.6, 0.8])
    line = Subspace(np.array([[0.8, -0.6]]))
    plane_queries = [
        RegionQuery(ball=Ball(x, 0.125)),
        RegionQuery(ball=Ball(x_ulp, 0.125)),
        RegionQuery(box=Box(x, np.array([0.1, 0.2]))),
        RegionQuery(ball=Ball(x, 0.25), one_sided_cone=(theta, 0.5)),
        RegionQuery(ball=Ball(x, 0.125), plane_cone=(line, 0.5),
                    half_cone_excluded=(theta, 0.5)),
        RegionQuery(ball=Ball(x_ulp, 0.3)),
        RegionQuery(ball=Ball(np.array([-0.0, 0.5]), 0.25)),
        RegionQuery(ball=Ball(np.array([0.0, 0.5]), 0.25), half_cone_excluded=(theta, 0.5)),
        RegionQuery(ball=Ball(x, 0.125)),
    ]
    y = np.array([0.3])
    line_queries = [RegionQuery(ball=Ball(y, 0.1)), RegionQuery(ball=Ball(y, 0.05)),
                    RegionQuery(box=Box(y, np.array([0.07]))),
                    RegionQuery(ball=Ball(np.array([0.7]), 0.1)),
                    RegionQuery(ball=Ball(y, 0.1), one_sided_cone=(np.array([-1.0]), 0.5)),
                    RegionQuery(ball=Ball(y, 0.1))]
    ball_queries = [RegionQuery(ball=Ball(np.array([0.1, 0.0]), 0.6)),
                    RegionQuery(ball=Ball(np.array([0.1, 0.0]), 0.6),
                                half_cone_excluded=(theta, 0.5)),
                    RegionQuery(box=Box(np.array([-0.2, 0.1]), np.array([0.5, 0.3]))),
                    RegionQuery(ball=Ball(np.array([0.1, 0.0]), 0.3))]
    for make, queries, depth in [(lambda: lebesgue_tree(2), plane_queries, 8),
                                 (binomial_tree, line_queries, 20),
                                 (rotating_ball_tree, ball_queries, 3)]:
        shared = make()
        for early_stop in (None, 0.01):
            for query in queries:
                assert region_measure(shared, query, depth, early_stop) == \
                    region_measure(make(), query, depth, early_stop), query

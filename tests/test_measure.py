import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conelab.constructions import (binomial_tree, rotating_ball_tree,
                                   strip_block_tree)
from conelab.geometry import Subspace
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


def test_tree_rejects_bad_weights():
    def children_fn(addr, region):
        side = float(region.half[0])
        origin = region.center - region.half
        return [(cube(origin, side), 0.6), (cube(origin + side, side), 0.6)]

    tree = MeasureTree(cube(np.zeros(1), 1.0), children_fn)
    with pytest.raises(ValueError):
        tree.children(())


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
    assert tree.children((0,)) is tree.children((0,))


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

    def children_fn(addr, region):
        h = 0.5 * float(region.half[0])
        return [(NoRadiusBox(region.center + off, np.array([h])), 0.5)
                for off in (-h, h)]

    tree = MeasureTree(NoRadiusBox(np.array([0.5]), np.array([0.5])), children_fn)
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

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


def test_sample_points_distribution():
    tree = lebesgue_tree(1)
    pts = tree.sample_points(2000, 8, seed=1)
    assert pts.shape == (2000, 1)
    frac = float(np.mean(pts[:, 0] < 0.5))
    assert abs(frac - 0.5) < 4.0 * math.sqrt(0.25 / 2000)

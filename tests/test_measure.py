import json
import math
import pathlib
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conelab import measure
from conelab.constructions import (binomial_tree, constant_binomial_tree,
                                   rotating_ball_tree, strip_block_tree)
from conelab.density import conical_ratio, ratio_interval, worst_cone_ratio
from conelab.geometry import Subspace, build_direction_net, build_subspace_net
from conelab.homogeneity import (doubling_constant, doubling_frequency, hom_estimate,
                                 large_child_frequency)
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
    tree = kadic_tree(1, 2, lambda level: (0.5, 0.5))
    kids = tree._child_fn

    def child_fn(region, level, idx):
        built.append(level)
        return kids(region, level, idx)

    tree._child_fn = child_fn
    tree.sample_points(20, 3, seed=0)
    assert built == [1, 2, 3] * 20
    del built[:]
    tree.node((1, 0, 1, 1))
    address_of_point(tree, [0.3], 5)
    assert built == [1, 2, 3, 4, 1, 2, 3, 4, 5]


def test_own_child_fn_records_are_built_from_its_regions():
    # a tree given its own child_fn walks that function's regions: its
    # records are built from them, two children a node
    built = []

    def child_fn(region, level, idx):
        built.append(level)
        side = float(region.half[0])
        return cube(region.center - region.half + idx * side, side)

    tree = MeasureTree(cube(np.zeros(1), 1.0), lambda level: (0.5, 0.5), child_fn)
    region_measure(tree, RegionQuery(ball=Ball(np.array([0.3]), 0.1)), 4)
    assert sorted(set(built)) == [1, 2, 3, 4] and len(built) % 2 == 0


def test_tree_k_is_the_arity_of_its_kadic_child_fn():
    for n, k in [(1, 2), (1, 3), (2, 2), (3, 3)]:
        assert lebesgue_tree(n, k=k).k == k
        assert MeasureTree(cube(np.zeros(n), 1.0), lambda level: (1.0,),
                           measure._KadicChildren(n, k)).k == k
    assert binomial_tree().k == 2
    # a tree with its own cube child_fn is no k-adic tree, whatever it splits into
    assert _halving_tree(lambda level: (0.5, 0.5)).k is None
    assert _own_kadic_tree().k is None
    for make in (rotating_ball_tree, strip_block_tree):
        assert make().k is None


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


def test_kadic_tree_refuses_children_below_coordinate_resolution():
    # a cube's half-width must exceed 8 u (|child c| + |parent c| + parent
    # half): near 1 that is 2^-49 from level 49 on, near 0 far deeper
    tree = lebesgue_tree(1)
    region, _ = tree.node((1,) * 48)
    assert region.center[0] == 1.0 - 2.0 ** -49 and region.half[0] == 2.0 ** -49
    with pytest.raises(measure.ResourceGuard, match="level 49"):
        tree.node((1,) * 49)
    tree.node((0,) + (1,) * 48)  # just below 0.5, where one more level builds
    with pytest.raises(measure.ResourceGuard, match="level 50"):
        tree.node((0,) + (1,) * 49)
    tree.node((0,) * 64)
    with pytest.raises(measure.ResourceGuard, match="level 49"):
        lebesgue_tree(2).node((3,) * 49)
    # a ball whose boundary lies 2^-52 inside 1 is refined there to the
    # budget; its walk expands the level-48 cube next to 1, whose first
    # child is refused as node((1,) * 48 + (0,)) is
    query = RegionQuery(ball=Ball(np.array([0.5]), 0.5 - 2.0 ** -52))
    assert region_measure(tree, query, 48).depth_used == 48
    for walked in (tree, lebesgue_tree(1)):
        with pytest.raises(measure.ResourceGuard, match="child 0 at level 49"):
            region_measure(walked, query, 49)
    with pytest.raises(measure.ResourceGuard, match="child 0 at level 49"):
        tree.node((1,) * 48 + (0,))


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
    # a fan's masses are node_measure times the weights, bit for bit, and
    # its regions are the children's
    for make, depth in [(lambda: lebesgue_tree(2), 8), (binomial_tree, 20),
                        (rotating_ball_tree, 4), (strip_block_tree, 5),
                        (lambda: lebesgue_tree(1, k=3), 12)]:
        tree, rng = make(), np.random.default_rng(depth)
        for _ in range(20):
            trail, _ = tree.sample_branch(rng, int(rng.integers(1, depth + 1)))
            addr = trail[-1]
            kids = tree.children(addr[:-1])
            fan = tree.branch_fan(addr)
            parent = tree.node_measure(addr[:-1])
            assert [m.hex() for _, m in fan] == [(parent * w).hex() for _, w in kids]
            assert [id(region) for region, _ in fan] == [id(region) for region, _ in kids]


def test_out_of_range_child_index_raises():
    tree = lebesgue_tree(1)
    with pytest.raises(IndexError):
        tree.node((0, 2))
    with pytest.raises(IndexError):
        tree.children((0, -1))
    for addr in [(2,), (0, -1), (1, 0, 5)]:
        with pytest.raises(IndexError):
            tree.branch_fan(addr)


def test_children_memoized_identity():
    tree = lebesgue_tree(2)
    first, again = tree.children((0,)), tree.children((0,))
    assert len(first) == 4
    assert all(a[0] is b[0] and a[1] == b[1] for a, b in zip(first, again))


def test_children_regions_are_child_regions_with_the_shared_half():
    for tree, addr in [(lebesgue_tree(2), (1, 2)), (lebesgue_tree(3, k=3), (26, 4)),
                       (binomial_tree(), (0, 1, 1, 0, 1))]:
        parent, _ = tree.node(addr)
        kids = tree.children(addr)
        for idx, (region, _) in enumerate(kids):
            child = tree.child(parent, len(addr) + 1, idx)
            assert region.center.tolist() == child.center.tolist()
            assert region.half is child.half is kids[0][0].half
            assert not region.half.flags.writeable


def _built_records(tree):
    """(address, record) of every node record the tree has built so far."""
    found, stack = [], [((), tree._root)]
    while stack:
        addr, node = stack.pop()
        found.append((addr, node))
        stack += [(addr + (i,), kid) for i, kid in enumerate(node.kids or ())]
    return found


def _bits(values):
    return [float(v).hex() for v in values]


@pytest.mark.parametrize("make,x,r,depth", [
    (lambda: lebesgue_tree(1), [0.3817], 0.1234, 24),
    (lambda: lebesgue_tree(2), [0.43, 0.57], 0.1, 9),
    # (r k^D)^2 = 53.1, below LEVEL_WALK_WIDTH, so the DFS builds the records
    (lambda: lebesgue_tree(3, k=3), [0.41, 0.52, 0.37], 0.09, 4),
    (binomial_tree, [0.6180], 0.01, 30),
    (lambda: constant_binomial_tree(0.3), [0.2718], 0.05, 30),
], ids=["lebesgue-1", "lebesgue-2", "lebesgue-3-k3", "binomial", "constant-binomial"])
def test_walked_records_are_node_regions_bit_for_bit(make, x, r, depth):
    tree = make()
    region_measure(tree, RegionQuery(ball=Ball(np.array(x), r)), depth)
    records = _built_records(tree)
    assert len(records) > 90 and max(len(addr) for addr, _ in records) == depth
    rng = np.random.default_rng(17)
    k, n = tree.k, tree.ambient_dim
    for i in rng.integers(len(records), size=60):
        addr, node = records[i]
        region, _ = make().node(addr)
        # cube(origin, side) on numpy arrays, level by level
        center, half = tree.root_region.center, tree.root_region.half
        for idx in addr:
            side = float(2.0 * half[0]) / k
            offset = np.array(np.unravel_index(idx, (k,) * n))
            center, half = center - half + offset * side + 0.5 * side, np.full(n, 0.5 * side)
        assert _bits(node.c) == _bits(region.center) == _bits(center)
        assert _bits(node.shape.ext) == _bits(region.half) == _bits(half)
        assert _bits(node.region.center) == _bits(region.center)
        assert node.region.half.tolist() == region.half.tolist()


def test_ball_walk_without_near_ties_builds_no_numpy_region(monkeypatch):
    tree, calls = lebesgue_tree(2), []
    reference = measure._classify_reference
    monkeypatch.setattr(measure, "_classify_reference",
                        lambda region, q: calls.append(1) or reference(region, q))
    iv = region_measure(tree, RegionQuery(ball=Ball(np.array([0.43, 0.57]), 0.1)), 9)
    assert iv.lo <= math.pi * 0.01 <= iv.hi and calls == []
    records = _built_records(tree)
    assert len(records) > 1000
    assert all(node._region is None for addr, node in records if addr)
    region = records[-1][1].region  # made when first read, then kept
    assert region is records[-1][1].region


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
    query = RegionQuery(ball=Ball(np.array([0.5]), 0.1))
    for depth in (-1, 2.5, True):
        with pytest.raises(ValueError, match="depth_budget"):
            region_measure(tree, query, depth)
    assert region_measure(tree, query, np.int64(3)) == region_measure(tree, query, 3)


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
    dict(ball=Ball(np.array([[0.5, 0.5]]), 0.1)),
    dict(ball=Ball(np.array([]), 0.1)),
    dict(box=Box(_MID, np.array([[0.2], [0.2]]))),
], ids=["nan-radius", "inf-radius", "nan-center", "inf-box-center", "nan-half",
        "half-shape-1", "half-shape-3", "zero-half", "negative-half", "center-2-d-array",
        "empty-center", "half-2-d-array"])
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


def _tolerance_edge(base, sign):
    """Directions on either side of the 1e-12 unit tolerance by
    np.linalg.norm: (inside, outside), one ulp of the positive first
    coordinate apart, with norms above 1 for sign 1 and below 1 for sign
    -1."""
    theta, inside = np.array(base) * (1.0 + sign * 0.999e-12), None
    while abs(np.linalg.norm(theta) - 1.0) <= 1e-12:
        inside = theta.copy()
        theta[0] = np.nextafter(theta[0], sign * np.inf)
    assert inside is not None and (np.linalg.norm(theta) > 1.0) == (sign > 0)
    return inside, theta


@pytest.mark.parametrize("base", [[1.0], [0.6, 0.8], [0.48, -0.6, 0.64]],
                         ids=["1-d", "2-d", "3-d"])
@pytest.mark.parametrize("sign", [1, -1], ids=["long", "short"])
@pytest.mark.parametrize("kind", ["one_sided_cone", "half_cone_excluded"])
def test_query_direction_tolerance_matches_linalg_norm(base, sign, kind):
    inside, outside = _tolerance_edge(base, sign)
    x = np.full(len(base), 0.5)
    query = RegionQuery(ball=Ball(x, 0.3), **{kind: (inside, 0.5)})
    assert query.cones[0][4] == tuple(inside.tolist())
    with pytest.raises(ValueError, match="unit vector"):
        RegionQuery(ball=Ball(x, 0.3), **{kind: (outside, 0.5)})


# (lo, hi, depth_used) recorded with the three separate cone blocks that the
# single cone loop replaced; every enclosure must stay bit for bit the same.
# The cases with cone rows were recorded again when the cone margin gave way
# to the angle verdict: each new enclosure lies inside its old one and holds
# the exact area where one is known (test_cone_goldens_hold_exact_areas).
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
     8, None, (0.044708251953125, 0.049560546875, 8)),
    ("plane-diag", lambda: lebesgue_tree(2),
     dict(ball=Ball(np.array([0.4, 0.45]), 0.2), plane_cone=(_VDIAG, 0.3)), 8, None,
     (0.0215911865234375, 0.0272369384765625, 8)),
    ("half-only", lambda: lebesgue_tree(2),
     dict(ball=Ball(_C, 0.25), half_cone_excluded=(TILT, 0.9)), 8, None,
     (0.163238525390625, 0.172760009765625, 8)),
    ("one-sided-plus", lambda: lebesgue_tree(2),
     dict(ball=Ball(_OFF, 0.3), one_sided_cone=(TILT, 0.6)), 8, None,
     (0.05535888671875, 0.0605926513671875, 8)),
    ("one-sided-minus", lambda: lebesgue_tree(2),
     dict(ball=Ball(_OFF, 0.3), one_sided_cone=(-TILT, 0.6)), 8, None,
     (0.055389404296875, 0.060577392578125, 8)),
    ("box-plane", lambda: lebesgue_tree(2),
     dict(box=Box(_C, np.array([0.3, 0.2])), plane_cone=(_V1, 0.4)), 7, None,
     (0.070068359375, 0.08837890625, 7)),
    ("plane-3d", lambda: lebesgue_tree(3),
     dict(ball=Ball(np.array([0.5, 0.4, 0.6]), 0.3),
          plane_cone=(Subspace(np.eye(3)[:2]), 0.7),
          half_cone_excluded=(np.array([0.0, 0.0, 1.0]), 0.7)), 4, None,
     (0.029296875, 0.1484375, 4)),
    # 1-d cones whose margins meet the node boundaries exactly: pins <= and >
    ("edge-one-sided-1d", lambda: lebesgue_tree(1),
     dict(ball=Ball(np.array([0.5]), 0.25), one_sided_cone=(np.array([1.0]), 1.0)), 8,
     None, (0.24609375, 0.25390625, 8)),
    ("edge-half-1d", lambda: lebesgue_tree(1),
     dict(ball=Ball(np.array([0.5]), 0.25), half_cone_excluded=(np.array([1.0]), 0.5)),
     8, None, (0.25, 0.2578125, 8)),
    ("early-stop", lambda: lebesgue_tree(2),
     dict(ball=Ball(_C, 0.3), plane_cone=(_V1, 0.5), half_cone_excluded=(TILT, 0.5)),
     10, 0.05, (0.04652976989746094, 0.04773521423339844, 10)),
]


@pytest.mark.parametrize("make_tree,query,depth,stop,expect",
                         [case[1:] for case in GOLDEN_REGION_MEASURE],
                         ids=[case[0] for case in GOLDEN_REGION_MEASURE])
def test_region_measure_golden(make_tree, query, depth, stop, expect):
    iv = region_measure(make_tree(), RegionQuery(**query), depth, early_stop_lo=stop)
    assert (iv.lo, iv.hi, iv.depth_used) == expect


# Exact measures of the golden cone queries whose ball lies in the unit cube.
# plane-half: the wedge of V about 0 lies in H about TILT, whose half-angle
# is 60 degrees, and the wedge about pi misses it, so one sixth of the disk
# is left.
_GOLDEN_EXACT = {
    "plane-half": math.pi * 0.09 / 6.0,
    "early-stop": math.pi * 0.09 / 6.0,
    "plane-diag": 2.0 * math.asin(0.3) * 0.04,
    "half-only": (1.0 - math.acos(0.9) / math.pi) * math.pi * 0.0625,
    "one-sided-plus": math.asin(0.6) * 0.09,
    "one-sided-minus": math.asin(0.6) * 0.09,
    "edge-one-sided-1d": 0.25,
    "edge-half-1d": 0.25,
}


def test_cone_goldens_hold_exact_areas():
    goldens = {case[0]: case[-1] for case in GOLDEN_REGION_MEASURE}
    for name, exact in _GOLDEN_EXACT.items():
        lo, hi, _ = goldens[name]
        assert lo <= exact <= hi, name


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
    """(kernel verdict, reference verdict, whether the kernel fell back to
    the reference's verdict of the node or of a cone row) for a node
    record."""
    reference, row, calls = measure._classify_reference, measure._row_reference, []

    def counting(r, q):
        calls.append(1)
        return reference(r, q)

    def counting_row(*args):
        calls.append(1)
        return row(*args)

    measure._classify_reference, measure._row_reference = counting, counting_row
    try:
        fast = measure._classify(node, query)
    finally:
        measure._classify_reference, measure._row_reference = reference, row
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
    box half-widths at the node's face gaps, or a cone opening at one of
    the angle verdict's bounds, the angle to the cone's axis or plane plus
    or minus the angle delta the node subtends, or at a side condition.
    For cones the center is sometimes a corner of the cube, where |d| and
    rho tie. Returns None for an opening outside (0, 1]."""
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
    if isinstance(region, Box) and not pick(0, 3):
        x = region.center + np.array([pick(-1, 1) for _ in range(n)]) * region.half
    d = region.center - x
    nd, rho = math.sqrt(d.dot(d)), region.bounding_radius
    if nd == 0.0:
        return None
    sin_delta = min(rho / nd, 1.0)
    delta, cos_delta = math.asin(sin_delta), math.sqrt(1.0 - sin_delta * sin_delta)
    theta, cone, sign, edge = _unit(pick, n), pick(0, 2), 1 - 2 * pick(0, 1), pick(0, 2)
    if cone == 0:  # the plane cone: sin(psi +- delta), sin delta or cos delta
        frame = [theta]
        if n == 3 and pick(0, 1):
            w = _unit(pick, n)
            w = w - (w @ theta) * theta
            if w.dot(w) > 0.1:
                frame.append(w / math.sqrt(w.dot(w)))
        V = Subspace(np.array(frame))
        psi = math.asin(min(V.dist(d) / nd, 1.0))
        a = [math.sin(psi + sign * delta), sin_delta, cos_delta][edge]
        parts = dict(plane_cone=(V, _nudge(a, pick(-3, 3))))
    else:  # the angle phi to theta: phi0 = phi +- delta, or sin phi0 = sin delta
        phi = math.acos(max(-1.0, min(1.0, float(d @ theta) / nd)))
        phi0 = phi + sign * delta if edge else delta
        if cone == 1:
            parts = dict(one_sided_cone=(theta, _nudge(math.sin(phi0), pick(-3, 3))))
        else:
            parts = dict(half_cone_excluded=(theta, _nudge(math.cos(phi0), pick(-3, 3))))
    alpha = next(iter(parts.values()))[1]
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
    # (n, whether the query has cones) -> [cases, fallbacks]
    seen = {(n, cones): [0, 0] for n in (1, 2, 3) for cones in (False, True)}
    for _ in range(9000):
        case = _near_tie_case(lambda lo, hi: int(rng.integers(lo, hi + 1)))
        # the kernel's only pair: a Box node under a ball query
        if case is None or not isinstance(case[0], Box) or case[1].ball is None:
            continue
        fast, ref, fell_back = _verdicts(measure._Node(case[0]), case[1])
        assert fast == ref
        counts = seen[len(case[1].center), bool(case[1].cones)]
        counts[0] += 1
        counts[1] += fell_back
    assert all(cases > 200 for cases, _ in seen.values())
    # one-dimensional sums are exact, and cone rows are decided by the side of d
    assert seen[1, False][1] == seen[1, True][1] == 0
    assert all(seen[n, cones][1] > 0 for n in (2, 3) for cones in (False, True))


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
        frontier = [kid for node in frontier for kid in tree._kids(node)]
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
            if isinstance(node.region, Box) and query.ball is not None:
                assert node.qc == tuple(x)
            elif isinstance(node.region, Ball):
                assert node.qc is None


# ---------------------------------------------------------------------------
# The offsets and plane verdicts that a node record keeps for its last center


def _plane_cache_queries(n):
    """Plane-cone queries on [0, 1)^n that change one part of the plane key
    (center, radius, plane, opening) at a time, or only the direction cones,
    with ball-only queries between them."""
    x = np.array([0.4130, 0.5671, 0.3384][:n])
    far = np.array([0.6052, 0.3917, 0.7125][:n])
    zero, negative_zero = x.copy(), x.copy()
    zero[-1], negative_zero[-1] = 0.0, -0.0
    t1, t2 = np.array([0.6, 0.8, 0.0][:n]), np.array([-0.8, 0.6, 0.0][:n])
    t3 = np.array([0.48, 0.6, 0.64][:n])
    t3 = t3 / math.sqrt(t3.dot(t3))

    def plane(*rows):
        return Subspace(np.array([r[:n] for r in rows]))

    v1 = lambda: plane([0.8, -0.6, 0.0])
    v2 = lambda: plane([math.sqrt(0.5), math.sqrt(0.5), 0.0])
    v3 = (lambda: plane([1.0, 0.0, 0.0], [0.0, 0.0, 1.0])) if n == 3 else v2

    def q(c=x, r=0.21, V=v1, a=0.5, **cones):
        return RegionQuery(ball=Ball(c, r), plane_cone=(V(), a), **cones)

    return [
        q(half_cone_excluded=(t1, 0.5)),
        q(half_cone_excluded=(t2, 0.5)),                      # direction
        q(half_cone_excluded=(t3, 0.4)),                      # direction and its opening
        q(half_cone_excluded=(t1, 0.5)),
        q(r=0.17, half_cone_excluded=(t1, 0.5)),              # radius
        q(a=0.3, half_cone_excluded=(t1, 0.5)),               # opening
        q(V=v2, half_cone_excluded=(t1, 0.5)),                # plane
        q(V=v3, half_cone_excluded=(t2, 0.5)),
        q(),                                                  # the plane cone alone
        q(one_sided_cone=(t2, 0.7)),                          # a one-sided cone
        q(one_sided_cone=(t1, 0.7), half_cone_excluded=(t2, 0.5)),
        RegionQuery(ball=Ball(x, 0.21), one_sided_cone=(t1, 0.7)),
        RegionQuery(ball=Ball(x, 0.3)),
        q(half_cone_excluded=(t2, 0.5)),
        q(c=far, half_cone_excluded=(t2, 0.5)),               # center
        q(half_cone_excluded=(t2, 0.5)),
        q(c=zero, r=0.3, half_cone_excluded=(t1, 0.5)),
        q(c=negative_zero, r=0.3, half_cone_excluded=(t1, 0.5)),  # 0.0 -> -0.0
        q(c=negative_zero, r=0.3, half_cone_excluded=(t2, 0.5)),
        q(c=zero, r=0.3),
        RegionQuery(ball=Ball(far, 0.21)),
        q(half_cone_excluded=(t1, 0.5)),
    ]


@pytest.mark.parametrize("n,depth", [(2, 7), (3, 4)])
def test_plane_cache_matches_reference_and_fresh_trees(monkeypatch, n, depth):
    queries = _plane_cache_queries(n)
    shared = lebesgue_tree(n)
    records = _records(lebesgue_tree(n), depth - 2)
    counts = _check_every_node(monkeypatch)
    for step, query in enumerate(queries):
        for early_stop in (None, 0.02):
            assert region_measure(shared, query, depth, early_stop) == \
                region_measure(lebesgue_tree(n), query, depth, early_stop), step
        # every record, in tree order rather than walk order
        for node in records:
            counts[0] += 1
            assert measure._classify(node, query) == \
                measure._classify_reference(node.region, query), (step, node.region)
    assert counts[0] > 20000


def _rewalk_without_roots(monkeypatch, query):
    """Warm a 2-d tree with walks of query(theta) at three directions, then
    re-walk them in another order; asserts equal enclosures, no reference
    verdict, and no square root in the re-walks. The queries of the
    re-walks are built before the count starts: a query takes square roots
    of its own, for the sine of each cone and its unit check."""
    thetas = [np.array([0.6, 0.8]), np.array([-0.8, 0.6]), np.array([0.0, -1.0])]
    tree = lebesgue_tree(2)
    warm = [region_measure(tree, query(theta), 8) for theta in thetas]
    rewalks = [query(theta) for theta in thetas[::-1] + thetas]
    roots, calls = [], [0, 0]  # [_classify calls, reference calls]

    class CountingMath:
        def __getattr__(self, name):
            return getattr(math, name)

        @staticmethod
        def sqrt(v):
            roots.append(v)
            return math.sqrt(v)

    kernel, reference = measure._classify, measure._classify_reference

    def counting_kernel(node, q):
        calls[0] += 1
        return kernel(node, q)

    def counting_reference(region, q):
        calls[1] += 1
        return reference(region, q)

    monkeypatch.setattr(measure, "math", CountingMath())
    monkeypatch.setattr(measure, "_classify", counting_kernel)
    monkeypatch.setattr(measure, "_classify_reference", counting_reference)
    for rewalk, before in zip(rewalks, warm[::-1] + warm):
        assert region_measure(tree, rewalk, 8) == before
    assert calls[0] > 3000 and calls[1] == 0
    assert roots == []


_X = np.array([0.4130, 0.5671])


def test_plane_verdict_is_reused_across_directions(monkeypatch):
    # once a walk at each direction has classified its nodes, walks that
    # change only the direction find every node's plane verdict stored, and
    # compute no square root; the plane is a new Subspace each time, so the
    # key holds values rather than objects
    _rewalk_without_roots(monkeypatch, lambda theta: RegionQuery(
        ball=Ball(_X, 0.21), plane_cone=(Subspace(np.array([[0.8, -0.6]])), 0.5),
        half_cone_excluded=(theta, 0.5)))


def test_offsets_are_reused_across_halfspace_directions(monkeypatch):
    # walks at one center share each node's offset and its norm whatever
    # their cones, so half-cone walks without a plane compute no square root
    # once the center's offsets are stored
    _rewalk_without_roots(monkeypatch, lambda theta: RegionQuery(
        ball=Ball(_X, 0.21), half_cone_excluded=(theta, 0.5)))


@pytest.mark.parametrize("make,query,depth", [
    (rotating_ball_tree, RegionQuery(ball=Ball(np.array([0.1, 0.0]), 0.6),
                                     half_cone_excluded=(np.array([0.6, 0.8]), 0.5)), 3),
    (lambda: lebesgue_tree(2), RegionQuery(box=Box(np.array([0.3, 0.6]),
                                                   np.array([0.2, 0.15]))), 6),
], ids=["ball-regions", "box-query"])
def test_classify_takes_reference_off_box_nodes_under_ball_queries(
        monkeypatch, make, query, depth):
    kernel, reference, seen = measure._classify, measure._classify_reference, []

    def counting(region, q):
        seen.append(region)
        return reference(region, q)

    def checked(node, q):
        before = len(seen)
        verdict = kernel(node, q)
        assert seen[before:] == [node.region]
        return verdict

    monkeypatch.setattr(measure, "_classify_reference", counting)
    monkeypatch.setattr(measure, "_classify", checked)
    tree = make()
    region_measure(tree, query, depth)
    assert len(seen) > 50
    assert all(node.qc is None and node.dmin is None and node.dmax is None
               for node in _records(tree, depth))


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


# ---------------------------------------------------------------------------
# The DFS over records with masses and depths against a DFS over tuples


def _uneven_weights(level):
    w = np.array([1.0 + ((3 * level + 5 * i) % 7) / 3.0 for i in range(4)])
    return tuple((w / w.sum()).tolist())


def _uneven_tree():
    """A 2-d kadic_tree whose weights differ by child and level, so that a
    sum in another order than the DFS's shows in the last bits."""
    return kadic_tree(2, 2, _uneven_weights)


def _reference_dfs(tree, query, depth_budget, early_stop_lo=None, classify=None):
    """region_measure's DFS as a walk of (region, mass, depth) tuples: child
    regions from tree.child, masses multiplied along the walk, and the numpy
    reference verdict for each node, or classify(region, query)'s. Returns
    the enclosure and the number of nodes popped."""
    classify = classify or measure._classify_reference
    lo = hi = 0.0
    depth_used = pops = 0
    stack = [(tree.root_region, 1.0, 0)]
    while stack:
        region, mass, depth = stack.pop()
        pops += 1
        depth_used = max(depth_used, depth)
        verdict = classify(region, query)
        if verdict == measure._INSIDE:
            lo += mass
            hi += mass
            if early_stop_lo is not None and lo > early_stop_lo:
                hi += math.fsum(m for _, m, _ in stack)
                break
        elif verdict == measure._UNDECIDED:
            if depth >= depth_budget:
                hi += mass
            else:
                level = depth + 1
                for idx, w in enumerate(tree.weights(level)):
                    stack.append((tree.child(region, level, idx), mass * w, level))
    return MeasureInterval(lo, hi, depth_used), pops


# (make, n, largest budget, lowest and highest center coordinate)
_DFS_TREES = {
    "lebesgue-1": (lambda: lebesgue_tree(1), 1, 16, 0.05, 0.95),
    "lebesgue-2": (lambda: lebesgue_tree(2), 2, 6, 0.05, 0.95),
    "lebesgue-3": (lambda: lebesgue_tree(3), 3, 4, 0.1, 0.9),
    "binomial": (binomial_tree, 1, 24, 0.05, 0.95),
    "uneven-2-k2": (_uneven_tree, 2, 6, 0.05, 0.95),
    "rotating-ball": (rotating_ball_tree, 2, 3, -0.6, 0.6),
    "strip-block": (strip_block_tree, 2, 2, -0.1, 0.9),
}


def _dfs_case(draw):
    """A tree, a query with any base and cone, a budget and an early stop."""
    name = draw(st.sampled_from(sorted(_DFS_TREES)))
    make, n, most, low, high = _DFS_TREES[name]
    depth = draw(st.integers(most // 2, most))
    x = np.array([draw(st.floats(low, high)) for _ in range(n)])
    if name == "strip-block":
        x[0] = draw(st.floats(-0.1, 0.1))
    pick = lambda lo, hi: draw(st.integers(lo, hi))
    theta, alpha = _unit(pick, n), draw(st.sampled_from([0.3, 0.5, 1.0]))
    kind = draw(st.sampled_from(["ball", "box", "plane", "one-sided", "half"]))
    r = draw(st.floats(0.01, 0.6))
    base = (dict(box=Box(x, np.array([draw(st.floats(0.01, 0.6)) for _ in range(n)])))
            if kind == "box" else dict(ball=Ball(x, r)))
    cone = {"plane": dict(plane_cone=(Subspace(theta[None, :]), alpha)),
            "one-sided": dict(one_sided_cone=(theta, alpha)),
            "half": dict(half_cone_excluded=(theta, alpha))}.get(kind, {})
    query = RegionQuery(**base, **cone)
    return make, query, depth, draw(st.sampled_from([None, 0.0, 0.01, 0.2]))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_dfs_equals_a_tuple_dfs_and_classifies_each_pop_once(data):
    make, query, depth, early_stop = _dfs_case(data.draw)
    want, pops = _reference_dfs(make(), query, depth, early_stop)

    kernel, calls = measure._classify, [0]

    def counting(node, q):
        calls[0] += 1
        return kernel(node, q)

    tree = make()
    measure._classify = counting
    try:
        got = region_measure(tree, query, depth, early_stop)
    finally:
        measure._classify = kernel
    assert (got.lo, got.hi, got.depth_used) == (want.lo, want.hi, want.depth_used)
    # a wide walk takes the level walk, which classifies no record
    level_walk = measure._takes_level_walk(tree, query, depth, early_stop)
    assert calls[0] == (0 if level_walk else pops)


def _own_kadic_tree():
    """A 2-d k-adic tree with uneven weights and its own numpy child_fn."""
    def child_fn(region, _level, idx):
        side = float(region.half[0])
        offset = np.array(np.unravel_index(idx, (2, 2)), dtype=float)
        return cube(region.center - region.half + offset * side, side)

    return MeasureTree(cube(np.zeros(2), 1.0), _uneven_weights, child_fn)


@pytest.mark.parametrize("make,x,r,depth", [
    (_uneven_tree, [0.43, 0.57], 0.1, 8),
    (_own_kadic_tree, [0.43, 0.57], 0.1, 8),
    (binomial_tree, [0.6180], 0.01, 30),
    (lambda: _halving_tree(lambda level: (0.3, 0.7) if level % 2 else (0.9, 0.1)),
     [0.2718], 0.05, 30),
    (rotating_ball_tree, [0.1, 0.0], 0.3, 3),
], ids=["uneven", "own-child-fn", "binomial", "halving", "rotating-ball"])
def test_walked_records_carry_node_measure_and_depth_bit_for_bit(make, x, r, depth):
    tree = make()
    region_measure(tree, RegionQuery(ball=Ball(np.array(x), r)), depth)
    records = _built_records(tree)
    assert len(records) > 50 and max(len(addr) for addr, _ in records) == depth
    for addr, node in records:
        assert node.mass.hex() == tree.node_measure(addr).hex()
        assert node.depth == len(addr)


# ---------------------------------------------------------------------------
# The level walk: wide ball queries on k-adic trees, one level at a time


# (make, n, k, largest budget) with at most a few thousand nodes a level
_LEVEL_TREES = {
    "lebesgue-1-k2": (lambda: lebesgue_tree(1), 1, 2, 16),
    "lebesgue-1-k3": (lambda: lebesgue_tree(1, k=3), 1, 3, 10),
    "lebesgue-2-k2": (lambda: lebesgue_tree(2), 2, 2, 8),
    "lebesgue-2-k3": (lambda: lebesgue_tree(2, k=3), 2, 3, 5),
    "lebesgue-3-k2": (lambda: lebesgue_tree(3), 3, 2, 5),
    "lebesgue-3-k3": (lambda: lebesgue_tree(3, k=3), 3, 3, 3),
    "uneven-2-k2": (_uneven_tree, 2, 2, 8),
}


def _level_walk_case(draw):
    """A tree, a ball query with or without cone rows, and a budget. Centers
    and radii are often multiples of k^-m, on node faces, where near ties
    fall."""
    name = draw(st.sampled_from(sorted(_LEVEL_TREES)))
    make, n, k, most = _LEVEL_TREES[name]
    depth = draw(st.integers(0, most))
    if draw(st.booleans()):
        grid = k ** draw(st.integers(1, 4))
        x = [draw(st.integers(1, grid - 1)) / grid for _ in range(n)]
        r = draw(st.integers(1, grid // 2 + 1)) / grid
    else:
        x = [draw(st.floats(0.1, 0.9)) for _ in range(n)]
        r = draw(st.floats(0.02, 0.6))
    pick = lambda lo, hi: draw(st.integers(lo, hi))
    theta, alpha = _unit(pick, n), draw(st.sampled_from([0.3, 0.5, 1.0]))
    cones = draw(st.sampled_from(["ball", "plane", "half", "one-sided", "plane-half"]))
    parts = {"ball": {},
             "plane": dict(plane_cone=(Subspace(theta[None, :]), alpha)),
             "half": dict(half_cone_excluded=(theta, alpha)),
             "one-sided": dict(one_sided_cone=(theta, alpha)),
             "plane-half": dict(plane_cone=(Subspace(theta[None, :]), alpha),
                                half_cone_excluded=(-theta, 0.5))}[cones]
    return make, RegionQuery(ball=Ball(np.array(x), r), **parts), depth


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_level_walk_equals_the_dfs_bit_for_bit(data):
    make, query, depth = _level_walk_case(data.draw)
    dfs = measure._dfs(make(), query, depth, None)
    level = measure._level_walk(make(), query, depth)
    assert (level.lo, level.hi, level.depth_used) == (dfs.lo, dfs.hi, dfs.depth_used)
    got = region_measure(make(), query, depth)
    assert (got.lo, got.hi, got.depth_used) == (dfs.lo, dfs.hi, dfs.depth_used)


def test_level_walk_meets_near_ties_and_adds_in_dfs_order(monkeypatch):
    # a dyadic center and radius put the ball's boundary on node faces, where
    # the reference decides nodes in both walks
    reference, calls = measure._classify_reference, [0]

    def counting(region, q):
        calls[0] += 1
        return reference(region, q)

    monkeypatch.setattr(measure, "_classify_reference", counting)
    on_faces = RegionQuery(ball=Ball(np.array([0.5, 0.375]), 0.25))
    cones = RegionQuery(ball=Ball(np.array([0.5, 0.5]), 0.3),
                        plane_cone=(Subspace(np.array([[1.0, 0.0]])), 0.5),
                        half_cone_excluded=(np.array([0.6, 0.8]), 0.5))
    for make in (lambda: lebesgue_tree(2), _uneven_tree):
        dfs = measure._dfs(make(), on_faces, 8, None)
        before = calls[0]
        assert measure._level_walk(make(), on_faces, 8) == dfs
        assert calls[0] > before
        assert measure._level_walk(make(), cones, 8) == measure._dfs(make(), cones, 8, None)
    # on uneven weights the order of the sums shows: without the sort by
    # address key, leaves added level by level change lo and hi
    want = measure._dfs(_uneven_tree(), on_faces, 8, None)
    monkeypatch.setattr(measure.np, "argsort", lambda keys: np.arange(len(keys)))
    unsorted = measure._level_walk(_uneven_tree(), on_faces, 8)
    assert unsorted.lo != want.lo and unsorted.hi != want.hi


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_classify_rows_is_classify_bit_for_bit(data):
    case = _near_tie_case(lambda lo, hi: data.draw(st.integers(lo, hi)))
    assume(case is not None and isinstance(case[0], Box) and case[1].ball is not None)
    region, query = case
    rows = measure._classify_rows(np.array([region.center]), measure._Shape(region.half), query)
    assert rows.tolist() == [measure._classify(measure._Node(region), query)]


def test_classify_rows_classifies_a_level_as_classify_does():
    tree, rng = lebesgue_tree(2), np.random.default_rng(31)
    level = _records(tree, 5)[-4 ** 5:]
    centers = np.array([node.c for node in level])
    for query in _plane_cache_queries(2):
        rows = measure._classify_rows(centers, level[0].shape, query)
        assert rows.tolist() == [measure._classify(node, query) for node in level]
    x = rng.uniform(0.2, 0.8, size=2)
    query = RegionQuery(ball=Ball(x, 0.2), one_sided_cone=(np.array([0.0, 1.0]), 0.4))
    rows = measure._classify_rows(centers, level[0].shape, query)
    assert rows.tolist() == [measure._classify(node, query) for node in level]


@pytest.mark.parametrize("n,k,depth", [(1, 2, 40), (2, 2, 9), (2, 3, 5), (3, 2, 4), (3, 3, 3)])
def test_center_rows_are_centers_bit_for_bit(n, k, depth):
    kids, rng = measure._KadicChildren(n, k), np.random.default_rng(n * 10 + k)
    tree = lebesgue_tree(n, k=k)
    for level in range(1, depth + 1):
        parents = [tree.node(tuple(rng.integers(k ** n, size=level - 1)))[0]
                   for _ in range(5)]
        ph = parents[0].half.tolist()
        h, rows = kids.center_rows(np.array([p.center for p in parents]), ph)
        want = [kids.centers(p.center.tolist(), ph, level, range(k ** n)) for p in parents]
        assert _bits([h]) == _bits([want[0][0]])
        assert [_bits(row) for row in rows] == [_bits(c) for w in want for c in w[1]]


def test_center_rows_refuse_where_centers_raise():
    # a cube far from the origin reaches the rounding of its coordinates
    # within a few levels; center_rows refuses as soon as one cube's child is
    kids = measure._KadicChildren(2, 2)
    near, far = [0.5, 0.5], [2.0 ** 40, 0.5]
    for level, h in enumerate([2.0 ** -j for j in range(2, 14)], start=1):
        ph = [2.0 * h, 2.0 * h]
        try:
            kids.centers(far, ph, level, range(4))
            raised = False
        except measure.ResourceGuard:
            raised = True
        assert (kids.center_rows(np.array([near, far]), ph) is None) == raised
        assert kids.center_rows(np.array([near]), ph) is not None
        if raised:
            break
    assert raised


def _columns_and_rows(values):
    """The columns of a 2-d array as contiguous arrays, and its rows as
    float lists."""
    return [np.ascontiguousarray(values[:, i]) for i in range(values.shape[1])], values.tolist()


@pytest.mark.parametrize("n", [1, 2, 3])
def test_shared_helpers_give_the_same_bits_on_columns_as_on_floats(n):
    # _classify calls the cone-row helpers on a node's floats, _classify_rows
    # on a level's columns, and _KadicChildren._grid serves both centers and
    # center_rows: each must round alike on both, and change no column
    rng = np.random.default_rng(90 + n)
    count = 400
    frame = np.linalg.qr(rng.standard_normal((n, n)))[0].T
    vecs = tuple(map(tuple, frame[:rng.integers(1, n + 1)].tolist()))
    theta = tuple(frame[0].tolist())
    d = rng.standard_normal((count, n)) * 10.0 ** rng.integers(-6, 6, size=(count, 1))
    # offsets within a few ulps of the plane or of theta's orthogonal
    # complement, so that the distance and the product nearly cancel
    along = rng.standard_normal((count // 4, 1)) * np.array(vecs)[rng.integers(len(vecs))]
    d[:count // 4] = along * (1.0 + 1e-15 * rng.standard_normal((count // 4, n)))
    if n > 1:
        across = rng.standard_normal((count // 4, n))
        across -= (across @ frame[0])[:, None] * frame[0]
        d[count // 4:count // 2] = across
    d[rng.random((count, n)) < 0.1] = 0.0
    d[rng.random((count, n)) < 0.1] = -0.0
    cols, rows = _columns_and_rows(d)
    before = [col.copy() for col in cols]
    assert any(math.copysign(1.0, x) < 0.0 for row in rows for x in row if x == 0.0)

    def same(column, floats):
        assert _bits(column) == _bits(floats)
        assert all(_bits(col) == _bits(old) for col, old in zip(cols, before))

    same(measure._products(cols, cols), [measure._products(r, r) for r in rows])
    same(measure._products(cols, theta), [measure._products(r, theta) for r in rows])
    same(measure._plane_dist2(cols, vecs), [measure._plane_dist2(r, vecs) for r in rows])
    same(measure._plane_dist2(cols, ()), [measure._plane_dist2(r, ()) for r in rows])
    rho, tol, tiny = 0.3 * 2.0 ** -int(rng.integers(20)), 8.0 * (n + 2) ** 2 * 2.0 ** -53, 2.0 ** -500
    nd = np.sqrt(measure._products(cols, cols)) + 2.0 * rho
    w = np.sqrt((nd - rho) * (nd + rho))
    same(measure._angle_bound(nd, w, rho, tol, tiny),
         [measure._angle_bound(a, b, rho, tol, tiny) for a, b in zip(nd.tolist(), w.tolist())])
    same(measure._near_angle_bound(nd, rho, tol, tiny),
         [measure._near_angle_bound(a, rho, tol, tiny) for a in nd.tolist()])
    for k in (2, 3):
        kids = measure._KadicChildren(n, k)
        # cubes near the origin, and cubes at 2^40 whose children the
        # guard refuses
        ph = [2.0 ** -int(rng.integers(12, 30))] * n
        far = np.where(rng.random((count, 1)) < 0.5, 2.0 ** 40, 0.0)
        cols, rows = _columns_and_rows(np.abs(d) % 1.0 + far)
        before = [col.copy() for col in cols]
        h, axes, grid = kids._grid(cols, ph)
        for p, row in enumerate(rows):
            h_row, axes_row, grid_row = kids._grid(row, ph)
            assert _bits([h]) == _bits([h_row])
            assert [_bits(a[p] for a in axis) for axis in axes] == list(map(_bits, axes_row))
            assert [_bits(c[p] for c in child) for child in grid] == list(map(_bits, grid_row))
        c_max = np.abs(axes).max(axis=(0, 1))
        pc_max = np.abs(np.array(cols)).max(axis=0)
        refused = kids._refused(h, c_max, pc_max, ph[0])
        assert refused.tolist() == [kids._refused(h, a, b, ph[0])
                                    for a, b in zip(c_max.tolist(), pc_max.tolist())]
        assert refused.any() and not refused.all()
        assert all(_bits(col) == _bits(old) for col, old in zip(cols, before))


def _builds_records(tree, query, depth, early_stop=None):
    region_measure(tree, query, depth, early_stop)
    return tree._root.kids is not None


def test_only_wide_kadic_ball_walks_take_the_level_walk():
    wide = RegionQuery(ball=Ball(np.array([0.43, 0.57]), 0.2))  # (0.2 2^9) = 102.4
    assert measure._takes_level_walk(lebesgue_tree(2), wide, 9, None)
    assert not _builds_records(lebesgue_tree(2), wide, 9)
    cone = RegionQuery(ball=Ball(np.array([0.43, 0.57]), 0.2),
                       half_cone_excluded=(np.array([0.6, 0.8]), 0.5))
    assert not _builds_records(lebesgue_tree(2), cone, 9)
    assert not _builds_records(lebesgue_tree(3), RegionQuery(
        ball=Ball(np.array([0.4, 0.5, 0.6]), 0.2)), 6)  # (0.2 2^6)^2 = 164
    # narrow: (0.1 2^9) = 51.2 is below LEVEL_WALK_WIDTH
    assert _builds_records(lebesgue_tree(2), RegionQuery(
        ball=Ball(np.array([0.43, 0.57]), 0.1)), 9)
    assert _builds_records(lebesgue_tree(2), wide, 9, early_stop=0.01)
    assert _builds_records(lebesgue_tree(2), RegionQuery(
        box=Box(np.array([0.43, 0.57]), np.array([0.2, 0.2]))), 9)
    assert _builds_records(lebesgue_tree(1), RegionQuery(ball=Ball(np.array([0.43]), 0.2)), 20)
    assert _builds_records(strip_block_tree(), RegionQuery(
        ball=Ball(np.array([0.125, 0.03]), 0.3)), 6)
    # a budget whose sort key would not fit in 62 bits: 4^32 = 2^64
    assert not measure._takes_level_walk(lebesgue_tree(2), wide, 32, None)
    assert measure._takes_level_walk(lebesgue_tree(2), wide, 31, None)


def test_level_walk_leaves_a_refused_child_to_the_dfs():
    # past the coordinate resolution both walks raise the DFS's message: on
    # lebesgue_tree(2) a level-49 budget is past the sort key and walks as a
    # DFS; on a cube far from the origin the guard refuses at level 8, and
    # the level walk hands the query to the DFS
    query = RegionQuery(ball=Ball(np.array([0.5, 0.5]), 0.5 - 2.0 ** -52))
    with pytest.raises(measure.ResourceGuard) as dfs:
        measure._dfs(lebesgue_tree(2), query, 49, None)
    with pytest.raises(measure.ResourceGuard) as got:
        region_measure(lebesgue_tree(2), query, 49)
    assert str(got.value) == str(dfs.value)

    def far_tree():
        return MeasureTree(cube(np.array([2.0 ** 40, 0.0]), 1.0), lambda level: (0.25,) * 4,
                           measure._KadicChildren(2, 2))

    query = RegionQuery(ball=Ball(np.array([2.0 ** 40 + 0.5, 0.5]), 0.3))
    assert measure._takes_level_walk(far_tree(), query, 12, None)
    assert measure._level_walk(far_tree(), query, 12) is None
    with pytest.raises(measure.ResourceGuard) as dfs:
        measure._dfs(far_tree(), query, 12, None)
    with pytest.raises(measure.ResourceGuard) as got:
        region_measure(far_tree(), query, 12)
    assert str(got.value) == str(dfs.value) and "level 8" in str(got.value)
    shallow = region_measure(far_tree(), query, 7)
    assert shallow == measure._dfs(far_tree(), query, 7, None)


def test_kadic_level_with_other_than_k_to_the_n_weights_is_refused():
    # a k-adic level names every one of its k^n children
    wide, narrow = (RegionQuery(ball=Ball(np.array([0.43, 0.57]), r)) for r in (0.3, 0.01))
    for n, k, weights in [(2, 2, (0.5, 0.5)), (2, 2, (0.125,) * 8), (1, 3, (0.5, 0.5)),
                          (2, 3, (0.25,) * 4)]:
        fan = k ** n

        def make():
            return kadic_tree(n, k, lambda level: weights)

        x = [0.7] * n
        assert make().k == k
        calls = {
            "weights": lambda: make().weights(1),
            "children": lambda: make().children(()),
            "address_of_point": lambda: address_of_point(make(), x, 2),
            "hom_estimate": lambda: hom_estimate(make(), 1, 4),
            "large_child_frequency": lambda: large_child_frequency(
                make(), x, 0, 1, 0.1, 1.0, 2),
        }
        if n == 2:
            calls["region_measure, level walk"] = lambda: region_measure(make(), wide, 9)
            calls["region_measure, DFS"] = lambda: region_measure(make(), narrow, 3)
            assert measure._takes_level_walk(make(), wide, 9, None)
            assert not measure._takes_level_walk(make(), narrow, 3, None)
        else:
            calls["region_measure"] = lambda: region_measure(make(), RegionQuery(
                ball=Ball(np.array(x), 0.1)), 4)
        for call in calls.values():
            with pytest.raises(ValueError, match=f"needs k\\^n = {fan} child weights, "
                                                 f"level 1 gives {len(weights)}"):
                call()
    # a level past the first is refused when it is first read
    tree = kadic_tree(1, 2, lambda level: (0.5, 0.5) if level < 3 else (1.0,))
    assert region_measure(tree, RegionQuery(ball=Ball(np.array([0.3]), 0.1)), 2).depth_used == 2
    with pytest.raises(ValueError, match="level 3 gives 1"):
        region_measure(tree, RegionQuery(ball=Ball(np.array([0.3]), 0.1)), 3)


# ---------------------------------------------------------------------------
# The angle verdict against the cone margin it replaced


def _margin_reference(region, query):
    """The cone margin verdict that the angle verdict replaced, kept as an
    oracle. Each cone row of the query is a (1 + a)-Lipschitz function of
    the offset d from the query center, positive inside the open cone:
    a |d| - dist(d, V) for the plane cone and d . theta - a |d| otherwise.
    A row is decided where its value at the node center clears (1 + a) rho,
    here widened by 1e-12 (|d| + rho): the plain margin, rounded, decides
    some nodes that hold the center, and the oracle makes no decision
    within its own rounding. The rows are the query's own, so an empty H
    of opening 1 has none."""
    verdict = measure._classify_base(region, query)
    if verdict == measure._OUTSIDE or not query.cones:
        return verdict
    rho = region.bounding_radius
    d = region.center - query.center
    nd = math.sqrt(d.dot(d))
    for plane, shape, a, excluded, _, _ in query.cones:
        value = a * nd - shape.dist(d) if plane else float(d @ shape) - a * nd
        margin = (1.0 + a) * rho + 1e-12 * (nd + rho)
        if value > margin:
            if excluded:
                return measure._OUTSIDE
        elif value <= -margin:
            if not excluded:
                return measure._OUTSIDE
        else:
            verdict = measure._UNDECIDED
    return verdict


def _checked_margin(region, query):
    """_margin_reference's verdict, after checking that the angle verdict
    gives it too wherever the margin decides the node."""
    margin = _margin_reference(region, query)
    if margin != measure._UNDECIDED:
        assert measure._classify_reference(region, query) == margin, region
    return margin


def _margin_dfs(tree, query, depth):
    """The margin's enclosure by the tuple DFS. Every node it pops must get
    the margin's verdict from the angle verdict too, wherever the margin
    decides it."""
    return _reference_dfs(tree, query, depth, classify=_checked_margin)[0]


def _exact_leaf_sums(tree, query, depth_budget, classify):
    """(lo, hi, depth_used) of the tuple DFS with classify's verdicts, its
    leaf masses summed exactly as Fractions. A node's mass is the product
    along its path of each level's float weights over their exact sum, so
    that it is the sum of its children's masses, as the measure's is; the
    float weights alone need not sum to 1 (9 fl(1/9) = 1 - 2^-54)."""
    lo = hi = Fraction(0)
    depth_used = 0
    stack = [(tree.root_region, Fraction(1), 0)]
    while stack:
        region, mass, depth = stack.pop()
        depth_used = max(depth_used, depth)
        verdict = classify(region, query)
        if verdict == measure._INSIDE:
            lo += mass
            hi += mass
        elif verdict == measure._UNDECIDED:
            if depth >= depth_budget:
                hi += mass
            else:
                weights = [Fraction(w) for w in tree.weights(depth + 1)]
                total = sum(weights)
                for idx, w in enumerate(weights):
                    stack.append((tree.child(region, depth + 1, idx), mass * w / total,
                                  depth + 1))
    return lo, hi, depth_used


def _angle_and_margin_sums(make, query, depth):
    """The exact leaf sums of region_measure's walk and of the margin's. The
    angle verdict decides every node the margin decides, and the same way,
    so its leaves' exact sums nest inside the margin's with no slack."""
    got = region_measure(make(), query, depth)
    assert got == _reference_dfs(make(), query, depth)[0]
    lo, hi, depth_used = _exact_leaf_sums(make(), query, depth, measure._classify_reference)
    margin_lo, margin_hi, margin_used = _exact_leaf_sums(make(), query, depth, _checked_margin)
    assert margin_lo <= lo and hi <= margin_hi
    assert got.depth_used == depth_used <= margin_used
    return lo, hi, margin_lo, margin_hi


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_angle_enclosures_lie_inside_margin_enclosures(data):
    # the query families of the DFS and level-walk tests, without early stop;
    # the float sums of the two walks' leaves round apart by more than their
    # depth would bound, so their exact sums are compared
    if data.draw(st.booleans()):
        make, query, depth, _ = _dfs_case(data.draw)
    else:
        make, query, depth = _level_walk_case(data.draw)
    _angle_and_margin_sums(make, query, depth)


def test_angle_enclosure_inside_margin_where_the_float_sums_do_not_nest():
    # 755 leaves against the margin's 1,971 give the same exact hi, yet their
    # float sums differ by 120 2^-53, above a slack of (4 depth + 16) 2^-52
    query = RegionQuery(ball=Ball(np.array([0.5, 0.25]), 0.5),
                        plane_cone=(Subspace(np.array([[1.0, 0.0]])), 1.0))

    def make():
        return lebesgue_tree(2, k=3)

    lo, hi, margin_lo, margin_hi = _angle_and_margin_sums(make, query, 4)
    assert hi == margin_hi and float(hi) == 0.6467001981405274
    assert margin_lo < lo
    got, margin = region_measure(make(), query, 4), _margin_dfs(make(), query, 4)
    assert got.hi - margin.hi == 120 * 2.0 ** -53


@pytest.mark.parametrize("depth", [6, 8, 10])
@pytest.mark.parametrize("alpha", [0.3, 0.5, 0.9, 1.0])
def test_ball_without_half_cone_holds_the_exact_sector(alpha, depth):
    # B \ H(x, theta, alpha) is a sector of angle 2 (pi - acos(alpha)); H of
    # opening 1 is empty, so the query is then the ball alone
    x, r = np.array([0.43, 0.57]), 0.14
    theta = np.array([math.cos(0.7), math.sin(0.7)])
    query = RegionQuery(ball=Ball(x, r), half_cone_excluded=(theta, alpha))
    exact = (1.0 - math.acos(alpha) / math.pi) * math.pi * r * r
    got = region_measure(lebesgue_tree(2), query, depth)
    margin = _margin_dfs(lebesgue_tree(2), query, depth)
    assert got.lo <= exact <= got.hi
    assert margin.lo <= got.lo and got.hi <= margin.hi
    if alpha < 1.0:
        assert got.width < margin.width
    else:
        assert got == region_measure(lebesgue_tree(2), RegionQuery(ball=Ball(x, r)), depth)


def test_plane_and_half_cone_ratio_in_three_dimensions():
    x, r, depth = np.array([0.43, 0.57, 0.51]), 0.1, 7
    V, theta, alpha = Subspace(np.eye(3)[:2]), np.array([1.0, 0.0, 0.0]), 0.25
    got = conical_ratio(lebesgue_tree(3), x, r, V, theta, alpha, depth)
    den = region_measure(lebesgue_tree(3), RegionQuery(ball=Ball(x, r)), depth)
    num = _margin_dfs(lebesgue_tree(3), RegionQuery(
        ball=Ball(x, r), plane_cone=(V, alpha), half_cone_excluded=(theta, alpha)), depth)
    margin = ratio_interval(num, den)
    assert (round(margin.lo, 3), round(margin.hi, 3)) == (0.048, 0.326)
    assert margin.lo <= got.lo and got.hi <= margin.hi
    assert got.width < margin.width

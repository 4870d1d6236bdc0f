import math

import numpy as np
import pytest

from conelab.density import (BallCollectionReport, check_ball_collection,
                             conical_ratio, constants_chain, density_profile,
                             halfspace_deficiency, ratio_interval,
                             two_sided_min_ratio, unit_ball_volume,
                             worst_cone_ratio)
from conelab.geometry import Subspace, build_direction_net, build_subspace_net
from conelab.measure import MeasureInterval, lebesgue_tree


def test_ratio_interval_rules():
    iv = ratio_interval(MeasureInterval(0.1, 0.2), MeasureInterval(0.4, 0.5))
    assert iv.lo == pytest.approx(0.2)
    assert iv.hi == pytest.approx(0.5)
    # denominator lower bound zero: hi falls back to 1
    iv = ratio_interval(MeasureInterval(0.1, 0.2), MeasureInterval(0.0, 0.5))
    assert iv.hi == 1.0
    with pytest.raises(ZeroDivisionError):
        ratio_interval(MeasureInterval(0.0, 0.1), MeasureInterval(0.0, 0.0))


def test_conical_ratio_halfline():
    tree = lebesgue_tree(1)
    V = Subspace.full(1)
    iv = conical_ratio(tree, np.array([0.5]), 0.25, V, np.array([1.0]), 0.5, 12)
    assert iv.contains(0.5)
    assert iv.width < 0.01


def test_halfspace_deficiency_1d():
    tree = lebesgue_tree(1)
    net = build_direction_net(1, 0.5)
    res = halfspace_deficiency(tree, np.array([0.5]), 0.25, 0.5, net, 12)
    assert res.lower_bound >= 0.49
    assert res.estimate.contains(0.5)
    assert res.enclosure.lo <= 0.5 <= res.enclosure.hi


def test_halfspace_deficiency_estimate_optional():
    tree = lebesgue_tree(1)
    net = build_direction_net(1, 0.5)
    res = halfspace_deficiency(tree, np.array([0.5]), 0.25, 0.5, net, 10,
                               compute_estimate=False)
    assert res.estimate is None
    assert res.enclosure.hi == 1.0


def test_worst_cone_ratio_positive_for_uniform():
    tree = lebesgue_tree(2)
    net = build_direction_net(2, 0.5)
    sub = build_subspace_net(2, 1, 0.5)
    res = worst_cone_ratio(tree, np.array([0.5, 0.5]), 0.2, 0.5, net, sub, 8,
                           compute_estimate=False, early_stop_lo=1e-6)
    assert res.lower_bound > 0.0
    assert 0 <= res.worst_cell[0] < sub.size
    assert 0 <= res.worst_cell[1] < net.size


# Values recorded with the per-function net minimization loops that the shared
# routine replaced; the enclosures must stay bit for bit the same. The first
# five were recorded again when the cone margin gave way to the angle
# verdict; each new bound lies inside its old one.
GOLDEN_NET_MIN = [
    ("halfspace", 7, True, None,
     0.5941151919866444, (0.7896494156928213, 0.9270740410347904), (2,)),
    ("halfspace", 7, False, None, 0.5941151919866444, None, (2,)),
    ("halfspace", 7, False, 0.3, 0.30029215358931555, None, (7,)),
    ("cone", 5, True, None,
     0.07530120481927711, (0.33433734939759036, 0.88671875), (2, 0)),
    ("cone", 5, False, None, 0.07530120481927711, None, (2, 0)),
    ("cone", 5, False, 0.02, 0.02108433734939759, None, (0, 0)),
]


@pytest.mark.parametrize("which,depth,estimate,stop,lower,est,cell",
                         GOLDEN_NET_MIN)
def test_net_min_golden(which, depth, estimate, stop, lower, est, cell):
    tree = lebesgue_tree(2)
    x, r, alpha = np.array([0.5, 0.5]), 0.3, 0.9
    net = build_direction_net(2, alpha)
    if which == "halfspace":
        res = halfspace_deficiency(tree, x, r, alpha, net, depth,
                                   compute_estimate=estimate,
                                   early_stop_lo=stop)
    else:
        sub = build_subspace_net(2, 1, alpha, seed=0)
        res = worst_cone_ratio(tree, x, r, alpha, net, sub, depth,
                               compute_estimate=estimate, early_stop_lo=stop)
    assert res.lower_bound == lower
    assert res.worst_cell == cell
    if est is None:
        assert res.estimate is None
    else:
        assert (res.estimate.lo, res.estimate.hi) == est
        assert res.estimate.depth_used == depth


def test_density_profile_running_sup_and_frequency():
    tree = lebesgue_tree(2)
    net = build_direction_net(2, 0.5)
    sub = build_subspace_net(2, 1, 0.5)
    prof = density_profile(tree, np.array([0.5, 0.5]), 0.5, 0.25, 3, net, sub,
                           c=1e-9, depth=10, early_stop_lo=1e-6)
    sup = prof.running_sup
    assert len(sup) == 3
    assert all(b >= a for a, b in zip(sup, sup[1:]))
    assert prof.frequency() == pytest.approx(
        sum(1 for v in prof.lower_bounds if v > 1e-9) / 3)


def test_two_sided_min_ratio_uniform_plane():
    tree = lebesgue_tree(2)
    V = Subspace(np.array([[1.0, 0.0]]))
    d, iv = two_sided_min_ratio(tree, np.array([0.5, 0.5]), 0.2, V, 0.5,
                                [np.array([1.0, 0.0])], 12)
    # each one-sided cone of opening 1/2 spans a sixth of the disk
    assert iv.contains(1.0 / 6.0)
    with pytest.raises(ValueError):
        two_sided_min_ratio(tree, np.array([0.5, 0.5]), 0.2, V, 0.5,
                            [np.array([0.0, 1.0])], 6)


def test_unit_ball_volume():
    assert unit_ball_volume(1) == pytest.approx(2.0)
    assert unit_ball_volume(2) == pytest.approx(math.pi)
    assert unit_ball_volume(3) == pytest.approx(4.0 * math.pi / 3.0)


def test_constants_chain_small_case():
    rep = constants_chain(1, 0, 0.8, 0.6)
    assert rep.K_dir == 2 and rep.K_sub == 1
    assert rep.q == 3 and rep.q_verified
    assert rep.c_thm3 == pytest.approx(1.0 / 162.0)
    assert rep.tau == pytest.approx(6.0)
    checks = rep.verify()
    assert all(checks.values()), checks


def test_constants_chain_requires_q_for_wide_codim():
    with pytest.raises(ValueError):
        constants_chain(3, 1, 2.5, 0.5)
    # prebuilt nets keep this test fast; only their sizes enter the chain
    from conelab.geometry import DirectionNet, SubspaceNet, direction_net_beta
    dirs = np.vstack([np.eye(3), -np.eye(3)])
    dir_net = DirectionNet(dirs, direction_net_beta(0.5), 0.5)
    sub_net = SubspaceNet((Subspace(np.array([[1.0, 0.0, 0.0],
                                              [0.0, 1.0, 0.0]])),), 0.5)
    rep = constants_chain(3, 1, 2.5, 0.5, q=5, dir_net=dir_net, sub_net=sub_net)
    assert rep.q == 5 and not rep.q_verified


def test_constants_chain_validation():
    with pytest.raises(ValueError):
        constants_chain(2, 1, 1.0, 0.5)  # needs m < s
    with pytest.raises(ValueError):
        constants_chain(2, 1, 2.0, 1.5)


def _toy_report():
    class R:
        t = 1.5
        q = 2
        m = 1
        c = 1e-6
    return R()


def test_check_ball_collection_flags():
    tree = lebesgue_tree(2)
    x = np.array([0.5, 0.5])
    sub = build_subspace_net(2, 1, 0.5)
    rep = _toy_report()
    r = 0.4
    rho = 0.01
    # many far-apart small balls arranged on a grid inside B(x, r)
    centers = [x + np.array([dx, dy])
               for dx in np.linspace(-0.25, 0.25, 6)
               for dy in np.linspace(-0.25, 0.25, 6)]
    balls = [(c, rho) for c in centers]
    out = check_ball_collection(tree, x, r, rep, balls, sub, depth=10)
    assert isinstance(out, BallCollectionReport)
    assert out.dilates_disjoint
    assert out.mass_bound
    assert out.all_pass == (out.dilates_disjoint and out.mass_bound
                            and out.transversality)
    # overlapping dilates fail condition 1
    close = [(x + np.array([0.0, 0.0]), rho), (x + np.array([0.02, 0.0]), rho)]
    out2 = check_ball_collection(tree, x, r, rep, close, sub, depth=8)
    assert not out2.dilates_disjoint
    # a ball escaping B(x, r) is a usage error
    with pytest.raises(ValueError):
        check_ball_collection(tree, x, 0.05, rep, balls, sub, depth=6)

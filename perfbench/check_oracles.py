"""Tests of the benchmark's exact oracles.

    python3 -m pytest -q perfbench/check_oracles.py

The oracles are checked against brute-force sums and dense angular grids,
then against conelab's own enclosures at small depths.
"""

import math
import os
import sys
from fractions import Fraction

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import oracles  # noqa: E402


def _node_masses(depth):
    """Exact masses of the depth-level dyadic intervals, left to right."""
    masses = [Fraction(1)]
    for level in range(1, depth + 1):
        q = Fraction(1, level + 2)
        masses = [m * w for m in masses for w in (1 - q, q)]
    return masses


@pytest.mark.parametrize("depth", [1, 4, 9])
def test_binomial_cdf_matches_node_sums(depth):
    masses = _node_masses(depth)
    assert sum(masses) == 1
    for a in range(2 ** depth + 1):
        t = Fraction(a, 2 ** depth)
        assert oracles.binomial_cdf(t) == sum(masses[:a])


def test_binomial_cdf_clips_and_rejects_non_dyadic():
    assert oracles.binomial_cdf(Fraction(-1, 4)) == 0
    assert oracles.binomial_cdf(Fraction(5, 4)) == 1
    with pytest.raises(ValueError):
        oracles.binomial_cdf(Fraction(1, 3))


def test_ball_masses():
    masses = _node_masses(3)
    # [1/8, 3/8] holds the depth-3 intervals 1 and 2
    assert oracles.binomial_ball(0.25, 0.125) == masses[1] + masses[2]
    assert oracles.binomial_ball(0.5, 2.0) == 1
    assert oracles.lebesgue_ball_1d(0.9, 0.25) == 1 - (Fraction(0.9) - Fraction(0.25))
    assert oracles.lebesgue_ball_1d(0.5, 0.125) == Fraction(1, 4)
    assert oracles.disk_area([0.5, 0.5], 0.25) == math.pi / 16
    with pytest.raises(ValueError):
        oracles.disk_area([0.1, 0.5], 0.25)


def _grid_ratio(line, theta, opening, count=400_000):
    ang = (np.arange(count) + 0.5) * (2 * math.pi / count)
    u = np.column_stack([np.cos(ang), np.sin(ang)])
    line = np.asarray(line) / np.linalg.norm(line)
    dist = np.abs(u @ np.array([-line[1], line[0]]))
    in_cone = dist < opening
    in_half = u @ np.asarray(theta) > opening
    return float(np.mean(in_cone & ~in_half))


@pytest.mark.parametrize("opening", [0.25, 0.5, 0.9])
def test_cone_ratio_matches_angular_grid(opening):
    rng = np.random.default_rng(3)
    for _ in range(20):
        phi, psi = rng.uniform(0, 2 * math.pi, 2)
        line = (math.cos(phi), math.sin(phi))
        theta = (math.cos(psi), math.sin(psi))
        got = oracles.cone_ratio_2d(line, theta, opening)
        assert abs(got - _grid_ratio(line, theta, opening)) < 1e-4
        assert 0.0 <= got <= oracles.cone_ratio_2d_sup(opening) + 1e-15


def test_halfspace_ratio():
    assert abs(oracles.halfspace_ratio_2d(0.5) - 2.0 / 3.0) <= oracles.slack(2.0 / 3.0, 2)


def test_doubling_count_range():
    masses = [Fraction(1), Fraction(1, 2), Fraction(1, 100), Fraction(1, 200)]
    c = 0.25
    assert oracles.doubling_count_range(masses, c, (), 0) == (2, 2)
    assert oracles.doubling_count_range(masses, c, (2,), 0) == (2, 2)
    assert oracles.doubling_count_range(masses, c, (1, 3), 0) == (0, 0)
    # a ratio exactly at c counts, and one ulp below it is ambiguous
    assert oracles.doubling_count_range([Fraction(1), Fraction(c)], c, (), 4) == (0, 1)


def test_triple_free_agrees_with_the_exhaustive_search():
    from conelab.configurations import find_cone_triple, search_counterexample_set

    assert not oracles.triple_free([[0.0, 0.0], [1.0, 0.0], [-1.0, 0.0]], 0.1, 16)
    found = search_counterexample_set(2, 0.1, 3, 200, seed=1)
    assert found is not None and oracles.triple_free(found, 0.1, 16)
    rng = np.random.default_rng(11)
    for _ in range(200):
        pts = rng.standard_normal((4, 2))
        alpha = float(rng.uniform(0.05, 1.0))
        assert oracles.triple_free(pts, alpha, 16) == (find_cone_triple(pts, alpha) is None)


# ---------------------------------------------------------------------------
# conelab's enclosures contain the oracle values at small depths


def test_binomial_enclosures_contain_exact_masses():
    from conelab.constructions import binomial_tree
    from conelab.measure import Ball, RegionQuery, region_measure

    tree = binomial_tree()
    rng = np.random.default_rng(7)
    for x in rng.uniform(0.0, 1.0, 12):
        for r in (0.3, 0.05, 0.004):
            iv = region_measure(tree, RegionQuery(ball=Ball(np.array([x]), r)), 24)
            exact = float(oracles.binomial_ball(float(x), r))
            assert oracles.contains(iv.lo, exact, iv.hi, 4 * 24 + 16)


def test_worst_cone_ratio_brackets_exact_net_minimum():
    from conelab.density import halfspace_deficiency, worst_cone_ratio
    from conelab.geometry import build_direction_net, build_subspace_net
    from conelab.measure import lebesgue_tree

    tree = lebesgue_tree(2)
    dir_net = build_direction_net(2, 0.5)
    sub_net = build_subspace_net(2, 1, 0.5, rejection_streak=300)
    lines = [V.frame[0] for V in sub_net.planes]
    x, r = np.array([0.4, 0.55]), 0.1
    res = worst_cone_ratio(tree, x, r, 0.5, dir_net, sub_net, 5)
    half = oracles.net_min_cone_ratio_2d(lines, dir_net.directions, 0.25)
    full = oracles.net_min_cone_ratio_2d(lines, dir_net.directions, 0.5)
    assert res.lower_bound <= half
    assert oracles.contains(res.estimate.lo, full, res.estimate.hi, 16)
    hs = halfspace_deficiency(tree, x, r, 0.5, dir_net, 6)
    assert oracles.contains(hs.estimate.lo, 2.0 / 3.0, hs.estimate.hi, 16)
    assert hs.lower_bound <= oracles.halfspace_ratio_2d(0.25)

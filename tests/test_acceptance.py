"""End-to-end acceptance suite: twelve numbered criteria, one test each.

Each test prints a single PASS line with the headline numbers once its
assertions hold, so a verbose run yields one verdict line per criterion.
"""

import math
import time

import numpy as np
import pytest

from conelab.configurations import (check_separated_inclusion, compute_t,
                                    find_cone_triple,
                                    search_counterexample_set)
from conelab.constructions import (binomial_tree, level_radius,
                                   override_schedule,
                                   perpendicular_cone_hits,
                                   schedule_constants,
                                   six_interval_constant, strip_block_tree,
                                   strip_weight_constant_fraction,
                                   horizontal_strip_ratio, support_point,
                                   verify_curve_exclusion)
from conelab.density import constants_chain, halfspace_deficiency, worst_cone_ratio
from conelab.geometry import (build_direction_net, build_subspace_net,
                              in_almost_halfspace, in_one_sided_cone,
                              in_plane_cone, random_unit_vectors)
from conelab.homogeneity import (dimension_bound, doubling_constant,
                                 doubling_frequency, hom_estimate)
from conelab.measure import Ball, RegionQuery, lebesgue_tree, region_measure
from fractions import Fraction


ALPHA = 0.5


@pytest.fixture(scope="module")
def dir_net_2():
    return build_direction_net(2, ALPHA, seed=0)


@pytest.fixture(scope="module")
def sub_net_2():
    return build_subspace_net(2, 1, ALPHA, seed=0)


def _report(line):
    print(f"\n{line}", flush=True)


def test_criterion_01_homogeneity_closed_forms():
    start = time.monotonic()
    leb = lebesgue_tree(2)
    est = hom_estimate(leb, 1, 8)
    assert all(abs(a - 1.0) <= 1e-12 for a in est.partials)
    from conelab.constructions import constant_binomial_tree
    q = 0.25
    binom = constant_binomial_tree(q)
    est_b = hom_estimate(binom, 1, 16)
    assert all(abs(a - 2.0 * q) <= 1e-12 for a in est_b.partials)
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    _report(f"criterion 01 PASS: hom partials 1.0 and {2*q} exact to 1e-12 "
            f"in {elapsed:.2f}s")


def test_criterion_02_entropy_dimension_bound():
    for q in (0.125, 0.25, 0.375):
        want = -(q * math.log(q) + (1 - q) * math.log(1 - q)) / math.log(2)
        got = dimension_bound(2, 1, 1, q)
        assert abs(got - want) <= 1e-9
    v = dimension_bound(2, 1, 1, 0.25)
    assert abs(v - 0.811278) <= 1e-6
    _report(f"criterion 02 PASS: entropy bound matches, value(1/4) = {v:.6f}")


def test_criterion_03_doubling_scales():
    start = time.monotonic()
    assert doubling_constant(1, 2, 0.5) == 0.0625
    leb = lebesgue_tree(1)
    st = doubling_frequency(leb, np.array([0.4]), 1.0, 2, 0.0625, 30, 45)
    assert st.frequency == 1.0
    tree = binomial_tree()
    p = 0.9
    c = doubling_constant(1, 2, p)
    pts = tree.sample_points(200, 45, seed=11)
    good = sum(
        1 for x in pts
        if doubling_frequency(tree, np.asarray(x), 1.0, 2, c, 30, 45).frequency >= p)
    elapsed = time.monotonic() - start
    assert good >= 180
    assert elapsed < 30.0
    _report(f"criterion 03 PASS: uniform frequency 1.0, {good}/200 sampled "
            f"points at frequency >= {p} in {elapsed:.1f}s")


def test_criterion_04_halfspace_deficiency(dir_net_2):
    start = time.monotonic()
    # 1-d: exact value 1/2 at every dyadic scale
    leb1 = lebesgue_tree(1)
    net1 = build_direction_net(1, ALPHA)
    c_thm3_1 = 1.0 / 162.0
    lows1 = []
    for j in range(1, 11):
        res = halfspace_deficiency(leb1, np.array([0.5]), 2.0 ** -j, ALPHA,
                                   net1, j + 12, compute_estimate=False)
        lows1.append(res.lower_bound)
        assert res.lower_bound >= 0.49
        assert res.lower_bound > c_thm3_1
    # 2-d: reported interval catches the oracle value 2/3 at depth 12
    leb2 = lebesgue_tree(2)
    res2 = halfspace_deficiency(leb2, np.array([0.5, 0.5]), 0.2, ALPHA,
                                dir_net_2, 12)
    assert res2.estimate.width <= 0.02
    assert res2.estimate.contains(2.0 / 3.0)
    c_thm3_2 = 1.0 / (9.0 * 3.0 ** 4 * dir_net_2.size)
    assert res2.lower_bound > c_thm3_2
    for j in range(1, 6):
        quick = halfspace_deficiency(leb2, np.array([0.5, 0.5]), 0.3 * 2.0 ** -j,
                                     ALPHA, dir_net_2, j + 10,
                                     compute_estimate=False,
                                     early_stop_lo=1e-3)
        assert quick.lower_bound > c_thm3_2
    elapsed = time.monotonic() - start
    assert elapsed < 120.0
    _report(f"criterion 04 PASS: 1-d lower bounds >= {min(lows1):.4f}, 2-d "
            f"interval [{res2.estimate.lo:.4f}, {res2.estimate.hi:.4f}] "
            f"covers 2/3, all above thresholds, in {elapsed:.1f}s")


def test_criterion_05_worst_cone_ratio_vs_constant_chain(dir_net_2, sub_net_2):
    rep = constants_chain(2, 1, 2.0, ALPHA, dir_net=dir_net_2,
                          sub_net=sub_net_2)
    checks = rep.verify()
    assert all(checks.values()), checks
    tree = lebesgue_tree(2)
    pts = tree.sample_points(20, 8, seed=4)
    for x in pts:
        x = np.asarray(x)
        r0 = min(0.5, float(np.min(x)), float(np.min(1.0 - x)))
        sup_log10 = -math.inf
        for j in range(1, 11):
            r = r0 * 2.0 ** -j
            depth = max(0, math.ceil(-math.log2(r))) + 9
            res = worst_cone_ratio(tree, x, r, ALPHA, dir_net_2,
                                   sub_net_2, depth, compute_estimate=False,
                                   early_stop_lo=1e-6)
            if res.lower_bound > 0.0:
                sup_log10 = max(sup_log10, math.log10(res.lower_bound))
            if sup_log10 > rep.c_log10:
                break
        assert sup_log10 > rep.c_log10
    _report(f"criterion 05 PASS: 20 points exceed log10(c) = {rep.c_log10:.3g} "
            f"within 10 scales; all {len(checks)} chain inequalities hold")


def test_criterion_06_separated_inclusion_suite():
    rng = np.random.default_rng(5)
    t06 = compute_t(0.6).t
    t10 = compute_t(1.0).t
    assert 18.0 <= t06 <= 18.001
    assert 2.0 <= t10 <= 2.001
    violations = 0
    for alpha in (0.3, 0.6, 1.0):
        t = compute_t(alpha).t
        psi_max = math.acos(math.sqrt(max(0.0, 1.0 - (alpha / t) ** 2)))
        for _ in range(1000):
            theta = random_unit_vectors(2, 1, rng)[0]
            perp = np.array([-theta[1], theta[0]])
            r_x = rng.uniform(0.1, 1.0)
            r_y = rng.uniform(0.1, 1.0)
            d = t * (r_x + r_y) * rng.uniform(1.01, 3.0)
            psi = rng.uniform(-0.99, 0.99) * psi_max
            y0 = d * (math.cos(psi) * theta + math.sin(psi) * perp)
            rng.integers(2 ** 32)  # unused draw, kept so that the 3,000 configurations stay fixed
            ok = check_separated_inclusion(np.zeros(2), r_x, y0, r_y, theta, alpha, t)
            if not ok:
                violations += 1
    assert violations == 0
    _report(f"criterion 06 PASS: 0 violations over 3x1000 configurations, "
            f"decided exactly; t(0.6) = {t06:.6f}, t(1.0) = {t10:.6f}")


def test_criterion_07_cone_triples():
    rng = np.random.default_rng(6)
    for _ in range(10_000):
        alpha = rng.uniform(0.01, 1.0)
        pts = rng.uniform(-10.0, 10.0, size=(3, 1))
        while len({float(p) for p in pts[:, 0]}) < 3:
            pts = rng.uniform(-10.0, 10.0, size=(3, 1))
        assert find_cone_triple(pts, alpha) is not None
    for _ in range(10_000):
        pts = rng.standard_normal((3, 2))
        assert find_cone_triple(pts, 1.0) is not None
    found = search_counterexample_set(2, 0.1, 3, 200, seed=1)
    assert found is not None
    assert find_cone_triple(found, 0.1) is None
    _report("criterion 07 PASS: triples always exist in 1-d and at full "
            "opening in 2-d (10^4 trials each); verified triple-free 3-point "
            "set found at alpha = 0.1")


def test_criterion_08_subspace_net_certificates(sub_net_2):
    rng = np.random.default_rng(8)
    count = 100_000
    frames = np.vstack([W.frame[0] for W in sub_net_2.planes])  # (K, 2)
    phis = rng.uniform(0.0, math.pi, size=count)
    lines = np.column_stack([np.cos(phis), np.sin(phis)])
    cosines = np.abs(lines @ frames.T)
    smax = np.minimum(1.0, cosines.max(axis=1))
    dists = np.sqrt(1.0 - smax ** 2)
    assert int(np.sum(dists >= ALPHA / 2.0)) == 0
    # points sampled strictly inside the covering plane's half-opening cone
    # must land in the covered plane's full-opening cone
    nearest = np.argmax(cosines, axis=1)
    net_phis = np.arctan2(frames[:, 1], frames[:, 0])[nearest]
    radii = rng.uniform(0.1, 10.0, size=count)
    psi = np.arcsin(rng.uniform(-1.0, 1.0, size=count) * (ALPHA / 2.0) * 0.999999)
    ang = net_phis + psi
    pts = radii[:, None] * np.column_stack([np.cos(ang), np.sin(ang)])
    # distance from each point to the original line V(phi)
    d_line = np.abs(pts[:, 0] * np.sin(phis) - pts[:, 1] * np.cos(phis))
    failures = int(np.sum(d_line >= ALPHA * radii))
    assert failures == 0
    _report(f"criterion 08 PASS: {count} lines covered within alpha/2 and "
            f"{count} cone samples included, 0 failures")


def test_criterion_09_six_interval_decay():
    start = time.monotonic()
    tree = binomial_tree()
    x, _ = support_point(tree, 34, seed=8)
    xf = float(x[0])
    vals = [six_interval_constant(tree, xf, 2.0 ** -lev, depth=lev + 4)
            for lev in range(8, 21)]
    assert all(v > 0 for v in vals)
    assert all(b <= a for a, b in zip(vals, vals[1:]))
    assert vals[-1] < 0.5 * vals[0]
    elapsed = time.monotonic() - start
    assert elapsed < 120.0
    _report(f"criterion 09 PASS: six-interval constants fall monotonically "
            f"from {vals[0]:.3g} to {vals[-1]:.3g} over levels 8..20 in "
            f"{elapsed:.1f}s")


def test_criterion_10_rotating_ball_cone_counts():
    start = time.monotonic()
    assert level_radius(2) == 1.0 / 16.0
    assert level_radius(3) == 1.0 / 288.0
    alpha = 0.9
    cap = math.ceil(10.0 / alpha) + 1
    reports = [perpendicular_cone_hits(n, alpha) for n in range(2, 65)]
    hits = [r["hits"] for r in reports]
    assert max(hits) <= cap
    ratios = [cap / r["level"] for r in reports]
    assert ratios[-1] < 0.5 * ratios[0]
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    _report(f"criterion 10 PASS: R_2 = 1/16, R_3 = 1/288 exact; hit counts "
            f"max {max(hits)} <= {cap} through level 64; ratio bound falls "
            f"{ratios[0]:.2f} -> {ratios[-1]:.3f} in {elapsed:.1f}s")


def test_criterion_11_strip_block_measure():
    assert strip_weight_constant_fraction(2) == Fraction(32, 85)
    assert schedule_constants(2).n == 471
    tree = strip_block_tree(override_schedule)
    kids = tree.children(())
    w = [wt for _, wt in kids]
    assert max(abs(a - b) for a, b in zip(w[:8], w[7::-1])) <= 1e-12
    reps = [verify_curve_exclusion(tree, level) for level in (1, 2)]
    assert all(rep.violations == 0 for rep in reps)
    x, trail = support_point(tree, 8, seed=3)
    ratios = []
    for lev in range(6):
        h = horizontal_strip_ratio(tree, trail[lev], x, 0.1)
        assert h["ratio"] <= h["bound"] + 1e-12
        ratios.append(h["ratio"])
    assert all(b < a for a, b in zip(ratios, ratios[1:]))
    _report(f"criterion 11 PASS: C_2 = 32/85, N_2 = 471, h-symmetric weights, "
            f"0 exclusion violations over all lines at levels 1-2 "
            f"({sum(r.pairs_checked for r in reps)} steep pairs, "
            f"{sum(r.triples_checked for r in reps)} shallow triples), horizontal ratios "
            f"fall {ratios[0]:.3f} -> {ratios[-1]:.3f} under 2/I bounds")


def _point_in_query(pt, query):
    if query.ball is not None:
        if float(np.linalg.norm(pt - query.ball.center)) > query.ball.radius:
            return False
    x = query.center
    if query.plane_cone is not None:
        V, a = query.plane_cone
        if not in_plane_cone(x, V, a, pt):
            return False
    if query.one_sided_cone is not None:
        th, a = query.one_sided_cone
        if not in_one_sided_cone(x, th, a, pt):
            return False
    if query.half_cone_excluded is not None:
        th, a = query.half_cone_excluded
        if in_almost_halfspace(x, th, a, pt):
            return False
    return True


def test_criterion_12_interval_soundness():
    rng = np.random.default_rng(12)
    # (tree, sample depth, shallow budget, deep budget); the strip tree has
    # fast-growing fans, so its budgets stay small
    cases = [(lebesgue_tree(2), 16, 8, 12), (binomial_tree(), 16, 8, 12),
             (strip_block_tree(override_schedule), 6, 4, 6)]
    checked = 0
    for tree, sample_depth, shallow_budget, deep_budget in cases:
        n = tree.ambient_dim
        pts = tree.sample_points(2000, sample_depth, seed=21)
        for _ in range(6):
            center = np.asarray(pts[int(rng.integers(len(pts)))])
            radius = float(rng.uniform(0.05, 0.4))
            query = RegionQuery(ball=Ball(center, radius))
            if n == 2 and rng.uniform() < 0.5:
                theta = random_unit_vectors(2, 1, rng)[0]
                query = RegionQuery(ball=Ball(center, radius),
                                    half_cone_excluded=(theta, 0.5))
            shallow = region_measure(tree, query, shallow_budget)
            deep = region_measure(tree, query, deep_budget)
            assert shallow.lo <= shallow.hi
            assert deep.lo <= deep.hi
            assert shallow.lo <= deep.lo + 1e-15
            assert deep.hi <= shallow.hi + 1e-15
            inside = sum(1 for p in pts if _point_in_query(np.asarray(p), query))
            frac = inside / len(pts)
            sigma = math.sqrt(max(frac * (1.0 - frac), 1.0 / len(pts)) / len(pts))
            assert frac >= deep.lo - 4.0 * sigma
            assert frac <= deep.hi + 4.0 * sigma
            checked += 1
    _report(f"criterion 12 PASS: {checked} random queries sound, nested and "
            f"within 4 sigma of sampling frequencies")

import math

import numpy as np
import pytest

from conelab.configurations import (check_separated_inclusion, compute_t,
                                    erdos_furedi_q, find_cone_triple,
                                    search_counterexample_set)
from conelab.geometry import in_one_sided_cone, random_unit_vectors


def test_find_cone_triple_1d_middle_point():
    rng = np.random.default_rng(0)
    for _ in range(50):
        pts = np.sort(rng.uniform(-5, 5, size=3)).reshape(-1, 1)
        triple = find_cone_triple(pts, 0.7)
        assert triple is not None
        assert triple.vertex == 1  # only the middle point sees both sides


def test_find_cone_triple_reverifies_exactly():
    pts = [np.array([0.0, 0.0]), np.array([1.0, 0.1]), np.array([-1.0, 0.2])]
    triple = find_cone_triple(pts, 0.8)
    assert triple is not None
    x0 = pts[triple.vertex]
    assert in_one_sided_cone(x0, triple.theta, 0.8, pts[triple.plus])
    assert in_one_sided_cone(x0, -triple.theta, 0.8, pts[triple.minus])


def test_find_cone_triple_none_for_narrow_bundle():
    # two points in nearly the same direction from the third, small opening
    pts = [np.zeros(2), np.array([1.0, 0.0]), np.array([1.0, 0.05])]
    assert find_cone_triple(pts, 0.1) is None


def test_find_cone_triple_validation():
    with pytest.raises(ValueError):
        find_cone_triple([np.zeros(2), np.ones(2)], 0.5)


def test_search_counterexample_1d_never_finds():
    assert search_counterexample_set(1, 0.5, 3, 200, seed=1) is None


def test_search_counterexample_2d_fullopen_never_finds():
    assert search_counterexample_set(2, 1.0, 3, 200, seed=1) is None


def test_search_counterexample_2d_small_alpha_finds():
    pts = search_counterexample_set(2, 0.1, 3, 200, seed=1)
    assert pts is not None
    assert find_cone_triple(pts, 0.1) is None
    # the property is preserved under taking subsets; with 3 points any
    # sub-triple is the set itself, so re-verification is the full check


def test_compute_t_values():
    t06 = compute_t(0.6)
    assert 18.0 <= t06.t <= 18.001
    assert t06.epsilon == pytest.approx((1.0 - 0.8) / 2.0)
    t10 = compute_t(1.0)
    assert 2.0 <= t10.t <= 2.001
    with pytest.raises(ValueError):
        compute_t(0.0)


@pytest.mark.parametrize("alpha", [1e-3, 0.005, 0.05, 0.5, 1.0])
def test_compute_t_meets_its_inequalities_or_names_the_one_it_breaks(alpha):
    try:
        sep = compute_t(alpha)
    except ArithmeticError as exc:
        assert any(f"breaks {name} at alpha" in str(exc) for name in (
            "(1 - (alpha/t)^2)^(1/2) >= 1 - eps", "(1 - eps) t - 1 > 0",
            "(1 - eps)/(1 + 1/t) - 1/(t + 1) > beta0"))
        return
    t, eps = sep.t, sep.epsilon
    beta0 = math.sqrt(max(0.0, 1.0 - alpha * alpha))
    assert math.sqrt(1.0 - (alpha / t) ** 2) >= 1.0 - eps
    assert (1.0 - eps) * t - 1.0 > 0.0
    assert (1.0 - eps) / (1.0 + 1.0 / t) - 1.0 / (t + 1.0) > beta0


def test_compute_t_monotone():
    grid = [0.2, 0.4, 0.6, 0.8, 1.0]
    vals = [compute_t(a).t for a in grid]
    assert all(b <= a for a, b in zip(vals, vals[1:]))


def test_erdos_furedi_q():
    q, verified = erdos_furedi_q(1, 0.3)
    assert q == 3 and verified
    with pytest.raises(ValueError):
        erdos_furedi_q(2, 0.3)
    q, verified = erdos_furedi_q(2, 0.3, default=7)
    assert q == 7 and not verified


def test_check_separated_inclusion_collinear():
    theta = np.array([1.0, 0.0])
    t = compute_t(0.5).t
    assert check_separated_inclusion(np.zeros(2), 1.0, np.array([4.0 * t, 0.0]),
                                     1.0, theta, 0.5, t)


def test_check_separated_inclusion_precondition_errors():
    theta = np.array([1.0, 0.0])
    t = compute_t(0.5).t
    with pytest.raises(ValueError, match="intersect"):
        check_separated_inclusion(np.zeros(2), 1.0, np.array([1.0, 0.0]),
                                  1.0, theta, 0.5, t)
    with pytest.raises(ValueError, match="cone"):
        check_separated_inclusion(np.zeros(2), 1.0, np.array([0.0, 4.0 * t]),
                                  1.0, theta, 0.5, t)


@pytest.mark.parametrize("alpha, t, name", [
    (1.5, 2.0, "alpha"), (2.0, 2.0, "alpha"), (0.0, 2.0, "alpha"),
    (-0.5, 2.0, "alpha"), (math.nan, 2.0, "alpha"),
    (0.5, 0.0, "t"), (0.5, -2.0, "t"), (0.5, math.inf, "t"), (0.5, math.nan, "t"),
])
def test_check_separated_inclusion_refuses_bad_alpha_and_t(alpha, t, name):
    with pytest.raises(ValueError, match=f"precondition failed: {name} = "):
        check_separated_inclusion((0.0, 0.0), 1.0, (10.0, 0.0), 1.0, (1.0, 0.0), alpha, t)


@pytest.mark.parametrize("r_x, r_y, name", [
    (-1.0, 1.0, "r_x"), (-1.0, -1.0, "r_x"), (math.nan, 1.0, "r_x"), (math.inf, 1.0, "r_x"),
    (1.0, -1.0, "r_y"), (1.0, -math.inf, "r_y"), (1.0, math.nan, "r_y"),
])
def test_check_separated_inclusion_refuses_bad_radii(r_x, r_y, name):
    with pytest.raises(ValueError, match=f"precondition failed: {name} = "):
        check_separated_inclusion((0.0, 0.0), r_x, (10.0, 0.0), r_y, (1.0, 0.0), 0.5, 2.0)


def test_check_separated_inclusion_takes_zero_radii():
    assert check_separated_inclusion((0.0, 0.0), 0.0, (10.0, 0.0), 0.0, (1.0, 0.0), 0.5, 2.0)


def _sampled_inclusion(x0, r_x, y0, r_y, theta, alpha, rng, samples=20_000):
    """Reference: boundary pairs x = x0 - r_x u, y = y0 + r_y u, whose offsets
    y - x cover the boundary sphere of B(y0 - x0, r_x + r_y); the convex cone
    holds that ball iff it holds the sphere."""
    u = random_unit_vectors(len(x0), samples, rng)
    d = (y0 + r_y * u) - (x0 - r_x * u)
    return bool(np.all(d @ theta > math.sqrt(1.0 - alpha * alpha) * np.linalg.norm(d, axis=1)))


@pytest.mark.parametrize("n", [2, 3])
def test_check_separated_inclusion_matches_sampled_reference(n):
    # t in [1, 4] is far below t(alpha), so the ball pokes out of the cone in
    # most configurations; cases within 1e-3 rho of the boundary are skipped
    rng = np.random.default_rng(60 + n)
    verdicts = []
    while len(verdicts) < 1000:
        alpha = rng.uniform(0.05, 1.0)
        t = rng.uniform(1.0, 4.0)
        theta = random_unit_vectors(n, 1, rng)[0]
        side = random_unit_vectors(n, 1, rng)[0]
        side -= (side @ theta) * theta
        side /= np.linalg.norm(side)
        r_x, r_y = rng.uniform(0.1, 1.0, size=2)
        rho = r_x + r_y
        psi = rng.uniform(0.0, 0.99) * math.asin(alpha / t)
        c = t * rho * rng.uniform(1.01, 3.0) * (math.cos(psi) * theta + math.sin(psi) * side)
        x0 = rng.uniform(-5.0, 5.0, size=n)
        y0 = x0 + c
        along = c @ theta
        margin = (alpha * along - math.sqrt(1.0 - alpha * alpha)
                  * np.linalg.norm(c - along * theta) - rho)
        if abs(margin) <= 1e-3 * rho:
            continue
        exact = check_separated_inclusion(x0, r_x, y0, r_y, theta, alpha, t)
        verdicts.append((exact, _sampled_inclusion(x0, r_x, y0, r_y, theta, alpha, rng)))
    assert all(exact == sampled for exact, sampled in verdicts)
    included = sum(exact for exact, _ in verdicts)
    assert 0 < included < len(verdicts)

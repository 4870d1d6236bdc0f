"""Opposite-cone point triples, the ball-separation constant t(alpha) and the
separated ball-inclusion test."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import in_one_sided_cone, random_unit_vectors, unit_vector
from .validate import require_int


@dataclass(frozen=True)
class ConeTriple:
    """Indices (vertex, plus-side, minus-side) and the witness direction."""

    vertex: int
    plus: int
    minus: int
    theta: np.ndarray


def _triple_witness(x0, x1, x2, alpha):
    """Best direction for the ordered triple, or None.

    A direction theta with x1 in the plus cone and x2 in the minus cone
    exists iff |u1 - u2| / 2 > sqrt(1 - alpha^2) with u_i the unit vectors
    from x0; the bisector of u1 and -u2 is the exact maximizer, so this test
    is exhaustive over all directions.
    """
    d1 = x1 - x0
    d2 = x2 - x0
    n1 = np.linalg.norm(d1)
    n2 = np.linalg.norm(d2)
    if n1 == 0.0 or n2 == 0.0:
        return None
    u = d1 / n1 - d2 / n2
    nu = float(np.linalg.norm(u))
    if 0.5 * nu <= math.sqrt(max(0.0, 1.0 - alpha * alpha)):
        return None
    return u / nu


def find_cone_triple(points, alpha: float) -> ConeTriple | None:
    """First triple (x0, x1, x2) admitting opposite one-sided cones at x0.

    Searches all ordered triples with the analytic bisector direction, which
    is optimal for each pair, so a None result certifies that no triple
    exists for any direction. Returned triples are re-verified exactly
    against the cone predicates.
    """
    pts = [np.asarray(p, dtype=float) for p in points]
    if len(pts) < 3:
        raise ValueError("need at least 3 points")
    if not 0.0 < alpha <= 1.0:
        raise ValueError("alpha must lie in (0, 1]")
    n = len(pts)
    for v in range(n):
        for a in range(n):
            if a == v:
                continue
            for b in range(a + 1, n):
                if b == v:
                    continue
                theta = _triple_witness(pts[v], pts[a], pts[b], alpha)
                if theta is None:
                    continue
                if (in_one_sided_cone(pts[v], theta, alpha, pts[a])
                        and in_one_sided_cone(pts[v], -theta, alpha, pts[b])):
                    return ConeTriple(v, a, b, theta)
    return None


def search_counterexample_set(n: int, alpha: float, size: int, trials: int,
                              seed: int) -> list | None:
    """Look for a triple-free point set of the given size.

    Tries random Gaussian sets plus adversarial sets clustered in a narrow
    direction bundle. A returned set certifies q(n, alpha) > size; None means
    no counterexample was found within the trial budget.
    """
    if size < 3:
        raise ValueError("size must be at least 3")
    require_int(seed, "seed", 0)
    rng = np.random.default_rng(seed)
    for trial in range(trials):
        if trial % 2 == 0:
            pts = rng.standard_normal((size, n))
        else:
            # points fanned out within a narrow angular bundle from the origin
            base = random_unit_vectors(n, 1, rng)[0]
            spread = 0.2 * alpha
            pts = np.zeros((size, n))
            for i in range(1, size):
                jitter = spread * rng.standard_normal(n)
                d = base + jitter
                pts[i] = rng.uniform(0.5, 2.0) * d / np.linalg.norm(d)
        if find_cone_triple(pts, alpha) is None:
            return [p for p in pts]
    return None


@dataclass(frozen=True)
class SeparationConstant:
    """t(alpha) with the epsilon used in its defining inequalities."""

    alpha: float
    epsilon: float
    t: float


def compute_t(alpha: float) -> SeparationConstant:
    """Smallest t (plus a 1e-6 nudge) satisfying the three separation
    inequalities; each constraint is solved in closed form and the result is
    re-verified."""
    if not 0.0 < alpha <= 1.0:
        raise ValueError("alpha must lie in (0, 1]")
    beta0 = math.sqrt(max(0.0, 1.0 - alpha * alpha))
    eps = (1.0 - beta0) / 2.0
    # (1 - (alpha/t)^2)^(1/2) >= 1 - eps
    t_a = alpha / math.sqrt(1.0 - (1.0 - eps) ** 2)
    # (1 - eps) t - 1 > 0
    t_b = 1.0 / (1.0 - eps)
    # (1-eps)/(1 + 1/t) - 1/(t+1) > beta0, i.e. t > 2 (1 + beta0) / (1 - beta0)
    t_c = 2.0 * (1.0 + beta0) / (1.0 - beta0)
    t = max(1.0, t_a, t_b, t_c) + 1e-6
    for holds, inequality in (
            (math.sqrt(1.0 - (alpha / t) ** 2) >= 1.0 - eps, "(1 - (alpha/t)^2)^(1/2) >= 1 - eps"),
            ((1.0 - eps) * t - 1.0 > 0.0, "(1 - eps) t - 1 > 0"),
            ((1.0 - eps) / (1.0 + 1.0 / t) - 1.0 / (t + 1.0) > beta0,
             "(1 - eps)/(1 + 1/t) - 1/(t + 1) > beta0")):
        if not holds:
            raise ArithmeticError(f"t = {t!r} breaks {inequality} at alpha = {alpha!r}")
    return SeparationConstant(alpha, eps, t)


def erdos_furedi_q(dim: int, alpha: float, default: int | None = None) -> tuple:
    """(q, verified) for the opposite-cone pigeonhole count in R^dim.

    q = 3 is exact for dim = 1 (cones are half-lines). Higher dimensions have
    no desk-verified value; callers must supply one, which is flagged as
    unverified.
    """
    if dim == 1:
        return 3, True
    if default is None:
        raise ValueError(
            f"q(n={dim}, alpha={alpha}) has no verified desk value; pass one explicitly")
    return default, False


def check_separated_inclusion(x0, r_x: float, y0, r_y: float, theta,
                              alpha: float, t: float) -> bool:
    """Exact test that B(y0, r_y) sits inside the plus cone of every x in
    B(x0, r_x).

    The offsets y - x fill B(c, rho) with c = y0 - x0 and rho = r_x + r_y.
    The plus cone {d : d . theta > b |d|}, b = sqrt(1 - alpha^2), has
    half-angle sine s = sqrt((1 - b)(1 + b)), and c lies at distance
    s (c . theta) - b |c - (c . theta) theta| from its complement; the ball
    fits iff that exceeds rho. The margin must also beat a bound on its
    rounding error, so that rounding can only turn True into False.

    Preconditions (verified, errors name the failed hypothesis): alpha lies
    in (0, 1], t is finite and positive, r_x and r_y are finite and
    non-negative, theta is a unit vector within 1e-12,
    the t-dilated balls are disjoint and y0 lies in the narrow cone of
    opening alpha/t at x0.
    """
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"precondition failed: alpha = {alpha!r} outside (0, 1]")
    if not (math.isfinite(t) and t > 0.0):
        raise ValueError(f"precondition failed: t = {t!r} is not finite and positive")
    for name, r in (("r_x", r_x), ("r_y", r_y)):
        if not (math.isfinite(r) and r >= 0.0):
            raise ValueError(f"precondition failed: {name} = {r!r} is not finite and non-negative")
    x0 = np.asarray(x0, dtype=float)
    y0 = np.asarray(y0, dtype=float)
    theta = unit_vector(theta)
    if np.linalg.norm(y0 - x0) <= t * (r_x + r_y):
        raise ValueError("precondition failed: B(x0, t r_x) and B(y0, t r_y) intersect")
    if not in_one_sided_cone(x0, theta, alpha / t, y0):
        raise ValueError("precondition failed: y0 not in the alpha/t cone at x0")
    c = y0 - x0
    rho = r_x + r_y
    b = math.sqrt(max(0.0, 1.0 - alpha * alpha))
    s = math.sqrt((1.0 - b) * (1.0 + b))
    along = float(c @ theta)
    dist = s * along - b * float(np.linalg.norm(c - along * theta))
    if dist <= rho:
        return False
    # each step rounds by a few ulps of |c|, and a theta off the unit sphere
    # by delta moves dist by at most (5 + 3/s) delta |c|
    n, eps = c.shape[0], float(np.finfo(float).eps)
    delta = abs(1.0 - float(np.linalg.norm(theta))) + n * eps
    slack = (8 * (n + 2) * eps + (5.0 + 3.0 / s) * delta) * max(float(np.linalg.norm(c)), rho)
    return dist - rho > slack

"""Exact reference values for the benchmark's correctness checks.

Nothing here calls conelab. The binomial measure (q_i = 1/(i+2) at level i,
left child 1 - q_i) has a CDF that is a finite sum over the binary digits of
a dyadic point, so ball masses are computed exactly in rationals. Lebesgue
masses of balls inside the unit cube are 2r (1-d) and pi r^2 (2-d). Planar
cone ratios of the Lebesgue measure reduce to arc lengths on the circle,
because a ball inside the support is a union of sectors of equal density.

Every check allows only the rounding error of the float computation it
checks, stated as a count of units in the last place (ulp).
"""

from __future__ import annotations

import math
from fractions import Fraction

EPS = 2.0 ** -52


def slack(value: float, ulps: float) -> float:
    """Absolute size of `ulps` units in the last place of `value`."""
    return ulps * EPS * max(abs(value), 2.0 ** -1022)


def contains(lo: float, value: float, hi: float, ulps: float) -> bool:
    """lo <= value <= hi, up to `ulps` units of rounding in the bounds."""
    tol = slack(value, ulps)
    return lo <= value + tol and value <= hi + tol


def default_q(level: int) -> Fraction:
    return Fraction(1, level + 2)


def binomial_cdf(t: Fraction, q=default_q) -> Fraction:
    """mu([0, t)) of the dyadic binomial measure, for a dyadic rational t.

    Each binary digit 1 at level i adds the mass of the left sibling, which
    is the running prefix mass times 1 - q_i. The expansion of a dyadic t is
    finite, so the sum is exact.
    """
    t = Fraction(t)
    if t <= 0:
        return Fraction(0)
    if t >= 1:
        return Fraction(1)
    den = t.denominator
    if den & (den - 1):
        raise ValueError(f"{t} is not a dyadic rational")
    total, mass, level = Fraction(0), Fraction(1), 0
    while t:
        level += 1
        t *= 2
        qi = q(level)
        if t >= 1:
            total += mass * (1 - qi)
            mass *= qi
            t -= 1
        else:
            mass *= 1 - qi
    return total


def binomial_ball(x: float, r: float, q=default_q) -> Fraction:
    """Exact mu([x - r, x + r]); the measure has no atoms, so closed and
    half-open intervals have the same mass."""
    x, r = Fraction(x), Fraction(r)
    return binomial_cdf(x + r, q) - binomial_cdf(x - r, q)


def lebesgue_ball_1d(x: float, r: float) -> Fraction:
    """Exact length of [x - r, x + r] intersected with [0, 1]."""
    x, r = Fraction(x), Fraction(r)
    return max(Fraction(0), min(Fraction(1), x + r) - max(Fraction(0), x - r))


def disk_area(x, r: float) -> float:
    """pi r^2, for a disk that lies inside the unit square."""
    if not all(r <= c <= 1.0 - r for c in x):
        raise ValueError("disk leaves the unit square")
    return math.pi * r * r


def doubling_count_range(masses, c: float, undecided, ulps: float) -> tuple:
    """Bounds on the certified doubling count implied by exact masses.

    masses[j] is the exact mass of B(x, gamma k^-j), j = 0..l. A scale the
    program did not list as undecided was decided, and a certified decision
    must agree with the exact ratio. Ratios within `ulps` of c may go either
    way. Returns (fewest, most) scales that may be counted.
    """
    c_hi = Fraction(c) * (1 + Fraction(ulps * EPS))
    c_lo = Fraction(c) * (1 - Fraction(ulps * EPS))
    skip = set(undecided)
    fewest = most = 0
    for j in range(1, len(masses)):
        if j in skip:
            continue
        small, large = masses[j], masses[j - 1]
        if small >= c_hi * large:
            fewest += 1
        if small >= c_lo * large:
            most += 1
    return fewest, most


# ---------------------------------------------------------------------------
# planar cone ratios of the Lebesgue measure


def _angle_gap(a: float, b: float) -> float:
    """Angular distance between directions a and b, in [0, pi]."""
    d = math.fmod(abs(a - b), 2.0 * math.pi)
    return 2.0 * math.pi - d if d > math.pi else d


def _arc_overlap(c1: float, h1: float, c2: float, h2: float) -> float:
    """Length shared by the open arcs c1 +- h1 and c2 +- h2 (h1 + h2 <= pi)."""
    return max(0.0, min(h1 + h2 - _angle_gap(c1, c2), 2.0 * min(h1, h2)))


def cone_ratio_2d(line, theta, opening: float) -> float:
    """mu(X(x, V, a) \\ H(x, theta, a)) / mu(B(x, r)) for Lebesgue measure.

    V is the line spanned by `line`. X is the double wedge of half-angle
    asin(a) around V and H the wedge of half-angle acos(a) around theta, so
    the ratio is an arc length over 2 pi.
    """
    phi = math.atan2(line[1], line[0])
    psi = math.atan2(theta[1], theta[0])
    a, b = math.asin(opening), math.acos(opening)
    arc = 4.0 * a - _arc_overlap(phi, a, psi, b) - _arc_overlap(phi + math.pi, a, psi, b)
    return arc / (2.0 * math.pi)


def net_min_cone_ratio_2d(lines, thetas, opening: float) -> float:
    """Exact minimum of cone_ratio_2d over every (plane, direction) net cell."""
    return min(cone_ratio_2d(v, t, opening) for v in lines for t in thetas)


def halfspace_ratio_2d(opening: float) -> float:
    """mu(B \\ H(x, theta, a)) / mu(B) for Lebesgue measure, any theta."""
    return 1.0 - math.acos(opening) / math.pi


def cone_ratio_2d_sup(opening: float) -> float:
    """Largest cone_ratio_2d over all cells: the whole double wedge. Any net
    minimum is at most this, whatever net the program built."""
    return 4.0 * math.asin(opening) / (2.0 * math.pi)


# ---------------------------------------------------------------------------
# opposite-cone triples


def triple_free(points, alpha: float, ulps: float) -> bool:
    """True when no vertex sees two other points in opposite one-sided cones.

    At vertex x0 a direction puts x1 and x2 in opposite cones of opening
    alpha exactly when |u1 - u2| / 2 > sqrt(1 - alpha^2), with u_i the unit
    vectors from x0. Pairs within `ulps` of the threshold count as free.
    """
    pts = [tuple(float(v) for v in p) for p in points]
    limit = math.sqrt(max(0.0, 1.0 - alpha * alpha))
    limit += slack(limit, ulps)
    for v, x0 in enumerate(pts):
        units = []
        for i, p in enumerate(pts):
            if i == v:
                continue
            d = [a - b for a, b in zip(p, x0)]
            n = math.sqrt(sum(c * c for c in d))
            if n == 0.0:
                continue
            units.append([c / n for c in d])
        for i in range(len(units)):
            for j in range(i + 1, len(units)):
                gap = math.sqrt(sum((a - b) ** 2 for a, b in zip(units[i], units[j])))
                if 0.5 * gap > limit:
                    return False
    return True

"""Explicit test measures: binomial trees, the rotating-ball hierarchy and
the strip/block measure, together with their construction constants."""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .measure import Ball, Box, MeasureTree, RegionQuery, kadic_tree, region_measure


# ---------------------------------------------------------------------------
# Binomial measure on [0,1)


def default_binomial_schedule(i: int) -> float:
    """Default weight schedule q_i = 1/(i+2): decreasing to 0, divergent sum."""
    return 1.0 / (i + 2)


def binomial_tree(q_fn=default_binomial_schedule) -> MeasureTree:
    """Dyadic tree on [0,1): at level i the left child gets 1 - q_i, the right q_i.

    Every generated q_i must lie strictly in (0, 1/2).
    """

    def weights(level):
        q = q_fn(level)
        if not 0.0 < q < 0.5:
            raise ValueError(f"binomial weight q_{level} = {q} outside (0, 1/2)")
        return 1.0 - q, q

    return kadic_tree(1, 2, weights)


def constant_binomial_tree(q: float) -> MeasureTree:
    return binomial_tree(lambda i: q)


# ---------------------------------------------------------------------------
# Rotating-ball hierarchy (plane, purely 1-unrectifiable support)


def rotation_angle(i: int) -> float:
    """Per-level rotation angle 1/sqrt(i)."""
    return 1.0 / math.sqrt(i)


def level_radius(n: int) -> float:
    """Radius of a level-n construction ball: R_0 = 1, R_n = R_{n-1} / (2 n^2)."""
    r = 1.0
    for i in range(1, n + 1):
        r /= 2.0 * i * i
    return r


def _rot_level(i: int):
    """Affine contractions z -> M_j z + t_j of the 2 i^2 children at level i.

    M_j depends on j only through the sign (-1)^j of its rotation, so this
    returns M for odd j, M for even j, and the list of t_j for j = 1..2 i^2.
    """
    s = 1.0 / (2.0 * i * i)
    a = rotation_angle(i)
    ca, sa = math.cos(a), math.sin(a)
    m_odd = s * np.array([[ca, sa], [-sa, ca]])
    m_even = s * np.array([[ca, -sa], [sa, ca]])
    shifts = [s * np.array([2.0 * j - 2.0 * i * i - 1.0, 0.0])
              for j in range(1, 2 * i * i + 1)]
    return m_odd, m_even, shifts


@dataclass(frozen=True, slots=True)
class _RotBall(Ball):
    """Rotating-ball node: m is the linear part of the composed contraction
    along its branch, whose translation is the center."""

    m: np.ndarray


def rotating_ball_tree() -> MeasureTree:
    """Ball hierarchy of the rotating-line construction.

    Level i refines each ball into 2 i^2 balls of radius R_i with uniform
    conditional weights; child centers come from exact composition of the
    contraction maps along the branch.
    """

    rot_level = functools.cache(_rot_level)

    def child_fn(region, i, idx):
        m_odd, m_even, shifts = rot_level(i)
        return _RotBall(region.m @ shifts[idx] + region.center, level_radius(i),
                        region.m @ (m_even if idx % 2 else m_odd))  # j = idx + 1

    return MeasureTree(_RotBall(np.zeros(2), 1.0, np.eye(2)),
                       lambda i: (1.0 / (2 * i * i),) * (2 * i * i), child_fn)


def level_ball_count(n: int) -> int:
    c = 1
    for i in range(1, n + 1):
        c *= 2 * i * i
    return c


def diameter_bookkeeping(n: int) -> dict:
    """Level-n ball count times radius and times diameter.

    count * R_n is exactly 1; the diameter sum is 2 since the root ball has
    diameter 2. Reported side by side because the two normalizations differ
    by that factor.
    """
    count = level_ball_count(n)
    radius = level_radius(n)
    return {
        "level": n,
        "count": count,
        "radius": radius,
        "count_times_radius": count * radius,
        "count_times_diameter": 2.0 * count * radius,
    }


# ---------------------------------------------------------------------------
# Strip/block measure (plane, purely 1-unrectifiable, horizontal cones thin)


def strip_weight_constant(i: int) -> float:
    """Normalizing constant of the per-level strip/block weights.

    Weights are C_i (2i)^{-|h - i^2 + 1/2|} over k in {0..i-1}, h in {0..2i^2-1}.
    """
    if i < 2:
        raise ValueError("strip/block levels start at i = 2")
    b = 2.0 * i
    # sum over h: each half-integer exponent u + 1/2, u = 0..i^2-1, occurs twice
    s_h = 2.0 * b ** -0.5 * (1.0 - b ** (-i * i)) / (1.0 - 1.0 / b)
    return 1.0 / (i * s_h)


def strip_weight_constant_fraction(i: int):
    """Exact C_i as a Fraction when 2i is a perfect square, else None."""
    root = math.isqrt(2 * i)
    if root * root != 2 * i:
        return None
    b = 2 * i
    s_h = 2 * Fraction(1, root) * (1 - Fraction(1, b) ** (i * i)) / (1 - Fraction(1, b))
    return 1 / (i * s_h)


@dataclass(frozen=True)
class ScheduleConstants:
    """Constants of the strip/block epoch schedule."""

    i: int
    c: float
    n: int  # smallest integer with (1 - c / (8 (2i)^(i^2 - 3/2)))^n < 1/2
    c_fraction: Fraction | None = None


def schedule_constants(i: int) -> ScheduleConstants:
    """C_i by normalization and the epoch count N_i, computed in log space."""
    if i < 2:
        raise ValueError("i must be at least 2")
    c = strip_weight_constant(i)
    log_x = math.log(c) - math.log(8.0) - (i * i - 1.5) * math.log(2.0 * i)
    if log_x > -300.0 * math.log(10.0):
        x = math.exp(log_x)
        n = math.floor(math.log(2.0) / -math.log1p(-x)) + 1
    else:
        n_float = math.exp(math.log(math.log(2.0)) - log_x)
        if n_float >= 2**62:
            raise OverflowError(f"N_{i} exceeds integer range: ~1e{math.log10(n_float):.0f}")
        n = int(round(n_float))
    return ScheduleConstants(i, c, n, strip_weight_constant_fraction(i))


def epoch_schedule(j: int) -> int:
    """Epoch schedule from the defining inequality: N_i copies of each level i.

    Impractically long past the first epoch (N_3 is about 1.1e7); use
    override_schedule for desk-scale density experiments.
    """
    if j < 1:
        raise ValueError("levels are 1-based")
    total = 0
    i = 2
    while True:
        total += schedule_constants(i).n
        if j <= total:
            return i
        i += 1


def override_schedule(j: int) -> int:
    """Desk-scale schedule I_j = j + 1: one level per strip count."""
    if j < 1:
        raise ValueError("levels are 1-based")
    return j + 1


@dataclass(frozen=True, slots=True)
class _StripBox(Box):
    """Strip/block node box carrying its composed map z -> scale z + shift."""

    scale: float
    shift: tuple


def strip_block_tree(schedule=override_schedule) -> MeasureTree:
    """Rectangle hierarchy of the strip/block measure.

    The base measure is the unit vertical segment {0} x [0,1]. At level j the
    2 I_j^3 maps f^{I_j}_{k,h}(z) = s z + s ((-1)^k I_j, 2 k I_j^2 + h),
    s = 1 / (2 I_j^3), are applied with weights C_{I_j} (2I_j)^{-|h - I_j^2 + 1/2|}
    (independent of k). Children are enumerated with flat index k * 2 I^2 + h.

    Node regions are certified support bounding boxes: the horizontal
    half-width is the support_halfwidth bound at the node's level, so every
    node region contains its whole subtree support.
    """
    halfwidth = functools.cache(functools.partial(support_halfwidth, schedule))
    root = _StripBox(np.array([0.0, 0.5]), np.array([halfwidth(0), 0.5]), 1.0, (0.0, 0.0))

    def weights_fn(j):
        i = schedule(j)
        c_i = strip_weight_constant(i)
        return [c_i * (2.0 * i) ** (-abs(h - i * i + 0.5)) for h in range(2 * i * i)] * i

    def child_fn(region, j, idx):
        i = schedule(j)
        sc = 1.0 / (2.0 * i ** 3)
        k, h = divmod(idx, 2 * i * i)
        s_par, (x_par, y_par) = region.scale, region.shift
        s = s_par * sc
        x = s_par * (((-1) ** k) * i * sc) + x_par
        y = s_par * ((2.0 * k * i * i + h) * sc) + y_par
        return _StripBox(np.array([x, y + 0.5 * s]),
                         np.array((halfwidth(j) * s, 0.5 * s)), s, (x, y))

    tree = MeasureTree(root, weights_fn, child_fn)
    tree.schedule = schedule
    return tree


def support_halfwidth(schedule, level: int) -> float:
    """Upper bound W on the horizontal support spread below a level-`level` node,
    relative to the node scale: spt lies in x-center +- W * scale."""
    w = 1.0  # safe bound on the tail beyond 20 levels (true spread < 0.14)
    for j in range(level + 20, level, -1):
        i = schedule(j)
        w = 1.0 / (2.0 * i * i) + w / (2.0 * i ** 3)
    return w


# ---------------------------------------------------------------------------
# Six-interval separation constant (binomial counterexample scan)


def six_interval_constant(tree: MeasureTree, x: float, r: float,
                          depth: int = 12) -> float:
    """Best achievable min-mass ratio for separated sub-intervals of (x-r, x+r).

    Searches all depth-level dyadic intervals strictly inside (x-r, x+r) for
    six-tuples whose 3-dilates are pairwise disjoint (indices at least 3
    apart), maximizing the smallest interval mass; returns that maximum
    divided by the upper bound of mu((x-3r, x+3r)). Returns 0 when no tuple
    fits.
    """
    if tree.k is None or tree.ambient_dim != 1:
        raise ValueError("six_interval_constant requires a 1-d k-adic cube tree")
    count, separation = 6, 3
    k = tree.k
    length = float(k) ** (-depth)
    a_min = math.floor((x - r) / length) + 1          # first index fully inside
    a_max = math.ceil((x + r) / length) - 2           # last index fully inside
    a_min = max(a_min, 0)
    a_max = min(a_max, k ** depth - 1)

    def address(a: int) -> tuple:
        digits = []
        for _ in range(depth):
            a, d = divmod(a, k)
            digits.append(d)
        return tuple(reversed(digits))

    masses = [tree.node_measure(address(a)) for a in range(a_min, a_max + 1)]
    # one max-min pass per pick: best[separation + i] is the largest smallest
    # mass of c picks, pairwise at least `separation` apart, among the first
    # i + 1 intervals; the leading entries stand for "no interval yet"
    best = [math.inf] * (separation + len(masses))  # c = 0: the empty tuple
    for _ in range(count):
        row = [-math.inf] * separation
        for i, m in enumerate(masses):
            row.append(max(row[-1], min(m, best[i])))
        best = row
    if best[-1] == -math.inf:
        return 0.0
    denom = region_measure(tree, RegionQuery(ball=Ball(np.array([x]), 3.0 * r)),
                           depth_budget=depth)
    return best[-1] / denom.hi if denom.hi > 0 else 0.0


# ---------------------------------------------------------------------------
# Straight-line exclusion checks for the strip/block measure
_SLOPE = math.sqrt(8.0)  # |u_x| >= |u|/3 iff |u_y| <= sqrt(8) |u_x|


@dataclass(frozen=True)
class CurveExclusionReport:
    level: int
    pairs_checked: int
    triples_checked: int
    vertical_violations: int
    horizontal_violations: int

    @property
    def violations(self) -> int:
        return self.vertical_violations + self.horizontal_violations


def _lines_meet(lo, hi) -> np.ndarray:
    """Per row: does a line y = s x + b, |s| <= sqrt(8), meet all its boxes?

    For s >= 0 it meets box i iff y0_i - s x1_i <= b <= y1_i - s x0_i, so iff
    g(s) = max_ij (a_ij + m_ij s) <= 0, a_ij = y0_i - y1_j, m_ij = x0_j - x1_i.
    min g over [0, sqrt 8] is the largest of the lower bounds that each line's
    least end value and each falling/rising pair's crossing (a positive-weight
    average of the two, constant in s) give. s <= 0 mirrors x.
    """
    # coordinate differences round by a relative u and crossings are positive
    # averages, so margins round by under 32 eps C, C the largest coordinate
    slack = 32.0 * float(np.finfo(float).eps) * np.abs([lo, hi]).max(initial=0.0)
    k = lo.shape[1]
    met = np.zeros(len(lo), dtype=bool)
    for x0, x1 in ((lo[..., 0], hi[..., 0]), (-hi[..., 0], -lo[..., 0])):
        a = (lo[:, :, None, 1] - hi[:, None, :, 1]).reshape(-1, k * k)
        m = (x0[:, None, :] - x1[:, :, None]).reshape(-1, k * k)
        ends = np.where(m >= 0.0, a, a + m * _SLOPE).max(axis=1, initial=-np.inf)
        mk, ml, ak, al = m[:, :, None], m[:, None, :], a[:, :, None], a[:, None, :]
        cross = (mk < 0.0) & (ml > 0.0)
        at = np.where(cross, (ml * ak - mk * al) / np.where(cross, ml - mk, 1.0), -np.inf)
        met |= np.maximum(ends, at.max(axis=(1, 2), initial=-np.inf)) <= slack
    return met


def _strips(tree: MeasureTree, region, level: int) -> list:
    """The strips below a level - 1 node with the given region, by k index:
    per strip, the (lo, hi) corners of its first and of its last block in
    ascending y. Blocks of one strip share their center x and half-widths, so
    the first block's lo and the last block's hi span the whole strip."""
    i = tree.schedule(level)
    fan = 2 * i * i
    out = []
    for k in range(i):
        first, last = (tree.child(region, level, idx) for idx in (k * fan, (k + 1) * fan - 1))
        out.append(((first.center - first.half, first.center + first.half),
                    (last.center - last.half, last.center + last.half)))
    return out


def verify_curve_exclusion(tree: MeasureTree, level: int) -> CurveExclusionReport:
    """Straight-line proxy for the C^1-curve exclusion of the strip/block set.

    Steep lines (|dy| >= |d|/3) must miss the top block of a strip or the
    bottom block of the next strip, for every consecutive strip pair below a
    level-`level` node. Shallow lines (|dx| >= |d|/3) may hit at most two
    strips per level-(level+1) group. Block extents use certified support
    bounding boxes, so reported violations are conservative.
    Every line is decided: each met pair or triple is one violation.
    """
    parents = [tree.root_region]
    for j in range(1, level + 1):
        parents = [tree.child(p, j, c) for p in parents for c in range(len(tree.weights(j)))]
    pairs, triples = [], []
    for region in parents:
        strips = _strips(tree, region, level + 1)
        pairs += [list(zip(below[1], above[0])) for below, above in zip(strips, strips[1:])]
        triples += [list(zip(*((first[0], last[1]) for first, last in trio)))
                    for trio in itertools.combinations(strips, 3)]
    pairs = np.array(pairs)[..., ::-1]  # x and y swapped: steep lines become shallow
    triples = np.array(triples, dtype=float).reshape(-1, 2, 3, 2)
    return CurveExclusionReport(level, len(pairs), len(triples),
                                int(_lines_meet(pairs[:, 0], pairs[:, 1]).sum()),
                                int(_lines_meet(triples[:, 0], triples[:, 1]).sum()))


# ---------------------------------------------------------------------------
# Exact cone-hit counting for the rotating-ball hierarchy


def ball_hits_plane_cone(x, direction, alpha: float, center, radius: float) -> bool:
    """Exact test: does B(center, radius) meet the planar two-sided cone
    X(x, span(direction), alpha)?

    The cone is the open double wedge of half-angle asin(alpha) around the
    +-direction axis; the distance from a point to the wedge is computed in
    closed form, so the test has no slack.
    """
    if not 0.0 < alpha <= 1.0:
        raise ValueError("alpha must lie in (0, 1]")
    if alpha == 1.0:
        return True  # the cone is the whole plane minus the apex
    x = np.asarray(x, dtype=float)
    d = np.asarray(direction, dtype=float)
    d = d / np.linalg.norm(d)
    v = np.asarray(center, dtype=float) - x
    b = float(np.linalg.norm(v))
    if b <= radius:
        return radius > 0.0
    gamma = math.asin(alpha)
    cosi = abs(float(v @ d)) / b
    psi = math.acos(min(1.0, max(-1.0, cosi)))  # angle to the nearest axis ray
    if psi < gamma:
        return True
    dist = b * math.sin(min(psi - gamma, 0.5 * math.pi))
    return dist < radius


def perpendicular_cone_hits(level: int, alpha: float) -> dict:
    """Sibling-fan cone hit count at one level of the rotating-ball tree.

    Takes the fan of 2 level^2 siblings at the given level, puts x at the
    center of the middle sibling (0-based index level^2), takes the scale
    r = level * R_level, orients the cone perpendicular to the fan line, and
    counts siblings whose ball meets both the cone and B(x, r).

    Every fan of a level is the same configuration up to a similarity, so
    the count is evaluated in the parent's local frame: the sibling centers
    are the shifts of _rot_level (fan along the first axis, parent ball of
    radius 1). Global coordinates would cancel catastrophically once
    R_level drops below the double-precision resolution of the ambient
    position.
    """
    _, _, shifts = _rot_level(level)
    centers = np.array(shifts)
    count = len(shifts)
    s = 1.0 / count  # sibling radius relative to the parent ball
    perp = np.array([0.0, 1.0])
    x = centers[level * level]
    r = level * s
    near = centers[np.linalg.norm(centers - x, axis=1) < r + s]
    hits = sum(1 for c in near if ball_hits_plane_cone(x, perp, alpha, c, s))
    return {"level": level, "hits": hits, "radius": level_radius(level),
            "scale": level * level_radius(level), "fan_size": count}


# ---------------------------------------------------------------------------
# Horizontal-cone strip ratios for the strip/block measure


def _box_hits_horizontal_cone(x, alpha: float, lo, hi) -> bool:
    """Exact rectangle test against X(x, horizontal axis, alpha), alpha < 1."""
    c = alpha / math.sqrt(1.0 - alpha * alpha)
    dy_min = max(lo[1] - x[1], x[1] - hi[1], 0.0)
    dx_max = max(abs(lo[0] - x[0]), abs(hi[0] - x[0]))
    if lo[0] <= x[0] <= hi[0] and lo[1] <= x[1] <= hi[1]:
        return True
    return dy_min < c * dx_max


def horizontal_strip_ratio(tree: MeasureTree, addr: tuple, x, alpha: float) -> dict:
    """Conditional mass of the child strips met by the horizontal cone at x.

    Strips below the node at addr are grouped by their k index; each carries
    conditional mass 1/I. Strip extents use certified support bounding boxes,
    so the hit count is conservative. The two-column geometry keeps the count
    at 2 for small alpha, giving the ratio bound 2/I.
    """
    j = len(addr) + 1
    i = tree.schedule(j)
    fan, weights = 2 * i * i, tree.weights(j)
    x = np.asarray(x, dtype=float)
    hit_mass = 0.0
    hits = 0
    for k, (first, last) in enumerate(_strips(tree, tree.node(addr)[0], j)):
        if _box_hits_horizontal_cone(x, alpha, first[0], last[1]):
            hits += 1
            hit_mass += sum(weights[k * fan:(k + 1) * fan])
    return {"level": j, "strip_count": i, "hits": hits,
            "ratio": hit_mass, "bound": 2.0 / i}


def support_point(tree: MeasureTree, levels: int, seed: int = 0):
    """A measure-generic support point: descend `levels` levels sampling
    children by conditional weight, then return the final region center.

    Also returns the visited addresses so callers can evaluate per-level
    statistics along the branch.
    """
    trail, region = tree.sample_branch(np.random.default_rng(seed), levels)
    return np.asarray(region.center, dtype=float), trail

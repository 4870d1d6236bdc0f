"""Explicit test measures: binomial trees, the rotating-ball hierarchy and
the strip/block measure, together with their construction constants."""

from __future__ import annotations

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

    def weight(level, flat):
        q = q_fn(level)
        if not 0.0 < q < 0.5:
            raise ValueError(f"binomial weight q_{level} = {q} outside (0, 1/2)")
        return 1.0 - q if flat == 0 else q

    return kadic_tree(1, 2, weight)


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


def _rot_map(i: int, j: int):
    """Affine contraction (M, t): z -> M z + t for child j at level i."""
    s = 1.0 / (2.0 * i * i)
    a = rotation_angle(i)
    sign = -1.0 if j % 2 == 1 else 1.0  # (-1)^j with 1-based j
    ca, sa = math.cos(a), math.sin(a)
    m = s * np.array([[ca, -sign * sa], [sign * sa, ca]])
    t = s * np.array([2.0 * j - 2.0 * i * i - 1.0, 0.0])
    return m, t


def rotating_ball_tree(depth: int | None = None) -> MeasureTree:
    """Ball hierarchy of the rotating-line construction.

    Level i refines each ball into 2 i^2 balls of radius R_i with uniform
    conditional weights; child centers come from exact composition of the
    contraction maps along the branch. depth, when given, caps generation.
    """
    maps: dict[tuple, tuple] = {(): (np.eye(2), np.zeros(2))}

    def composed(addr: tuple):
        got = maps.get(addr)
        if got is not None:
            return got
        m_par, t_par = composed(addr[:-1])
        mc, tc = _rot_map(len(addr), addr[-1] + 1)  # child index is 0-based
        out = (m_par @ mc, m_par @ tc + t_par)
        maps[addr] = out
        return out

    def children_fn(addr, region):
        i = len(addr) + 1
        if depth is not None and i > depth:
            raise ValueError(f"tree generated to depth {depth} only")
        m_par, t_par = composed(addr)
        radius = level_radius(i)
        count = 2 * i * i
        out = []
        for j in range(1, count + 1):
            _, tc = _rot_map(i, j)
            center = m_par @ tc + t_par
            out.append((Ball(center, radius), 1.0 / count))
        return out

    return MeasureTree(Ball(np.zeros(2), 1.0), children_fn, kind="ball",
                       validate_containment=True)


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


def _strip_map(i: int, k: int, h: int):
    """Scale and translation of the map f^i_{k,h}; all maps are axis-aligned."""
    s = 1.0 / (2.0 * i ** 3)
    t = np.array([((-1) ** k) * i * s, (2.0 * k * i * i + h) * s])
    return s, t


def strip_block_tree(schedule=override_schedule) -> MeasureTree:
    """Rectangle hierarchy of the strip/block measure.

    The base measure is the unit vertical segment {0} x [0,1]. At level j the
    2 I_j^3 maps f^{I_j}_{k,h} are applied with weights C_{I_j} (2I_j)^{-|h - I_j^2 + 1/2|}
    (independent of k). Children are enumerated with flat index k * 2 I^2 + h.

    Node regions are certified support bounding boxes: the horizontal
    half-width is the support_halfwidth bound at the node's level, so every
    node region contains its whole subtree support.
    """
    affine: dict[tuple, tuple] = {(): (1.0, np.zeros(2))}

    def composed(addr: tuple):
        got = affine.get(addr)
        if got is not None:
            return got
        s_par, t_par = composed(addr[:-1])
        j = len(addr)
        i = schedule(j)
        k, h = divmod(addr[-1], 2 * i * i)
        sc, tc = _strip_map(i, k, h)
        out = (s_par * sc, s_par * tc + t_par)
        affine[addr] = out
        return out

    root = Box(np.array([0.0, 0.5]),
               np.array([support_halfwidth(schedule, 0), 0.5]))

    def children_fn(addr, region):
        j = len(addr) + 1
        i = schedule(j)
        c_i = strip_weight_constant(i)
        s_par, t_par = composed(addr)
        w_child = support_halfwidth(schedule, j)
        out = []
        for k in range(i):
            for h in range(2 * i * i):
                sc, tc = _strip_map(i, k, h)
                s = s_par * sc
                t = s_par * tc + t_par
                center = np.array([t[0], t[1] + 0.5 * s])
                w = c_i * (2.0 * i) ** (-abs(h - i * i + 0.5))
                out.append((Box(center, np.array([w_child * s, 0.5 * s])), w))
        return out

    tree = MeasureTree(root, children_fn, kind="rect")
    tree.schedule = schedule
    return tree


def support_halfwidth(schedule, level: int, lookahead: int = 20) -> float:
    """Upper bound W on the horizontal support spread below a level-`level` node,
    relative to the node scale: spt lies in x-center +- W * scale."""
    w = 1.0  # safe bound on the tail beyond the lookahead (true spread < 0.14)
    for j in range(level + lookahead, level, -1):
        i = schedule(j)
        w = 1.0 / (2.0 * i * i) + w / (2.0 * i ** 3)
    return w


# ---------------------------------------------------------------------------
# Six-interval separation constant (binomial counterexample scan)


def six_interval_constant(tree: MeasureTree, x: float, r: float,
                          count: int = 6, separation: int = 3,
                          depth: int = 12) -> float:
    """Best achievable min-mass ratio for separated sub-intervals of (x-r, x+r).

    Searches all depth-level dyadic intervals strictly inside (x-r, x+r) for
    count-tuples whose separation-dilates are pairwise disjoint, maximizing
    the smallest interval mass; returns that maximum divided by the upper
    bound of mu((x-3r, x+3r)). Returns 0 when no tuple fits.
    """
    if tree.kind != "cube" or tree.ambient_dim != 1:
        raise ValueError("six_interval_constant requires a 1-d cube tree")
    if count < 2 or separation < 1:
        raise ValueError("need count >= 2 and separation >= 1")
    k = tree.k
    length = float(k) ** (-depth)
    a_min = math.floor((x - r) / length) + 1          # first index fully inside
    a_max = math.ceil((x + r) / length) - 2           # last index fully inside
    a_min = max(a_min, 0)
    a_max = min(a_max, k ** depth - 1)
    if a_max - a_min + 1 < count:
        return 0.0

    def address(a: int) -> tuple:
        digits = []
        for _ in range(depth):
            a, d = divmod(a, k)
            digits.append(d)
        return tuple(reversed(digits))

    indices = list(range(a_min, a_max + 1))
    masses = [tree.node_measure(address(a)) for a in indices]

    def feasible(threshold: float) -> bool:
        picked = 0
        last = None
        for a, m in zip(indices, masses):
            if m >= threshold and (last is None or a - last >= separation):
                picked += 1
                last = a
                if picked >= count:
                    return True
        return False

    levels = sorted(set(masses), reverse=True)
    lo_i, hi_i = 0, len(levels) - 1
    if not feasible(levels[hi_i]):
        return 0.0
    # binary search for the largest threshold that still admits a tuple
    while lo_i < hi_i:
        mid = (lo_i + hi_i) // 2
        if feasible(levels[mid]):
            hi_i = mid
        else:
            lo_i = mid + 1
    best = levels[hi_i]
    denom = region_measure(tree, RegionQuery(ball=Ball(np.array([x]), 3.0 * r)),
                           depth_budget=depth)
    return best / denom.hi if denom.hi > 0 else 0.0


# ---------------------------------------------------------------------------
# Straight-line exclusion checks for the strip/block measure


@dataclass(frozen=True)
class CurveExclusionReport:
    level: int
    lines_checked: int
    vertical_checked: int
    horizontal_checked: int
    vertical_violations: int
    horizontal_violations: int

    @property
    def violations(self) -> int:
        return self.vertical_violations + self.horizontal_violations


def _line_hits_rect(p: np.ndarray, u: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> bool:
    """Does the infinite line p + t*u meet the axis-aligned rectangle [lo, hi]?"""
    corners = np.array([[lo[0], lo[1]], [lo[0], hi[1]], [hi[0], lo[1]], [hi[0], hi[1]]])
    cross = (corners[:, 0] - p[0]) * u[1] - (corners[:, 1] - p[1]) * u[0]
    return bool(cross.min() <= 0.0 <= cross.max())


def verify_curve_exclusion(tree: MeasureTree, level: int, trials: int,
                           seed: int) -> CurveExclusionReport:
    """Straight-line proxy for the C^1-curve exclusion of the strip/block set.

    Steep lines (|dy| >= |d|/3) must miss the top block of a strip or the
    bottom block of the next strip, for every consecutive strip pair below a
    level-`level` node. Shallow lines (|dx| >= |d|/3) may hit at most two
    strips per level-(level+1) group. Block extents use certified support
    bounding boxes, so reported violations are conservative.
    """
    schedule = tree.schedule
    i_next = schedule(level + 1)
    w_child = support_halfwidth(schedule, level + 1)

    def node_boxes(addr):
        """(vertical-pair boxes, strip boxes) of the children of a parent node."""
        region, _ = tree.node(addr)
        kids = tree.children(addr)
        s_child = 2.0 * kids[0][0].half[1]
        pairs = []
        strips = []
        for k in range(i_next):
            blocks = [kids[k * 2 * i_next * i_next + h][0] for h in range(2 * i_next * i_next)]
            cx = blocks[0].center[0]
            y_lo = blocks[0].center[1] - blocks[0].half[1]
            y_hi = blocks[-1].center[1] + blocks[-1].half[1]
            half_w = w_child * s_child
            strips.append((np.array([cx - half_w, y_lo]), np.array([cx + half_w, y_hi])))
            top = blocks[-1]
            bottom = blocks[0]
            if k + 1 < i_next:
                nxt = kids[(k + 1) * 2 * i_next * i_next][0]
                pairs.append((
                    (np.array([top.center[0] - half_w, top.center[1] - top.half[1]]),
                     np.array([top.center[0] + half_w, top.center[1] + top.half[1]])),
                    (np.array([nxt.center[0] - half_w, nxt.center[1] - nxt.half[1]]),
                     np.array([nxt.center[0] + half_w, nxt.center[1] + nxt.half[1]])),
                ))
        return pairs, strips

    parents: list[tuple] = [()]
    for j in range(level):
        i_j = schedule(j + 1)
        parents = [addr + (c,) for addr in parents for c in range(2 * i_j ** 3)]
    geometry = [node_boxes(addr) for addr in parents]

    rng = np.random.default_rng(seed)
    vert = horiz = vviol = hviol = 0
    for _ in range(trials):
        p = np.array([rng.uniform(-1.0, 1.0), rng.uniform(0.0, 1.0)])
        ang = rng.uniform(0.0, math.pi)
        u = np.array([math.cos(ang), math.sin(ang)])
        is_vertical = abs(u[1]) >= 1.0 / 3.0
        is_horizontal = abs(u[0]) >= 1.0 / 3.0
        if is_vertical:
            vert += 1
            for pairs, _ in geometry:
                if any(_line_hits_rect(p, u, *a) and _line_hits_rect(p, u, *b)
                       for a, b in pairs):
                    vviol += 1
                    break
        if is_horizontal:
            horiz += 1
            for _, strips in geometry:
                hits = sum(_line_hits_rect(p, u, lo, hi) for lo, hi in strips)
                if hits > 2:
                    hviol += 1
                    break
    return CurveExclusionReport(level, trials, vert, horiz, vviol, hviol)


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


def perpendicular_cone_hits(tree: MeasureTree, level: int, alpha: float) -> dict:
    """Sibling-fan cone hit count at one level of the rotating-ball tree.

    Follows the middle-child branch to the given level, takes x at the node
    center and the scale r = level * R_level, orients the cone perpendicular
    to the sibling fan line, and counts siblings whose ball meets both the
    cone and B(x, r).

    Sibling centers are exactly collinear and the configuration is
    similarity-invariant, so the count is evaluated in the parent's local
    frame (fan along the first axis, parent ball of radius 1). Global
    coordinates would cancel catastrophically once R_level drops below the
    double-precision resolution of the ambient position.
    """
    addr: tuple = ()
    for j in range(1, level):
        addr = addr + (j * j,)  # middle child of the 2 j^2 fan
    kids = tree.children(addr)
    count = len(kids)
    s = 1.0 / count  # sibling radius relative to the parent ball
    centers = [np.array([(2.0 * j - count - 1.0) * s, 0.0])
               for j in range(1, count + 1)]
    perp = np.array([0.0, 1.0])
    x = centers[level * level]  # middle child, matching the branch choice
    r = level * s
    hits = sum(
        1 for c in centers
        if np.linalg.norm(c - x) < r + s
        and ball_hits_plane_cone(x, perp, alpha, c, s))
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
    schedule = tree.schedule
    j = len(addr) + 1
    i = schedule(j)
    kids = tree.children(addr)
    w_child = support_halfwidth(schedule, j)
    x = np.asarray(x, dtype=float)
    hit_mass = 0.0
    hits = 0
    for k in range(i):
        blocks = [kids[k * 2 * i * i + h] for h in range(2 * i * i)]
        cx = blocks[0][0].center[0]
        half_w = w_child * 2.0 * blocks[0][0].half[1]
        y_lo = blocks[0][0].center[1] - blocks[0][0].half[1]
        y_hi = blocks[-1][0].center[1] + blocks[-1][0].half[1]
        if _box_hits_horizontal_cone(x, alpha, np.array([cx - half_w, y_lo]),
                                     np.array([cx + half_w, y_hi])):
            hits += 1
            hit_mass += sum(w for _, w in blocks)
    return {"level": j, "strip_count": i, "hits": hits,
            "ratio": hit_mass, "bound": 2.0 / i}


def support_point(tree: MeasureTree, levels: int, seed: int = 0):
    """A measure-generic support point: descend `levels` levels sampling
    children by conditional weight, then return the final region center.

    Also returns the visited addresses so callers can evaluate per-level
    statistics along the branch.
    """
    rng = np.random.default_rng(seed)
    addr: tuple = ()
    trail = [()]
    for _ in range(levels):
        kids = tree.children(addr)
        weights = np.array([w for _, w in kids])
        addr = addr + (int(rng.choice(len(kids), p=weights / weights.sum())),)
        trail.append(addr)
    region, _ = tree.node(addr)
    return np.asarray(region.center, dtype=float), trail

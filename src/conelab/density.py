"""Conical density ratios and profiles, the ball-collection checker and the
full constant dependency chain."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .configurations import compute_t, erdos_furedi_q
from .geometry import (DirectionNet, Subspace, SubspaceNet,
                       build_direction_net, build_subspace_net)
from .homogeneity import dimension_bound
from .measure import Ball, MeasureInterval, MeasureTree, RegionQuery, region_measure


def ratio_interval(num: MeasureInterval, den: MeasureInterval) -> MeasureInterval:
    """Certified enclosure of num/den for a numerator region inside the
    denominator ball; capped at 1, and hi falls back to 1 when den.lo = 0."""
    if den.hi <= 0.0:
        raise ZeroDivisionError("denominator ball has certified measure zero")
    lo = num.lo / den.hi
    hi = num.hi / den.lo if den.lo > 0.0 else 1.0
    return MeasureInterval(min(lo, 1.0), min(hi, 1.0),
                           max(num.depth_used, den.depth_used))


def conical_ratio(tree: MeasureTree, x, r: float, V: Subspace, theta,
                  alpha: float, depth: int,
                  early_stop_lo: float | None = None) -> MeasureInterval:
    """Enclosure of mu(X(x, r, V, alpha) \\ H(x, theta, alpha)) / mu(B(x, r))."""
    if r <= 0.0 or not 0.0 < alpha <= 1.0:
        raise ValueError("need r > 0 and alpha in (0, 1]")
    x = np.asarray(x, dtype=float)
    den = region_measure(tree, RegionQuery(ball=Ball(x, r)), depth)
    num_query = RegionQuery(ball=Ball(x, r), plane_cone=(V, alpha),
                            half_cone_excluded=(np.asarray(theta, float), alpha))
    stop = early_stop_lo * den.hi if early_stop_lo is not None else None
    num = region_measure(tree, num_query, depth, early_stop_lo=stop)
    return ratio_interval(num, den)


@dataclass(frozen=True)
class NetMinRatio:
    """Net-minimized density ratio.

    lower_bound is certified for the infimum over the continuum (net cells at
    half opening); estimate is the net minimum at the full opening, whose hi
    side upper-bounds the infimum.
    """

    lower_bound: float
    estimate: MeasureInterval | None
    worst_cell: tuple

    @property
    def enclosure(self) -> MeasureInterval:
        hi = self.estimate.hi if self.estimate is not None else 1.0
        return MeasureInterval(self.lower_bound, max(self.lower_bound, hi))


def _net_min_ratio(tree: MeasureTree, x, r: float, alpha: float, depth: int,
                   cell_queries, compute_estimate: bool,
                   early_stop_lo: float | None) -> NetMinRatio:
    """Net minimum of num / mu(B(x, r)) over the (cell label, numerator query)
    pairs of cell_queries(opening): the certified lower bound at opening
    alpha/2 with early stopping, the estimate at opening alpha without."""
    den = region_measure(tree, RegionQuery(ball=Ball(x, r)), depth)
    if den.hi <= 0.0:
        raise ZeroDivisionError("denominator ball has certified measure zero")
    stop = early_stop_lo * den.hi if early_stop_lo is not None else None

    def net_min(opening: float, stop_lo: float | None):
        best_lo, best_hi, worst = math.inf, math.inf, None
        for cell, q in cell_queries(opening):
            num = region_measure(tree, q, depth, early_stop_lo=stop_lo)
            iv = ratio_interval(num, den)
            if iv.lo < best_lo:
                best_lo, worst = iv.lo, cell
            best_hi = min(best_hi, iv.hi)
        return best_lo, best_hi, worst

    lo_half, _, worst = net_min(alpha / 2.0, stop)
    estimate = None
    if compute_estimate:
        lo_full, hi_full, _ = net_min(alpha, None)
        estimate = MeasureInterval(lo_full, hi_full, depth)
    return NetMinRatio(lo_half, estimate, worst)


def halfspace_deficiency(tree: MeasureTree, x, r: float, alpha: float,
                         dir_net: DirectionNet, depth: int,
                         compute_estimate: bool = True,
                         early_stop_lo: float | None = None) -> NetMinRatio:
    """inf over directions of mu(B(x,r) \\ H(x, theta, alpha)) / mu(B(x,r)).

    The certified lower bound minimizes over net directions at opening
    alpha/2 (every H(x, theta, alpha) sits inside some H(x, theta_i, alpha/2));
    the estimate minimizes at opening alpha.
    """
    x = np.asarray(x, dtype=float)

    def cell_queries(opening: float):
        for idx, theta in enumerate(dir_net.directions):
            yield (idx,), RegionQuery(ball=Ball(x, r),
                                      half_cone_excluded=(theta, opening))

    return _net_min_ratio(tree, x, r, alpha, depth, cell_queries,
                          compute_estimate, early_stop_lo)


def worst_cone_ratio(tree: MeasureTree, x, r: float, alpha: float,
                     dir_net: DirectionNet, sub_net: SubspaceNet, depth: int,
                     compute_estimate: bool = True,
                     early_stop_lo: float | None = None) -> NetMinRatio:
    """inf over planes and directions of the non-symmetric cone ratio
    mu(X(x,r,V,alpha) \\ H(x,theta,alpha)) / mu(B(x,r)), via net minima."""
    x = np.asarray(x, dtype=float)

    def cell_queries(opening: float):
        for j, V in enumerate(sub_net.planes):
            for idx, theta in enumerate(dir_net.directions):
                yield (j, idx), RegionQuery(ball=Ball(x, r),
                                            plane_cone=(V, opening),
                                            half_cone_excluded=(theta, opening))

    return _net_min_ratio(tree, x, r, alpha, depth, cell_queries,
                          compute_estimate, early_stop_lo)


@dataclass(frozen=True)
class DensityProfile:
    """Per-radius worst-case conical ratios along dyadic scales."""

    x: np.ndarray
    alpha: float
    radii: tuple
    ratios: tuple            # NetMinRatio per radius
    threshold: float

    @property
    def lower_bounds(self) -> tuple:
        return tuple(r.lower_bound for r in self.ratios)

    @property
    def running_sup(self) -> tuple:
        out, best = [], -math.inf
        for v in self.lower_bounds:
            best = max(best, v)
            out.append(best)
        return tuple(out)

    def frequency(self, c: float | None = None, l: int | None = None) -> float:
        """Fraction of the first l scales whose certified ratio exceeds c."""
        c = self.threshold if c is None else c
        l = len(self.ratios) if l is None else l
        vals = self.lower_bounds[:l]
        return sum(1 for v in vals if v > c) / l


def density_profile(tree: MeasureTree, x, alpha: float, r0: float, levels: int,
                    dir_net: DirectionNet, sub_net: SubspaceNet, c: float,
                    depth: int, compute_estimate: bool = False,
                    early_stop_lo: float | None = None) -> DensityProfile:
    """Evaluate worst_cone_ratio at radii r0 * 2^-j for j = 1..levels."""
    if levels < 1:
        raise ValueError("levels must be positive")
    x = np.asarray(x, dtype=float)
    radii = tuple(r0 * 2.0 ** (-j) for j in range(1, levels + 1))
    ratios = tuple(
        worst_cone_ratio(tree, x, r, alpha, dir_net, sub_net, depth,
                         compute_estimate=compute_estimate,
                         early_stop_lo=early_stop_lo)
        for r in radii)
    return DensityProfile(x, alpha, radii, ratios, c)


def two_sided_min_ratio(tree: MeasureTree, x, r: float, V: Subspace,
                        alpha: float, dirs_in_V, depth: int):
    """Best direction in V for the two-sided one-sided-cone minimum.

    Maximizes min(mu(X+(x,r,z,alpha)), mu(X+(x,r,-z,alpha))) / mu(B(x,r))
    over the supplied directions z (all required to lie in V); returns the
    best direction and its ratio enclosure.
    """
    dirs = [np.asarray(d, dtype=float) for d in dirs_in_V]
    if not dirs:
        raise ValueError("need at least one direction")
    for d in dirs:
        if V.dist(d) > 1e-10:
            raise ValueError("direction does not lie in the subspace")
    x = np.asarray(x, dtype=float)
    den = region_measure(tree, RegionQuery(ball=Ball(x, r)), depth)
    best = None
    best_iv = None
    for d in dirs:
        plus = region_measure(
            tree, RegionQuery(ball=Ball(x, r), one_sided_cone=(d, alpha)), depth)
        minus = region_measure(
            tree, RegionQuery(ball=Ball(x, r), one_sided_cone=(-d, alpha)), depth)
        iv = ratio_interval(
            MeasureInterval(min(plus.lo, minus.lo), min(plus.hi, minus.hi),
                            max(plus.depth_used, minus.depth_used)),
            den)
        if best_iv is None or (iv.lo, iv.mid) > (best_iv.lo, best_iv.mid):
            best, best_iv = d, iv
    return best, best_iv


# ---------------------------------------------------------------------------
# Proposition-style ball-collection checker


@dataclass(frozen=True)
class BallCollectionReport:
    dilates_disjoint: bool
    mass_bound: bool
    transversality: bool
    projection_evidence: tuple  # (plane index, covering number, required size)
    c_used: float

    @property
    def all_pass(self) -> bool:
        return self.dilates_disjoint and self.mass_bound and self.transversality


def check_ball_collection(tree: MeasureTree, x, r: float, report,
                          balls, sub_net: SubspaceNet, depth: int = 12,
                          c: float | None = None) -> BallCollectionReport:
    """Verify the three sufficient conditions on a sub-ball collection.

    (1) 2t-dilates pairwise disjoint (exact center distances);
    (2) mu(B).lo > c * mu(B(x, 3r)).hi for every ball;
    (3) projection pigeonhole: for each net plane, ceil(#B/K) members force at
        least q projected centers into one covering cell of the projected
        ball, so some translate of the plane meets q balls.
    """
    x = np.asarray(x, dtype=float)
    t = report.t
    q = report.q
    K = sub_net.size
    m = report.m
    c = report.c if c is None else c
    centers = [np.asarray(b[0], dtype=float) for b in balls]
    radii = [float(b[1]) for b in balls]
    for ctr, rad in zip(centers, radii):
        if np.linalg.norm(ctr - x) + rad > r + 1e-12:
            raise ValueError("a candidate ball escapes B(x, r)")

    disjoint = all(
        np.linalg.norm(centers[i] - centers[j]) > 2.0 * t * (radii[i] + radii[j])
        for i in range(len(balls)) for j in range(i + 1, len(balls)))

    big = region_measure(tree, RegionQuery(ball=Ball(x, 3.0 * r)), depth)
    mass_ok = all(
        region_measure(tree, RegionQuery(ball=Ball(ctr, rad)), depth).lo > c * big.hi
        for ctr, rad in zip(centers, radii))

    rho = min(radii)
    if m == 0:
        n_cov = 1
    else:
        n_cov = int(math.ceil(r * math.sqrt(m) / rho)) ** m
    required = (q - 1) * n_cov + 1
    subset = math.ceil(len(balls) / K)
    transversal = subset >= required
    evidence = tuple((j, n_cov, required) for j in range(K))
    return BallCollectionReport(disjoint, mass_ok, transversal, evidence, c)


# ---------------------------------------------------------------------------
# Constant chain


def unit_ball_volume(n: int) -> float:
    return math.pi ** (n / 2.0) / math.gamma(n / 2.0 + 1.0)


@dataclass(frozen=True)
class ConstantsReport:
    """Full dependency chain of the density constants.

    c2 and c underflow double precision for realistic parameters; their
    base-10 logarithms are the authoritative values.
    """

    n: int
    m: int
    s: float
    alpha: float
    t: float
    q: int
    q_verified: bool
    K_dir: int
    K_sub: int
    M: int
    tau: float
    k: int
    c1: float
    p: float
    c2: float
    c2_log10: float
    c: float
    c_log10: float
    c_thm3: float

    def verify(self) -> dict:
        """Re-check every defining inequality; all values should be True."""
        eps = (1.0 - math.sqrt(1.0 - (self.alpha / 2.0) ** 2)) / 2.0
        beta0 = math.sqrt(1.0 - (self.alpha / 2.0) ** 2)
        t = self.t
        bracket = (3.0 * math.sqrt(self.n) * self.tau + 2.0) ** self.n
        eta = 3.0 * self.c1 * bracket
        i_ord = self.k ** self.n - self.M * self.k ** self.m
        checks = {
            "t_cone_widening": math.sqrt(1.0 - (self.alpha / 2.0 / t) ** 2) >= 1.0 - eps,
            "t_positive_gap": (1.0 - eps) * t - 1.0 > 0.0,
            "t_angle": (1.0 - eps) / (1.0 + 1.0 / t) - 1.0 / (t + 1.0) > beta0,
            "M_lower_bound": self.M >= (unit_ball_volume(self.n)
                                        * (4.0 * t + 2.0) ** self.n
                                        * self.n ** (self.n / 2.0)
                                        * 8 ** self.m * self.K_sub * self.q),
            "k_exceeds_M_power": ((self.s - self.m) * math.log(self.k)
                                  > math.log(self.M)) and self.k > 3,
            "tau_is_6_sqrt_n": abs(self.tau - 6.0 * math.sqrt(self.n)) < 1e-12,
            "eta_in_range": 0.0 < eta < float(self.k) ** (-self.n),
            "dimension_bound_below_s": dimension_bound(
                self.k, self.n, i_ord, eta) < self.s,
            "p_in_range": 0.0 < self.p < 1.0,
            "p_matches_c1": abs(self.p - self.c1 * bracket) <= 1e-12 * self.p,
            "c2_log_identity": abs(self.c2_log10
                                   - (-4.0 * self.n / self.p) * math.log10(self.k))
                               <= 1e-9 * abs(self.c2_log10),
            "c_log_identity": abs(self.c_log10 - (math.log10(self.c1) + self.c2_log10))
                              <= 1e-9 * abs(self.c_log10),
            "c_thm3_identity": abs(self.c_thm3 * 9.0 * 3.0 ** (2 * self.n)
                                   * self.K_dir - 1.0) < 1e-12,
        }
        return checks


def constants_chain(n: int, m: int, s: float, alpha: float,
                    q: int | None = None, seed: int = 0,
                    dir_net: DirectionNet | None = None,
                    sub_net: SubspaceNet | None = None) -> ConstantsReport:
    """Compute the full constant chain t, q, K, M, tau, k, c1, p, c2, c.

    c1 is the largest value (then shrunk by 1%) whose eta keeps the entropy
    dimension bound strictly below s while eta < k^-n; found by bisection in
    log space. c2 and c are reported with base-10 logarithms since they
    underflow for realistic parameter choices.
    """
    if not m < s <= n:
        raise ValueError("need m < s <= n")
    if not 0.0 < alpha <= 1.0:
        raise ValueError("alpha must lie in (0, 1]")
    sep = compute_t(alpha / 2.0)
    t = sep.t
    q_val, q_verified = erdos_furedi_q(n - m, alpha / (2.0 * t), default=q)
    if dir_net is None:
        dir_net = build_direction_net(n, alpha, seed)
    if sub_net is None:
        sub_net = build_subspace_net(n, m, alpha, seed)
    K_dir, K_sub = dir_net.size, sub_net.size
    M = math.ceil(unit_ball_volume(n) * (4.0 * t + 2.0) ** n
                  * n ** (n / 2.0) * 8 ** m * K_sub * q_val)
    tau = 6.0 * math.sqrt(n)

    # smallest integer k with k > max(M^{1/(s-m)}, 3)
    k = max(3, int(math.floor(math.exp(math.log(M) / (s - m))))) + 1
    while (s - m) * math.log(k) <= math.log(M):
        k += 1

    bracket = (3.0 * math.sqrt(n) * tau + 2.0) ** n
    i_ord = k ** n - M * k ** m
    if i_ord < 1:
        raise ValueError("k^n - M k^m is not positive; invalid chain")
    log_eta_cap = -n * math.log(k)

    def bound(log_eta: float) -> float:
        return dimension_bound(k, n, i_ord, math.exp(log_eta))

    lo_log, hi_log = -700.0, log_eta_cap - 1e-12
    if bound(lo_log) >= s:
        raise ArithmeticError("no admissible eta: dimension bound already at s")
    if bound(hi_log) < s:
        best_log = hi_log
    else:
        for _ in range(200):
            mid = 0.5 * (lo_log + hi_log)
            if bound(mid) < s:
                lo_log = mid
            else:
                hi_log = mid
        best_log = lo_log
    eta = 0.99 * math.exp(best_log)
    c1 = eta / (3.0 * bracket)
    p = c1 * bracket
    c2_log10 = (-4.0 * n / p) * math.log10(k)
    c2 = 10.0 ** c2_log10 if c2_log10 > -300.0 else 0.0
    c_log10 = math.log10(c1) + c2_log10
    c = 10.0 ** c_log10 if c_log10 > -300.0 else 0.0
    c_thm3 = 1.0 / (9.0 * 3.0 ** (2 * n) * K_dir)
    return ConstantsReport(n, m, s, alpha, t, q_val, q_verified, K_dir, K_sub,
                           M, tau, k, c1, p, c2, c2_log10, c, c_log10, c_thm3)

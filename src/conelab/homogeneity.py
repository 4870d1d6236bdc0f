"""Measure-ascending enumeration, average homogeneity, the entropy dimension
bound, doubling-scale statistics and the large-child scale frequency."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .measure import (Ball, Box, MeasureTree, RegionQuery, address_of_point,
                      region_measure)

NODE_GUARD = 2 ** 24


@dataclass(frozen=True)
class OrderedFan:
    """Children of a node sorted by ascending mass; ties keep lexicographic
    cube order (the raw child enumeration)."""

    order: tuple          # raw child indices, ascending by mass
    masses: tuple         # absolute masses, same order
    regions: tuple

    def child(self, i: int):
        """1-based ordered access: child(1) is the lightest."""
        if not 1 <= i <= len(self.order):
            raise IndexError("order index out of range")
        return self.order[i - 1], self.masses[i - 1], self.regions[i - 1]


def order_children(tree: MeasureTree, addr: tuple) -> OrderedFan:
    """Sort the fan at addr by mass (stable, so ties stay lexicographic)."""
    if tree.kind != "cube":
        raise ValueError("ordered fans are defined for cube-type trees only")
    _, parent_mass = tree.node(tuple(addr))
    kids = tree.children(tuple(addr))
    order = sorted(range(len(kids)), key=lambda idx: kids[idx][1])
    return OrderedFan(
        order=tuple(order),
        masses=tuple(parent_mass * kids[idx][1] for idx in order),
        regions=tuple(kids[idx][0] for idx in order),
    )


@dataclass(frozen=True)
class HomEstimate:
    """Partial averages of the k-average homogeneity of a given order."""

    k: int
    n: int
    order_index: int
    partials: tuple  # A_l for l = 1..l_max

    @property
    def limsup_proxy(self) -> float:
        """Max over the trailing half of the computed partial averages."""
        half = self.partials[len(self.partials) // 2:]
        return max(half)


def hom_estimate(tree: MeasureTree, i: int, l_max: int) -> HomEstimate:
    """Exact partial averages A_l of the order-i homogeneity, l <= l_max.

    A_l = (k^n / l) * sum_{j=1}^{l} S_j where S_j sums, over all level-j
    cubes, the mass of their i-th lightest child. Requires full-level
    traversal, guarded against node explosion.
    """
    if tree.kind != "cube":
        raise ValueError("hom_estimate requires a cube-type tree")
    k = tree.k
    n = tree.ambient_dim
    fan_size = k ** n
    if not 1 <= i <= fan_size:
        raise ValueError(f"order index must lie in 1..{fan_size}")

    if getattr(tree, "level_homogeneous", False):
        # every level-j node has the same child weights, and node masses at a
        # level sum to 1, so S_j is the i-th smallest weight at level j
        addr: tuple = ()
        level_sums = [0.0] * (l_max + 1)
        for j in range(1, l_max + 1):
            weights = sorted(w for _, w in tree.children(addr))
            level_sums[j] = weights[i - 1]
            addr = addr + (0,)
    else:
        total_nodes = sum(fan_size ** j for j in range(1, l_max + 1))
        if total_nodes > NODE_GUARD:
            raise ValueError(
                f"full traversal needs {total_nodes} nodes (> {NODE_GUARD}); "
                "reduce l_max or use a coarser tree")
        level_sums = [0.0] * (l_max + 1)  # level_sums[j] = S_j, 1-based

        def visit(addr, mass, level):
            kids = tree.children(addr)
            weights = sorted(w for _, w in kids)
            level_sums[level] += mass * weights[i - 1]
            if level < l_max:
                for idx, (_, w) in enumerate(kids):
                    visit(addr + (idx,), mass * w, level + 1)

        visit((), 1.0, 1)

    partials = []
    running = 0.0
    for l in range(1, l_max + 1):
        running += level_sums[l]
        partials.append(fan_size * running / l)
    return HomEstimate(k, n, i, tuple(partials))


def dimension_bound(k: int, n: int, i: int, eta: float) -> float:
    """Upper bound on the Hausdorff dimension of a measure whose order-i
    k-average homogeneity is at most k^n * eta."""
    fan = k ** n
    if not 1 <= i < fan:
        raise ValueError(f"order index must lie in 1..{fan - 1}")
    if eta < 0.0 or eta > k ** (-n):
        raise ValueError("eta must lie in [0, k^-n]")
    if i * eta > 1.0:
        raise ValueError("i * eta must not exceed 1")
    if eta == 0.0:
        return math.log(fan - i) / math.log(k)
    ie = i * eta
    rest = 0.0 if ie >= 1.0 else (1.0 - ie) * math.log((1.0 - ie) / (fan - i))
    return -(ie * math.log(eta) + rest) / math.log(k)


def doubling_constant(n: int, k: int, p: float) -> float:
    """Scale-comparison constant k^(-2n / (1 - p))."""
    if not 0.0 < p < 1.0:
        raise ValueError("p must lie in (0, 1)")
    return float(k) ** (-2.0 * n / (1.0 - p))


@dataclass(frozen=True)
class DoublingStats:
    """Certified doubling-scale counts at one point.

    A scale j counts only when the certified lower bound of the smaller ball
    beats c times the certified upper bound of the larger one; scales that
    could not be decided either way are listed separately.
    """

    x: np.ndarray
    gamma: float
    k: int
    c: float
    l: int
    count: int
    undecided: tuple

    @property
    def frequency(self) -> float:
        return self.count / self.l


def doubling_frequency(tree: MeasureTree, x, gamma: float, k: int, c: float,
                       l: int, depth: int) -> DoublingStats:
    """Count scales j <= l with mu(B(x, g k^-j)) >= c mu(B(x, g k^-j+1))."""
    if gamma <= 0 or l < 1:
        raise ValueError("need gamma > 0 and l >= 1")
    x = np.asarray(x, dtype=float)
    enclosures = []
    for j in range(l + 1):  # j = 0 gives the reference ball B(x, gamma)
        q = RegionQuery(ball=Ball(x, gamma * float(k) ** (-j)))
        enclosures.append(region_measure(tree, q, depth))
    count = 0
    undecided = []
    for j in range(1, l + 1):
        small, large = enclosures[j], enclosures[j - 1]
        if small.lo >= c * large.hi:
            count += 1
        elif small.hi >= c * large.lo:
            undecided.append(j)
    return DoublingStats(x, gamma, k, c, l, count, tuple(undecided))


def large_child_frequency(tree: MeasureTree, x, m: int, M: int, c: float,
                          tau: float, l: int, depth_margin: int = 10) -> float:
    """Fraction of levels j <= l whose level-j cube around x has its
    (k^n - M k^m)-th ordered child heavier than c times mu(tau Q) (upper bound)."""
    if tau < 1.0:
        raise ValueError("tau must be at least 1")
    k = tree.k
    n = tree.ambient_dim
    index = k ** n - M * k ** m
    if index < 1:
        raise ValueError("k^n - M k^m must be at least 1")
    x = np.asarray(x, dtype=float)
    hits = 0
    for j in range(1, l + 1):
        addr = address_of_point(tree, x, j)
        fan = order_children(tree, addr)
        _, mass, _ = fan.child(index)
        region, _ = tree.node(addr)
        dilated = RegionQuery(box=Box(region.center, tau * region.half))
        bound = region_measure(tree, dilated, j + depth_margin)
        if mass > c * bound.hi:
            hits += 1
    return hits / l

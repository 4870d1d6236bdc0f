"""Measure-ascending enumeration, average homogeneity, the entropy dimension
bound, doubling-scale statistics and the large-child scale frequency."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .measure import (Ball, Box, MeasureTree, RegionQuery, address_of_point,
                      region_measure)
from .validate import require_int


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
    if tree.k is None:
        raise ValueError("ordered fans are defined for k-adic cube trees only")
    parent_mass = tree.node_measure(tuple(addr))
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
    cubes, the mass of their i-th lightest child. Child weights depend on the
    level alone and the masses of a level sum to 1, so S_j is the i-th
    smallest of tree.weights(j).
    """
    if tree.k is None:
        raise ValueError("hom_estimate requires a k-adic cube tree")
    k = tree.k
    n = tree.ambient_dim
    fan_size = k ** n
    require_int(i, "order index", 1)
    if i > fan_size:
        raise ValueError(f"order index must lie in 1..{fan_size}")
    require_int(l_max, "l_max", 1)

    partials = []
    running = 0.0
    for l in range(1, l_max + 1):
        running += sorted(tree.weights(l))[i - 1]
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
    if gamma <= 0:
        raise ValueError("need gamma > 0")
    require_int(l, "l", 1)
    require_int(k, "k", 2)
    if not (math.isfinite(c) and c > 0.0):
        raise ValueError(f"c must be finite and positive, got {c!r}")
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
                          tau: float, l: int) -> float:
    """Fraction of levels j <= l whose level-j cube around x has its
    (k^n - M k^m)-th ordered child heavier than c times mu(tau Q) (upper bound,
    at depth budget j + 10)."""
    if tree.k is None:
        raise ValueError("large_child_frequency requires a k-adic cube tree")
    if tau < 1.0:
        raise ValueError("tau must be at least 1")
    if not (math.isfinite(c) and c > 0.0):
        raise ValueError(f"c must be finite and positive, got {c!r}")
    require_int(l, "l", 1)
    require_int(m, "m", 0)
    require_int(M, "M", 0)
    k = tree.k
    n = tree.ambient_dim
    index = k ** n - M * k ** m
    if index < 1:
        raise ValueError("k^n - M k^m must be at least 1")
    addr = address_of_point(tree, x, l)
    hits = 0
    mass = 1.0
    region = tree.root_region
    for j, idx in enumerate(addr, start=1):
        # child_mass is order_children(tree, addr[:j]).child(index)[1], bit for bit
        region = tree.child(region, j, idx)
        mass *= tree.weights(j)[idx]
        child_mass = mass * sorted(tree.weights(j + 1))[index - 1]
        dilated = RegionQuery(box=Box(region.center, tau * region.half))
        bound = region_measure(tree, dilated, j + 10)
        if child_mass > c * bound.hi:
            hits += 1
    return hits / l

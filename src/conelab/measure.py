"""Lazy hierarchical probability-measure trees with certified region queries.

A tree assigns conditional child weights to nested regions (k-adic cubes,
balls, or axis-aligned rectangles). Region measures are returned as certified
[lo, hi] enclosures: a node is counted in `lo` only when its region provably
lies inside the query, and in `hi` unless it provably lies outside.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

WEIGHT_TOL = 1e-12


@dataclass(frozen=True)
class Ball:
    """Closed ball."""

    center: np.ndarray
    radius: float

    def dist_bounds(self, x):
        d = float(np.linalg.norm(np.asarray(x, dtype=float) - self.center))
        return max(0.0, d - self.radius), d + self.radius

    @property
    def bounding_radius(self) -> float:
        return self.radius


@dataclass(frozen=True)
class Box:
    """Axis-aligned box given by its center and per-axis half-widths.

    Tree semantics treat k-adic boxes as half-open; the geometric tests here
    use the closed hull, which only widens enclosures.
    """

    center: np.ndarray
    half: np.ndarray

    def dist_bounds(self, x):
        gap = np.abs(np.asarray(x, dtype=float) - self.center)
        lo = np.maximum(0.0, gap - self.half)
        hi = gap + self.half
        return float(np.linalg.norm(lo)), float(np.linalg.norm(hi))

    @property
    def bounding_radius(self) -> float:
        return float(np.linalg.norm(self.half))


def cube(origin, side) -> Box:
    """Half-open cube [origin, origin + side)^n as a Box."""
    origin = np.asarray(origin, dtype=float)
    h = 0.5 * side
    return Box(origin + h, np.full(origin.shape, h))


@dataclass(frozen=True)
class MeasureInterval:
    """Certified enclosure of the measure of a query region."""

    lo: float
    hi: float
    depth_used: int = 0

    def __post_init__(self):
        if self.hi < self.lo:
            raise ValueError(f"interval with hi {self.hi!r} < lo {self.lo!r}")
        lo = min(max(self.lo, 0.0), 1.0)
        hi = min(max(self.hi, 0.0), 1.0)
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @property
    def width(self) -> float:
        return self.hi - self.lo

    @property
    def mid(self) -> float:
        return 0.5 * (self.lo + self.hi)

    def contains(self, value: float) -> bool:
        return self.lo <= value <= self.hi


class MeasureTree:
    """Lazy weighted hierarchy representing a probability measure.

    children_fn(address, region) returns the list of (region, weight) pairs
    for the children of the node at the given address; weights are
    conditional and must sum to one. Children are memoized per address, so
    children_fn must be a pure function of the address.

    k is the arity of a k-adic cube tree, whose nodes split into the k^n
    subcubes enumerated row-major, or None for any other hierarchy. Only
    kadic_tree sets k, and its weights depend on the level and child index
    alone, so every k-adic tree is level-homogeneous: all nodes of a level
    share their child weights. Children of a Ball region are checked to stay
    inside it.
    """

    def __init__(self, root_region, children_fn, k: int | None = None):
        self.root_region = root_region
        self.k = k
        self._children_fn = children_fn
        self._memo: dict[tuple, list] = {}

    @property
    def ambient_dim(self) -> int:
        return self.root_region.center.shape[0]

    def children(self, addr: tuple) -> list:
        """Children of the node at addr as (region, conditional weight) pairs."""
        addr = tuple(addr)
        got = self._memo.get(addr)
        if got is not None:
            return got
        region = self.root_region
        if addr:
            siblings, idx = self.children(addr[:-1]), addr[-1]
            if not 0 <= idx < len(siblings):
                raise IndexError(f"child index {idx} out of range at depth {len(addr) - 1}")
            region = siblings[idx][0]
        kids = self._children_fn(addr, region)
        total = math.fsum(w for _, w in kids)
        if abs(total - 1.0) > WEIGHT_TOL:
            raise ValueError(f"child weights at {addr} sum to {total}, not 1")
        if any(w <= 0.0 for _, w in kids):
            raise ValueError(f"non-positive child weight at {addr}")
        if isinstance(region, Ball):
            for child, _ in kids:
                d = float(np.linalg.norm(child.center - region.center))
                if d + child.bounding_radius > region.radius + 1e-9:
                    raise ValueError(f"child region at {addr} escapes its parent")
        self._memo[addr] = kids
        return kids

    def node(self, addr: tuple):
        """(region, absolute mass) of the node at addr."""
        region, mass = self.root_region, 1.0
        for depth, idx in enumerate(addr):
            kids = self.children(tuple(addr[:depth]))
            if not 0 <= idx < len(kids):
                raise IndexError(f"child index {idx} out of range at depth {depth}")
            region = kids[idx][0]
            mass *= kids[idx][1]
        return region, mass

    def node_measure(self, addr: tuple) -> float:
        """Product of conditional weights along the path; the root has mass 1."""
        return self.node(tuple(addr))[1]

    def branch_fan(self, addr: tuple) -> list:
        """All siblings of the addressed node, with absolute masses."""
        addr = tuple(addr)
        if not addr:
            raise ValueError("the root has no siblings")
        _, parent_mass = self.node(addr[:-1])
        return [(region, parent_mass * w) for region, w in self.children(addr[:-1])]

    def sample_points(self, count: int, depth: int, seed: int) -> np.ndarray:
        """Draw count points mu-distributed to the given depth (region centers)."""
        if count < 1:
            raise ValueError("count must be positive")
        rng = np.random.default_rng(seed)
        out = np.empty((count, self.ambient_dim))
        for i in range(count):
            out[i] = self.sample_branch(rng, depth)[1].center
        return out

    def sample_branch(self, rng, depth: int):
        """Descend depth levels choosing children by conditional weight.

        Returns the addresses visited, root first, and the final region.
        """
        addr: tuple = ()
        trail = [addr]
        region = self.root_region
        for _ in range(depth):
            kids = self.children(addr)
            weights = np.array([w for _, w in kids])
            idx = int(rng.choice(len(kids), p=weights / weights.sum()))
            region = kids[idx][0]
            addr = addr + (idx,)
            trail.append(addr)
        return trail, region


# ---------------------------------------------------------------------------
# Region queries


@dataclass(frozen=True)
class RegionQuery:
    """Query region: base ball (or box) intersected with optional cones.

    Semantics: base /\\ X(x, V, a_V) /\\ X+(x, theta, a_+) \\ H(x, theta_H, a_H)
    with x the base center; omitted parts are the whole space. The center
    must be finite, and the radius or every half-width positive and finite,
    one half-width per coordinate. Directions must be unit vectors and planes
    must share the base's dimension; every opening lies in (0, 1].

    The cones are kept as rows (plane, shape, a, excluded), each a Lipschitz
    margin of the offset d from x, positive inside the open cone:
    a |d| - dist(d, V) for the plane cone, and d . theta - a |d| otherwise,
    with a = sqrt(1 - alpha^2) for X+ and a = alpha for H.
    """

    ball: Ball | None = None
    box: Box | None = None
    plane_cone: tuple | None = None     # (Subspace, alpha)
    one_sided_cone: tuple | None = None  # (unit direction, alpha)
    half_cone_excluded: tuple | None = None  # (unit direction, alpha)
    cones: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if (self.ball is None) == (self.box is None):
            raise ValueError("exactly one of ball or box must be given")
        n = len(self.center)
        if not all(math.isfinite(v) for v in self.center):
            raise ValueError("query center must have finite coordinates")
        if self.ball is not None:
            if not 0.0 < self.ball.radius < math.inf:
                raise ValueError("query ball radius must be positive and finite")
        elif len(self.box.half) != n or not all(0.0 < h < math.inf for h in self.box.half):
            raise ValueError(f"query box needs {n} positive finite half-widths")
        for cone in (self.plane_cone, self.one_sided_cone, self.half_cone_excluded):
            if cone is not None and not 0.0 < cone[1] <= 1.0:
                raise ValueError("cone opening alpha must lie in (0, 1]")
        cones = []
        if self.plane_cone is not None:
            V, alpha = self.plane_cone
            if V.ambient_dim != n:
                raise ValueError(f"cone plane must lie in R^{n}")
            cones.append((True, V, alpha, False))
        for cone, excluded in ((self.one_sided_cone, False), (self.half_cone_excluded, True)):
            if cone is None:
                continue
            theta, alpha = cone
            theta = np.asarray(theta, dtype=float)
            if theta.shape != (n,) or not abs(float(np.linalg.norm(theta)) - 1.0) <= 1e-12:
                raise ValueError(f"cone direction must be a unit vector in R^{n}")
            a = alpha if excluded else math.sqrt(max(0.0, 1.0 - alpha * alpha))
            cones.append((False, theta, a, excluded))
        object.__setattr__(self, "cones", tuple(cones))

    @property
    def center(self) -> np.ndarray:
        return self.ball.center if self.ball is not None else self.box.center


_INSIDE, _OUTSIDE, _UNDECIDED = 1, 0, -1


def _classify_base(region, query: RegionQuery) -> int:
    if query.ball is not None:
        dmin, dmax = region.dist_bounds(query.ball.center)
        if dmax <= query.ball.radius:
            return _INSIDE
        if dmin > query.ball.radius:
            return _OUTSIDE
        return _UNDECIDED
    box = query.box
    gap = np.abs(region.center - box.center)
    if isinstance(region, Box):
        ext = region.half
    else:
        ext = np.full(gap.shape, region.bounding_radius)
    if np.all(gap + ext <= box.half):
        return _INSIDE
    if np.any(gap - ext > box.half):
        return _OUTSIDE
    return _UNDECIDED


def _classify(region, query: RegionQuery) -> int:
    """Conservative three-way classification of a node region against a query.

    Each cone margin is (1 + a)-Lipschitz, so over the node's bounding ball
    it stays within (1 + a) rho of its value at the node center.
    """
    verdict = _classify_base(region, query)
    if verdict == _OUTSIDE or not query.cones:
        return verdict
    rho = region.bounding_radius
    d = region.center - query.center
    nd = float(np.linalg.norm(d))
    for plane, shape, a, excluded in query.cones:
        value = a * nd - shape.dist(d) if plane else float(d @ shape) - a * nd
        margin = (1.0 + a) * rho
        if value > margin:
            if excluded:  # fully inside the excluded cone
                return _OUTSIDE
        elif value <= -margin:
            if not excluded:
                return _OUTSIDE
        else:
            verdict = _UNDECIDED
    return verdict


def region_measure(tree: MeasureTree, query: RegionQuery, depth_budget: int,
                   early_stop_lo: float | None = None) -> MeasureInterval:
    """Certified enclosure of mu(query) by recursive node classification.

    Nodes undecided at the depth budget contribute to `hi` only. If
    early_stop_lo is given, refinement stops once lo exceeds it; the
    remaining undecided mass is folded into `hi`, keeping the enclosure sound.
    """
    if depth_budget < 0:
        raise ValueError("depth_budget must be non-negative")
    if len(query.center) != tree.ambient_dim:
        raise ValueError("query and tree differ in dimension")
    lo = 0.0
    hi = 0.0
    depth_used = 0
    stack = [((), tree.root_region, 1.0, 0)]
    while stack:
        addr, region, mass, depth = stack.pop()
        depth_used = max(depth_used, depth)
        verdict = _classify(region, query)
        if verdict == _INSIDE:
            lo += mass
            hi += mass
            if early_stop_lo is not None and lo > early_stop_lo:
                hi += math.fsum(m for _, _, m, _ in stack)
                break
        elif verdict == _UNDECIDED:
            if depth >= depth_budget:
                hi += mass
            else:
                for idx, (child, w) in enumerate(tree.children(addr)):
                    stack.append((addr + (idx,), child, mass * w, depth + 1))
    return MeasureInterval(lo, hi, depth_used)


# ---------------------------------------------------------------------------
# k-adic cube trees


def kadic_tree(n: int, k: int, weight_fn) -> MeasureTree:
    """k-adic cube tree on [0,1)^n.

    weight_fn(level, flat_index) gives the conditional weight of the child
    with the given lexicographic index (level is 1-based for the children
    being generated). Children are enumerated row-major over axis indices.
    """
    if k < 2:
        raise ValueError("k must be at least 2")
    offsets = np.stack(np.meshgrid(*([np.arange(k)] * n), indexing="ij"),
                       axis=-1).reshape(-1, n)

    def children_fn(addr, region):
        level = len(addr) + 1
        side = float(2.0 * region.half[0]) / k
        origin = region.center - region.half
        out = []
        for flat, off in enumerate(offsets):
            child = cube(origin + off * side, side)
            out.append((child, weight_fn(level, flat)))
        return out

    return MeasureTree(cube(np.zeros(n), 1.0), children_fn, k=k)


def lebesgue_tree(n: int, k: int = 2) -> MeasureTree:
    """Uniform (Lebesgue) measure on [0,1)^n as a k-adic tree."""
    w = float(k) ** (-n)
    return kadic_tree(n, k, lambda level, flat: w)


def address_of_point(tree: MeasureTree, x, depth: int) -> tuple:
    """Address of the depth-level k-adic cube containing x (cube trees only).

    Half-open convention: a point on a shared face belongs to the cube on its
    right. Uses the row-major child enumeration of kadic_tree.
    """
    if tree.k is None:
        raise ValueError("address_of_point requires a k-adic cube tree")
    x = np.asarray(x, dtype=float)
    n = tree.ambient_dim
    if x.shape != (n,) or not np.all(np.isfinite(x)):
        raise ValueError(f"point must be a finite vector in R^{n}")
    if depth < 0:
        raise ValueError("depth must be non-negative")
    root_lo = tree.root_region.center - tree.root_region.half
    root_hi = tree.root_region.center + tree.root_region.half
    if np.any(x < root_lo) or np.any(x >= root_hi):
        raise ValueError("point lies outside the tree domain")
    k = tree.k
    addr: tuple = ()
    region = tree.root_region
    for _ in range(depth):
        side = float(2.0 * region.half[0]) / k
        origin = region.center - region.half
        axis_idx = np.clip(np.floor((x - origin) / side).astype(int), 0, k - 1)
        flat = 0
        for a in range(n):
            flat = flat * k + int(axis_idx[a])
        addr = addr + (flat,)
        region = tree.children(addr[:-1])[flat][0]
    return addr

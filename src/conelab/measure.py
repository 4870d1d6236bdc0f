"""Lazy hierarchical probability-measure trees with certified region queries.

A tree assigns conditional child weights to nested regions (k-adic cubes,
balls, or axis-aligned rectangles). Region measures are returned as certified
[lo, hi] enclosures: a node is counted in `lo` only when its region provably
lies inside the query, and in `hi` unless it provably lies outside.
"""

from __future__ import annotations

import functools
import itertools
import math
from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np

WEIGHT_TOL = 1e-12


@dataclass(frozen=True, slots=True)
class Ball:
    """Closed ball."""

    center: np.ndarray
    radius: float

    def dist_bounds(self, x):
        v = np.asarray(x, dtype=float) - self.center
        d = math.sqrt(v.dot(v))
        return max(0.0, d - self.radius), d + self.radius

    @property
    def bounding_radius(self) -> float:
        return self.radius


@dataclass(frozen=True, slots=True)
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
        return math.sqrt(lo.dot(lo)), math.sqrt(hi.dot(hi))

    @property
    def bounding_radius(self) -> float:
        return math.sqrt(self.half.dot(self.half))


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


class _Shape:
    """Extent of a Box or Ball node on Python floats: ext is the half-widths
    as a tuple (Box) or the radius (Ball), and rho the region's bounding
    radius once a cone or box query needed it. Siblings of one region type
    with equal extents share one _Shape, and so their bounding radius."""

    __slots__ = ("ext", "rho")

    def __init__(self, ext):
        self.ext = ext
        self.rho = None


class _Node:
    """Record of one node of a tree, kept for the life of the tree.

    region is the node's region, kids its child records once the node was
    first expanded. For Box and Ball regions, c is the center as a float
    tuple and shape the node's _Shape; any other region has neither and is
    classified by the numpy reference. qc, dmin and dmax are the distance
    bounds from the node to qc, the last ball-query center it was
    classified against.
    """

    __slots__ = ("region", "c", "shape", "kids", "qc", "dmin", "dmax")

    def __init__(self, region, sibling: _Node | None = None):
        self.region = region
        self.kids = self.qc = self.dmin = self.dmax = None
        if isinstance(region, Box):
            ext = tuple(region.half.tolist())
        elif isinstance(region, Ball):
            ext = float(region.radius)
        else:
            self.c = self.shape = None
            return
        self.c = tuple(region.center.tolist())
        if (sibling is not None and type(sibling.region) is type(region)
                and sibling.shape.ext == ext):
            self.shape = sibling.shape
        else:
            self.shape = _Shape(ext)


class MeasureTree:
    """Lazy weighted hierarchy representing a probability measure.

    Child weights depend on the level alone: weights_fn(level) gives the
    conditional weights of the children of every node at depth level - 1,
    so level is 1-based for the children being generated. They must be
    positive and sum to one; each level is checked once and cached.
    child_fn(region, level, idx) builds the idx-th child region of a node
    with the given region. Walks keep the nodes they expand as _Node
    records, each with its child records, so child_fn must be a pure
    function of its arguments. A record also caches its distance bounds
    to the last ball-query center, so one tree must not be walked from two
    threads at once.

    k is the arity of a k-adic cube tree, whose nodes split into the k^n
    subcubes enumerated row-major, or None for any other hierarchy. Children
    of a Ball region are checked to stay inside it.
    """

    def __init__(self, root_region, weights_fn, child_fn, k: int | None = None):
        self.root_region = root_region
        self.k = k
        self._weights_fn = weights_fn
        self._child_fn = child_fn
        self._weights: dict[int, tuple] = {}
        self._cdfs: dict[int, list] = {}
        self._root = _Node(root_region)

    @property
    def ambient_dim(self) -> int:
        return self.root_region.center.shape[0]

    def weights(self, level: int) -> tuple:
        """Conditional weights of the children of every level - 1 node."""
        got = self._weights.get(level)
        if got is None:
            got = tuple(self._weights_fn(level))
            if not (abs(math.fsum(got) - 1.0) <= WEIGHT_TOL and all(w > 0.0 for w in got)):
                raise ValueError(f"child weights at level {level} are not positive with sum 1")
            self._weights[level] = got
        return got

    def child(self, region, level: int, idx: int):
        """The idx-th child region of a level - 1 node with the given region."""
        if not 0 <= idx < len(self.weights(level)):
            raise IndexError(f"child index {idx} out of range at depth {level - 1}")
        kid = self._child_fn(region, level, idx)
        if isinstance(region, Ball):
            # the distance and sums round by a few ulps of the largest coordinate
            scale = np.abs(kid.center).max() + np.abs(region.center).max() + region.radius
            v = kid.center - region.center
            if math.sqrt(v.dot(v)) + kid.bounding_radius > region.radius + 8.0 * _U * scale:
                raise ValueError(f"child {idx} at level {level} escapes its parent")
        return kid

    def _kids(self, node: _Node, level: int) -> list:
        """Child records of a level - 1 node, built on its first expansion."""
        kids = node.kids
        if kids is None:
            kids, kid = [], None
            for i in range(len(self.weights(level))):
                kid = _Node(self.child(node.region, level, i), kid)
                kids.append(kid)
            node.kids = kids
        return kids

    def children(self, addr: tuple) -> list:
        """Children of the node at addr as (region, conditional weight) pairs."""
        addr = tuple(addr)
        node = self._root
        for level, idx in enumerate(addr, start=1):
            kids = self._kids(node, level)
            if not 0 <= idx < len(kids):
                raise IndexError(f"child index {idx} out of range at depth {level - 1}")
            node = kids[idx]
        level = len(addr) + 1
        return [(kid.region, w) for kid, w in zip(self._kids(node, level), self.weights(level))]

    def node(self, addr: tuple):
        """(region, absolute mass) of the node at addr."""
        region = self.root_region
        for level, idx in enumerate(addr, start=1):
            region = self.child(region, level, idx)
        return region, self.node_measure(addr)

    def node_measure(self, addr: tuple) -> float:
        """Product of conditional weights along the path; the root has mass 1."""
        mass = 1.0
        for level, idx in enumerate(addr, start=1):
            w = self.weights(level)
            if not 0 <= idx < len(w):
                raise IndexError(f"child index {idx} out of range at depth {level - 1}")
            mass *= w[idx]
        return mass

    def branch_fan(self, addr: tuple) -> list:
        """All siblings of the addressed node, with absolute masses."""
        addr = tuple(addr)
        if not addr:
            raise ValueError("the root has no siblings")
        parent_mass = self.node_measure(addr[:-1])
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
        trail, region = [()], self.root_region
        for level in range(1, depth + 1):
            idx = bisect_right(self._cdf(level), rng.random())
            region = self.child(region, level, idx)
            trail.append(trail[-1] + (idx,))
        return trail, region

    def _cdf(self, level: int) -> list:
        """Cumulative child probabilities of a level, built and rounded as
        Generator.choice builds them, so that bisecting it at rng.random()
        draws the index that rng.choice(len(w), p=w / w.sum()) draws."""
        cdf = self._cdfs.get(level)
        if cdf is None:
            w = np.array(self.weights(level))
            cdf = np.cumsum(w / w.sum())
            cdf /= cdf[-1]
            cdf = self._cdfs[level] = cdf.tolist()
        return cdf


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

    The cones are kept as rows (plane, shape, a, excluded, vecs), each a
    Lipschitz margin of the offset d from x, positive inside the open cone:
    a |d| - dist(d, V) for the plane cone, and d . theta - a |d| otherwise,
    with a = sqrt(1 - alpha^2) for X+ and a = alpha for H. vecs holds the
    plane's frame rows, or the direction, as float tuples. floats holds the
    center, the radius or half-widths and the rounding bound (tol, tiny) of
    _classify, on Python floats.
    """

    ball: Ball | None = None
    box: Box | None = None
    plane_cone: tuple | None = None     # (Subspace, alpha)
    one_sided_cone: tuple | None = None  # (unit direction, alpha)
    half_cone_excluded: tuple | None = None  # (unit direction, alpha)
    cones: tuple = field(init=False, repr=False, compare=False)
    floats: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if (self.ball is None) == (self.box is None):
            raise ValueError("exactly one of ball or box must be given")
        n = len(self.center)
        if not all(math.isfinite(v) for v in self.center):
            raise ValueError("query center must have finite coordinates")
        if self.ball is not None:
            if not 0.0 < self.ball.radius < math.inf:
                raise ValueError("query ball radius must be positive and finite")
            extent = float(self.ball.radius)
        else:
            if len(self.box.half) != n or not all(0.0 < h < math.inf for h in self.box.half):
                raise ValueError(f"query box needs {n} positive finite half-widths")
            extent = tuple(map(float, self.box.half))
        for cone in (self.plane_cone, self.one_sided_cone, self.half_cone_excluded):
            if cone is not None and not 0.0 < cone[1] <= 1.0:
                raise ValueError("cone opening alpha must lie in (0, 1]")
        cones = []
        if self.plane_cone is not None:
            V, alpha = self.plane_cone
            if V.ambient_dim != n:
                raise ValueError(f"cone plane must lie in R^{n}")
            cones.append((True, V, alpha, False, tuple(map(tuple, V.frame.tolist()))))
        for cone, excluded in ((self.one_sided_cone, False), (self.half_cone_excluded, True)):
            if cone is None:
                continue
            theta, alpha = cone
            theta = np.asarray(theta, dtype=float)
            if theta.shape != (n,) or not abs(float(np.linalg.norm(theta)) - 1.0) <= 1e-12:
                raise ValueError(f"cone direction must be a unit vector in R^{n}")
            a = alpha if excluded else math.sqrt(max(0.0, 1.0 - alpha * alpha))
            cones.append((False, theta, a, excluded, tuple(theta.tolist())))
        object.__setattr__(self, "cones", tuple(cones))
        # In one dimension every sum in _classify has a single term, so no
        # rounding bound is needed; see _classify for the bound itself.
        tol, tiny = (0.0, 0.0) if n == 1 else (_ROUNDING_SLACK * (n + 2) ** 2 * _U, _TINY)
        object.__setattr__(self, "floats", (tuple(map(float, self.center)), extent, tol, tiny))

    @property
    def center(self) -> np.ndarray:
        return self.ball.center if self.ball is not None else self.box.center


_INSIDE, _OUTSIDE, _UNDECIDED = 1, 0, -1
_U = 2.0 ** -53  # unit roundoff of a double
# Python sums of squares and products, and numpy's dot (which may fuse
# multiply-adds), each lie within about (n + 2) u of the exact value relative
# to the summed magnitudes; a plane distance, two matrix-vector products and
# a norm, within about (n + 2)^2 u. This factor covers both with room.
_ROUNDING_SLACK = 8.0
# absolute error of a norm whose squares underflow is below 2^-536
_TINY = 2.0 ** -500


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


def _classify_reference(region, query: RegionQuery) -> int:
    """Conservative three-way classification of a node region against a
    query, on numpy arrays: the reference that _classify reproduces.

    Each cone margin is (1 + a)-Lipschitz, so over the node's bounding ball
    it stays within (1 + a) rho of its value at the node center.
    """
    verdict = _classify_base(region, query)
    if verdict == _OUTSIDE or not query.cones:
        return verdict
    rho = region.bounding_radius
    d = region.center - query.center
    nd = math.sqrt(d.dot(d))
    for plane, shape, a, excluded, _ in query.cones:
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


def _classify(node: _Node, query: RegionQuery) -> int:
    """The verdict of _classify_reference for a node record, computed on
    Python floats.

    Coordinate differences, abs, max, + and single products round exactly as
    numpy's elementwise operations do, so the box-query branch and every
    one-dimensional query agree bit for bit. Sums of squares and dot products
    may round differently from numpy's dot. Both lie within the query's
    bound tol * S + tiny of the exact value, S the magnitudes of the compared
    operands (dmax + r for a ball query, 2 |d| for a cone margin), so a
    comparison whose sides are at least that far apart decides the same way
    on both. A nearer one, a near tie, takes the reference verdict for the
    node. Regions other than Box and Ball always take the reference.

    A ball query reuses the node's distance bounds when its center equals
    the node's last ball-query center, and otherwise stores the new ones:
    the walks of one worst_cone_ratio, or of one doubling_frequency, share
    their center. Centers that compare equal give equal bounds, also where
    a coordinate is 0.0 in one and -0.0 in the other. The bounding radius
    is computed once a cone or a box query needs it.
    """
    shape = node.shape
    if shape is None:
        return _classify_reference(node.region, query)
    c, ext = node.c, shape.ext
    qc, qext, tol, tiny = query.floats
    if query.ball is not None:
        if node.qc == qc:
            dmin, dmax = node.dmin, node.dmax
        else:
            s_lo = s_hi = 0.0
            if isinstance(ext, tuple):  # Box.dist_bounds
                for ci, h, qi in zip(c, ext, qc):
                    g = abs(qi - ci)
                    lo, hi = g - h, g + h
                    if lo > 0.0:
                        s_lo += lo * lo
                    s_hi += hi * hi
                dmin, dmax = math.sqrt(s_lo), math.sqrt(s_hi)
            else:  # Ball.dist_bounds
                for ci, qi in zip(c, qc):
                    g = qi - ci
                    s_hi += g * g
                d = math.sqrt(s_hi)
                dmin, dmax = max(0.0, d - ext), d + ext
            node.qc, node.dmin, node.dmax = qc, dmin, dmax
        e = tol * (dmax + qext) + tiny
        t = dmax - qext
        if not abs(t) >= e:
            return _classify_reference(node.region, query)
        if t <= 0.0:
            verdict = _INSIDE
        else:
            t = dmin - qext
            if not abs(t) >= e:
                return _classify_reference(node.region, query)
            if t > 0.0:
                return _OUTSIDE
            verdict = _UNDECIDED
    else:
        if not isinstance(ext, tuple):
            if shape.rho is None:
                shape.rho = node.region.bounding_radius
            ext = [shape.rho] * len(c)
        inside, outside = True, False
        for ci, ei, qi, hi in zip(c, ext, qc, qext):
            g = abs(ci - qi)
            if not g + ei <= hi:
                inside = False
            if g - ei > hi:
                outside = True
        if inside:
            verdict = _INSIDE
        elif outside:
            return _OUTSIDE
        else:
            verdict = _UNDECIDED
    if not query.cones:
        return verdict
    rho = shape.rho
    if rho is None:
        rho = shape.rho = node.region.bounding_radius
    d = [ci - qi for ci, qi in zip(c, qc)]
    s = 0.0
    for x in d:
        s += x * x
    nd = math.sqrt(s)
    e = tol * 2.0 * nd + tiny
    for plane, _, a, excluded, vecs in query.cones:
        if plane:  # a |d| - |d - F^T F d|, F the frame rows
            p = [0.0] * len(d)
            for row in vecs:
                pj = 0.0
                for f, x in zip(row, d):
                    pj += f * x
                for i, f in enumerate(row):
                    p[i] += f * pj
            s = 0.0
            for x, pi in zip(d, p):
                x -= pi
                s += x * x
            value = a * nd - math.sqrt(s)
        else:
            dt = 0.0
            for x, th in zip(d, vecs):
                dt += x * th
            value = dt - a * nd
        margin = (1.0 + a) * rho
        t = value - margin
        if not abs(t) >= e:
            return _classify_reference(node.region, query)
        if t > 0.0:
            if excluded:  # fully inside the excluded cone
                return _OUTSIDE
            continue
        t = value + margin
        if not abs(t) >= e:
            return _classify_reference(node.region, query)
        if t <= 0.0:
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
    stack = [(tree._root, 1.0, 0)]
    while stack:
        node, mass, depth = stack.pop()
        depth_used = max(depth_used, depth)
        verdict = _classify(node, query)
        if verdict == _INSIDE:
            lo += mass
            hi += mass
            if early_stop_lo is not None and lo > early_stop_lo:
                hi += math.fsum(m for _, m, _ in stack)
                break
        elif verdict == _UNDECIDED:
            if depth >= depth_budget:
                hi += mass
            else:
                level = depth + 1
                for kid, w in zip(tree._kids(node, level), tree.weights(level)):
                    stack.append((kid, mass * w, level))
    return MeasureInterval(lo, hi, depth_used)


# ---------------------------------------------------------------------------
# k-adic cube trees


def kadic_tree(n: int, k: int, weights_fn) -> MeasureTree:
    """k-adic cube tree on [0,1)^n.

    weights_fn(level) gives the conditional weights of the k^n children of
    every level - 1 cube, enumerated row-major over axis indices (level is
    1-based for the children being generated). Every cube of one side
    shares one read-only half-width array.
    """
    if k < 2:
        raise ValueError("k must be at least 2")
    offsets = list(itertools.product(range(k), repeat=n))

    @functools.cache
    def shared_half(h):
        half = np.array([h] * n)
        half.flags.writeable = False
        return half

    def child_fn(region, _level, idx):
        # cube(center - half + offset * side, side) on Python floats, which
        # round as numpy's elementwise operations do
        side = float(2.0 * region.half[0]) / k
        h = 0.5 * side
        return Box(np.array([c - w + o * side + h for c, w, o in
                             zip(region.center.tolist(), region.half.tolist(), offsets[idx])]),
                   shared_half(h))

    return MeasureTree(cube(np.zeros(n), 1.0), weights_fn, child_fn, k=k)


def lebesgue_tree(n: int, k: int = 2) -> MeasureTree:
    """Uniform (Lebesgue) measure on [0,1)^n as a k-adic tree."""
    weights = (float(k) ** (-n),) * k ** n
    return kadic_tree(n, k, lambda level: weights)


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
    for level in range(1, depth + 1):
        side = float(2.0 * region.half[0]) / k
        origin = region.center - region.half
        axis_idx = np.clip(np.floor((x - origin) / side).astype(int), 0, k - 1)
        flat = int(np.ravel_multi_index(axis_idx, (k,) * n))
        addr = addr + (flat,)
        region = tree.child(region, level, flat)
    return addr

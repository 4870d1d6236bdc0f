"""Lazy hierarchical probability-measure trees with certified region queries.

A tree assigns conditional child weights to nested regions (k-adic cubes,
balls, or axis-aligned rectangles). Region measures are returned as certified
[lo, hi] enclosures: a node is counted in `lo` only when its region provably
lies inside the query, and in `hi` unless it provably lies outside.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np

from .validate import require_int

WEIGHT_TOL = 1e-12


class ResourceGuard(Exception):
    """A computation would go past what its inputs can resolve or afford."""


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
    """Extent of a Box node: half its read-only half-width array, ext the
    same half-widths as a tuple of floats, and rho its bounding radius by
    Box.bounding_radius's expression. The children of one k-adic cube, and
    every cube of one side, share one _Shape; so do Box siblings of any
    other tree whose half-widths are equal."""

    __slots__ = ("half", "ext", "rho")

    def __init__(self, half):
        self.half = half
        self.ext = tuple(half.tolist())
        self.rho = math.sqrt(half.dot(half))


class _Node:
    """Record of one node of a tree, kept for the life of the tree.

    region is the node's region, kids its child records once the node was
    first expanded. mass is the product of the conditional weights along
    the node's path, taken from 1.0 at the root in path order, as
    MeasureTree.node_measure takes it, and depth the length of that path;
    both are set when the record is built and never change. For a Box
    region, c is the center as a float tuple and shape the node's _Shape;
    any other region has neither and is classified by the numpy
    reference. A k-adic record is built from c and shape alone, and makes
    its Box region the first time it is read. Everything else a Box record
    keeps belongs to qc, the last ball-query center it was classified
    against: dmin and dmax its distance bounds to qc; d its offset from qc,
    and angle the triple (|d|, w, e) of the offset's norm,
    w = sqrt(|d|^2 - rho^2) and the rounding bound e of the angle verdicts,
    once a cone query at qc needed them (else d is None; see _classify);
    and pv the verdict of the plane cone row alone under the plane key pk,
    (frame rows, opening), of the last plane-cone query at qc that
    classified it. A change of qc resets d and pk.
    Only the DFS of region_measure builds and reads records; the level walk
    classifies whole levels of a k-adic tree on arrays and builds none.
    """

    __slots__ = ("_region", "c", "shape", "kids", "mass", "depth", "qc", "dmin",
                 "dmax", "pk", "pv", "d", "angle")

    def __init__(self, region, sibling: _Node | None = None, c=None, shape=None,
                 mass: float = 1.0, depth: int = 0):
        self._region = region
        self.mass, self.depth = mass, depth
        self.kids = self.qc = self.dmin = self.dmax = None
        if region is None:  # a k-adic record
            self.c, self.shape = c, shape
            return
        if not isinstance(region, Box):
            self.c = self.shape = None
            return
        self.c = tuple(region.center.tolist())
        if (sibling is not None and type(sibling.region) is type(region)
                and sibling.shape.ext == tuple(region.half.tolist())):
            self.shape = sibling.shape
        else:
            self.shape = _Shape(region.half)

    @property
    def region(self):
        region = self._region
        if region is None:
            region = self._region = Box(np.array(self.c), self.shape.half)
        return region


class MeasureTree:
    """Lazy weighted hierarchy representing a probability measure.

    Child weights depend on the level alone: weights_fn(level) gives the
    conditional weights of the children of every node at depth level - 1,
    so level is 1-based for the children being generated. They must be
    positive and sum to one; each level is checked once and cached.
    child_fn(region, level, idx) builds the idx-th child region of a node
    with the given region. Walks keep the nodes they expand as _Node
    records, each with its child records, its mass and its depth, so
    child_fn must be a pure function of its arguments. A record also
    caches its distance bounds to the last ball-query center, so one tree
    must not be walked from two threads at once.

    A tree is k-adic when its child_fn is kadic_tree's: its nodes split
    into the k^n subcubes enumerated row-major, k is that child_fn's arity,
    and every level must give exactly k^n weights. k is None for any other
    child_fn. Children of a Ball region are checked to stay inside it, and
    raise ResourceGuard once their radius is within the rounding of their
    coordinates.

    A k-adic tree builds its child records from the parent record's floats,
    by the same float helper as its child_fn, so they hold the centers and
    half-widths that child_fn returns, bit for bit, and make their Box
    regions only when read. A tree given any other child_fn builds every
    child record from child_fn's region. region_measure walks a k-adic
    tree without records when a ball query is wide (see LEVEL_WALK_WIDTH),
    so such walks leave the records as they were.
    """

    def __init__(self, root_region, weights_fn, child_fn):
        self.root_region = root_region
        self._weights_fn = weights_fn
        self._child_fn = child_fn
        self._kadic = child_fn if isinstance(child_fn, _KadicChildren) else None
        self.k = None if self._kadic is None else self._kadic.k
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
            kadic = self._kadic
            if kadic is not None and len(got) != kadic.k ** kadic.n:
                raise ValueError(f"a {kadic.k}-adic level needs k^n = {kadic.k ** kadic.n} "
                                 f"child weights, level {level} gives {len(got)}")
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
            if kid.bounding_radius <= 8.0 * _U * scale:
                raise ResourceGuard(f"child {idx} at level {level} has a radius below "
                                    "the resolution of its coordinates")
            v = kid.center - region.center
            if math.sqrt(v.dot(v)) + kid.bounding_radius > region.radius + 8.0 * _U * scale:
                raise ValueError(f"child {idx} at level {level} escapes its parent")
        return kid

    def _kids(self, node: _Node) -> list:
        """Child records of a node, built on its first expansion: one per
        weight of the next level, each with mass node.mass * w and depth
        node.depth + 1."""
        kids = node.kids
        if kids is None:
            level = node.depth + 1
            weights = self.weights(level)
            if self._kadic is not None:
                kids = self._kadic.records(node, level, weights)
            else:
                kids, kid, mass = [], None, node.mass
                for i, w in enumerate(weights):
                    kid = _Node(self.child(node.region, level, i), kid,
                                mass=mass * w, depth=level)
                    kids.append(kid)
            node.kids = kids
        return kids

    def _record(self, addr: tuple) -> _Node:
        """The record of the node at addr, building records along the path."""
        node = self._root
        for level, idx in enumerate(addr, start=1):
            kids = self._kids(node)
            if not 0 <= idx < len(kids):
                raise IndexError(f"child index {idx} out of range at depth {level - 1}")
            node = kids[idx]
        return node

    def children(self, addr: tuple) -> list:
        """Children of the node at addr as (region, conditional weight) pairs."""
        addr = tuple(addr)
        kids = self._kids(self._record(addr))
        return [(kid.region, w) for kid, w in zip(kids, self.weights(len(addr) + 1))]

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
        """All siblings of the addressed node, with the absolute masses
        their records carry."""
        addr = tuple(addr)
        if not addr:
            raise ValueError("the root has no siblings")
        kids = self._kids(self._record(addr[:-1]))
        if not 0 <= addr[-1] < len(kids):
            raise IndexError(f"child index {addr[-1]} out of range at depth {len(addr) - 1}")
        return [(kid.region, kid.mass) for kid in kids]

    def sample_points(self, count: int, depth: int, seed: int) -> np.ndarray:
        """Draw count points mu-distributed to the given depth (region centers)."""
        require_int(count, "count", 1)
        rng = np.random.default_rng(seed)
        out = np.empty((count, self.ambient_dim))
        for i in range(count):
            out[i] = self.sample_branch(rng, depth)[1].center
        return out

    def sample_branch(self, rng, depth: int):
        """Descend depth levels choosing children by conditional weight.

        Returns the addresses visited, root first, and the final region.
        """
        require_int(depth, "depth", 0)
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
    must be a non-empty finite vector, and the radius or every half-width
    positive and finite, one half-width per coordinate. Directions must be
    unit vectors and planes must share the base's dimension; every opening
    lies in (0, 1].

    The cones are kept as rows (plane, shape, a, excluded, vecs, b), each
    an open cone of the offset d from x: dist(d, V) < a |d| for the plane
    cone, with a = alpha, and d . theta > a |d| otherwise, with
    a = sqrt(1 - alpha^2) for X+ and a = alpha for H. For a direction row a
    is the cosine of the cone's half-angle about theta, and for the plane
    row the sine of the largest angle to V; b is the other of sine and
    cosine, alpha itself for X+ and sqrt((1 - alpha)(1 + alpha)) otherwise,
    which does not cancel near alpha = 1. vecs holds the plane's frame
    rows, or the direction, as float tuples. H of opening 1 is empty and
    gets no row. For a ball query, floats holds the center, the radius and
    the rounding bound (tol, tiny) of _classify, on Python floats, and the
    plane key: (vecs, a) of a query with a plane cone, else None. The key
    holds values only, so queries of equal plane cone share it whatever
    their objects; a node record keeps a plane verdict under it for its
    last center only. A box query leaves floats unset.
    """

    ball: Ball | None = None
    box: Box | None = None
    plane_cone: tuple | None = None     # (Subspace, alpha)
    one_sided_cone: tuple | None = None  # (unit direction, alpha)
    half_cone_excluded: tuple | None = None  # (unit direction, alpha)
    cones: tuple = field(init=False, repr=False, compare=False)
    floats: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        ball = self.ball
        if (ball is None) == (self.box is None):
            raise ValueError("exactly one of ball or box must be given")
        center = ball.center if ball is not None else self.box.center
        array = type(center) is np.ndarray
        shape = center.shape if array else np.shape(center)
        if len(shape) != 1 or not shape[0]:
            raise ValueError("query center must be a non-empty vector")
        n = shape[0]
        # a float64 array gives the floats of map(float, ...) in one call
        qc = tuple(center.tolist() if array and center.dtype.char == "d"
                   else map(float, center))
        if not all(map(math.isfinite, qc)):
            raise ValueError("query center must have finite coordinates")
        if ball is not None:
            if not 0.0 < ball.radius < math.inf:
                raise ValueError("query ball radius must be positive and finite")
        elif np.shape(self.box.half) != (n,) or not all(0.0 < h < math.inf for h in self.box.half):
            raise ValueError(f"query box needs {n} positive finite half-widths")
        plane_cone, one_sided, half_cone = (self.plane_cone, self.one_sided_cone,
                                            self.half_cone_excluded)
        for cone in (plane_cone, one_sided, half_cone):
            if cone is not None and not 0.0 < cone[1] <= 1.0:
                raise ValueError("cone opening alpha must lie in (0, 1]")
        cones, key = [], None
        if plane_cone is not None:
            V, alpha = plane_cone
            if V.frame.shape[1] != n:
                raise ValueError(f"cone plane must lie in R^{n}")
            vecs = V.rows
            cones.append((True, V, alpha, False, vecs, math.sqrt((1.0 - alpha) * (1.0 + alpha))))
            key = (vecs, alpha)
        for cone, excluded in ((one_sided, False), (half_cone, True)):
            if cone is None:
                continue
            theta, alpha = cone
            theta = np.asarray(theta, dtype=float)
            # np.linalg.norm's own expression for a 1-d float array
            if theta.shape != (n,) or not abs(math.sqrt(theta.dot(theta)) - 1.0) <= 1e-12:
                raise ValueError(f"cone direction must be a unit vector in R^{n}")
            if excluded:
                if alpha == 1.0:  # d . theta > |d| holds nowhere
                    continue
                a, b = alpha, math.sqrt((1.0 - alpha) * (1.0 + alpha))
            else:
                a, b = math.sqrt(max(0.0, 1.0 - alpha * alpha)), alpha
            cones.append((False, theta, a, excluded, tuple(theta.tolist()), b))
        object.__setattr__(self, "cones", tuple(cones))
        if ball is not None:
            # In one dimension every sum in _classify has a single term, so no
            # rounding bound is needed; see _classify for the bound itself.
            tol, tiny = (0.0, 0.0) if n == 1 else (_ROUNDING_SLACK * (n + 2) ** 2 * _U, _TINY)
            object.__setattr__(self, "floats", (qc, float(ball.radius), tol, tiny, key))

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


def _norm(v: np.ndarray) -> float:
    """|v| as _classify_reference takes it, by numpy's dot."""
    return math.sqrt(v.dot(v))


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

    A cone row is decided from the angle the node subtends at x. The node
    lies in its bounding ball B(c, rho); with d = c - x and |d| >= rho,
    every point of that ball but x lies within angle delta of d's
    direction, sin delta = rho / |d|. With w = sqrt(|d|^2 - rho^2) =
    |d| cos delta and s = b rho, a, b the row's cosine and sine (see
    RegionQuery):

    - a direction row is inside when d . theta > a w + s and
      rho < b |d| (the angle to theta plus delta stays below the cone's
      half-angle), and outside when d . theta <= a w - s (that angle minus
      delta reaches it);
    - the plane row is inside when dist(d, V) < a w - s and rho < a |d|,
      and outside when dist(d, V) >= a w + s and b w >= a rho (the angle to
      V minus delta reaches the cone's, whose sum with delta stays within
      pi / 2).

    A node with |d| < rho may hold x and stays undecided. At |d| = rho the
    ball meets x, which lies in no cone, and the side conditions leave only
    outside verdicts. In one dimension a node with |d| >= rho lies on the
    side of d: a row whose cone holds that side (d . theta > 0, or V the
    whole line) is inside when |d| > rho, and any other row is outside.
    """
    verdict = _classify_base(region, query)
    if verdict == _OUTSIDE or not query.cones:
        return verdict
    rho = region.bounding_radius
    d = region.center - query.center
    nd = _norm(d)
    if nd < rho:
        return _UNDECIDED
    w = math.sqrt((nd - rho) * (nd + rho))
    for row in query.cones:
        v = _row_reference(row, d, nd, w, rho)
        if v == _UNDECIDED:
            verdict = _UNDECIDED
        elif (v == _INSIDE) == row[3]:  # inside an excluded cone, or outside a cone
            return _OUTSIDE
    return verdict


def _row_reference(row, d: np.ndarray, nd: float, w: float, rho: float) -> int:
    """_classify_reference's verdict of one cone row for a node with offset
    d, |d| = nd >= rho and w = sqrt((nd - rho)(nd + rho))."""
    plane, shape, a, _, vecs, b = row
    if len(d) == 1:
        if vecs != () if plane else d[0] * vecs[0] > 0.0:
            return _INSIDE if nd > rho else _UNDECIDED
        return _OUTSIDE
    if plane:
        dist = shape.dist(d)
        if dist < a * w - b * rho and rho < a * nd:
            return _INSIDE
        if dist >= a * w + b * rho and b * w >= a * rho:
            return _OUTSIDE
        return _UNDECIDED
    value = float(d @ shape)
    if value > a * w + b * rho and rho < b * nd:
        return _INSIDE
    if value <= a * w - b * rho:
        return _OUTSIDE
    return _UNDECIDED


def _classify(node: _Node, query: RegionQuery) -> int:
    """The verdict of _classify_reference for a node record, computed on
    Python floats for a Box node under a ball query, the pair that walks on
    k-adic trees classify; any other node or query takes the reference.

    Coordinate differences, abs, max, +, single products and square roots
    round exactly as numpy's elementwise operations do, so every
    one-dimensional query agrees bit for bit. Sums of squares and dot
    products may round differently from numpy's dot, and so may |d| and
    every value computed from it. Each compared difference lies within the
    query's bound tol * S + tiny of the reference's, S the magnitudes of
    its operands: dmax + r for the ball, 2 |d| for |d| against rho, and
    |d| (2 + |d| / w) + rho for the angle verdicts. There |d| / w bounds
    how far an error in |d| moves w = sqrt((|d| - rho)(|d| + rho)), the
    cancellation near |d| = rho. A comparison whose sides are at least
    that far apart decides the same way on both. A nearer one is a near
    tie. A near tie of the ball takes the reference verdict for the node.
    A near tie of |d| and rho takes the reference's |d|, and so its w,
    which leave 2 |d| + rho as the angle verdicts' bound. A near tie of an
    angle verdict decides that row by the reference's expressions
    (_row_reference). At a center on a node's bounding sphere, such as a
    dyadic point at a cube's corner, and at cone edges tangent to it, these
    ties are common; taking the reference for the row alone is what makes
    them cheap.

    Everything the record keeps belongs to its last query center: the
    distance bounds; the offset d and the triple angle of |d|, w (None
    where the node may hold the center) and the bound e of the angle
    verdicts (None in one dimension), once a cone query at that center
    reaches the node; and the
    verdict of the plane cone row alone under the query's plane key. A
    query at another center recomputes the bounds and resets the offset
    and the plane key. So the walks of one worst_cone_ratio or
    halfspace_deficiency share bounds and offsets, and the walks of one
    plane share its row across the direction net. Centers
    that compare equal share all of it, also where a coordinate is 0.0 in
    one and -0.0 in the other: their offsets differ at most in the sign of
    a zero coordinate, which no norm, product sum or comparison here can
    tell apart. The bounding radius is the node's _Shape's.
    """
    shape = node.shape
    if shape is None or query.ball is None:
        return _classify_reference(node.region, query)
    qc, qext, tol, tiny, pk = query.floats
    c = node.c
    if node.qc == qc:
        dmin, dmax = node.dmin, node.dmax
    else:  # Box.dist_bounds
        s_lo = s_hi = 0.0
        for ci, h, qi in zip(c, shape.ext, qc):
            g = abs(qi - ci)
            lo, hi = g - h, g + h
            if lo > 0.0:
                s_lo += lo * lo
            s_hi += hi * hi
        dmin, dmax = math.sqrt(s_lo), math.sqrt(s_hi)
        node.qc, node.dmin, node.dmax, node.d, node.pk = qc, dmin, dmax, None, None
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
    if not query.cones:
        return verdict
    rho = shape.rho
    d = node.d
    if d is None:
        d = node.d = [ci - qi for ci, qi in zip(c, qc)]
        s = 0.0
        for x in d:
            s += x * x
        nd = math.sqrt(s)
        near = len(d) > 1 and not abs(nd - rho) >= tol * 2.0 * nd + tiny
        if near:  # the reference's |d|, and so its w
            nd = _norm(np.array(d))
        w = math.sqrt((nd - rho) * (nd + rho)) if nd >= rho else None
        if len(d) == 1 or w is None:
            e = None
        elif near:
            e = tol * (2.0 * nd + rho) + tiny
        else:
            e = tol * (nd * (2.0 + nd / w) + rho) + tiny
        node.angle = nd, w, e
    nd, w, e = node.angle
    if w is None:  # the node may hold qc
        return _UNDECIDED
    if e is None:  # one dimension: the node lies on the side of d
        for plane, _, _, excluded, vecs, _ in query.cones:
            if vecs != () if plane else d[0] * vecs[0] > 0.0:
                if not nd > rho:
                    verdict = _UNDECIDED
                elif excluded:
                    return _OUTSIDE
            elif not excluded:
                return _OUTSIDE
        return verdict
    for row in query.cones:
        plane, _, a, excluded, vecs, b = row
        if plane and node.pk == pk:
            v = node.pv
        else:
            aw, s = a * w, b * rho
            if plane:  # dist(d, V) = |d - F^T F d|, F the frame rows
                p = [0.0] * len(d)
                for f_row in vecs:
                    pj = 0.0
                    for f, x in zip(f_row, d):
                        pj += f * x
                    for i, f in enumerate(f_row):
                        p[i] += f * pj
                s2 = 0.0
                for x, pi in zip(d, p):
                    x -= pi
                    s2 += x * x
                dist = math.sqrt(s2)
                t = dist - (aw - s)
                if not abs(t) >= e:
                    v = None
                elif t < 0.0:
                    t = a * nd - rho
                    v = None if not abs(t) >= e else _INSIDE if t > 0.0 else _UNDECIDED
                else:
                    t = dist - (aw + s)
                    if not abs(t) >= e:
                        v = None
                    elif t < 0.0:
                        v = _UNDECIDED
                    else:
                        t = b * w - a * rho
                        v = None if not abs(t) >= e else _OUTSIDE if t >= 0.0 else _UNDECIDED
            else:
                value = 0.0
                for x, th in zip(d, vecs):
                    value += x * th
                t = value - (aw + s)
                if not abs(t) >= e:
                    v = None
                elif t > 0.0:
                    t = b * nd - rho
                    v = None if not abs(t) >= e else _INSIDE if t > 0.0 else _UNDECIDED
                else:
                    t = value - (aw - s)
                    v = None if not abs(t) >= e else _OUTSIDE if t <= 0.0 else _UNDECIDED
            if v is None:  # a near tie: this row by the reference's expressions
                dv = np.array(d)
                nr = _norm(dv)
                v = _row_reference(row, dv, nr, math.sqrt((nr - rho) * (nr + rho)), rho)
            if plane:
                node.pk, node.pv = pk, v
        if v == _UNDECIDED:
            verdict = _UNDECIDED
        elif (v == _INSIDE) == excluded:  # inside an excluded cone, or outside a cone
            return _OUTSIDE
    return verdict


def _column_sum(terms: np.ndarray) -> np.ndarray:
    """Sum of the columns of terms, from 0.0 and left to right, as the
    scalar loops of _classify add their terms."""
    s = 0.0
    for i in range(terms.shape[1]):
        s = s + terms[:, i]
    return s


def _classify_rows(centers: np.ndarray, shape: _Shape, query: RegionQuery) -> np.ndarray:
    """_classify's verdicts for the Box nodes whose centers are the rows of
    centers and whose extent is shape, under a ball query: the same float
    expressions, term by term and in the same order, on numpy arrays, whose
    elementwise operations round as Python's do. Near ties are met as in
    _classify: a node at a near tie of the ball takes _classify_reference's
    verdict, a near tie of |d| and rho takes the reference's |d|, and a near
    tie of a cone row takes _row_reference for that row. Nothing is read
    from or stored in a record."""
    qc, qext, tol, tiny, _ = query.floats
    g = np.abs(centers - qc)  # Box.dist_bounds; a lo <= 0 adds 0.0
    lo, hi = np.maximum(g - shape.half, 0.0), g + shape.half
    dmin, dmax = np.sqrt(_column_sum(lo * lo)), np.sqrt(_column_sum(hi * hi))
    e = tol * (dmax + qext) + tiny
    t = dmax - qext
    inside = t <= 0.0
    tie = ~(np.abs(t) >= e)
    t = dmin - qext
    tie |= ~inside & ~(np.abs(t) >= e)
    outside = ~inside & (t > 0.0)
    verdict = np.where(inside, _INSIDE, np.where(outside, _OUTSIDE, _UNDECIDED))
    live = ~tie & ~outside
    if query.cones and live.any():
        rho = shape.rho
        d = centers - qc
        nd = np.sqrt(_column_sum(d * d))
        near = live & ~(np.abs(nd - rho) >= tol * 2.0 * nd + tiny)
        for i in np.flatnonzero(near):  # the reference's |d|, and so its w
            nd[i] = _norm(d[i])
        apex = nd < rho  # the node may hold the center
        verdict[live & apex] = _UNDECIDED
        live &= ~apex
        if d.shape[1] == 1:  # the node lies on the side of d
            for plane, _, _, excluded, vecs, _ in query.cones:
                held = np.full(len(d), vecs != ()) if plane else d[:, 0] * vecs[0] > 0.0
                verdict[live & held & ~(nd > rho)] = _UNDECIDED
                out = live & ((held & (nd > rho)) if excluded else ~held)
                verdict[out] = _OUTSIDE
                live &= ~out
            cones = ()
        else:
            w = np.sqrt(np.where(live, (nd - rho) * (nd + rho), 1.0))
            e = np.where(near, tol * (2.0 * nd + rho) + tiny,
                         tol * (nd * (2.0 + nd / np.where(near, 1.0, w)) + rho) + tiny)
            cones = query.cones
        for row in cones:
            plane, _, a, excluded, vecs, b = row
            aw, s = a * w, b * rho
            if plane:  # dist(d, V) = |d - F^T F d|, F the frame rows
                p = 0.0
                for f_row in vecs:
                    p = p + np.multiply.outer(_column_sum(d * f_row), f_row)
                x = d - p
                dist = np.sqrt(_column_sum(x * x))
                t = dist - (aw - s)
                row_tie = ~(np.abs(t) >= e)
                first = t < 0.0
                t = a * nd - rho
                row_tie |= first & ~(np.abs(t) >= e)
                v_in = first & (t > 0.0)
                t = dist - (aw + s)
                row_tie |= ~first & ~(np.abs(t) >= e)
                second = ~first & (t >= 0.0)
                t = b * w - a * rho
                row_tie |= second & ~(np.abs(t) >= e)
                v_out = second & (t >= 0.0)
            else:
                value = _column_sum(d * vecs)
                t = value - (aw + s)
                row_tie = ~(np.abs(t) >= e)
                first = t > 0.0
                t = b * nd - rho
                row_tie |= first & ~(np.abs(t) >= e)
                v_in = first & (t > 0.0)
                t = value - (aw - s)
                row_tie |= ~first & ~(np.abs(t) >= e)
                v_out = ~first & (t <= 0.0)
            for i in np.flatnonzero(live & row_tie):  # this row by the reference's expressions
                nr = _norm(d[i])
                v = _row_reference(row, d[i], nr, math.sqrt((nr - rho) * (nr + rho)), rho)
                v_in[i], v_out[i], row_tie[i] = v == _INSIDE, v == _OUTSIDE, False
            tie |= live & row_tie
            live &= ~row_tie
            verdict[live & ~v_in & ~v_out] = _UNDECIDED
            out = live & (v_in if excluded else v_out)
            verdict[out] = _OUTSIDE
            live &= ~out
    for i in np.flatnonzero(tie):
        verdict[i] = _classify_reference(Box(np.array(centers[i]), shape.half), query)
    return verdict


# The level walk serves a ball query on a kadic_tree tree without early stop
# once the predicted width of the boundary frontier at the budget, (r k^D /
# root side)^(n - 1), reaches this; below it the DFS over records kept warm
# is as fast or faster (README "Measure trees" gives the measured crossover).
LEVEL_WALK_WIDTH = 64.0
# the level walk's sort keys hold one base-k^n digit per level in an int64
_KEY_LIMIT = 2 ** 62


def _takes_level_walk(tree: MeasureTree, query: RegionQuery, depth_budget: int,
                      early_stop_lo) -> bool:
    kadic = tree._kadic
    if (kadic is None or kadic.n == 1 or query.ball is None
            or early_stop_lo is not None):
        return False
    n, k = kadic.n, kadic.k
    side = 2.0 * float(tree.root_region.half[0])
    log_width = (n - 1) * (math.log(query.floats[1]) + depth_budget * math.log(k)
                           - math.log(side))
    return (log_width >= math.log(LEVEL_WALK_WIDTH) and depth_budget <= 62
            and (k ** n) ** depth_budget <= _KEY_LIMIT)


def _level_walk(tree: MeasureTree, query: RegionQuery, depth_budget: int):
    """The DFS's MeasureInterval, walked one level at a time on arrays.

    Each level's frontier is classified by _classify_rows and its undecided
    nodes are expanded by _KadicChildren.center_rows; child masses are the
    DFS's products, parent mass times weight, one weight a child as
    MeasureTree.weights ensures. The DFS pops the children of a
    node in descending index order, so its pop order is the ascending order
    of the address key whose base-k^n digit at each level is k^n - 1 - idx,
    padded to the budget. The masses of the inside and budget leaves are
    summed sequentially in that order, as the DFS adds them. Returns None,
    for the DFS to take over, where the resolution guard refuses a child,
    so that the DFS raises its own ResourceGuard. Builds no record.
    """
    kadic = tree._kadic
    n_kids = kadic.k ** kadic.n
    digits = np.arange(n_kids - 1, -1, -1, dtype=np.int64)
    root = tree._root
    centers, shape = np.array([root.c]), root.shape
    mass, key = np.ones(1), np.zeros(1, dtype=np.int64)
    leaves = []  # (keys, masses, inside) of each level's leaves
    depth = 0
    while True:
        verdict = _classify_rows(centers, shape, query)
        inside = verdict == _INSIDE
        undecided = verdict == _UNDECIDED
        leaf = inside | undecided if depth >= depth_budget else inside
        leaves.append((key[leaf], mass[leaf], inside[leaf]))
        if depth >= depth_budget or not undecided.any():
            break
        level = depth + 1
        weights = tree.weights(level)
        got = kadic.center_rows(centers[undecided], shape.ext)
        if got is None:
            return None
        h, centers = got
        shape = kadic.shape(h)
        mass = (mass[undecided][:, None] * np.array(weights)).ravel()
        key = (key[undecided][:, None] + digits * n_kids ** (depth_budget - level)).ravel()
        depth = level
    keys, masses, inside = (np.concatenate(part) for part in zip(*leaves))
    order = np.argsort(keys)
    masses, inside = masses[order], inside[order]
    lo, hi = masses[inside].cumsum(), masses.cumsum()
    return MeasureInterval(float(lo[-1]) if len(lo) else 0.0,
                           float(hi[-1]) if len(hi) else 0.0, depth)


def region_measure(tree: MeasureTree, query: RegionQuery, depth_budget: int,
                   early_stop_lo: float | None = None) -> MeasureInterval:
    """Certified enclosure of mu(query) by recursive node classification.

    Nodes undecided at the depth budget contribute to `hi` only. If
    early_stop_lo is given, refinement stops once lo exceeds it; the
    remaining undecided mass is folded into `hi`, keeping the enclosure sound.

    Two walks give the same (lo, hi, depth_used) bit for bit. The DFS
    (_dfs) classifies node records, keeps them and their caches for the life
    of the tree, and serves every query on every tree. A ball query on a
    tree built by kadic_tree, without early stop, whose predicted frontier
    width reaches LEVEL_WALK_WIDTH, takes the level walk (_level_walk)
    instead, which builds no record.
    """
    require_int(depth_budget, "depth_budget", 0)
    if len(query.center) != tree.ambient_dim:
        raise ValueError("query and tree differ in dimension")
    budget = int(depth_budget)
    if _takes_level_walk(tree, query, budget, early_stop_lo):
        got = _level_walk(tree, query, budget)
        if got is not None:
            return got
    return _dfs(tree, query, budget, early_stop_lo)


def _dfs(tree: MeasureTree, query: RegionQuery, depth_budget: int,
         early_stop_lo: float | None) -> MeasureInterval:
    """region_measure by a depth-first walk of the tree's node records.

    The stack holds records alone, each with its mass and depth. A node
    is expanded by pushing its child records in index order, built by
    tree._kids on its first expansion only, so the last child is popped
    first. _classify is read once per walk and called once per popped
    record, so a wrapper put in its place before the walk sees every node.
    """
    classify = _classify
    lo = hi = 0.0
    depth_used = 0
    stack = [tree._root]
    while stack:
        node = stack.pop()
        depth = node.depth
        if depth > depth_used:
            depth_used = depth
        verdict = classify(node, query)
        if verdict == _INSIDE:
            mass = node.mass
            lo += mass
            hi += mass
            if early_stop_lo is not None and lo > early_stop_lo:
                hi += math.fsum(n.mass for n in stack)
                break
        elif verdict == _UNDECIDED:
            if depth >= depth_budget:
                hi += node.mass
            else:
                stack += node.kids or tree._kids(node)
    return MeasureInterval(lo, hi, depth_used)


# ---------------------------------------------------------------------------
# k-adic cube trees


class _KadicChildren:
    """child_fn of kadic_tree, and the builder of its child records.

    centers holds the one float expression and resolution guard of a
    k-adic child; __call__ wraps a center in a Box, and records makes the
    records of the children of a node from its record's floats. center_rows
    is the same expression and guard on numpy arrays, for the children of a
    whole level of the level walk. Every cube of one side shares one
    _Shape, so one read-only half-width array.
    """

    __slots__ = ("n", "k", "shapes")

    def __init__(self, n: int, k: int):
        self.n, self.k = n, k
        self.shapes: dict[float, _Shape] = {}

    def shape(self, h: float) -> _Shape:
        shape = self.shapes.get(h)
        if shape is None:
            half = np.array([h] * self.n)
            half.flags.writeable = False
            shape = self.shapes[h] = _Shape(half)
        return shape

    def centers(self, pc, ph, level: int, idxs) -> tuple:
        """(h, centers) of the children idxs of the cube with center pc and
        half-widths ph (float sequences): the half-width of a child, and
        the center of each as a float tuple.

        A center is cube(pc - ph + offset * side, side)'s, computed on
        Python floats, which round as numpy's elementwise operations do;
        along each axis there are k coordinates, and the children take
        them row-major. A child whose half-width is at most the rounding
        bound of its coordinates raises ResourceGuard, as a ball child does
        in MeasureTree.child; the first such child in idxs raises.
        """
        side = 2.0 * ph[0] / self.k
        h = 0.5 * side
        axes = [[ci - w + o * side + h for o in range(self.k)] for ci, w in zip(pc, ph)]
        grid = list(itertools.product(*axes))
        out = [grid[idx] for idx in idxs]
        top = max(map(abs, pc))

        def refused(c_max):
            # the sums round by a few ulps of the largest coordinate, as in
            # MeasureTree.child's bound for a ball child
            return h <= 8.0 * _U * (c_max + top + ph[0])

        # the bound rounds monotonically in c_max, so no child is refused
        # unless one with the largest coordinate of all would be
        if refused(max(map(abs, itertools.chain(*axes)))):
            for idx, c in zip(idxs, out):
                if refused(max(map(abs, c))):
                    raise ResourceGuard(f"child {idx} at level {level} has a half-width "
                                        "below the resolution of its coordinates")
        return h, out

    def center_rows(self, pc: np.ndarray, ph):
        """centers' expression on numpy arrays, for every child of the cubes
        with centers the rows of pc and shared half-widths ph: (h, centers)
        with the centers as rows, parent by parent and each parent's
        children row-major; or None if centers would raise ResourceGuard for
        a child of any of the cubes."""
        k, n = self.k, self.n
        side = 2.0 * ph[0] / k
        h = 0.5 * side
        offsets = np.arange(k) * side
        axes = [(pc[:, i] - w)[:, None] + offsets + h for i, w in enumerate(ph)]
        # as in centers: the bound rounds monotonically in the largest
        # coordinate, which one child of each cube has
        c_max = np.abs(np.stack(axes)).max(axis=(0, 2))
        if np.any(h <= 8.0 * _U * (c_max + np.abs(pc).max(axis=1) + ph[0])):
            return None
        grid = np.empty((len(pc),) + (k,) * n + (n,))
        for i, a in enumerate(axes):
            grid[..., i] = a.reshape((len(pc),) + (1,) * i + (k,) + (1,) * (n - 1 - i))
        return h, grid.reshape(-1, n)

    def __call__(self, region, level: int, idx: int) -> Box:
        h, (c,) = self.centers(region.center.tolist(), region.half.tolist(), level, (idx,))
        return Box(np.array(c), self.shape(h).half)

    def records(self, node: _Node, level: int, weights: tuple) -> list:
        """Records of all k^n children of a level - 1 node's record, child
        idx with mass node.mass * weights[idx]; MeasureTree.weights ensures
        that weights holds exactly k^n weights."""
        h, centers = self.centers(node.c, node.shape.ext, level, range(len(weights)))
        shape, mass = self.shape(h), node.mass
        return [_Node(None, None, c, shape, mass * w, level)
                for c, w in zip(centers, weights)]


def kadic_tree(n: int, k: int, weights_fn) -> MeasureTree:
    """k-adic cube tree on [0,1)^n.

    weights_fn(level) gives the conditional weights of the k^n children of
    every level - 1 cube, enumerated row-major over axis indices (level is
    1-based for the children being generated). A child whose half-width is
    at most the rounding bound of its coordinates raises ResourceGuard, as
    a ball child does in MeasureTree.child. The tree builds its node
    records on floats, and every cube of one side shares one read-only
    half-width array (see _KadicChildren). This is the one way to build a
    k-adic tree: its tree.k is k.
    """
    require_int(n, "n", 1)
    require_int(k, "k", 2)
    return MeasureTree(cube(np.zeros(n), 1.0), weights_fn, _KadicChildren(n, k))


def lebesgue_tree(n: int, k: int = 2) -> MeasureTree:
    """Uniform (Lebesgue) measure on [0,1)^n as a k-adic tree."""
    require_int(n, "n", 1)
    require_int(k, "k", 2)
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
    require_int(depth, "depth", 0)
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

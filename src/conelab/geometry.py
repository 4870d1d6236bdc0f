"""Cone membership predicates, linear subspaces and finite covering nets.

Conventions: points are 1-d numpy arrays, all cone conditions are strict
inequalities (boundary points are excluded), and the apex itself never
belongs to a cone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


def _as_vector(v, n=None):
    a = np.asarray(v, dtype=float)
    if a.ndim != 1:
        raise ValueError(f"expected a 1-d vector, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("vector has non-finite entries")
    if n is not None and a.shape[0] != n:
        raise ValueError(f"dimension mismatch: expected {n}, got {a.shape[0]}")
    return a


def unit_vector(v):
    """Validate that v is a unit vector (within 1e-12) and return it."""
    a = _as_vector(v)
    if abs(np.linalg.norm(a) - 1.0) > 1e-12:
        raise ValueError("not a unit vector")
    return a


def in_almost_halfspace(x, theta, alpha, y) -> bool:
    """Membership of y in the almost-half-space around direction theta at x.

    The condition is (y - x) . theta > alpha * |y - x|, strictly.
    y == x always returns False.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must lie in [0, 1]")
    x = _as_vector(x)
    y = _as_vector(y, x.shape[0])
    theta = _as_vector(theta, x.shape[0])
    d = y - x
    return float(d @ theta) > alpha * float(np.linalg.norm(d))


def in_one_sided_cone(x, theta, alpha, y) -> bool:
    """Membership in the narrow one-sided cone of opening alpha at x.

    Equivalent to the almost-half-space with parameter sqrt(1 - alpha^2).
    """
    if not 0.0 < alpha <= 1.0:
        raise ValueError("alpha must lie in (0, 1]")
    return in_almost_halfspace(x, theta, math.sqrt(max(0.0, 1.0 - alpha * alpha)), y)


@dataclass(frozen=True)
class Subspace:
    """A linear subspace of R^n given by an orthonormal frame.

    frame has shape (n - m, n): rows are orthonormal spanning vectors.
    codim is the codimension m.
    """

    frame: np.ndarray
    codim: int = field(init=False)

    def __post_init__(self):
        f = np.atleast_2d(np.asarray(self.frame, dtype=float))
        if f.shape[0] > f.shape[1]:
            raise ValueError("frame has more vectors than the ambient dimension")
        g = f @ f.T
        if np.max(np.abs(g - np.eye(f.shape[0]))) > 1e-10:
            raise ValueError("frame is not orthonormal")
        object.__setattr__(self, "frame", f)
        object.__setattr__(self, "codim", f.shape[1] - f.shape[0])

    @property
    def ambient_dim(self) -> int:
        return self.frame.shape[1]

    @property
    def dim(self) -> int:
        return self.frame.shape[0]

    def project(self, v: np.ndarray) -> np.ndarray:
        return self.frame.T @ (self.frame @ v)

    def dist(self, v: np.ndarray) -> float:
        """Euclidean distance from the vector v to the subspace."""
        return float(np.linalg.norm(v - self.project(v)))

    @staticmethod
    def full(n: int) -> "Subspace":
        return Subspace(np.eye(n))


def orthogonal_project(V: Subspace, y):
    """Split y into (proj_V y, y - proj_V y)."""
    y = _as_vector(y, V.ambient_dim)
    p = V.project(y)
    return p, y - p


def in_plane_cone(x, V: Subspace, alpha, y) -> bool:
    """Membership of y in the two-sided cone around the plane V + x.

    The condition is dist(y - x, V) < alpha * |y - x|, strictly.
    """
    if not 0.0 < alpha <= 1.0:
        raise ValueError("alpha must lie in (0, 1]")
    x = _as_vector(x, V.ambient_dim)
    y = _as_vector(y, V.ambient_dim)
    d = y - x
    return V.dist(d) < alpha * float(np.linalg.norm(d))


def subspace_distance(V: Subspace, W: Subspace) -> float:
    """Metric d(V, W) = sup over unit x in V of dist(x, W).

    Equals the sine of the largest principal angle between the frames;
    requires equal ambient dimension and codimension.
    """
    if V.ambient_dim != W.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    if V.codim != W.codim:
        raise ValueError("codimension mismatch")
    s = np.linalg.svd(V.frame @ W.frame.T, compute_uv=False)
    smin = min(1.0, float(np.min(s)))
    return math.sqrt(max(0.0, 1.0 - smin * smin))


def direction_net_beta(alpha: float) -> float:
    """Opening parameter beta of the direction-net cover for a given alpha."""
    return math.cos(math.acos(alpha / 2.0) - math.acos(alpha))


@dataclass(frozen=True)
class DirectionNet:
    """Finite set of directions whose beta-cones cover the unit sphere.

    Covering certificate: every unit theta satisfies theta . theta_i > beta
    for some i, which yields H(x, theta, alpha) inside H(x, theta_i, alpha/2).
    """

    directions: np.ndarray  # shape (K, n)
    beta: float
    alpha: float

    @property
    def size(self) -> int:
        return self.directions.shape[0]

    def covering_index(self, theta) -> int:
        """Index of a net direction covering theta, or -1 if none does."""
        theta = _as_vector(theta, self.directions.shape[1])
        dots = self.directions @ theta
        i = int(np.argmax(dots))
        return i if dots[i] > self.beta else -1


def random_unit_vectors(n: int, count: int, rng) -> np.ndarray:
    g = rng.standard_normal((count, n))
    norms = np.linalg.norm(g, axis=1, keepdims=True)
    # Degenerate draws are astronomically unlikely; resample rather than divide by ~0.
    bad = norms[:, 0] < 1e-12
    while np.any(bad):
        g[bad] = rng.standard_normal((int(np.sum(bad)), n))
        norms = np.linalg.norm(g, axis=1, keepdims=True)
        bad = norms[:, 0] < 1e-12
    return g / norms


def build_direction_net(n: int, alpha: float, seed: int = 0) -> DirectionNet:
    """Covering net of S^{n-1} by cones H(0, theta_i, beta).

    n = 1 and n = 2 are deterministic; higher dimensions use a randomized
    greedy packing at 90% of the covering angle so the sample-tested
    certificate has slack; it stops after 10,000 rejections in a row.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if not 0.0 < alpha <= 1.0:
        raise ValueError("alpha must lie in (0, 1]")
    beta = direction_net_beta(alpha)
    if n == 1:
        dirs = np.array([[1.0], [-1.0]])
        return DirectionNet(dirs, beta, alpha)
    radius = math.acos(beta)  # angular covering radius
    if n == 2:
        k = int(math.ceil(2.0 * math.pi / radius))
        ang = 2.0 * math.pi * np.arange(k) / k
        dirs = np.column_stack([np.cos(ang), np.sin(ang)])
        return DirectionNet(dirs, beta, alpha)
    rng = np.random.default_rng(seed)
    sep = 0.9 * radius
    cos_sep = math.cos(sep)
    kept: list[np.ndarray] = []
    streak = 0
    while streak < 10_000:
        cand = random_unit_vectors(n, 1, rng)[0]
        if kept and np.max(np.asarray(kept) @ cand) >= cos_sep:
            streak += 1
        else:
            kept.append(cand)
            streak = 0
    return DirectionNet(np.asarray(kept), beta, alpha)


@dataclass(frozen=True)
class SubspaceNet:
    """Finite cover of the Grassmannian G(n, n-m) by metric balls of radius alpha/2."""

    planes: tuple
    alpha: float

    @property
    def size(self) -> int:
        return len(self.planes)

    def covering_index(self, V: Subspace) -> int:
        """Index of a net plane within alpha/2 of V, or -1 if none is."""
        half = self.alpha / 2.0
        best, best_d = -1, math.inf
        for j, W in enumerate(self.planes):
            d = subspace_distance(V, W)
            if d < best_d:
                best, best_d = j, d
        return best if best_d < half else -1


def random_subspace(n: int, m: int, rng) -> Subspace:
    """Rotation-invariant random (n-m)-plane via orthonormalized Gaussian frames."""
    g = rng.standard_normal((n, n - m))
    q, _ = np.linalg.qr(g)
    return Subspace(q.T)


def build_subspace_net(n: int, m: int, alpha: float, seed: int = 0,
                       rejection_streak: int = 10_000) -> SubspaceNet:
    """Randomized greedy covering of G(n, n-m) by balls of radius alpha/2.

    Samples are kept when farther than 0.9 * alpha/2 from every kept plane;
    construction stops after rejection_streak rejections in a row. The 10%
    margin keeps the sampled covering certificate comfortably away from the
    stopping-rule tail.
    """
    if not 0 <= m <= n - 1:
        raise ValueError("m must satisfy 0 <= m <= n-1")
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    if m == 0:
        return SubspaceNet((Subspace.full(n),), alpha)
    rng = np.random.default_rng(seed)
    sep = 0.9 * alpha / 2.0
    kept: list[Subspace] = []
    streak = 0
    while streak < rejection_streak:
        cand = random_subspace(n, m, rng)
        if kept and min(subspace_distance(cand, W) for W in kept) < sep:
            streak += 1
        else:
            kept.append(cand)
            streak = 0
    return SubspaceNet(tuple(kept), alpha)

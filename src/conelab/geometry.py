"""Cone membership predicates, linear subspaces and finite covering nets.

Conventions: points are 1-d numpy arrays, all cone conditions are strict
inequalities (boundary points are excluded), and the apex itself never
belongs to a cone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .validate import require_int

# Subspace frames must satisfy max |F F^T - I| <= this.
_ORTHONORMAL_TOL = 1e-10
# The greedy packer draws, orthonormalizes and measures this many candidates
# at once. Draws past the stopping point are wasted: at most one chunk, under
# a tenth of the 10,000-rejection streak.
_CHUNK = 1024
# A stacked kernel may round differently from the per-candidate expression.
# Dot products of unit vectors computed in another order differ by a few
# units in the last place, and so do the singular values of their products,
# far below this. sqrt(1 - s^2) near a separation sep amplifies a difference
# in s by about 1/sep, so plane sines use _TIE / sep. Only a value farther
# than that from the separation decides a candidate without the
# per-candidate expression.
_TIE = 1e-12


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

    The condition is (y - x) . theta > alpha * |y - x|, strictly, for a unit
    vector theta. y == x always returns False.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must lie in [0, 1]")
    x = _as_vector(x)
    y = _as_vector(y, x.shape[0])
    theta = unit_vector(_as_vector(theta, x.shape[0]))
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
    codim is the codimension m, and rows the frame's rows as float tuples,
    taken when the subspace is built.
    """

    frame: np.ndarray
    codim: int = field(init=False)
    rows: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        f = np.atleast_2d(np.asarray(self.frame, dtype=float))
        if f.shape[0] > f.shape[1]:
            raise ValueError("frame has more vectors than the ambient dimension")
        if _orthonormality_error(f) > _ORTHONORMAL_TOL:
            raise ValueError("frame is not orthonormal")
        object.__setattr__(self, "frame", f)
        object.__setattr__(self, "codim", f.shape[1] - f.shape[0])
        object.__setattr__(self, "rows", tuple(map(tuple, f.tolist())))

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
        r = v - self.project(v)
        return math.sqrt(r.dot(r))

    @staticmethod
    def full(n: int) -> "Subspace":
        return Subspace(np.eye(n))


def _orthonormality_error(frames: np.ndarray):
    """max |F F^T - I| of each frame F stacked along the leading axes."""
    g = frames @ np.swapaxes(frames, -1, -2)
    return np.max(np.abs(g - np.eye(frames.shape[-2])), axis=(-2, -1))


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


def _sine_distances(V: Subspace, frames: np.ndarray) -> np.ndarray:
    """subspace_distance from V to each of the K frames stacked in
    frames, shape (K, dim, n), from one batched SVD."""
    if frames.shape[2] != V.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    if frames.shape[1] != V.dim:
        raise ValueError("codimension mismatch")
    return _sines(np.linalg.svd(V.frame @ frames.transpose(0, 2, 1), compute_uv=False))


def _sines(s: np.ndarray) -> np.ndarray:
    """Sine of the largest principal angle from singular values s of
    frame products, stacked along the leading axes."""
    smin = np.minimum(1.0, np.min(s, axis=-1))
    return np.sqrt(np.maximum(0.0, 1.0 - smin * smin))


def _smallest_singular_2x2(p: np.ndarray) -> np.ndarray:
    """Smallest singular value of each 2 x 2 matrix [[a, b], [c, d]] stacked
    along the leading axes of p, in closed form:
    |hypot(a + d, b - c) - hypot(a - d, b + c)| / 2.

    For products of orthonormal 2-frames it differs from the SVD's by a few
    times 2^-52 (at most 2.5 over 10^6 random pairs), far below _TIE, so
    the greedy packer may use it for its stacked distances.
    """
    a, b, c, d = p[..., 0, 0], p[..., 0, 1], p[..., 1, 0], p[..., 1, 1]
    return 0.5 * np.abs(np.hypot(a + d, b - c) - np.hypot(a - d, b + c))


def subspace_distance(V: Subspace, W: Subspace) -> float:
    """Metric d(V, W) = sup over unit x in V of dist(x, W).

    Equals the sine of the largest principal angle between the frames;
    requires equal ambient dimension and codimension.
    """
    return float(_sine_distances(V, W.frame[None])[0])


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


def _greedy_pack(chunks, dist, sep: float, tie: float, too_close,
                 rejection_streak: int) -> list:
    """Randomized greedy packing at separation sep, drawn in chunks.

    Keeps each draw that is not too_close(draw, stacked kept) and stops after
    rejection_streak rejections in a row. chunks yields the draws stacked
    along axis 0, in draw order. dist(cands, kept) is a stacked kernel: the
    distance from each candidate to its nearest kept element, too close
    below sep. A chunk is measured against the kept set once; after each
    acceptance the rest of the chunk takes the minimum with its distance to
    the new element alone. A distance within tie of sep may have rounded to
    the other side, so that candidate is re-decided by too_close, the
    per-draw expression. The kept elements are therefore the ones a per-draw
    loop keeps, bit for bit. Each is stored as its own copy.
    """
    kept: list = []
    streak = 0
    for cands in chunks:
        d = dist(cands, np.asarray(kept)) if kept else np.full(len(cands), np.inf)
        i = 0
        while True:
            # every candidate before j is too close beyond doubt
            ahead = np.flatnonzero(d[i:] >= sep - tie)
            j = i + int(ahead[0]) if ahead.size else len(cands)
            streak += j - i
            if streak >= rejection_streak:
                return kept
            if j == len(cands):
                break
            if d[j] <= sep + tie and too_close(cands[j], np.asarray(kept)):
                streak += 1  # the next pass stops if this ends the streak
            else:
                kept.append(cands[j].copy())
                streak = 0
                d[j + 1:] = np.minimum(d[j + 1:], dist(cands[j + 1:], kept[-1][None]))
            i = j + 1
    return kept


def _pack_directions(n: int, cos_sep: float, rng, rejection_streak: int) -> list:
    """Greedy packing of unit vectors with pairwise dot products below cos_sep.

    The candidates are the draws of random_unit_vectors(n, 1, rng), one call
    per candidate: a row of a chunk whose norm is below 1e-12 is dropped, as
    that call resampled it from the next n normals.
    """
    def chunks():
        while True:
            g = rng.standard_normal((_CHUNK, n))
            norms = np.linalg.norm(g, axis=1, keepdims=True)
            ok = ~(norms[:, 0] < 1e-12)
            yield g[ok] / norms[ok]

    # the distance to the kept set is minus the largest dot product with it
    return _greedy_pack(chunks(), lambda u, kept: -np.max(u @ kept.T, axis=1),
                        -cos_sep, _TIE,
                        lambda u, kept_dirs: np.max(kept_dirs @ u) >= cos_sep,
                        rejection_streak)


def build_direction_net(n: int, alpha: float, seed: int = 0) -> DirectionNet:
    """Covering net of S^{n-1} by cones H(0, theta_i, beta).

    n = 1 and n = 2 are deterministic; higher dimensions use a randomized
    greedy packing at 90% of the covering angle so the sample-tested
    certificate has slack; it stops after 10,000 rejections in a row. The
    draws are those of random_unit_vectors(n, 1, default_rng(seed)), one
    call per draw, taken in chunks by _greedy_pack; the net is the one a
    per-draw loop keeps, bit for bit. n >= 1 and seed >= 0 must be
    integers.
    """
    require_int(n, "n", 1)
    require_int(seed, "seed", 0)
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
    cos_sep = math.cos(0.9 * radius)
    return DirectionNet(np.asarray(_pack_directions(n, cos_sep, rng, 10_000)), beta, alpha)


@dataclass(frozen=True)
class SubspaceNet:
    """Finite cover of the Grassmannian G(n, n-m) by metric balls of radius alpha/2."""

    planes: tuple
    alpha: float

    @property
    def size(self) -> int:
        return len(self.planes)

    def covering_index(self, V: Subspace) -> int:
        """Index of a nearest net plane if it lies within alpha/2 of V, else -1."""
        d = _sine_distances(V, np.asarray([W.frame for W in self.planes]))
        j = int(np.argmin(d))
        return j if d[j] < self.alpha / 2.0 else -1


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
    stopping-rule tail. The samples are those of random_subspace(n, m,
    default_rng(seed)), one call per sample, drawn and orthonormalized in
    chunks by _greedy_pack; every sample passes the Subspace orthonormality
    check, and the net is the one a per-sample loop keeps, bit for bit.
    n >= 1, 0 <= m <= n - 1, seed >= 0 and rejection_streak >= 1 must be
    integers.
    """
    require_int(n, "n", 1)
    require_int(m, "m", 0)
    require_int(seed, "seed", 0)
    require_int(rejection_streak, "rejection_streak", 1)
    if not m <= n - 1:
        raise ValueError("m must satisfy 0 <= m <= n-1")
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    if m == 0:
        return SubspaceNet((Subspace.full(n),), alpha)
    rng = np.random.default_rng(seed)
    sep = 0.9 * alpha / 2.0

    # Candidates are the orthonormal factors Q of random_subspace's draws,
    # shape (n, n - m); the plane's frame is Q.T, as random_subspace builds it.
    def chunks():
        while True:
            q, _ = np.linalg.qr(rng.standard_normal((_CHUNK, n, n - m)))
            bad = np.flatnonzero(_orthonormality_error(np.swapaxes(q, 1, 2)) > _ORTHONORMAL_TOL)
            if bad.size:
                # the packer stops before this candidate or meets the error
                yield q[:bad[0]]
                raise ValueError("frame is not orthonormal")
            yield q

    def dist(qs, kept):
        p = np.swapaxes(qs, 1, 2)[:, None] @ kept
        if n - m == 1:
            # the singular value of a 1 x 1 matrix is its absolute value, as the SVD gives it
            s = np.abs(p[..., 0])
        elif n - m == 2:
            s = _smallest_singular_2x2(p)[..., None]
        else:
            s = np.linalg.svd(p, compute_uv=False)
        return np.min(_sines(s), axis=1)

    def too_close(q, kept):
        frames = np.ascontiguousarray(np.swapaxes(kept, 1, 2))
        return np.min(_sine_distances(Subspace(q.T), frames)) < sep

    kept = _greedy_pack(chunks(), dist, sep, _TIE / sep, too_close, rejection_streak)
    return SubspaceNet(tuple(Subspace(q.T) for q in kept), alpha)

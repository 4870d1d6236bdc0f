import json
import math
import pathlib
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conelab import geometry
from conelab.configurations import (check_separated_inclusion, compute_t,
                                    search_counterexample_set)
from conelab.constructions import support_point
from conelab.geometry import (DirectionNet, Subspace, build_direction_net,
                              build_subspace_net, direction_net_beta,
                              in_almost_halfspace, in_one_sided_cone,
                              in_plane_cone, orthogonal_project,
                              random_subspace, random_unit_vectors,
                              subspace_distance, unit_vector)
from conelab.measure import lebesgue_tree

finite = st.floats(-10.0, 10.0, allow_nan=False)
alphas = st.floats(0.05, 1.0)


def vec(dims=2):
    return st.lists(finite, min_size=dims, max_size=dims).map(np.array)


def test_apex_never_in_cone():
    x = np.array([1.0, 2.0])
    assert not in_almost_halfspace(x, np.array([1.0, 0.0]), 0.3, x)
    assert not in_one_sided_cone(x, np.array([1.0, 0.0]), 0.3, x)


def test_halfspace_strictness_on_boundary():
    x = np.zeros(2)
    theta = np.array([1.0, 0.0])
    # ray at 60 degrees: on the alpha = 1/2 boundary up to rounding
    y = np.array([0.5, 0.5 * math.sqrt(3.0)])
    assert not in_almost_halfspace(x, theta, 0.5 + 1e-9, y)
    assert in_almost_halfspace(x, theta, 0.5 - 1e-9, y)


@settings(max_examples=200)
@given(vec(), vec(), alphas)
def test_one_sided_cone_matches_halfspace_identity(x, y, alpha):
    theta = np.array([0.6, 0.8])
    want = in_almost_halfspace(x, theta, math.sqrt(1.0 - alpha * alpha), y)
    assert in_one_sided_cone(x, theta, alpha, y) == want


@settings(max_examples=200)
@given(vec(), vec(), st.floats(0.0, 1.0))
def test_halfspace_antisymmetry(x, y, alpha):
    theta = np.array([0.6, 0.8])
    if in_almost_halfspace(x, theta, alpha, y):
        assert in_almost_halfspace(y, -theta, alpha, x)


@settings(max_examples=200)
@given(vec(), vec(), alphas)
def test_opposite_cones_disjoint(x, y, alpha):
    theta = np.array([0.6, 0.8])
    both = (in_one_sided_cone(x, theta, alpha, y)
            and in_one_sided_cone(x, -theta, alpha, y))
    assert not both


# Each predicate must refuse a direction that is not a unit vector: with
# theta = (2, 0) the almost-half-space of the first case would otherwise test
# a wider cone, and y = (1, 3) would fall inside it.
CONE_CHECKS = {
    "in_almost_halfspace": lambda th: in_almost_halfspace(
        np.zeros(2), th, 0.5, np.array([1.0, 3.0])),
    "in_one_sided_cone": lambda th: in_one_sided_cone(
        np.zeros(2), th, 0.5, np.array([1.0, 3.0])),
    "check_separated_inclusion": lambda th: check_separated_inclusion(
        np.zeros(2), 1.0, np.array([100.0, 0.0]), 1.0, th, 0.5, compute_t(0.5).t),
}


@pytest.mark.parametrize("theta", [(2.0, 0.0), (0.5, 0.0), (1.0, 1e-5), (0.0, 0.0)])
@pytest.mark.parametrize("check", sorted(CONE_CHECKS))
def test_cone_predicates_refuse_non_unit_direction(check, theta):
    with pytest.raises(ValueError, match="unit vector"):
        CONE_CHECKS[check](np.array(theta))


def test_unit_vector_validation():
    unit_vector(np.array([0.0, 1.0]))
    with pytest.raises(ValueError):
        unit_vector(np.array([0.0, 1.1]))


def test_subspace_frame_validation_and_projection():
    V = Subspace(np.array([[1.0, 0.0]]))
    assert V.codim == 1 and V.dim == 1 and V.ambient_dim == 2
    y = np.array([3.0, 4.0])
    p, q = orthogonal_project(V, y)
    assert np.allclose(p, [3.0, 0.0]) and np.allclose(q, [0.0, 4.0])
    assert V.dist(y) == pytest.approx(4.0)
    with pytest.raises(ValueError):
        Subspace(np.array([[1.0, 1.0]]))


def test_plane_cone_membership():
    V = Subspace(np.array([[1.0, 0.0]]))
    x = np.zeros(2)
    assert in_plane_cone(x, V, 0.5, np.array([10.0, 1.0]))
    assert not in_plane_cone(x, V, 0.5, np.array([1.0, 10.0]))
    assert not in_plane_cone(x, V, 0.5, x)


def test_subspace_distance_two_lines():
    for phi in (0.1, 0.4, 1.2):
        V = Subspace(np.array([[1.0, 0.0]]))
        W = Subspace(np.array([[math.cos(phi), math.sin(phi)]]))
        assert subspace_distance(V, W) == pytest.approx(math.sin(phi), abs=1e-12)


@settings(max_examples=50)
@given(st.integers(0, 2 ** 32 - 1))
def test_subspace_distance_metric_properties(seed):
    rng = np.random.default_rng(seed)
    U = random_subspace(3, 1, rng)
    V = random_subspace(3, 1, rng)
    W = random_subspace(3, 1, rng)
    duv = subspace_distance(U, V)
    assert 0.0 <= duv <= 1.0
    assert duv == pytest.approx(subspace_distance(V, U), abs=1e-7)
    # sqrt(1 - s^2) amplifies unit-scale SVD rounding to about 1e-8
    assert subspace_distance(U, U) <= 1e-7
    assert duv <= subspace_distance(U, W) + subspace_distance(W, V) + 1e-7


def test_direction_net_small_dimensions():
    net1 = build_direction_net(1, 0.7)
    assert sorted(net1.directions[:, 0].tolist()) == [-1.0, 1.0]
    net2 = build_direction_net(2, 0.5)
    assert net2.size == 24
    beta = direction_net_beta(0.5)
    assert net2.beta == pytest.approx(beta)
    # consecutive directions separated by exactly the covering angle or less
    angles = np.sort(np.arctan2(net2.directions[:, 1], net2.directions[:, 0]))
    gaps = np.diff(np.concatenate([angles, [angles[0] + 2 * math.pi]]))
    assert np.max(gaps) <= math.acos(beta) + 1e-12


def test_direction_net_covers_random_directions():
    rng = np.random.default_rng(3)
    for n in (2, 3):
        net = build_direction_net(n, 0.6, seed=1)
        for theta in random_unit_vectors(n, 500, rng):
            assert net.covering_index(theta) >= 0


def test_covered_halfspace_inclusion_sampled():
    # y in H(0, theta, alpha) implies y in H(0, theta_i, alpha/2) for the
    # net direction covering theta
    alpha = 0.5
    net = build_direction_net(2, alpha)
    rng = np.random.default_rng(7)
    for _ in range(200):
        theta = random_unit_vectors(2, 1, rng)[0]
        i = net.covering_index(theta)
        assert i >= 0
        y = random_unit_vectors(2, 1, rng)[0] * rng.uniform(0.1, 5.0)
        if in_almost_halfspace(np.zeros(2), theta, alpha, y):
            assert in_almost_halfspace(np.zeros(2), net.directions[i],
                                       alpha / 2.0, y)


def test_subspace_net_covers_random_planes():
    alpha = 0.5
    net = build_subspace_net(2, 1, alpha, seed=0)
    assert net.size >= 2
    rng = np.random.default_rng(11)
    for _ in range(500):
        V = random_subspace(2, 1, rng)
        assert net.covering_index(V) >= 0


def test_subspace_net_trivial_codimension():
    net = build_subspace_net(3, 0, 0.5)
    assert net.size == 1
    assert net.planes[0].dim == 3


def test_net_input_validation():
    with pytest.raises(ValueError):
        build_direction_net(0, 0.5)
    with pytest.raises(ValueError):
        build_direction_net(2, 0.0)
    with pytest.raises(ValueError):
        build_subspace_net(2, 2, 0.5)
    # a plane of another ambient dimension or codimension has no distance to
    # the net's planes; a stacked product would broadcast the line's (1, 3)
    # frame against the (2, 3) frames without complaint
    net = build_subspace_net(3, 1, 0.9, rejection_streak=50)
    line = Subspace(np.array([[1.0, 0.0, 0.0]]))
    with pytest.raises(ValueError, match="ambient dimension"):
        net.covering_index(Subspace(np.eye(4)[:2]))
    with pytest.raises(ValueError, match="codimension"):
        net.covering_index(line)
    with pytest.raises(ValueError, match="ambient dimension"):
        subspace_distance(line, Subspace(np.array([[1.0, 0.0]])))
    with pytest.raises(ValueError, match="codimension"):
        subspace_distance(line, net.planes[0])


# tests/net_golden.json holds nets recorded before the net builders shared
# one greedy packer and one batched sine-angle kernel (G(3,2) at alpha 0.5:
# before its stacked sines took the closed form for 2 x 2 products): the
# planes' frames and the directions must match bit for bit.
NET_GOLDEN = json.loads((pathlib.Path(__file__).parent / "net_golden.json").read_text())


@pytest.mark.parametrize("case", NET_GOLDEN["subspace"],
                         ids=lambda c: f"G{c['n']}{c['n'] - c['m']}-a{c['alpha']}-s{c['seed']}")
def test_subspace_net_golden(case):
    streak = case["rejection_streak"]
    if streak is None:
        net = build_subspace_net(case["n"], case["m"], case["alpha"], seed=case["seed"])
    else:
        net = build_subspace_net(case["n"], case["m"], case["alpha"], seed=case["seed"],
                                 rejection_streak=streak)
    assert [W.frame.tolist() for W in net.planes] == case["frames"]


@pytest.mark.parametrize("case", NET_GOLDEN["direction"],
                         ids=lambda c: f"S{c['n'] - 1}-a{c['alpha']}")
def test_direction_net_golden(case):
    net = build_direction_net(case["n"], case["alpha"], seed=case["seed"])
    assert net.directions.tolist() == case["directions"]


# The greedy packer as it was before it drew in chunks, kept as a slow
# reference: one draw, one Subspace or unit vector, and one stacked distance
# to the kept set per round trip. It returns the kept elements and the number
# of draws.
def _per_draw_pack(draw, key, too_close, rejection_streak):
    kept = []
    stack = None
    streak = draws = 0
    while streak < rejection_streak:
        cand = draw()
        draws += 1
        if kept and too_close(cand, stack):
            streak += 1
        else:
            kept.append(cand)
            stack = np.asarray([key(c) for c in kept])
            streak = 0
    return kept, draws


def _cos_sep(alpha):
    return math.cos(0.9 * math.acos(direction_net_beta(alpha)))


def _per_draw(space, rng, rejection_streak):
    """Kept frames or directions as lists, and the number of draws."""
    if space[0] == "plane":
        _, n, m, alpha = space
        sep = 0.9 * alpha / 2.0
        kept, draws = _per_draw_pack(
            lambda: random_subspace(n, m, rng), lambda V: V.frame,
            lambda V, frames: np.min(geometry._sine_distances(V, frames)) < sep,
            rejection_streak)
        return [V.frame.tolist() for V in kept], draws
    _, n, alpha = space
    cos_sep = _cos_sep(alpha)
    kept, draws = _per_draw_pack(
        lambda: random_unit_vectors(n, 1, rng)[0], lambda u: u,
        lambda u, kept_dirs: np.max(kept_dirs @ u) >= cos_sep, rejection_streak)
    return np.asarray(kept).tolist(), draws


def _chunked(space, rng, rejection_streak):
    """Kept frames or directions as lists; planes are drawn from
    default_rng(0), directions from rng."""
    if space[0] == "plane":
        _, n, m, alpha = space
        net = build_subspace_net(n, m, alpha, seed=0, rejection_streak=rejection_streak)
        for W in net.planes:
            owner = W.frame
            while owner.base is not None:
                owner = owner.base
            assert owner.size == W.frame.size  # a copy, not a view of a chunk
        return [W.frame.tolist() for W in net.planes]
    _, n, alpha = space
    return np.asarray(geometry._pack_directions(n, _cos_sep(alpha), rng,
                                                rejection_streak)).tolist()


PACK_SPACES = {
    "G21": ("plane", 2, 1, 0.5),
    "G31": ("plane", 3, 2, 0.9),
    "G32": ("plane", 3, 1, 0.9),
    "S2": ("sphere", 3, 0.9),
    "S3": ("sphere", 4, 0.95),
}


def _same_as_per_draw(space, rejection_streak):
    want, draws = _per_draw(space, np.random.default_rng(0), rejection_streak)
    assert _chunked(space, np.random.default_rng(0), rejection_streak) == want
    return draws


# streaks that end inside the first chunk and in later chunks
@pytest.mark.parametrize("streak", [1, 50, geometry._CHUNK - 1, geometry._CHUNK,
                                    geometry._CHUNK + 1, 2000])
@pytest.mark.parametrize("space", sorted(PACK_SPACES))
def test_chunked_packer_keeps_the_per_draw_elements(space, streak):
    _same_as_per_draw(PACK_SPACES[space], streak)


@pytest.mark.parametrize("space", sorted(PACK_SPACES))
def test_chunked_packer_stops_on_and_after_a_chunk_boundary(space, monkeypatch):
    # with the chunk as long as the per-draw loop's draws, the stop falls on
    # the last candidate of the first chunk; one shorter, on the first
    # candidate of the second; with chunks of one, every draw is a chunk
    draws = _same_as_per_draw(PACK_SPACES[space], 50)
    for chunk in (draws, draws - 1, 1):
        monkeypatch.setattr(geometry, "_CHUNK", chunk)
        _same_as_per_draw(PACK_SPACES[space], 50)


@pytest.mark.parametrize("space", sorted(PACK_SPACES))
def test_near_tie_fallback_keeps_the_per_draw_elements(space, monkeypatch):
    # a tie bound this wide sends every candidate after the first to the
    # per-candidate expression
    monkeypatch.setattr(geometry, "_TIE", 10.0)
    _same_as_per_draw(PACK_SPACES[space], 50)


class _ZeroRows:
    """Generator stand-in: the normals of default_rng(seed), with the rows of
    n values whose indices are in zero_rows set to zero."""

    def __init__(self, seed, n, zero_rows):
        self._rng = np.random.default_rng(seed)
        self._n = n
        self._zero_rows = zero_rows
        self._used = 0

    def standard_normal(self, shape):
        x = self._rng.standard_normal(shape)
        flat = x.reshape(-1)
        for row in self._zero_rows:
            i = row * self._n - self._used
            if 0 <= i < flat.size:
                flat[i:i + self._n] = 0.0
        self._used += flat.size
        return x


@pytest.mark.parametrize("streak", [1, 2000])
@pytest.mark.parametrize("space", ["S2", "S3"])
def test_degenerate_direction_draws_are_skipped_as_the_resample_did(space, streak):
    # random_unit_vectors resamples a zero row from the next n normals; rows
    # 0 and 1 make the first draw resample twice, rows _CHUNK - 1 and _CHUNK
    # straddle the first chunk boundary (streak 2000 draws past it)
    n = PACK_SPACES[space][1]
    rows = (0, 1, 4, geometry._CHUNK - 1, geometry._CHUNK)
    want, draws = _per_draw(PACK_SPACES[space], _ZeroRows(0, n, rows), streak)
    got = _chunked(PACK_SPACES[space], _ZeroRows(0, n, rows), streak)
    assert got == want
    assert np.all(np.isfinite(got))
    if streak == 2000:
        assert draws > geometry._CHUNK


def _bend_first_chunk(monkeypatch, index):
    """Scale candidate index of the first stacked QR by 1 + 1e-6, so that its
    frame fails the orthonormality check by about 2e-6."""
    real_qr = np.linalg.qr
    calls = []

    def qr(a, *args, **kwargs):
        q, r = real_qr(a, *args, **kwargs)
        if q.ndim == 3 and not calls:
            q = q.copy()
            q[index] *= 1.0 + 1e-6
        calls.append(a.shape)
        return q, r

    monkeypatch.setattr(np.linalg, "qr", qr)


def test_rejected_candidate_still_fails_the_orthonormality_check(monkeypatch):
    # with streak 1 the per-draw loop stops at its first rejection, draw
    # number `draws`: that candidate is drawn and checked, the next is not
    _, draws = _per_draw(PACK_SPACES["G21"], np.random.default_rng(0), 1)
    with monkeypatch.context() as patch:
        _bend_first_chunk(patch, draws - 1)
        with pytest.raises(ValueError, match="not orthonormal"):
            build_subspace_net(2, 1, 0.5, seed=0, rejection_streak=1)
    _bend_first_chunk(monkeypatch, draws)
    want = build_subspace_net(2, 1, 0.5, seed=0, rejection_streak=1)
    assert len(want.planes) == draws - 1


NET_BAD_INTEGERS = {
    "streak-zero": lambda: build_subspace_net(2, 1, 0.5, rejection_streak=0),
    "streak-fractional": lambda: build_subspace_net(2, 1, 0.5, rejection_streak=2.5),
    "streak-bool": lambda: build_subspace_net(2, 1, 0.5, rejection_streak=True),
    "m-bool": lambda: build_subspace_net(2, True, 0.5),
    "m-float": lambda: build_subspace_net(2, 1.0, 0.5),
    "n-bool": lambda: build_subspace_net(True, 0, 0.5),
    "n-float": lambda: build_subspace_net(2.0, 1, 0.5),
    "dir-n-bool": lambda: build_direction_net(True, 0.5),
    "dir-n-float": lambda: build_direction_net(3.0, 0.5),
}


@pytest.mark.parametrize("call", NET_BAD_INTEGERS.values(), ids=NET_BAD_INTEGERS.keys())
def test_net_builders_refuse_non_integers(call):
    with pytest.raises(ValueError, match="must be an integer"):
        call()


def test_net_builders_take_numpy_integers():
    def frames(net):
        return [W.frame.tolist() for W in net.planes]

    two, one, fifty = np.int64(2), np.int64(1), np.int64(50)
    assert (frames(build_subspace_net(two, one, 0.5, rejection_streak=fifty))
            == frames(build_subspace_net(2, 1, 0.5, rejection_streak=50)))
    assert (build_direction_net(np.int64(3), 0.9).directions.tolist()
            == build_direction_net(3, 0.9).directions.tolist())


# every entry point that takes a seed, called with a given seed
SEEDED = {
    "sample_points": lambda seed: lebesgue_tree(2).sample_points(2, 3, seed=seed),
    "build_direction_net": lambda seed: build_direction_net(3, 0.9, seed=seed),
    "build_direction_net-2d": lambda seed: build_direction_net(2, 0.5, seed=seed),
    "build_subspace_net": lambda seed: build_subspace_net(2, 1, 0.5, seed=seed),
    "search_counterexample_set": lambda seed: search_counterexample_set(2, 0.5, 3, 2, seed),
    "support_point": lambda seed: support_point(lebesgue_tree(2), 3, seed=seed),
}


@pytest.mark.parametrize("call", SEEDED.values(), ids=SEEDED.keys())
def test_seeded_entry_points_take_only_integer_seeds_from_zero(call):
    # a bool once ran as seed 1, a float raised numpy's TypeError, and a
    # negative seed passed where nothing is drawn, as for a 2-d direction net
    for seed in (True, False, 2.5, 1.0, -1, None, "1"):
        with pytest.raises(ValueError, match=f"seed must be an integer >= 0, got {seed!r}"):
            call(seed)
    assert pickle.dumps(call(np.int64(7))) == pickle.dumps(call(7))

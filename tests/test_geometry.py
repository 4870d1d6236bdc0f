import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conelab.geometry import (DirectionNet, Subspace, build_direction_net,
                              build_subspace_net, direction_net_beta,
                              in_almost_halfspace, in_one_sided_cone,
                              in_plane_cone, orthogonal_project,
                              random_subspace, random_unit_vectors,
                              subspace_distance, unit_vector)

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

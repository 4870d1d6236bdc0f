import math
from fractions import Fraction

import numpy as np
import pytest

from conelab.constructions import binomial_tree, constant_binomial_tree
from conelab.density import density_profile
from conelab.homogeneity import (dimension_bound, doubling_constant,
                                 doubling_frequency, hom_estimate,
                                 large_child_frequency, order_children)
from conelab.measure import address_of_point, kadic_tree, lebesgue_tree


def test_order_children_binomial():
    tree = constant_binomial_tree(0.25)
    fan = order_children(tree, ())
    assert fan.order == (1, 0)  # light right child first
    assert fan.masses[0] == pytest.approx(0.25)
    idx, mass, region = fan.child(1)
    assert idx == 1 and mass == pytest.approx(0.25)
    with pytest.raises(IndexError):
        fan.child(3)


def test_order_children_tie_is_lexicographic():
    tree = lebesgue_tree(2)
    fan = order_children(tree, (0,))
    assert fan.order == (0, 1, 2, 3)


def test_hom_partials_lebesgue():
    tree = lebesgue_tree(2)
    est = hom_estimate(tree, 1, 6)
    for a in est.partials:
        assert a == pytest.approx(1.0, abs=1e-12)
    assert est.limsup_proxy == pytest.approx(1.0, abs=1e-12)
    tree = lebesgue_tree(2, k=3)
    for i in range(1, 10):  # every order index of the 9-child fan
        for a in hom_estimate(tree, i, 12).partials:
            assert a == pytest.approx(1.0, abs=1e-12)


def test_hom_partials_constant_binomial():
    q = 0.25
    tree = constant_binomial_tree(q)
    est = hom_estimate(tree, 1, 12)
    for a in est.partials:
        assert a == pytest.approx(2.0 * q, abs=1e-12)


def test_hom_guard_and_validation():
    tree = lebesgue_tree(2)
    with pytest.raises(ValueError):
        hom_estimate(tree, 0, 4)


@pytest.mark.parametrize("i", [1, 2])
def test_hom_binomial_matches_exact_sums(i):
    # q_j = 1/(j+2) varies with the level; the i-th lightest child of every
    # level-j cube carries q_j (i = 1) or 1 - q_j (i = 2) of its mass
    est = hom_estimate(binomial_tree(), i, 30)
    running = Fraction(0)
    for l, a in enumerate(est.partials, start=1):
        q = Fraction(1, l + 2)
        running += q if i == 1 else 1 - q
        assert a == pytest.approx(float(2 * running / l), rel=1e-13, abs=0.0)


def test_dimension_bound_values():
    # entropy form at k=2, n=1, i=1
    for q in (0.125, 0.25, 0.375):
        want = -(q * math.log(q) + (1 - q) * math.log(1 - q)) / math.log(2)
        assert dimension_bound(2, 1, 1, q) == pytest.approx(want, abs=1e-9)
    assert dimension_bound(2, 1, 1, 0.25) == pytest.approx(0.811278, abs=1e-6)
    assert dimension_bound(2, 1, 1, 0.5) == pytest.approx(1.0)
    assert dimension_bound(2, 1, 1, 0.0) == 0.0
    assert dimension_bound(3, 1, 1, 0.0) == pytest.approx(math.log(2) / math.log(3))


def test_dimension_bound_validation():
    with pytest.raises(ValueError):
        dimension_bound(2, 1, 2, 0.1)
    with pytest.raises(ValueError):
        dimension_bound(2, 1, 1, 0.6)


def test_doubling_constant():
    assert doubling_constant(1, 2, 0.5) == pytest.approx(1.0 / 16.0)
    with pytest.raises(ValueError):
        doubling_constant(1, 2, 1.0)


def test_doubling_frequency_lebesgue():
    tree = lebesgue_tree(1)
    stats = doubling_frequency(tree, np.array([0.4]), 1.0, 2,
                               doubling_constant(1, 2, 0.5), 20, 35)
    assert stats.frequency == 1.0
    assert stats.undecided == ()


def test_doubling_frequency_counts_certified_only():
    tree = lebesgue_tree(1)
    # shallow budget cannot certify deep scales; they must appear undecided
    stats = doubling_frequency(tree, np.array([0.4]), 1.0, 2, 0.0625, 20, 8)
    assert stats.count < 20
    assert len(stats.undecided) > 0


@pytest.mark.parametrize("k, c, name", [
    (0, 0.1, "k"), (1, 0.1, "k"), (0.5, 0.1, "k"), (2.0, 0.1, "k"),
    (2, math.nan, "c"), (2, 0.0, "c"), (2, -0.1, "c"), (2, math.inf, "c"),
])
def test_doubling_frequency_refuses_bad_k_and_c(k, c, name):
    with pytest.raises(ValueError, match=f"^{name} must"):
        doubling_frequency(lebesgue_tree(1), np.array([0.4]), 1.0, k, c, 3, 10)


def test_doubling_frequency_takes_numpy_integer_k():
    tree = lebesgue_tree(1)
    want = doubling_frequency(tree, np.array([0.4]), 1.0, 2, 0.0625, 5, 12)
    got = doubling_frequency(tree, np.array([0.4]), 1.0, np.int64(2), 0.0625, 5, 12)
    assert (got.count, got.undecided) == (want.count, want.undecided)


def test_large_child_frequency_lebesgue():
    tree = lebesgue_tree(1, k=3)
    # ordered index 3^1 - 1*3^0 = 2, tiny threshold: always counts
    freq = large_child_frequency(tree, np.array([0.37]), 0, 1, 1e-6, 3.0, 5)
    assert freq == 1.0
    with pytest.raises(ValueError):
        large_child_frequency(tree, np.array([0.37]), 0, 3, 1e-6, 3.0, 5)


# Exact frequencies hits / l, compared with ==. The 1-d trees use m = 0,
# since m = 1 gives the order index k - k = 0 there.
LARGE_CHILD_GOLDEN = [
    # tree, x, m, c, tau, l, frequency
    ("binomial", [0.3], 0, 0.05, 1.0, 8, 0.875),
    ("binomial", [0.3], 0, 0.05, 3.0, 6, 0.5),
    ("binomial", [0.3], 0, 0.2, 1.0, 6, 1 / 6),
    ("binomial", [0.3], 0, 0.2, 1.0, 8, 0.125),
    ("binomial", [0.3], 0, 0.5, 1.0, 8, 0.0),
    ("binomial", [0.71], 0, 0.05, 1.0, 6, 5 / 6),
    ("binomial", [0.71], 0, 0.05, 3.0, 6, 1 / 3),
    ("binomial", [0.71], 0, 0.05, 3.0, 8, 0.25),
    ("constant-binomial-0.3", [0.3], 0, 0.05, 3.0, 8, 1.0),
    ("constant-binomial-0.3", [0.3], 0, 0.2, 3.0, 6, 1 / 6),
    ("constant-binomial-0.3", [0.3], 0, 0.2, 3.0, 8, 0.125),
    ("constant-binomial-0.3", [0.71], 0, 0.2, 3.0, 6, 0.0),
    ("lebesgue-1-k3", [0.37], 0, 0.2, 1.0, 8, 1.0),
    ("lebesgue-1-k3", [0.37], 0, 0.2, 3.0, 6, 0.0),
    ("lebesgue-1-k3", [0.81], 0, 0.05, 3.0, 8, 1.0),
    ("lebesgue-2", [0.3, 0.6], 1, 0.2, 1.0, 6, 1.0),
]
GOLDEN_TREES = {
    "binomial": binomial_tree,
    "constant-binomial-0.3": lambda: constant_binomial_tree(0.3),
    "lebesgue-1-k3": lambda: lebesgue_tree(1, k=3),
    "lebesgue-2": lambda: lebesgue_tree(2),
}


@pytest.mark.parametrize("name,x,m,c,tau,l,want", LARGE_CHILD_GOLDEN)
def test_large_child_frequency_golden(name, x, m, c, tau, l, want):
    tree = GOLDEN_TREES[name]()
    assert large_child_frequency(tree, np.array(x), m, 1, c, tau, l) == want


KADIC_BAD_INPUT = {
    "point-wrong-dim": lambda: address_of_point(lebesgue_tree(2), [0.3], 2),
    "point-nan": lambda: address_of_point(lebesgue_tree(1), [math.nan], 4),
    "point-matrix": lambda: address_of_point(lebesgue_tree(1), [[0.3]], 2),
    "depth-negative": lambda: address_of_point(lebesgue_tree(1), [0.3], -1),
    "depth-fractional": lambda: address_of_point(lebesgue_tree(1), [0.3], 2.5),
    "depth-bool": lambda: address_of_point(lebesgue_tree(1), [0.3], True),
    "sample-depth-negative": lambda: lebesgue_tree(2).sample_points(2, -1, seed=0),
    "sample-depth-fractional": lambda: lebesgue_tree(2).sample_points(2, 2.5, seed=0),
    "sample-count-fractional": lambda: lebesgue_tree(2).sample_points(2.5, 3, seed=0),
    "sample-count-bool": lambda: lebesgue_tree(2).sample_points(True, 3, seed=0),
    "branch-depth-negative": lambda: lebesgue_tree(2).sample_branch(np.random.default_rng(0), -1),
    "branch-depth-fractional": lambda: lebesgue_tree(2).sample_branch(
        np.random.default_rng(0), 2.5),
    "doubling-l-fractional": lambda: doubling_frequency(
        lebesgue_tree(1), [0.4], 1.0, 2, 0.0625, 2.5, 10),
    "doubling-l-bool": lambda: doubling_frequency(
        lebesgue_tree(1), [0.4], 1.0, 2, 0.0625, True, 10),
    # levels is checked before the nets are read
    "profile-levels-fractional": lambda: density_profile(
        lebesgue_tree(2), [0.5, 0.5], 0.5, 0.25, 2.5, None, None, 1e-9, 6),
    "profile-levels-bool": lambda: density_profile(
        lebesgue_tree(2), [0.5, 0.5], 0.5, 0.25, True, None, None, 1e-9, 6),
    "lcf-point-wrong-dim": lambda: large_child_frequency(
        lebesgue_tree(2), [0.3], 1, 1, 1e-6, 1.0, 2),
    "lcf-l-zero": lambda: large_child_frequency(
        lebesgue_tree(1, k=3), [0.37], 0, 1, 1e-6, 3.0, 0),
    "lcf-l-negative": lambda: large_child_frequency(
        lebesgue_tree(1, k=3), [0.37], 0, 1, 1e-6, 3.0, -2),
    "lcf-M-negative": lambda: large_child_frequency(
        lebesgue_tree(1, k=3), [0.37], 0, -1, 1e-6, 3.0, 5),
    "lcf-m-negative": lambda: large_child_frequency(
        lebesgue_tree(1, k=3), [0.37], -1, 1, 1e-6, 3.0, 5),
    "lcf-m-fractional": lambda: large_child_frequency(
        lebesgue_tree(1, k=3), [0.37], 0.5, 1, 1e-6, 3.0, 5),
    "hom-l-max-zero": lambda: hom_estimate(lebesgue_tree(2), 1, 0),
    "lcf-c-nan": lambda: large_child_frequency(binomial_tree(), [0.3], 0, 1, math.nan, 1.0, 6),
    "lcf-c-inf": lambda: large_child_frequency(binomial_tree(), [0.3], 0, 1, math.inf, 1.0, 6),
    "lcf-c-zero": lambda: large_child_frequency(binomial_tree(), [0.3], 0, 1, 0.0, 1.0, 6),
    "lcf-c-negative": lambda: large_child_frequency(binomial_tree(), [0.3], 0, 1, -0.05, 1.0, 6),
    "lebesgue-n-bool": lambda: lebesgue_tree(True),
    "lebesgue-n-zero": lambda: lebesgue_tree(0),
    "lebesgue-k-fractional": lambda: lebesgue_tree(2, k=2.0),
    "lebesgue-k-one": lambda: lebesgue_tree(2, k=1),
    "kadic-n-fractional": lambda: kadic_tree(2.0, 2, lambda level: (0.25,) * 4),
    "kadic-n-zero": lambda: kadic_tree(0, 2, lambda level: (1.0,)),
    "kadic-k-fractional": lambda: kadic_tree(1, 2.0, lambda level: (0.5, 0.5)),
    "kadic-k-one": lambda: kadic_tree(1, 1, lambda level: (1.0,)),
}


@pytest.mark.parametrize("call", KADIC_BAD_INPUT.values(), ids=KADIC_BAD_INPUT.keys())
def test_kadic_entry_points_refuse_bad_input(call):
    with pytest.raises(ValueError):
        call()

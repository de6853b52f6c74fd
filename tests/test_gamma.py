import itertools

import numpy as np
import pytest

from gexpect.gamma import (ConvexHull, DiagonalBox, Interval1D, RankOneFamily,
                           UncertaintyInterval, check_scaling_constraint,
                           g_function, gbar, image_gamma, is_diagonal_image,
                           singleton_zero)
from oracles import gamma_sets_equal

IV = UncertaintyInterval(1.0, 4.0)


class TestUncertaintyInterval:
    def test_validation(self):
        with pytest.raises(ValueError):
            UncertaintyInterval(-1.0, 4.0)
        with pytest.raises(ValueError):
            UncertaintyInterval(4.0, 1.0)
        with pytest.raises(ValueError):
            UncertaintyInterval(0.0, float("inf"))

    def test_accessors(self):
        assert IV.width == 3.0
        assert not IV.is_classical
        assert UncertaintyInterval(2.0, 2.0).is_classical
        assert IV.scaled(4.0) == UncertaintyInterval(4.0, 16.0)
        with pytest.raises(ValueError):
            IV.scaled(-1.0)


class TestGbar:
    def test_values(self):
        assert gbar(IV, 2.0) == 4.0
        assert gbar(IV, -2.0) == -1.0
        assert gbar(IV, 0.0) == 0.0

    def test_vectorized(self):
        out = gbar(IV, np.array([-1.0, 0.0, 1.0]))
        assert np.allclose(out, [-0.5, 0.0, 2.0])


class TestGFunction:
    def test_interval_and_box(self):
        assert g_function(Interval1D(IV), [[3.0]]) == 6.0
        box = DiagonalBox((IV, IV.scaled(2.0)))
        # separable: gbar(1) + gbar_scaled(-1)
        a = np.diag([1.0, -1.0])
        assert g_function(box, a) == 2.0 - 1.0

    def test_hull_takes_generator_sup(self):
        hull = ConvexHull((np.diag([1.0, 1.0]), np.diag([4.0, 0.5])))
        assert g_function(hull, np.eye(2)) == 2.25
        assert g_function(singleton_zero(3), np.eye(3)) == 0.0

    def test_rank_one(self):
        fam = RankOneFamily(np.array([1.0, 1.0]), IV)
        # u^T A u = 2 for A = I
        assert g_function(fam, np.eye(2)) == 4.0

    def test_dimension_mismatch(self):
        with pytest.raises(Exception):
            g_function(Interval1D(IV), np.eye(2))


class TestImageGamma:
    def test_identity_is_noop(self):
        box = DiagonalBox((IV, IV))
        assert image_gamma(np.eye(2), box) is box

    def test_row_vector_gives_interval(self):
        out = image_gamma(np.array([[3.0, 4.0]]), DiagonalBox((IV, IV)))
        assert isinstance(out, DiagonalBox) and out.dim == 1
        (iv,) = out.intervals
        assert iv.sigma_low_sq == pytest.approx(25.0, rel=1e-12)
        assert iv.sigma_high_sq == pytest.approx(100.0, rel=1e-12)
        ray = image_gamma(np.array([[2.0, 0.0]]), RankOneFamily(np.array([1.0, 1.0]), IV))
        assert ray == DiagonalBox((IV.scaled(4.0),))

    def test_rank_one_matrix_gives_family(self):
        a = np.array([[1.0, 2.0], [2.0, 4.0]])  # (1,2)^T (1,2)
        out = image_gamma(a, DiagonalBox((IV, IV)))
        assert isinstance(out, RankOneFamily)
        # same set regardless of how direction and range are normalized
        assert gamma_sets_equal(out, RankOneFamily(np.array([1.0, 2.0]),
                                                   UncertaintyInterval(5.0, 20.0)))

    def test_invertible_matrix_gives_vertex_hull(self):
        a = np.array([[1.0, 1.0], [0.0, 1.0]])
        out = image_gamma(a, DiagonalBox((IV, IV)))
        assert isinstance(out, ConvexHull)
        assert len(out.generators) == 4

    @pytest.mark.parametrize("a", [np.diag([2.0, -3.0]), np.array([[0.0, 1.5], [5.0, 0.0]]),
                                   np.array([[1.0, 0.0, 2.0], [0.0, 3.0, 0.0]])],
                             ids=["diagonal", "anti-diagonal", "columns-merged"])
    def test_axis_aligned_image_is_a_box(self, a):
        # every column has at most one nonzero, so M diag(r) M^T is diagonal
        box = DiagonalBox((IV, IV.scaled(2.0), UncertaintyInterval(0.0, 1.0))[:a.shape[1]])
        out = image_gamma(a, box)
        assert isinstance(out, DiagonalBox)
        ranges = [(iv.sigma_low_sq, iv.sigma_high_sq) for iv in box.intervals]
        vertices = ConvexHull(tuple(a @ np.diag(r) @ a.T for r in itertools.product(*ranges)))
        assert gamma_sets_equal(out, vertices)

    def test_hull_of_vertices_equals_box(self):
        box = DiagonalBox((IV, IV.scaled(2.0)))
        hull = ConvexHull(tuple(np.diag([r1, r2])
                                for r1 in (1.0, 4.0) for r2 in (2.0, 8.0)))
        assert gamma_sets_equal(box, hull)
        assert not gamma_sets_equal(box, DiagonalBox((IV, IV)))

    def test_zero_image_degenerates(self):
        out = image_gamma(np.zeros((2, 2)), DiagonalBox((IV, IV)))
        assert g_function(out, np.eye(2)) == 0.0


# symmetric test matrices for comparing G of two sets
SYMMETRIC = [np.eye(2), -np.eye(2), np.diag([1.0, -3.0]), np.array([[0.0, 1.0], [1.0, 0.0]]),
             np.array([[2.0, -0.7], [-0.7, 0.5]]), np.array([[-1.0, 2.5], [2.5, 4.0]])]


def test_rank_one_gamma():
    # (u w^T) Y for a sequential Y with common interval IV has the set
    # {u r u^T : r in ||w||^2 IV}
    for u, w in (([1.0, 0.0], [1.0, 2.0]), ([3.0, -4.0], [0.5, 0.5]),
                 ([1.0, 2.0], [2.0, -1.0, 0.5]), ([2.0, 1.0], [3.0])):
        u, w = np.array(u), np.array(w)
        fam = image_gamma(np.outer(u, w), DiagonalBox((IV,) * w.size))
        assert isinstance(fam, RankOneFamily)
        expected = RankOneFamily(u, IV.scaled(float(w @ w)))
        for a in SYMMETRIC:
            assert g_function(fam, a) == pytest.approx(g_function(expected, a),
                                                       rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("u, w", [([0.0, 0.0], [1.0, 2.0]), ([1.0, 2.0], [0.0, 0.0])])
def test_rank_one_gamma_with_zero_factor_is_singleton(u, w):
    out = image_gamma(np.outer(u, w), DiagonalBox((IV, IV)))
    assert gamma_sets_equal(out, singleton_zero(2))
    assert all(g_function(out, a) == 0.0 for a in SYMMETRIC)


class TestIsDiagonalImage:
    BOX = DiagonalBox((IV, IV))

    def test_diagonal_and_antidiagonal_pass(self):
        assert is_diagonal_image(np.diag([2.0, 3.0]), self.BOX)
        assert is_diagonal_image(np.array([[0.0, 1.0], [5.0, 0.0]]), self.BOX)

    def test_generic_invertible_fails(self):
        th = np.pi / 6
        rot = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
        assert not is_diagonal_image(rot, self.BOX)
        assert not is_diagonal_image(np.array([[1.0, 1.0], [0.0, 1.0]]), self.BOX)

    def test_requires_positive_widths(self):
        with pytest.raises(ValueError):
            is_diagonal_image(np.eye(2), DiagonalBox((IV, UncertaintyInterval(2.0, 2.0))))


class TestScalingConstraint:
    def test_detects_positive_multiples(self):
        pairs = check_scaling_constraint([IV, IV.scaled(2.0)])
        assert (0, 1) in pairs and (1, 0) in pairs

    def test_non_multiples_pass(self):
        assert check_scaling_constraint([IV, UncertaintyInterval(2.0, 9.0)]) == []

    def test_classical_intervals_ignored(self):
        classical = UncertaintyInterval(3.0, 3.0)
        assert check_scaling_constraint([classical, classical.scaled(2.0)]) == []

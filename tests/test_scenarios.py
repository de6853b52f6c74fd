import numpy as np
import pytest

from gexpect.errors import GExpectError
from gexpect.gamma import UncertaintyInterval
from gexpect.pde import SolverConfig
from gexpect.scenarios import (run_asymmetric_independence, run_diag_not_indep,
                               run_invertible_scan, run_linear_image, run_quadratic_form,
                               run_reverse_independence_witness,
                               run_symmetry_identity)

IV = UncertaintyInterval(1.0, 4.0)
# coarse but fine enough that strict-positivity floors (10x the error
# estimate, which scales like h^2) stay below the computed third moments
FAST = SolverConfig(h=0.15)


class TestAsymmetricIndependence:
    def test_passes_and_reports(self):
        out = run_asymmetric_independence(IV, IV, cfg=FAST)
        assert out.passed
        assert out.name == "asymmetric-independence"
        labels = [q.label for q in out.quantities]
        assert labels[0] == "E[Y2 Y1^2]" and labels[1] == "E[Y1 Y2^2]"
        assert out.runtime_ms > 0

    def test_requires_variance_uncertainty_on_second(self):
        classical = UncertaintyInterval(1.0, 1.0)
        with pytest.raises(GExpectError, match="variance uncertainty"):
            run_asymmetric_independence(classical, classical, cfg=FAST)


class TestSymmetryIdentity:
    def test_alpha_one(self):
        out = run_symmetry_identity(IV, alpha=1.0, cfg=FAST)
        assert out.passed

    def test_classical_limit_tags_zero_rows(self):
        out = run_symmetry_identity(UncertaintyInterval(2.0, 2.0), alpha=4.0, cfg=FAST)
        assert out.passed
        assert any(a.classical_zero for a in out.assertions)

    def test_rejects_bad_alpha(self):
        with pytest.raises(GExpectError):
            run_symmetry_identity(IV, alpha=0.0, cfg=FAST)


class TestDiagNotIndep:
    def test_classical_limit(self):
        out = run_diag_not_indep(UncertaintyInterval(2.0, 2.0), cfg=FAST)
        assert out.passed
        tagged = [a for a in out.assertions if a.classical_zero]
        assert len(tagged) == 2


class TestQuadraticForm:
    def test_pure_cross_term_gives_zero(self):
        out = run_quadratic_form((IV, IV), np.array([[0.0, 1.0], [1.0, 0.0]]), cfg=FAST)
        assert out.passed
        nested = out.quantities[0]
        assert abs(nested.value) < 1e-2

    def test_three_variables(self):
        ivs = (IV, IV.scaled(2.0), UncertaintyInterval(0.5, 1.0))
        out = run_quadratic_form(ivs, np.diag([1.0, -1.0, 2.0]), cfg=SolverConfig(h=0.4))
        assert out.passed

    def test_rejects_shape_mismatch(self):
        with pytest.raises(GExpectError):
            run_quadratic_form((IV, IV), np.eye(3), cfg=FAST)

    def test_rejects_four_variables(self):
        # refused by the nested solve's own dimension check
        with pytest.raises(GExpectError, match="at most 3"):
            run_quadratic_form((IV,) * 4, np.eye(4), cfg=FAST)


class TestLinearImage:
    def test_rejects_four_columns(self):
        # refused by the nested solve's own dimension check
        with pytest.raises(GExpectError, match="at most 3"):
            run_linear_image(IV, np.ones((2, 4)), [1.0, -1.0], cfg=FAST)

    def test_a_rank_one_map_checks_the_whole_image_law(self):
        # A = [[1, 2], [2, 4]] maps Y to (S, 2S), S = Y1 + 2Y2, and by
        # sequential independence E^[S^2] = 4 + 4 * 4 = 20
        out = run_linear_image(IV, [[1.0, 2.0], [2.0, 4.0]], [1.0, -1.0])
        assert out.passed and len(out.assertions) == 4
        rows = {q.label: q for q in out.quantities}
        for label, exact in (("rank-one E[x^2+y^2]", 5.0 * 20.0), ("rank-one E[x*y]", 2.0 * 20.0)):
            assert abs(rows[label].value - exact) <= rows[label].error_estimate


class TestReverseIndependence:
    def test_both_conditions(self):
        out = run_reverse_independence_witness((IV, IV), 0, 1, cfg=FAST)
        assert out.passed

    def test_condition_a_only(self):
        # position i has width, position j is classical: reversed witness path
        out = run_reverse_independence_witness(
            (IV, UncertaintyInterval(2.0, 2.0)), 0, 1, cfg=FAST)
        assert out.passed
        assert any("forced" in q.label for q in out.quantities)

    def test_rejects_degenerate_pair(self):
        classical = UncertaintyInterval(1.0, 1.0)
        with pytest.raises(GExpectError, match="neither hypothesis"):
            run_reverse_independence_witness((classical, classical), 0, 1, cfg=FAST)

    def test_index_validation(self):
        with pytest.raises(GExpectError):
            run_reverse_independence_witness((IV, IV), 1, 1, cfg=FAST)


class TestInvertibleScan:
    def test_catalog_all_rejected(self):
        out = run_invertible_scan(IV)
        assert out.passed
        assert len(out.assertions) >= 10

    def test_requires_strict_interval(self):
        with pytest.raises(GExpectError):
            run_invertible_scan(UncertaintyInterval(2.0, 2.0))

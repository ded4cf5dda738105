import numpy as np
import pytest
from scipy.integrate import quad

from tfcgc.bsplines import (
    BSplineSpec,
    ConfigError,
    DataError,
    basis_eval,
    bspline_eval,
    build_dictionary,
)


def bspline_by_convolution(order, u, step=1.0 / 4096):
    """Independent oracle: beta_s = beta_{s-1} * beta_1, evaluated as
    beta_s(u) = B(u) - B(u-1) with B the running integral of beta_{s-1},
    on a fine grid (half-weights at the indicator's jumps keep the
    trapezoid rule exact for the box)."""
    from scipy.integrate import cumulative_trapezoid

    grid = np.arange(0.0, order + step / 2, step)
    if order == 1:
        return np.interp(u, grid, ((grid >= 0.0) & (grid < 1.0)).astype(float))
    # first convolution analytically: running integral of the box is clip(u, 0, 1)
    vals = np.clip(grid, 0.0, 1.0) - np.clip(grid - 1.0, 0.0, 1.0)
    for _ in range(order - 2):
        integral = cumulative_trapezoid(vals, grid, initial=0.0)
        upper = np.interp(grid, grid, integral)
        lower = np.interp(grid - 1.0, grid, integral, left=0.0)
        vals = upper - lower
    return np.interp(u, grid, vals, left=0.0, right=0.0)


class TestBsplineEval:
    def test_order_one_indicator(self):
        assert bspline_eval(1, 0.5) == 1.0
        assert bspline_eval(1, -0.1) == 0.0
        assert bspline_eval(1, 1.0) == 0.0

    def test_order_two_hat_peak(self):
        assert bspline_eval(2, 1.0) == 1.0

    def test_order_four_center(self):
        # frozen from the convolution oracle
        assert bspline_eval(4, 2.0) == pytest.approx(0.666667, abs=1e-6)

    @pytest.mark.parametrize("order", [2, 3, 4, 5])
    def test_matches_convolution_oracle(self, order):
        for u in np.linspace(-0.5, order + 0.5, 23):
            expected = bspline_by_convolution(order, float(u))
            assert bspline_eval(order, float(u)) == pytest.approx(expected, abs=1e-6)

    @pytest.mark.parametrize("order", [1, 2, 3, 4, 5])
    def test_partition_of_unity(self, order):
        u = np.linspace(0.0, 1.0, 1000, endpoint=False)
        total = sum(bspline_eval(order, u - l) for l in range(-order, 2))
        np.testing.assert_allclose(total, 1.0, atol=1e-12)

    @pytest.mark.parametrize("order", [1, 2, 3, 4, 5])
    def test_unit_integral(self, order):
        val, _ = quad(lambda u: bspline_eval(order, u), 0.0, order, limit=400)
        assert val == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("order", [1, 2, 3, 4, 5])
    def test_support_and_nonnegativity(self, order):
        u = np.linspace(-2.0, order + 2.0, 801)
        vals = bspline_eval(order, u)
        assert np.all(vals >= 0.0)
        outside = (u < 0.0) | (u >= order)
        assert np.all(vals[outside] == 0.0)

    def test_invalid_order(self):
        with pytest.raises(ConfigError, match="B-spline order must be at least 1, got 0"):
            bspline_eval(0, 0.5)


class TestBasisEval:
    def test_left_boundary_zero(self):
        assert basis_eval(BSplineSpec(3, 3, 0), 0.0) == 0.0

    def test_scale_zero_hat(self):
        assert basis_eval(BSplineSpec(2, 0, 0), 1.0) == 1.0

    def test_dilated_value(self):
        # 2**(2/2) * beta_3(4*0.625 - 1) = 2 * beta_3(1.5) = 2 * 0.75
        assert basis_eval(BSplineSpec(3, 2, 1), 0.625) == pytest.approx(1.5, abs=1e-12)

    def test_zero_outside_support(self):
        # 2**(j/2) beta_s(2**j u - l) lives on [l / 2**j, (l + s) / 2**j]
        spec = BSplineSpec(3, 3, 2)
        lo, hi = 2 / 8, 5 / 8
        u = np.linspace(0.0, 1.0, 801)
        vals = basis_eval(spec, u)
        assert np.all(vals[(u <= lo) | (u >= hi)] == 0.0)
        assert np.all(vals[(u > lo) & (u < hi)] > 0.0)

    def test_out_of_range_point(self):
        with pytest.raises(DataError, match=r"evaluation point must lie in \[0, 1\]"):
            basis_eval(BSplineSpec(3, 3, 0), 1.5)
        with pytest.raises(DataError, match=r"evaluation point must lie in \[0, 1\]"):
            basis_eval(BSplineSpec(3, 3, 0), -0.1)

    def test_invalid_shift(self):
        with pytest.raises(ConfigError, match="shift 8 outside admissible range"):
            BSplineSpec(3, 3, 8)  # max shift is 2**3 - 1 = 7
        with pytest.raises(ConfigError, match="shift -4 outside admissible range"):
            BSplineSpec(3, 3, -4)


class TestBuildDictionary:
    def test_standard_count(self):
        d = build_dictionary({3, 4, 5}, 3, [3, 3])
        assert d.candidate_count == 216
        assert d.bases_per_term == 36

    def test_minimal_count(self):
        d = build_dictionary({3}, 0, [1])
        assert d.candidate_count == 4
        shifts = [spec.shift for _, _, spec in d.candidates]
        assert shifts == [-3, -2, -1, 0]

    def test_five_variable_count(self):
        d = build_dictionary({3, 4, 5}, 3, [3] * 5)
        assert d.candidate_count == 540

    def test_deterministic_ordering(self):
        d1 = build_dictionary({5, 3, 4}, 3, [2, 3])
        d2 = build_dictionary([3, 4, 5], 3, (2, 3))
        assert d1.candidates == d2.candidates
        # variable-major, then lag, then order, then shift
        keys = [(v, k, s.order, s.shift) for v, k, s in d1.candidates]
        assert keys == sorted(keys)

    def test_one_instance_per_normalized_arguments(self):
        d = build_dictionary({3, 4, 5}, 3, [3] * 5)
        assert build_dictionary([5, 4, 3, 3], 3, (3, 3, 3, 3, 3)) is d
        assert build_dictionary({3, 4, 5}, 3, [3] * 4) is not d

    def test_empty_lags_rejected(self):
        with pytest.raises(
            ConfigError, match=r"lags_per_variable must be at least 1, got \(\)"
        ):
            build_dictionary({3}, 3, [])

    def test_basis_matrix_matches_candidates(self):
        d = build_dictionary({3, 4}, 2, [1])
        u = np.linspace(0, 1, 17)
        mat = d.basis_matrix(u)
        for col, (_, _, spec) in enumerate(d.candidates):
            np.testing.assert_array_equal(mat[:, col], basis_eval(spec, u))

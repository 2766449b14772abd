import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.integrate import quad as adaptive_quad

from dunklsmooth.quad import make_grid, nu_weights
from dunklsmooth.weights import b_lambda, make_params, weight_z2d


class TestMakeParams:
    def test_rank_one_fractional_multiplicity(self):
        p = make_params(1, [0.75])
        assert p.lambda_k == pytest.approx(0.25, abs=1e-15)
        assert p.d_k == pytest.approx(2.5, abs=1e-15)

    def test_unweighted_plane(self):
        p = make_params(2, [0.0, 0.0])
        assert p.lambda_k == 0.0
        assert p.d_k == 2.0

    def test_three_dimensional(self):
        p = make_params(3, [0.5, 0.5, 1.0])
        assert p.lambda_k == pytest.approx(2.5, abs=1e-15)
        assert p.d_k == pytest.approx(7.0, abs=1e-15)

    def test_rejects_negative_multiplicity(self):
        with pytest.raises(ValueError):
            make_params(2, [0.5, -0.1])

    def test_rejects_boundary_lambda(self):
        # d=1, k=0 gives lambda exactly -1/2, outside the admissible range.
        with pytest.raises(ValueError):
            make_params(1, [0.0])

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(ValueError):
            make_params(2, [0.5])

    @given(
        d=st.integers(min_value=1, max_value=5),
        data=st.data(),
    )
    def test_generalized_dimension_identity(self, d, data):
        ks = data.draw(
            st.lists(
                st.floats(min_value=0.0, max_value=4.0, allow_nan=False),
                min_size=d,
                max_size=d,
            )
        )
        if d / 2 - 1 + math.fsum(ks) <= -0.5:
            with pytest.raises(ValueError):
                make_params(d, ks)
            return
        p = make_params(d, ks)
        assert p.d_k - 2.0 * p.lambda_k == pytest.approx(2.0, abs=1e-12)


class TestWeightZ2d:
    def test_single_axis(self):
        p = make_params(1, [0.5])
        assert weight_z2d([2.0], p) == pytest.approx(2.0, abs=1e-15)

    def test_unit_coordinates(self):
        p = make_params(3, [0.3, 1.7, 0.9])
        assert weight_z2d([1.0, 1.0, 1.0], p) == 1.0

    def test_vanishes_on_reflection_hyperplane(self):
        p = make_params(2, [1.0, 0.0])
        assert weight_z2d([0.0, 3.0], p) == 0.0

    def test_all_zero_multiplicities_give_one(self):
        p = make_params(3, [0.0, 0.0, 0.0])
        assert weight_z2d([0.0, -2.0, 5.0], p) == 1.0


class TestMeasureConstants:
    def test_lambda_zero(self):
        assert b_lambda(0.0) == pytest.approx(1.0, abs=1e-15)

    def test_lambda_one(self):
        assert b_lambda(1.0) == pytest.approx(0.5, abs=1e-15)

    def test_quarter_against_adaptive_quadrature(self):
        # Oracle: 1/b = integral_0^inf exp(-t^2/2) t^(2*0.25+1) dt.
        oracle, err = adaptive_quad(lambda t: math.exp(-0.5 * t * t) * t**1.5, 0, np.inf)
        assert err < 1e-7
        b = b_lambda(0.25)
        assert b == pytest.approx(1.0 / oracle, rel=1e-10)
        assert b == pytest.approx(1.0 / (2.0**0.25 * math.gamma(1.25)), rel=1e-14)

    def test_rejects_lambda_at_minus_one(self):
        with pytest.raises(ValueError):
            b_lambda(-1.0)

    @pytest.mark.parametrize("lam", [0.0, 0.25, 1.0, 2.5])
    def test_gaussian_has_unit_nu_mass(self, lam):
        grid = make_grid(30.0, 1024)
        mass = np.sum(nu_weights(grid, lam) * np.exp(-0.5 * grid.nodes**2))
        assert mass == pytest.approx(1.0, abs=1e-11)

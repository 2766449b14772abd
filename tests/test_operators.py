import math
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dunklsmooth import operators, smoothness
from dunklsmooth.operators import (
    eta,
    frac_difference,
    frac_difference_series,
    frac_laplacian,
    translate_T,
    vallee_poussin,
)
from dunklsmooth.quad import RadialFunction, lp_norm, make_grid, nu_weights
from dunklsmooth.smoothness import _best_approxes, best_approx
from dunklsmooth.special import (
    BesselEvaluator,
    binom_tail_bound,
    jm_multiplier,
)
from dunklsmooth.transforms import (
    Spectrum,
    bandlimit_project,
    hankel,
    inverse_hankel,
    spectrum_from_values,
)

LAM = 0.25


@pytest.fixture(scope="module")
def grid():
    return make_grid(30.0, 512)


@pytest.fixture(scope="module")
def gauss_spec(grid):
    return spectrum_from_values(grid, LAM, np.exp(-0.5 * grid.nodes**2))


class TestEta:
    def test_plateau_and_support(self):
        assert eta(0.5) == 1.0
        assert eta(1.0) == 1.0
        assert eta(3.0) == 0.0
        assert eta(2.0) == 0.0

    def test_midpoint_symmetry(self):
        assert eta(1.5) == 0.5

    def test_monotone_transition(self):
        t = np.linspace(1.0, 2.0, 200)
        vals = eta(t)
        assert np.all(np.diff(vals) <= 0)
        assert np.all((vals >= 0) & (vals <= 1))

    def test_nan_maps_to_nan(self):
        # NaN lies in no branch: it read whatever memory the output held
        assert math.isnan(eta(math.nan))
        assert math.isnan(eta(np.array(math.nan)))
        vals = eta(np.array([math.nan, 0.5, 1.5, math.nan, 3.0]))
        assert np.array_equal(vals, [math.nan, 1.0, 0.5, math.nan, 0.0], equal_nan=True)


class TestTranslateT:
    def test_small_step_near_identity(self, gauss_spec):
        out = translate_T(gauss_spec, 1e-9)
        assert np.max(np.abs(out.values - gauss_spec.values)) < 1e-8

    def test_origin_value_identity(self, grid):
        # (T^t f)(0) = f0(t) for radial f: integrate j_lam(t r) fhat(r) d nu.
        f = RadialFunction(grid=grid, values=np.exp(-0.5 * grid.nodes**2))
        fhat = hankel(f, LAM)
        for t in (0.3, 1.0, 2.5):
            shifted = translate_T(fhat, t)
            at_origin = np.sum(nu_weights(grid, LAM) * shifted.values)
            assert at_origin == pytest.approx(math.exp(-0.5 * t * t), abs=1e-6)

    def test_l2_contraction_spectral(self, grid, gauss_spec):
        f = RadialFunction(grid=grid, values=gauss_spec.values)
        norm0 = lp_norm(f, 2, LAM)
        for t in (0.1, 1.0, 5.0):
            shifted = RadialFunction(grid=grid, values=translate_T(gauss_spec, t).values)
            assert lp_norm(shifted, 2, LAM) <= norm0 * (1 + 1e-14)

    def test_preserves_bandlimit(self, gauss_spec):
        s = bandlimit_project(gauss_spec, 2.0)
        assert translate_T(s, 0.7).bandlimit == 2.0


class TestFracLaplacian:
    def test_symbol_on_gaussian(self, grid, gauss_spec):
        out = frac_laplacian(gauss_spec, 1.0)
        assert np.array_equal(out.values, gauss_spec.values * grid.nodes)

    def test_composition_power_law(self, gauss_spec):
        ab = frac_laplacian(frac_laplacian(gauss_spec, 0.5), 1.5)
        onshot = frac_laplacian(gauss_spec, 2.0)
        np.testing.assert_allclose(ab.values, onshot.values, rtol=1e-12)

    def test_r2_matches_radial_second_order_operator(self, grid):
        # On radial profiles the full weighted Laplacian restricts to
        # B f = f'' + (2 lam + 1)/t f'; oracle: central differences on the
        # closed-form Gaussian.
        lam = 1.0
        f = RadialFunction(grid=grid, values=np.exp(-0.5 * grid.nodes**2))
        out = inverse_hankel(frac_laplacian(hankel(f, lam), 2.0))
        h = 1e-4
        t = grid.nodes
        g = lambda x: np.exp(-0.5 * x * x)
        second = (g(t + h) - 2 * g(t) + g(t - h)) / h**2
        first = (g(t + h) - g(t - h)) / (2 * h)
        bessel_op = second + (2 * lam + 1) / t * first
        mask = t < 10.0
        assert np.max(np.abs(out.values + bessel_op)[mask]) < 1e-5

    def test_rejects_nonpositive_power(self, gauss_spec):
        with pytest.raises(ValueError):
            frac_laplacian(gauss_spec, 0.0)


class TestFracDifference:
    def test_m2_is_identity_minus_translation_bitwise(self, gauss_spec):
        t = 0.37
        lhs = frac_difference(gauss_spec, t, 2.0)
        rhs = gauss_spec - translate_T(gauss_spec, t)
        assert np.array_equal(lhs.values, rhs.values)

    def test_small_step_vanishes(self, gauss_spec):
        out = frac_difference(gauss_spec, 1e-8, 1.0)
        assert np.max(np.abs(out.values)) < 1e-7

    def test_commutes_with_laplacian_bitwise(self, gauss_spec):
        for m in (0.5, 1.0, 3.0):
            a = frac_laplacian(frac_difference(gauss_spec, 0.4, m), 1.3)
            b = frac_difference(frac_laplacian(gauss_spec, 1.3), 0.4, m)
            assert np.array_equal(a.values, b.values)

    def test_matches_symbol(self, grid, gauss_spec):
        out = frac_difference(gauss_spec, 0.8, 1.0)
        sym = jm_multiplier(LAM, 1.0, 0.8 * grid.nodes)
        np.testing.assert_allclose(out.values, gauss_spec.values * sym, rtol=1e-13)

    def test_lemma_difference_vs_derivative_bound(self, grid):
        # || Delta_t^m f ||_2 <= C t^r || (-Lap)^(r/2) f ||_2 with
        # C = sup_u u^-r (1-j(u))^(m/2), evaluated numerically.
        lam, m, r = LAM, 2.0, 1.0
        u = np.geomspace(1e-4, 500.0, 4000)
        C = float(np.max(jm_multiplier(lam, m, u) / u**r))
        f = RadialFunction(grid=grid, values=np.exp(-0.5 * grid.nodes**2))
        fhat = hankel(f, lam)
        deriv = lp_norm(
            RadialFunction(grid=grid, values=frac_laplacian(fhat, r).values), 2, lam
        )
        for t in np.geomspace(1e-2, 1.0, 7):
            diff = lp_norm(
                RadialFunction(grid=grid, values=frac_difference(fhat, t, m).values), 2, lam
            )
            assert diff <= C * t**r * deriv * (1 + 1e-9)

    def test_higher_order_modulus_domination(self, grid):
        # || Delta_t^(m+r) f ||_p <= (1 + c(r/2)) || Delta_t^m f ||_p.
        lam, m, r = LAM, 1.0, 0.5
        c = 1.0 + binom_tail_bound(r / 2.0, 0)
        f = RadialFunction(grid=grid, values=np.exp(-0.5 * grid.nodes**2))
        fhat = hankel(f, lam)
        for p in (1, 2, math.inf):
            for t in (0.1, 0.5, 1.0):
                hi = lp_norm(
                    RadialFunction(grid=grid, values=inverse_hankel(frac_difference(fhat, t, m + r)).values),
                    p, lam,
                )
                lo = lp_norm(
                    RadialFunction(grid=grid, values=inverse_hankel(frac_difference(fhat, t, m)).values),
                    p, lam,
                )
                assert hi <= c * lo * (1 + 1e-9)


class TestFracDifferenceSeries:
    def test_m2_terminates_exactly(self, grid):
        lam = LAM
        f = RadialFunction(grid=grid, values=np.exp(-0.5 * grid.nodes**2))
        t = 0.6
        series = frac_difference_series(f, t, 2.0, 1, lam)
        fhat = hankel(f, lam)
        direct = inverse_hankel(frac_difference(fhat, t, 2.0))
        # same truncated binomial: 1 - j; difference only through rounding
        np.testing.assert_allclose(series.result.values, direct.values, atol=1e-12)
        assert series.tail_bound == 0.0

    def test_n0_is_roundtrip_identity(self, grid):
        f = RadialFunction(grid=grid, values=np.exp(-0.5 * grid.nodes**2))
        series = frac_difference_series(f, 0.5, 1.0, 0, LAM)
        assert np.max(np.abs(series.result.values - f.values)) < 1e-7

    @pytest.mark.parametrize("m", [0.5, 1.0, 3.0])
    def test_agrees_with_multiplier_within_certificate(self, grid, m):
        lam = LAM
        f = RadialFunction(grid=grid, values=np.exp(-0.5 * grid.nodes**2))
        t, N = 0.5, 64
        series = frac_difference_series(f, t, m, N, lam)
        direct = inverse_hankel(frac_difference(hankel(f, lam), t, m))
        sup_diff = float(np.max(np.abs(series.result.values - direct.values)))
        assert sup_diff <= series.tail_bound + 1e-10
        assert series.tail_bound == pytest.approx(
            binom_tail_bound(m / 2.0, N) * lp_norm(f, math.inf, lam), rel=1e-12
        )


class TestValleePoussin:
    def test_reproduces_bandlimited(self, grid, gauss_spec):
        s = bandlimit_project(gauss_spec, 1.5)
        out = vallee_poussin(s, 1.5)
        assert np.array_equal(out.values, s.values)
        assert out.bandlimit == 1.5

    def test_support_bound(self, grid, gauss_spec):
        out = vallee_poussin(gauss_spec, 2.0)
        assert out.bandlimit == 4.0
        assert np.all(out.values[grid.nodes >= 4.0] == 0.0)

    def test_large_sigma_identity(self, grid, gauss_spec):
        out = vallee_poussin(gauss_spec, 1e6)
        assert np.array_equal(out.values, gauss_spec.values)

    def test_smoothing_kernel_weighted_l1_norm(self):
        # The inverse transform of the cutoff profile is the smoothing
        # operator's convolution kernel; its weighted L1 norm bounds the
        # operator on every Lp and is scale-invariant.  It is finite but
        # grows with the index (~3.5 at lam=0.25, ~8.1 at lam=1), which is
        # the constant that drives near-best L1 approximation quality.
        expected = {0.25: 3.5, 1.0: 8.1}
        for lam, ref in expected.items():
            vals = []
            for n in (1024, 2048):
                g = make_grid(60.0, n)
                phys = inverse_hankel(
                    spectrum_from_values(g, lam, eta(g.nodes))
                )
                vals.append(lp_norm(phys, 1, lam))
            assert vals[0] == pytest.approx(vals[1], rel=1e-3)  # grid-stable
            assert vals[1] == pytest.approx(ref, rel=0.1)


class TestCommutationBitExact:
    def _ops(self, grid):
        return {
            "T": lambda s: translate_T(s, 0.45),
            "D": lambda s: frac_difference(s, 0.3, 1.0),
            "Dfrac": lambda s: frac_difference(s, 0.8, 0.5),
            "L": lambda s: frac_laplacian(s, 1.2),
            "P": lambda s: vallee_poussin(s, 2.5),
            "proj": lambda s: bandlimit_project(s, 5.0),
        }

    def test_all_pairs_commute_bitwise(self, grid, gauss_spec):
        ops = self._ops(grid)
        names = list(ops)
        for i, a in enumerate(names):
            for b in names[i + 1 :]:
                ab = ops[b](ops[a](gauss_spec)).values
                ba = ops[a](ops[b](gauss_spec)).values
                assert np.array_equal(ab, ba), f"{a} and {b} failed to commute"

    @given(
        t=st.floats(min_value=0.01, max_value=5.0, allow_nan=False),
        r=st.floats(min_value=0.1, max_value=3.0, allow_nan=False),
        m=st.floats(min_value=0.1, max_value=4.0, allow_nan=False).filter(lambda m: m != 2.0),
    )
    @settings(max_examples=25, deadline=None)
    def test_random_parameter_pairs_commute(self, t, r, m):
        grid = make_grid(10.0, 64)
        s = spectrum_from_values(grid, 0.5, np.exp(-grid.nodes))
        a = frac_laplacian(translate_T(s, t), r)
        b = translate_T(frac_laplacian(s, r), t)
        c = frac_difference(translate_T(s, t), 0.2, m)
        d = translate_T(frac_difference(s, 0.2, m), t)
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(c.values, d.values)


_NOT_POSITIVE = [math.nan, math.inf, -math.inf, 0.0, -1.0]


def _operator_refusals(s, f):
    """(argument name, call with a bad value, bad values) for every scale
    and order an operator or a best approximation takes."""
    return [
        ("t", lambda v: translate_T(s, v), _NOT_POSITIVE),
        ("r", lambda v: frac_laplacian(s, v), _NOT_POSITIVE),
        ("t", lambda v: frac_difference(s, v, 1.5), _NOT_POSITIVE),
        ("m", lambda v: frac_difference(s, 0.3, v), _NOT_POSITIVE),
        ("t", lambda v: frac_difference_series(f, v, 1.5, 4, LAM), _NOT_POSITIVE),
        ("m", lambda v: frac_difference_series(f, 0.3, v, 4, LAM), _NOT_POSITIVE),
        ("N", lambda v: frac_difference_series(f, 0.3, 1.5, v, LAM),
         [math.nan, math.inf, -math.inf, -1.0, 0.5]),
        ("sigma", lambda v: vallee_poussin(s, v), _NOT_POSITIVE),
        ("sigma", lambda v: bandlimit_project(s, v), _NOT_POSITIVE),
        ("m", lambda v: jm_multiplier(LAM, v, np.array([0.5, 1.0])), _NOT_POSITIVE),
        ("sigma", lambda v: best_approx(f, v, 2, LAM), _NOT_POSITIVE),
        ("sigma", lambda v: best_approx(f, v, 1, LAM), _NOT_POSITIVE),
        ("sigma", lambda v: _best_approxes(f, s, (1.0, v), 2, LAM), _NOT_POSITIVE),
        ("sigma", lambda v: _best_approxes(f, s, (1.0, v), math.inf, LAM), _NOT_POSITIVE),
    ]


class TestNonFiniteArguments:
    @pytest.mark.parametrize("case", range(len(_operator_refusals(None, None))))
    @settings(max_examples=15, deadline=None)
    @given(data=st.data())
    def test_refused_by_name_before_any_work(self, grid, gauss_spec, case, data):
        f = RadialFunction(grid=grid, values=np.exp(-0.5 * grid.nodes**2))
        name, call, bad_values = _operator_refusals(gauss_spec, f)[case]
        bad = data.draw(st.sampled_from(bad_values))
        # no transform, symbol or Bessel evaluation: the check comes first
        with mock.patch.object(operators, "hankel", side_effect=AssertionError), \
             mock.patch.object(smoothness, "_spectrum_of", side_effect=AssertionError), \
             mock.patch.object(Spectrum, "with_symbol", side_effect=AssertionError), \
             mock.patch.object(BesselEvaluator, "__call__", side_effect=AssertionError), \
             mock.patch.object(BesselEvaluator, "one_minus", side_effect=AssertionError):
            with pytest.raises(ValueError, match=rf"\b{re.escape(name)} must be") as info:
                call(bad)
        assert repr(bad) in str(info.value)

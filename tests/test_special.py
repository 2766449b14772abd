import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dunklsmooth.special import (
    BESSEL_ARG_MAX,
    BESSEL_LAMBDA_MAX,
    BesselEvaluator,
    bessel_norm,
    binom_frac,
    binom_tail_bound,
    jm_multiplier,
)
from dunklsmooth.quad import RadialFunction, make_grid
from dunklsmooth.smoothness import (
    best_approx,
    chain_at_scale,
    diff_norm,
    k_functional_upper,
    marchaud_bound,
    modulus,
    realization,
    realization_candidate_min,
)
from dunklsmooth.transforms import hankel, spectral_tail_l2, spectrum_from_values


def series_oracle(lam: float, t: float, terms: int = 200) -> float:
    """High-precision direct summation of the defining power series.

    Alternating-term cancellation grows like e^t, so the working precision
    scales with the argument.
    """
    with mpmath.workdps(60 + int(0.5 * t)):
        lamm = mpmath.mpf(lam)
        tm = mpmath.mpf(t)
        acc = mpmath.mpf(0)
        for k in range(terms):
            term = (
                (-1) ** k
                * mpmath.gamma(lamm + 1)
                * (tm / 2) ** (2 * k)
                / (mpmath.factorial(k) * mpmath.gamma(k + lamm + 1))
            )
            acc += term
        return float(acc)


class TestBesselNorm:
    @pytest.mark.parametrize("lam", [-0.4, 0.0, 0.25, 0.5, 1.0, 2.5])
    def test_value_at_zero_is_exactly_one(self, lam):
        assert bessel_norm(lam, 0.0) == 1.0

    def test_half_order_is_sinc(self):
        # j_{1/2}(t) = sin(t)/t, so it vanishes at pi; oracle: series summation.
        assert abs(bessel_norm(0.5, math.pi)) < 1e-12
        assert series_oracle(0.5, math.pi, 60) == pytest.approx(0.0, abs=1e-15)
        for t in (0.3, 1.7, 4.0):
            assert bessel_norm(0.5, t) == pytest.approx(math.sin(t) / t, abs=1e-13)

    @pytest.mark.parametrize("lam", [0.0, 0.25, 1.0, 2.5])
    @pytest.mark.parametrize("t", [1e-4, 0.01, 0.4, 0.5001, 2.0, 13.0, 77.0, 400.0])
    def test_against_series_oracle(self, lam, t):
        assert bessel_norm(lam, t) == pytest.approx(series_oracle(lam, t, 700), abs=1e-12)

    def test_quarter_order_at_two(self):
        assert bessel_norm(0.25, 2.0) == pytest.approx(series_oracle(0.25, 2.0), abs=1e-12)

    @pytest.mark.parametrize("lam", [0.0, 0.25, 0.5, 1.0, 2.5])
    def test_bounded_by_one_on_log_grid(self, lam):
        t = np.geomspace(1e-4, 1e3, 400)
        vals = bessel_norm(lam, t)
        assert np.all(np.abs(vals) <= 1.0 + 1e-12)

    @pytest.mark.parametrize("lam", [0.0, 0.25, 0.5, 1.0, 2.5])
    def test_decay_envelope(self, lam):
        # |j_lam(t)| (1+t)^(lam+1/2) is uniformly bounded.  Cap: combine
        # |j| <= 1 with the oscillatory amplitude env * t^-(lam+1/2),
        # env = 2^lam Gamma(lam+1) sqrt(2/pi); the worst value sits at the
        # crossover t* = env^(1/(lam+1/2)), giving (1+t*)^(lam+1/2).
        t = np.geomspace(1e-4, 1e3, 400)
        weighted = np.abs(bessel_norm(lam, t)) * (1.0 + t) ** (lam + 0.5)
        env = 2.0**lam * math.gamma(lam + 1.0) * math.sqrt(2.0 / math.pi)
        cap = 1.2 * (1.0 + env ** (1.0 / (lam + 0.5))) ** (lam + 0.5)
        assert np.max(weighted) <= cap

    def test_rejects_order_at_boundary(self):
        with pytest.raises(ValueError):
            bessel_norm(-0.5, 1.0)

    def test_rejects_negative_argument(self):
        with pytest.raises(ValueError):
            bessel_norm(0.5, -1.0)

    @given(
        lam=st.floats(min_value=-0.45, max_value=3.0, allow_nan=False),
        t=st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
    )
    @settings(max_examples=60, deadline=None)
    def test_bounded_by_one_property(self, lam, t):
        assert abs(bessel_norm(lam, t)) <= 1.0 + 1e-12


def one_minus_oracle(lam: float, t: float, terms: int = 400) -> float:
    """High-precision 1 - j_lam(t): the k >= 1 series terms, negated."""
    with mpmath.workdps(60 + int(0.5 * t)):
        lamm = mpmath.mpf(lam)
        tm = mpmath.mpf(t)
        acc = mpmath.mpf(0)
        for k in range(1, terms):
            acc += (
                (-1) ** k
                * mpmath.gamma(lamm + 1)
                * (tm / 2) ** (2 * k)
                / (mpmath.factorial(k) * mpmath.gamma(k + lamm + 1))
            )
        return float(-acc)


def bessel_oracle(lam: float, t: float) -> float:
    """j_lam(t) = Gamma(lam+1) (2/t)^lam J_lam(t), by mpmath."""
    if t == 0.0:
        return 1.0
    with mpmath.workdps(40):
        return float(mpmath.gamma(lam + 1) * (2 / mpmath.mpf(t)) ** lam * mpmath.besselj(lam, t))


def test_bessel_contract_holds_up_to_the_largest_order_configs_accept():
    # configs and the library accept lambda <= BESSEL_LAMBDA_MAX; at 130 the
    # library branch would return 0 in place of j_lam just above the series
    # cutoff, so that order is refused
    lam = BESSEL_LAMBDA_MAX
    t = np.concatenate([np.geomspace(1e-3, BESSEL_ARG_MAX, 300), [0.0, 0.5, 0.5001, 0.51]])
    ref = np.array([bessel_oracle(lam, x) for x in t])
    assert np.max(np.abs(BesselEvaluator(lam)(t) - ref)) < 1e-12
    assert bessel_oracle(130.0, 0.51) > 0.99
    with pytest.raises(ValueError, match="120"):
        BesselEvaluator(130.0)


@pytest.mark.parametrize("lam", [130.0, math.nextafter(BESSEL_LAMBDA_MAX, math.inf), -0.5])
def test_every_entry_point_refuses_orders_outside_the_bessel_range(lam):
    grid = make_grid(10.0, 64)
    f = RadialFunction(grid=grid, values=np.exp(-0.5 * grid.nodes**2))
    calls = [
        lambda: BesselEvaluator(lam),
        lambda: jm_multiplier(lam, 1.0, 0.5),
        lambda: hankel(f, lam),
        lambda: spectral_tail_l2(f, lam, 1.0),
    ]
    # every smoothness functional, also with a spectrum at that lambda, which
    # spares the transform (the p = 2 K-upper path then evaluates no Bessel)
    for fhat in (None, spectrum_from_values(grid, lam, np.exp(-0.5 * grid.nodes**2))):
        calls += [
            lambda fhat=fhat: modulus(f, 0.3, 1.0, 2, lam, fhat=fhat),
            lambda fhat=fhat: diff_norm(f, 0.3, 1.0, 2, lam, fhat=fhat),
            lambda fhat=fhat: best_approx(f, 2.0, 2, lam, fhat=fhat),
            lambda fhat=fhat: realization(f, 0.3, 1.0, 2, lam, fhat=fhat),
            lambda fhat=fhat: realization_candidate_min(f, 0.3, 1.0, 2, lam, fhat=fhat),
            lambda fhat=fhat: k_functional_upper(f, 0.3, 1.0, 2, lam, fhat=fhat),
            lambda fhat=fhat: chain_at_scale(f, 0.3, (1.0,), (2,), lam, ("K",), fhat=fhat),
            lambda fhat=fhat: marchaud_bound(f, 0.3, 1.0, 2, lam, fhat=fhat),
        ]
    for call in calls:
        with pytest.raises(ValueError, match="lambda must lie in"):
            call()


class TestOneMinus:
    @pytest.mark.parametrize("lam", [0.0, 0.25, 1.0, 2.5])
    @pytest.mark.parametrize("t", [1e-6, 1e-3, 0.09, 0.11, 1.0, 10.0])
    def test_matches_oracle(self, lam, t):
        expected = one_minus_oracle(lam, t)
        got = BesselEvaluator(lam).one_minus(t)
        assert got == pytest.approx(expected, rel=1e-10, abs=1e-25)

    def test_small_argument_relative_accuracy(self):
        # The naive 1 - j loses ~10 digits here; the series branch must not.
        lam, t = 1.0, 1e-6
        lead = t * t / (4.0 * (lam + 1.0))
        got = BesselEvaluator(lam).one_minus(t)
        assert got == pytest.approx(lead, rel=1e-6)


class TestJmMultiplier:
    def test_zero_at_origin(self):
        assert jm_multiplier(0.25, 1.7, 0.0) == 0.0

    def test_small_argument_law(self):
        # (1 - j_lam(t))^(m/2) ~ (t^2 / (4(lam+1)))^(m/2): lam=1, m=2, t=1e-3.
        val = jm_multiplier(1.0, 2.0, 1e-3)
        assert val == pytest.approx(1.25e-7, rel=1e-2)

    def test_matches_composition_with_bessel(self):
        expected = math.sqrt(1.0 - series_oracle(0.25, 5.0))
        assert jm_multiplier(0.25, 1.0, 5.0) == pytest.approx(expected, abs=1e-12)

    def test_nonnegative_on_grid(self):
        t = np.geomspace(1e-8, 100, 300)
        assert np.all(jm_multiplier(0.5, 0.7, t) >= 0.0)


def binom_symbolic(alpha_num: int, alpha_den: int, s: int) -> Fraction:
    """Exact binomial-series coefficient of (1+x)^alpha via Fraction arithmetic."""
    alpha = Fraction(alpha_num, alpha_den)
    out = Fraction(1)
    for i in range(s):
        out *= (alpha - i) / (i + 1)
    return out


class TestBinomFrac:
    def test_s_zero_is_one(self):
        assert binom_frac(0.37, 0) == 1.0

    def test_integer_binomial(self):
        assert binom_frac(2.0, 1) == pytest.approx(2.0, rel=1e-14)
        assert binom_frac(2.0, 2) == pytest.approx(1.0, rel=1e-14)
        assert binom_frac(2.0, 3) == 0.0
        assert binom_frac(1.0, 2) == 0.0

    def test_half_order_expansion(self):
        # Symbolic oracle: coefficients of (1+x)^(1/2).
        assert binom_frac(0.5, 2) == pytest.approx(float(binom_symbolic(1, 2, 2)), rel=1e-13)
        assert float(binom_symbolic(1, 2, 2)) == -0.125

    @pytest.mark.parametrize("alpha", [0.25, 0.5, 1.5, 2.5])
    @pytest.mark.parametrize("s", [1, 2, 3, 5, 17, 60])
    def test_against_fraction_oracle(self, alpha, s):
        num, den = Fraction(alpha).limit_denominator(4).as_integer_ratio()
        expected = float(binom_symbolic(num, den, s))
        assert binom_frac(alpha, s) == pytest.approx(expected, rel=1e-12, abs=1e-300)

    @given(
        alpha=st.floats(min_value=0.05, max_value=4.0, allow_nan=False),
        s=st.integers(min_value=1, max_value=200),
    )
    @settings(max_examples=80)
    def test_ratio_recurrence(self, alpha, s):
        # C(a, s+1) = C(a, s) * (a - s) / (s + 1), exactly as real numbers.
        lhs = binom_frac(alpha, s + 1)
        rhs = binom_frac(alpha, s) * (alpha - s) / (s + 1)
        assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-300)


class TestBinomTailBound:
    def test_integer_alpha_terminates(self):
        assert binom_tail_bound(1.0, 1) == 0.0

    def test_monotone_in_n(self):
        assert binom_tail_bound(0.5, 100) < binom_tail_bound(0.5, 10)

    def test_scale_at_alpha_half(self):
        # Direct-summation oracle for s <= 1e6 must sit below the bound,
        # and the bound itself stays at the 2e-2 scale.
        bound = binom_tail_bound(0.5, 1000)
        s = np.arange(1001, 1_000_001, dtype=float)
        terms = np.exp(
            math.lgamma(1.5) + np.vectorize(math.lgamma)(s - 0.5) - np.vectorize(math.lgamma)(s + 1)
        ) * abs(math.sin(math.pi * 0.5) / math.pi)
        oracle = float(terms.sum())
        assert oracle <= bound
        assert bound <= 2e-2

    def test_bound_dominates_partial_sums(self):
        for alpha in (0.3, 0.9, 1.7):
            bound = binom_tail_bound(alpha, 5)
            partial = sum(abs(binom_frac(alpha, s)) for s in range(6, 4000))
            assert partial <= bound

    @pytest.mark.parametrize("alpha", [0.25, 0.5, 1.5])
    @pytest.mark.parametrize("x", [0.0, 0.3, 0.6, 0.9])
    def test_partial_sums_converge_to_power(self, alpha, x):
        # sum_s C(a,s)(-x)^s -> (1-x)^a with error below the tail envelope.
        for N in (8, 16, 32):
            partial = sum(binom_frac(alpha, s) * (-x) ** s for s in range(N + 1))
            err = abs(partial - (1.0 - x) ** alpha)
            envelope = binom_tail_bound(alpha, N) * x ** (N + 1) if x > 0 else 0.0
            assert err <= envelope + 1e-12

    def test_abs_sum_of_half(self):
        # c(1/2) = sum_{s>=1} |C(1/2, s)| = 1 exactly (telescoping of the
        # (1-x)^(1/2) expansion at x=1); generous tolerance for the bound.
        c = binom_tail_bound(0.5, 0)
        assert 0.99 <= c <= 1.05

import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import special as sps

from dunklsmooth import special, transforms
from dunklsmooth.special import (
    BESSEL_ARG_MAX,
    BESSEL_LAMBDA_MAX,
    BesselEvaluator,
    bessel_norm,
    binom_frac,
    binom_tail_bound,
    jm_multiplier,
)
from dunklsmooth.quad import RadialFunction, make_grid, nu_weights
from dunklsmooth.smoothness import (
    _chain_sweep,
    best_approx,
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


def library_formula(lam: float, t: np.ndarray) -> np.ndarray:
    """j_lam(t) = 2^lam Gamma(lam+1) t^(-lam) J_lam(t) by scipy's Bessel-J."""
    return 2.0**lam * math.gamma(lam + 1.0) * t ** (-lam) * sps.jv(lam, t)


class TestBesselTable:
    """Arguments in (1/2, BESSEL_ARG_MAX] are read from a per-lambda table of
    Chebyshev interpolants of ``special._direct`` (``special._bessel_table``)."""

    @pytest.mark.parametrize("lam, tol", [(-0.45, 1e-14), (0.0, 1e-14), (0.25, 1e-14),
                                          (1.0, 1e-14), (2.5, 1e-14), (10.0, 1e-14),
                                          (60.0, 1e-13), (120.0, 2e-13)])
    def test_matches_the_library_formula(self, lam, tol):
        # the table interpolates ``special._direct``, so the distance is
        # mostly the library's own error: on three draws like this one it is
        # at most 6.6e-15 for lambda <= 10, where jv is up to 5.9e-15 off
        # mpmath (see test_direct_formula_is_as_close_to_mpmath_as_the_library),
        # 2.4e-14 at lambda = 60 and 8.4e-14 at 120, where jv is up to
        # 2.9e-14 and 9.3e-14 off
        t = BESSEL_ARG_MAX - (BESSEL_ARG_MAX - 0.5) * np.random.default_rng(19).random(10_000)
        assert t.min() > 0.5 and t.max() <= BESSEL_ARG_MAX
        assert np.max(np.abs(BesselEvaluator(lam)(t) - library_formula(lam, t))) < tol

    def test_matches_mpmath_where_the_library_does(self):
        # j_0 on (1/2, 3]: the library is within 2.2e-16 of mpmath there, and
        # the table within 5.6e-16; Chebyshev weights cos(k theta_j) taken
        # from unreduced angles put it 2.9e-15 off
        t = np.linspace(0.5, 3.0, 201)[1:]
        exact = np.array([bessel_oracle(0.0, x) for x in t])
        assert np.max(np.abs(BesselEvaluator(0.0)(t) - exact)) < 1e-15

    @pytest.mark.parametrize("lam", [-0.45, 0.25, 1.0])
    def test_a_value_does_not_depend_on_the_table_or_the_batch(self, lam):
        # a panel depends only on lambda and its index: scalars served by a
        # cold table, grown point by point to 40 panels, equal the same points
        # inside an array that needs all 1000, bit for bit, and a table of 2
        # panels holds the first columns of one of 1000
        t = np.array([0.5000000000000001, 0.75, 1.5, 1.5000000000000002, 2.7, 40.25,
                      999.5, BESSEL_ARG_MAX])
        special._bessel_table.cache_clear()
        ev = BesselEvaluator(lam)
        single = np.array([ev(float(x)) for x in t[:6]])
        assert special._bessel_table(lam).columns.shape[1] == 40
        single = np.concatenate([single, [ev(float(x)) for x in t[6:]]])
        batch = ev(np.concatenate([t, [BESSEL_ARG_MAX]]))[:-1]
        assert single.tobytes() == batch.tobytes()
        assert ev(t[:4]).tobytes() == batch[:4].tobytes()
        small, large = special._BesselTable(lam).upto(2), special._bessel_table(lam).upto(1000)
        assert large.shape[1] == 1000
        assert small.tobytes() == np.ascontiguousarray(large[:, :2]).tobytes()

    def test_only_the_table_range_is_tabled(self):
        lam = 0.25
        ev = BesselEvaluator(lam)
        above = np.array([np.nextafter(BESSEL_ARG_MAX, np.inf), 1234.5, 1e4])
        assert ev(above).tobytes() == special._direct(lam, above).tobytes()
        assert np.isnan(ev(math.nan))
        # the series branch keeps t <= 1/2, where j_lam(0) = 1 exactly
        below = np.array([0.0, 0.25, 0.5])
        assert ev(below).tobytes() == ev._series(below).tobytes()
        assert ev(0.0) == 1.0

    def test_cache_stays_within_its_bound(self):
        # one entry per lambda, each a read-only table of at most the 1000
        # panels of 15 coefficients that arguments up to BESSEL_ARG_MAX reach
        for k in range(special._bessel_table.cache_info().maxsize + 3):
            BesselEvaluator(0.3 + k / 7.0)(np.array([0.75, BESSEL_ARG_MAX]))
        info = special._bessel_table.cache_info()
        assert info.maxsize == 12 and info.currsize <= 12
        BesselEvaluator(0.25)(np.array([0.75, BESSEL_ARG_MAX]))
        table = special._bessel_table(0.25).columns
        assert table.shape == (15, 1000) and table.nbytes == 1000 * 15 * 8 == 120_000
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0, 0] = 0.0

    @pytest.mark.parametrize("lam", [-0.45, 1.0])
    def test_growth_order_changes_no_column(self, lam):
        # tables grown in increasing, decreasing and shuffled request orders
        # hold the columns of one built in a single step, bit for bit
        requests = [1, 2, 3, 17, 64, 65, 400, 899, 900, 1000]
        orders = [requests, requests[::-1],
                  list(np.random.default_rng(7).permutation(requests))]
        whole = special._panel_columns(lam, 0, 1000)
        for order in orders:
            table = special._BesselTable(lam)
            for panels in order:
                columns = table.upto(int(panels))
                assert columns.shape[1] >= panels and not columns.flags.writeable
            assert table.columns.tobytes() == whole.tobytes(), order

    @pytest.mark.parametrize("n, panels", [(512, 900), (2048, 1000)])
    def test_a_fresh_build_computes_each_panel_once(self, monkeypatch, n, panels):
        # the kernel's arguments stay below rmax^2 = 900, which takes 899
        # panels at n = 512 and 900 at n = 2048 (power-of-two tables computed
        # 1064 and 2047); each panel is computed once, and in one step: the
        # build reserves the panels of its largest argument, the last node's
        # square, before its first batch.  The kernel is still the
        # point-by-point one, row block by row block
        points, steps = [], []
        direct, columns = special._direct, special._panel_columns

        def counting(lam, t):
            points.append(np.size(t))
            return direct(lam, t)

        def stepping(lam, start, stop):
            steps.append((start, stop))
            return columns(lam, start, stop)

        monkeypatch.setattr(special, "_direct", counting)
        monkeypatch.setattr(special, "_panel_columns", stepping)
        lam, g = 0.6180339887 + n / 1e6, make_grid(30.0, n)
        mat = transforms._kernel_matrix.__wrapped__(lam, g)
        assert 0 < sum(points) <= 15 * panels
        assert special._bessel_table(lam).columns.shape[1] * 15 == sum(points)
        assert steps == [(0, special._bessel_table(lam).columns.shape[1])]
        evaluator, w = BesselEvaluator(lam), nu_weights(g, lam)
        for lo in range(0, n, 256):
            rows = evaluator(np.multiply.outer(g.nodes[lo:lo + 256], g.nodes)) * w[None, :]
            assert np.array_equal(mat[lo:lo + 256], rows), lo
        # a rank-one pair member is built the same way
        steps.clear()
        radial = make_grid(30.0, 256)
        transforms._radial_bessel.__wrapped__(lam + 0.5, radial)
        assert steps == [(0, int(radial.nodes[-1] * radial.nodes[-1] - 0.5) + 1)]

    def test_reserve_grows_to_the_panels_an_argument_reads(self):
        special._bessel_table.cache_clear()
        evaluator = BesselEvaluator(0.3)
        for t_max in (0.5, math.nan, 0.0):
            evaluator.reserve(t_max)
            assert special._bessel_table(0.3).columns.shape[1] == 0
        # panel k is [k + 1/2, k + 3/2]: an argument just above 2.5 reads panel 2
        evaluator.reserve(np.nextafter(2.5, 3.0))
        assert special._bessel_table(0.3).columns.shape[1] == 3
        evaluator.reserve(1.0)
        assert special._bessel_table(0.3).columns.shape[1] == 3
        evaluator.reserve(1e6)
        assert special._bessel_table(0.3).columns.shape[1] == 1000


def series_reference(lam: float, t: np.ndarray) -> np.ndarray:
    """The power series of j_lam summed to 18 terms, term = term * x / (k (k + lam))."""
    x = -0.25 * t * t
    term = np.ones_like(t)
    acc = np.ones_like(t)
    for k in range(1, 18):
        term = term * x / (k * (k + lam))
        acc = acc + term
    return acc


@pytest.mark.parametrize("lam", [-0.4999, -0.45, 0.0, 0.25, 1.0, 10.0, 120.0])
def test_series_stops_without_changing_a_bit(lam):
    # the series branch stops once the next term cannot move the rounded
    # sum; it must equal the 18-term sum bit for bit, in any batch
    rng = np.random.default_rng(22)
    t = np.concatenate([
        [0.0, 0.5, np.nextafter(0.5, 0.0), 5e-324, 1e-300, 1e-160, 1e-8, 0.25],
        0.5 * rng.random(100_000),
        np.geomspace(1e-300, 0.5, 100_000),
    ])
    ev = BesselEvaluator(lam)
    expected = series_reference(lam, t)
    assert ev._series(t).tobytes() == expected.tobytes()
    assert ev(t).tobytes() == expected.tobytes()
    # a batch of small arguments stops after fewer terms
    for hi in (1e-3, 1e-8, 1e-100):
        part = t[t <= hi]
        assert ev._series(part).tobytes() == expected[t <= hi].tobytes()


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


# scipy 1.17.1's jv, in the library formula 2^lam Gamma(lam+1) t^-lam J_lam(t)
# that filled the table before ``special._direct`` did, is this far from
# mpmath at the points of the test below: 5.88e-15 at lambda = -0.45,
# 3.21e-16 at 0, 5.39e-15 at 0.25, 1.11e-16 (2^-53) at 1, 2.17e-15 at 2.5,
# 3.22e-15 at 10, 2.86e-14 at 60 and 9.26e-14 at 120.  Each bound is that
# distance rounded down; the direct formula is within 1.06e-15 at -0.45,
# 2.22e-16 at 0 and 2^-53 at every other order
DIRECT_FORMULA_BOUNDS = {-0.45: 5.8e-15, 0.0: 3.2e-16, 0.25: 5.3e-15, 1.0: 2.0**-53,
                         2.5: 2.1e-15, 10.0: 3.2e-15, 60.0: 2.8e-14, 120.0: 9.2e-14}


def oracle_points() -> np.ndarray:
    """120 dithered geometric points on (1/2, 1e3], 40 uniform ones, and five
    above 1e3."""
    rng = np.random.default_rng(29)
    t = np.concatenate([np.geomspace(0.5, 1e3, 121)[1:], 0.5 + 999.5 * rng.random(40),
                        [1000.5, 1234.5, 5e3, 1e4, 1e5]])
    t[:120] = np.minimum(t[:120] * (1.0 + 0.01 * rng.random(120)), 1e3)
    return t


@pytest.mark.parametrize("lam", sorted(DIRECT_FORMULA_BOUNDS))
def test_direct_formula_is_as_close_to_mpmath_as_the_library(lam):
    # both branches of the direct formula are sampled: Miller's recurrence
    # below max(20, lambda), Hankel's expansion above
    t = oracle_points()
    assert t.min() > 0.5 and np.sum(t < max(20.0, lam)) >= 20 and np.sum(t > 1e3) == 5
    exact = np.array([bessel_oracle(lam, x) for x in t])
    assert np.max(np.abs(special._direct(lam, t) - exact)) <= DIRECT_FORMULA_BOUNDS[lam]


@pytest.mark.parametrize("lam", [-0.45, 0.0, 0.25, 2.5, 120.0])
def test_huge_finite_arguments_raise_no_warning_and_keep_relative_accuracy(lam):
    # t * t overflows above about 1.3e154; Hankel's x = -1/t^2 is then -0,
    # and the value stays within 16 ulps of mpmath (warnings fail the suite)
    t = np.array([1e154, 2e154, 1e160, 1e300, 1.7e308])
    exact = np.array([bessel_oracle(lam, x) for x in t])
    assert np.all(np.abs(BesselEvaluator(lam)(t) - exact) <= 16 * np.finfo(float).eps * np.abs(exact))


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
            lambda fhat=fhat: _chain_sweep(f, (0.3,), (1.0,), (2,), lam, ("K",), fhat=fhat),
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

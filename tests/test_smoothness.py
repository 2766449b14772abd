import math
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import gammaincc

from dunklsmooth import smoothness

from dunklsmooth.harness import make_profile
from dunklsmooth.operators import vallee_poussin
from dunklsmooth.quad import RadialFunction, default_grid, lp_norm, make_grid, nu_weights
from dunklsmooth.smoothness import (
    _best_approxes,
    _chain_sweep,
    _diff_norms,
    _ladder,
    _marchaud_bounds,
    _marchaud_nodes,
    _marchaud_sigmas,
    _moduli,
    _modulus_steps,
    _realizations,
    best_approx,
    diff_norm,
    inverse_bound,
    k_functional_upper,
    marchaud_bound,
    modulus,
    realization,
    realization_candidate_min,
)
from dunklsmooth.quad import _lp_norms, _spectral_l2
from dunklsmooth.special import BesselEvaluator, binom_tail_bound, jm_multiplier
from dunklsmooth.transforms import (
    _kernel_matrix,
    hankel,
    inverse_hankel,
    spectral_tail_l2,
    spectrum_from_values,
)

LAM = 0.25


@pytest.fixture(scope="module")
def grid():
    return make_grid(30.0, 1024)


@pytest.fixture(scope="module")
def gauss(grid):
    return RadialFunction(grid=grid, values=np.exp(-0.5 * grid.nodes**2))


class TestModulus:
    def test_zero_function(self, grid):
        z = RadialFunction(grid=grid, values=np.zeros(grid.n))
        assert modulus(z, 0.5, 1.0, 2, LAM).value == 0.0

    def test_subadditive(self, grid, gauss):
        g = RadialFunction(grid=grid, values=grid.nodes**2 * np.exp(-0.5 * grid.nodes**2))
        fg = RadialFunction(grid=grid, values=gauss.values + g.values)
        delta, m, p = 0.4, 1.0, 2
        assert (
            modulus(fg, delta, m, p, LAM).value
            <= modulus(gauss, delta, m, p, LAM).value
            + modulus(g, delta, m, p, LAM).value
            + 1e-12
        )

    def test_parseval_oracle_at_p2(self, grid, gauss):
        # Independent oracle: the Gaussian's spectrum is exp(-r^2/2) in
        # closed form; the modulus at p=2 is the max over the same t grid of
        # the spectral quadrature of the difference symbol against it.
        delta, m = 0.4, 1.0
        w = nu_weights(grid, LAM)
        t_grid = delta * 2.0 ** (-np.arange(25) / 4.0)
        spec = np.exp(-0.5 * grid.nodes**2)
        oracle = max(
            math.sqrt(float(np.sum(w * (jm_multiplier(LAM, m, t * grid.nodes) * spec) ** 2)))
            for t in t_grid
        )
        got = modulus(gauss, delta, m, 2, LAM).value
        assert got == pytest.approx(oracle, rel=1e-6)

    def test_monotone_in_delta_on_nested_sweep(self, grid, gauss):
        deltas = 0.8 * 2.0 ** (-np.arange(6) / 4.0)
        vals = [modulus(gauss, d, 1.0, 2, LAM).value for d in deltas]
        assert all(a >= b - 1e-15 for a, b in zip(vals, vals[1:]))

    def test_bounded_by_norm_constant(self, grid, gauss):
        # omega_m(delta, f) <= (1 + c(m/2)) ||f||_p.
        for m in (0.5, 1.0, 2.0):
            cap = (1.0 + binom_tail_bound(m / 2.0, 0)) * lp_norm(gauss, 2, LAM)
            assert modulus(gauss, 2.0, m, 2, LAM).value <= cap * (1 + 1e-9)

    def test_doubling_bound(self, grid, gauss):
        # omega_m(2 delta) <= 4 * 2^(2m) * omega_m(delta) (slack window 4).
        for m in (0.5, 1.0, 2.0):
            for delta in (0.05, 0.2):
                a = modulus(gauss, 2 * delta, m, 2, LAM).value
                b = modulus(gauss, delta, m, 2, LAM).value
                assert a <= 4.0 * 2.0 ** (2 * m) * b

    def test_higher_order_domination(self, grid, gauss):
        # omega_{m+r}(delta, f) <= (1 + c(r/2)) omega_m(delta, f).
        m, r, delta = 1.0, 0.5, 0.4
        c = 1.0 + binom_tail_bound(r / 2.0, 0)
        hi = modulus(gauss, delta, m + r, 2, LAM).value
        lo = modulus(gauss, delta, m, 2, LAM).value
        assert hi <= c * lo * (1 + 1e-9)

    def test_reports_attaining_step(self, grid, gauss):
        res = modulus(gauss, 0.3, 1.0, 2, LAM)
        assert res.t_max == pytest.approx(0.3)


# the bit-identity of every sweep off p = 2 rests on these; README,
# "Numerical design notes", "One modulus ladder per sweep"
WIDTH_NOTE = "see README, Numerical design notes, 'One modulus ladder per sweep'"


def count_products(monkeypatch) -> list[int]:
    """Widths of the products ``smoothness._product`` makes from now on."""
    widths = []
    product = smoothness._product

    def counted(mat, columns):
        out = product(mat, columns)
        widths.append(out.shape[1])
        return out

    monkeypatch.setattr(smoothness, "_product", counted)
    return widths


class TestModulusSweep:
    # on the lattice (octave points and quarter points), off it, one ulp
    # off an octave point, and above 1
    DELTAS = (1.0, 2.0**-0.75, 0.5, 0.3, 0.1, 0.12500000000000003, 4.0, 8.0)

    @pytest.mark.parametrize("p", [1.0, 2.0, math.inf])
    @pytest.mark.parametrize("name", ["gaussian", "bandlimited"])
    def test_sweep_equals_single_calls(self, grid, name, p):
        f = make_profile(name, grid, LAM)
        fhat = hankel(f, LAM)
        orders = (1.0, 2.5)
        sweep = _moduli(fhat, self.DELTAS, orders, (p,))
        assert set(sweep) == {(delta, p, m) for delta in self.DELTAS for m in orders}
        for (delta, _, m), result in sweep.items():
            assert modulus(f, delta, m, p, LAM, fhat=fhat) == result
        # some sups are interior, so the union's interior columns are read
        assert any(result.t_max < delta for (delta, _, _), result in sweep.items())

    def test_octave_steps_equal_the_scaled_ladder(self):
        # delta 2^(-j/4) is bit-equal to the shared rung at octave points;
        # at the other quarter points the product may be one ulp off it
        for k in range(49):
            delta = 2.0 ** (-k / 4.0)
            scaled = delta * 2.0 ** (-np.arange(25) / 4.0)
            steps = _modulus_steps(delta)
            if k % 4 == 0:
                assert np.array_equal(steps, scaled), k
            else:
                assert np.all(np.abs(steps - scaled) <= np.spacing(scaled)), k
                assert steps[0] == delta

    def test_rungs_agree_across_evaluations(self):
        # Python's power, numpy's array power and the ldexp of the four
        # quarter mantissas give the same rungs, so the lattice is exact
        quarters = [2.0 ** (-i / 4.0) for i in range(4)]
        ks = np.arange(400)
        array = 2.0 ** (-ks / 4.0)
        for k in ks.tolist():
            rung = 2.0 ** (-k / 4.0)
            assert rung == array[k] == math.ldexp(quarters[k % 4], -(k // 4)), k

    @pytest.mark.parametrize("delta", [1.0, 0.3, 2.0**-0.75, 5e-7, 37.0, 1e300, 1e-300])
    def test_steps_are_delta_and_24_rungs_below_it(self, delta):
        steps = _modulus_steps(delta)
        assert steps.size == 25 and steps[0] == delta
        assert np.all(np.diff(steps) < 0)
        assert steps[-1] >= delta / 64.0 and steps[1] < delta
        for t in steps[1:].tolist():
            k = round(-4.0 * math.log2(t))
            assert t == 2.0 ** (-k / 4.0)

    def test_ladders_share_their_rungs(self):
        # 9 scales of a decade-spaced sweep take 59 steps, not 225
        scales = np.geomspace(1e-2, 1.0, 9)
        union, own = _ladder(scales)
        assert union.size == 59 and np.all(np.diff(union) < 0)
        for t in scales:
            assert np.array_equal(union[own[t]], _modulus_steps(t))

    def test_a_second_sweep_keeps_no_memo(self, grid, gauss, monkeypatch):
        fhat = hankel(gauss, LAM)
        points = []
        one_minus = BesselEvaluator.one_minus

        def counted_one_minus(self, t):
            points.append(np.size(t))
            return one_minus(self, t)

        widths = count_products(monkeypatch)
        monkeypatch.setattr(BesselEvaluator, "one_minus", counted_one_minus)
        union = _ladder(self.DELTAS)[0].size
        for _ in range(2):
            widths.clear()
            points.clear()
            _moduli(fhat, self.DELTAS, (1.0, 2.0), (1.0, math.inf))
            # one base over the union, one product per order, every time
            assert (widths, points) == ([smoothness._width(union)] * 2, [grid.n * union])

    @pytest.mark.parametrize("n", [64, 256, 512, 1024, 2048])
    def test_product_columns_do_not_depend_on_width(self, n):
        # the product rule: padded to a multiple of _PAD columns, a column's
        # bits depend neither on the product's width nor on its position
        # in it, whatever the number k of columns asked for (a lone column
        # would take gemv, and at n <= 512 some narrow widths differ too)
        grid = make_grid(30.0, n)
        kernel = _kernel_matrix(LAM, grid)
        syms = np.random.default_rng(0).standard_normal((n, 200))
        full = kernel @ syms
        for k in [*range(1, 26), 40, 64, 120, 128]:
            for a in (0, 3, 13, 200 - k):
                out = smoothness._product(kernel, syms[:, a : a + k])
                assert out.shape[1] == smoothness._width(k) and out.shape[1] % smoothness._PAD == 0
                assert np.array_equal(out[:, :k], full[:, a : a + k]), (k, a, WIDTH_NOTE)
                assert not out[:, k:].any()

    @pytest.mark.parametrize("p", [1.0, 2.0, math.inf])
    def test_norm_columns_do_not_depend_on_width(self, grid, p):
        # an axis-0 norm of a C-order (n, k >= 2) slice equals that column's
        # norm inside the wider array
        phys = np.random.default_rng(1).standard_normal((grid.n, 40))
        full = _lp_norms(phys, grid, LAM, p)
        for a, b in ((0, 2), (3, 28), (17, 40)):
            assert np.array_equal(_lp_norms(phys[:, a:b], grid, LAM, p), full[a:b]), WIDTH_NOTE


class TestDiffNormSweep:
    # steps with m > 0 repeated across orders and r, a step-free point
    # (m = 0), and steps on and off the modulus lattice
    POINTS = ((0.3, 1.0, 0.0), (0.3, 2.5, 0.0), (0.1, 1.0, 1.5), (0.0, 0.0, 2.0),
              (2.0**-0.75, 0.5, 0.0), (4.0, 1.0, 0.0))

    @pytest.mark.parametrize("p", [1.0, 2.0, math.inf])
    def test_sweep_equals_single_calls(self, gauss, p):
        fhat = hankel(gauss, LAM)
        sweep = _diff_norms(fhat, self.POINTS, (p,))
        assert set(sweep) == {(*point, p) for point in self.POINTS}
        for t, m, r in self.POINTS:
            assert diff_norm(gauss, t, m, p, LAM, r=r, fhat=fhat) == sweep[t, m, r, p]

    def test_one_base_over_the_distinct_steps(self, grid, gauss, monkeypatch):
        fhat = hankel(gauss, LAM)
        points = []
        one_minus = BesselEvaluator.one_minus

        def counted_one_minus(self, t):
            points.append(np.shape(t))
            return one_minus(self, t)

        monkeypatch.setattr(BesselEvaluator, "one_minus", counted_one_minus)
        joint = _diff_norms(fhat, self.POINTS, (1.0, 2.0, math.inf))
        assert points == [(grid.n, 4)]
        # a joint p sweep gives each single-p sweep's values
        for p in (1.0, 2.0, math.inf):
            assert _diff_norms(fhat, self.POINTS, (p,)).items() <= joint.items()


class TestSmallGridSweeps:
    """Off p = 2 every sweep value equals its one-point call on a small grid
    too, where narrow products at most widths take other BLAS kernels than
    wide ones: the product rule pads every product (``smoothness._product``)."""

    SCALES = (0.05, 0.1, 0.2, 0.4, 0.8)

    @pytest.fixture(scope="class")
    def small(self):
        grid = make_grid(30.0, 128)
        f = make_profile("rational", grid, LAM)
        return f, hankel(f, LAM)

    @pytest.mark.parametrize("p", [1.0, math.inf])
    def test_one_point_calls_equal_their_sweeps(self, small, p):
        f, fhat = small
        rs = (0.5, 1.0, 2.0)
        chain = _chain_sweep(f, self.SCALES, rs, (p,), LAM, smoothness._CHAIN_FUNCTIONALS, fhat)
        diffs = _diff_norms(fhat, [(t, r, 0.0) for t in self.SCALES for r in rs], (p,))
        approxes = _best_approxes(f, fhat, [1.0 / t for t in self.SCALES], (p,), LAM)[p]
        for t in self.SCALES:
            ba = best_approx(f, 1.0 / t, p, LAM, fhat=fhat)
            assert ba.value == approxes[1.0 / t].value
            for r in rs:
                assert modulus(f, t, r, p, LAM, fhat=fhat).value == chain["omega"][t, p, r]
                assert diff_norm(f, t, r, p, LAM, fhat=fhat) == diffs[t, r, 0.0, p] \
                    == chain["diff"][t, p, r]
                assert realization(f, t, r, p, LAM, fhat=fhat).value == chain["Rstar"][t, p, r]
                assert k_functional_upper(f, t, r, p, LAM, fhat=fhat) == chain["K"][t, p, r]
                assert realization_candidate_min(f, t, r, p, LAM, fhat=fhat) == chain["R"][t, p, r]

    def test_sweeps_past_the_column_budget_equal_their_one_point_calls(self, small, monkeypatch):
        # more points than one product takes: every product stays within
        # the budget, and every value still equals its one-point call
        f, fhat = small
        p = math.inf
        budget = smoothness._PRODUCT_COLUMNS
        scales = np.geomspace(0.05, 0.8, budget + 5).tolist()
        widths = count_products(monkeypatch)
        diffs = _diff_norms(fhat, [(t, 1.0, 0.0) for t in scales], (p,))
        approxes = _best_approxes(f, fhat, [1.0 / t for t in scales], (p,), LAM)[p]
        terms = smoothness._realizations({t: approxes[1.0 / t] for t in scales}, (1.0,), p)
        assert widths == [budget, smoothness._PAD] * 3
        for t in scales:
            assert diff_norm(f, t, 1.0, p, LAM, fhat=fhat) == diffs[t, 1.0, 0.0, p]
            assert realization(f, t, 1.0, p, LAM, fhat=fhat) == terms[t, 1.0]

    def test_inverse_norms_give_one_norm_per_spectrum_at_every_p(self, small):
        f, fhat = small
        norms = smoothness._inverse_norms(fhat.grid, LAM, 3, (1.0, 2.0, math.inf),
                                          lambda j, out: np.multiply(fhat.values, j + 1.0, out=out))
        assert {p: v.shape for p, v in norms.items()} == {1.0: (3,), 2.0: (3,), math.inf: (3,)}
        for v in norms.values():
            np.testing.assert_allclose(v, v[0] * np.array([1.0, 2.0, 3.0]), rtol=1e-12)


class TestBesselStepRange:
    """A step whose Bessel arguments nu t pass BESSEL_ARG_MAX on the grid
    (t rmax > 1e3, so t > 33.3 at rmax = 30) is refused, naming the
    argument, before any ladder or Bessel base is built."""

    @pytest.mark.parametrize("call", [
        lambda f, t: modulus(f, t, 1.0, 2, LAM),
        lambda f, t: diff_norm(f, t, 1.0, 2, LAM),
        lambda f, t: _chain_sweep(f, (0.1, t), (1.0,), (2.0,), LAM, ("omega",)),
        lambda f, t: _chain_sweep(f, (0.1, t), (1.0,), (1.0,), LAM, ("diff",)),
    ])
    @pytest.mark.parametrize("t", [34.0, 1e3, 1.7e308])
    def test_refused_by_name(self, gauss, call, t):
        with mock.patch.object(smoothness, "_ladder", side_effect=AssertionError), \
             mock.patch.object(BesselEvaluator, "one_minus", side_effect=AssertionError):
            with pytest.raises(ValueError, match=r"(delta|step t) gives difference steps up"
                                                 rf" to {re.escape(repr(t))}, beyond 33\.33"):
                call(gauss, t)

    def test_a_step_in_range_is_taken(self, gauss):
        t = 33.0
        assert modulus(gauss, t, 1.0, 2, LAM).value > 0
        assert diff_norm(gauss, t, 1.0, 2, LAM) > 0


class TestPlancherelSide:
    """p = 2 norms of the modulus and the difference norms are Plancherel
    norms of the symbol-multiplied spectrum: no inverse product is made."""

    @staticmethod
    def physical_l2(fhat, image):
        return lp_norm(inverse_hankel(spectrum_from_values(fhat.grid, LAM, image)), 2, LAM)

    @pytest.mark.parametrize("m", [0.5, 1.0, 2.0])
    def test_modulus_is_the_plancherel_norm_at_its_step(self, grid, gauss, m):
        fhat = hankel(gauss, LAM)
        for delta in (0.05, 0.3, 1.0):
            res = modulus(gauss, delta, m, 2, LAM, fhat=fhat)
            image = jm_multiplier(LAM, m, grid.nodes * res.t_max) * fhat.values
            assert res.value == _spectral_l2(image, grid, LAM)
            assert res.value == pytest.approx(self.physical_l2(fhat, image), rel=1e-6)

    @pytest.mark.parametrize("m", [0.5, 1.0, 2.0])
    def test_diff_norm_is_the_plancherel_norm(self, grid, gauss, m):
        fhat = hankel(gauss, LAM)
        for t, r in ((0.05, 0.0), (0.3, 0.0), (0.3, 1.5)):
            image = grid.nodes**r * jm_multiplier(LAM, m, grid.nodes * t) * fhat.values
            value = diff_norm(gauss, t, m, 2, LAM, r=r, fhat=fhat)
            assert value == _spectral_l2(image, grid, LAM)
            assert value == pytest.approx(self.physical_l2(fhat, image), rel=1e-6)

    def test_p2_sweeps_make_no_inverse_product(self, gauss, monkeypatch):
        calls = count_products(monkeypatch)
        fhat = hankel(gauss, LAM)
        names = smoothness._CHAIN_FUNCTIONALS
        _chain_sweep(gauss, (0.05, 0.3), (0.5, 2.0), (2.0,), LAM, names, fhat=fhat)
        _moduli(fhat, (0.1, 0.3), (1.0,), (2.0,))
        diff_norm(gauss, 0.3, 1.0, 2, LAM, r=1.0, fhat=fhat)
        assert calls == []
        # another p adds one product to the same sweep
        _moduli(fhat, (0.1, 0.3), (1.0,), (1.0, 2.0))
        assert len(calls) == 1


def _refusals(f):
    """(start of the refusal, call with a bad value) for every scale and
    order a functional takes; each refusal names the argument."""
    return [
        ("delta must be finite", lambda v: modulus(f, v, 1.0, 2, LAM)),
        ("order m must be finite", lambda v: modulus(f, 0.3, v, 2, LAM)),
        ("step t must be finite", lambda v: diff_norm(f, v, 1.0, 2, LAM)),
        ("order m must be finite", lambda v: diff_norm(f, 0.3, v, 2, LAM)),
        ("r must be finite", lambda v: diff_norm(f, 0.3, 1.0, 2, LAM, r=v)),
        ("t must be finite", lambda v: _chain_sweep(f, (v,), (1.0,), (2.0,), LAM, ("omega",))),
        ("r must be finite", lambda v: _chain_sweep(f, (0.3,), (v,), (2.0,), LAM, ("omega",))),
        ("t must be finite", lambda v: k_functional_upper(f, v, 1.0, 2, LAM)),
        ("r must be finite", lambda v: k_functional_upper(f, 0.3, v, 2, LAM)),
        ("t must be finite", lambda v: realization(f, v, 1.0, 2, LAM)),
        ("r must be finite", lambda v: realization(f, 0.3, v, 2, LAM)),
        ("t must be finite", lambda v: realization_candidate_min(f, v, 1.0, 2, LAM)),
        ("m must be finite", lambda v: inverse_bound({0: 1.0, 1: 0.5}, 1, v)),
        ("delta must lie in (0, 1)", lambda v: marchaud_bound(f, v, 1.0, 2, LAM)),
        ("m must be finite", lambda v: marchaud_bound(f, 0.3, v, 2, LAM)),
    ]


class TestNonFiniteArguments:
    @pytest.mark.parametrize("case", range(len(_refusals(None))))
    @settings(max_examples=10, deadline=None)
    @given(bad=st.sampled_from([math.inf, -math.inf, math.nan]))
    def test_refused_by_name_before_any_work(self, gauss, case, bad):
        refusal, call = _refusals(gauss)[case]
        # no transform, no Bessel evaluation: the check comes first
        with mock.patch.object(smoothness, "_spectrum_of", side_effect=AssertionError), \
             mock.patch.object(BesselEvaluator, "one_minus", side_effect=AssertionError):
            with pytest.raises(ValueError, match=re.escape(refusal)) as info:
                call(bad)
        assert repr(bad) in str(info.value)

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_marchaud_refuses_a_non_finite_delta_or_order(self, gauss, bad):
        with pytest.raises(ValueError, match="delta must lie in"):
            marchaud_bound(gauss, bad, 1.0, 2, LAM)
        with pytest.raises(ValueError, match=re.escape(f"m must be finite and positive, got {bad!r}")):
            marchaud_bound(gauss, 0.2, bad, 2, LAM)

    @pytest.mark.parametrize("bad", [math.inf, math.nan, 0.0, -1.0])
    def test_the_ladder_refuses_a_bad_delta(self, bad):
        with pytest.raises(ValueError, match="delta must be finite"):
            _modulus_steps(bad)


class TestBestApprox:
    def test_bandlimited_input_is_reproduced_p2(self, grid):
        # wide transition: the physical tail must die out well inside rmax
        # for the sampled function to be bandlimited at working precision
        from dunklsmooth.harness import bandlimited_spectrum

        shat = bandlimited_spectrum(grid, LAM, 12.0)
        f = inverse_hankel(shat)
        ba = best_approx(f, 14.0, 2, LAM)
        # exact-arithmetic value is 0; the desk-scale floor is the sampled
        # input's own physical tail at rmax re-entering the quadrature
        # (|f(rmax)| ~ 8e-8 against peak ~10)
        assert ba.value < 5e-6
        assert not ba.near_best
        assert np.all(ba.g_star.values[grid.nodes > 14.0] == 0.0)

    def test_gaussian_tail_oracle(self, grid, gauss):
        # E_sigma^2 = integral_{r>sigma} e^{-r^2} d nu, via incomplete gamma.
        for sigma in (0.7, 2.0, 3.5):
            ba = best_approx(gauss, sigma, 2, LAM)
            oracle = gammaincc(LAM + 1.0, sigma**2) / 2.0 ** (LAM + 1.0)
            assert ba.value**2 == pytest.approx(oracle, abs=1e-8)

    def test_sigma_to_zero_gives_full_norm(self, grid, gauss):
        ba = best_approx(gauss, 1e-9, 2, LAM)
        assert ba.value == pytest.approx(lp_norm(gauss, 2, LAM), rel=1e-7)

    def test_near_best_flag_and_bandlimit(self, grid, gauss):
        ba = best_approx(gauss, 3.0, 1, LAM)
        assert ba.near_best
        assert ba.g_star.bandlimit == 3.0
        # upper bound property: dominates the p=2 exact error at p=2 scale
        assert ba.value > 0

    @staticmethod
    def _projection_error_p1(f, sigma, lam):
        # measured as best_approx measures it: the residual's column of a
        # product by the product rule, reduced over the padded block
        g = vallee_poussin(hankel(f, lam), sigma / 2.0)
        block = smoothness._block(f.grid.n, 1)
        block[:, 0] = g.values
        resid = f.values[:, None] - smoothness._product(_kernel_matrix(lam, f.grid), block)
        return float(_lp_norms(resid, f.grid, lam, 1)[0])

    @staticmethod
    def _projection_error_p1_by_inverse(f, sigma, lam):
        # the same error measured apart from the product rule
        g = vallee_poussin(hankel(f, lam), sigma / 2.0)
        resid = f.values - inverse_hankel(g).values
        return lp_norm(RadialFunction(grid=f.grid, values=resid), 1, lam)

    @pytest.mark.parametrize("sigma", [1.0, 1.0 / 0.562, 1.0 / 0.316])
    def test_l1_fit_p1(self, grid, gauss, sigma):
        # at lam = 1 the smoothing projection's L1 error exceeds ||f||_1 at
        # these scales; the bounded weighted-L1 fit must not
        lam = 1.0
        ba = best_approx(gauss, sigma, 1, lam)
        assert ba.near_best
        assert ba.value <= lp_norm(gauss, 1, lam)
        assert ba.value <= self._projection_error_p1(gauss, sigma, lam)
        resid = gauss.values - inverse_hankel(ba.g_star).values
        assert ba.value == pytest.approx(
            lp_norm(RadialFunction(grid=grid, values=resid), 1, lam), rel=1e-12
        )
        assert np.all(ba.g_star.values[grid.nodes > sigma] == 0.0)
        assert ba.g_star.bandlimit == sigma
        t = 1.0 / sigma
        for r in (0.5, 1.0, 2.0):
            res = realization(gauss, t, r, 1, lam)
            deriv_f = diff_norm(gauss, 0.0, 0.0, 1, lam, r=r)
            assert res.derivative_term <= 2.0 * t**r * deriv_f

    def test_l1_fit_falls_back_to_projection(self, grid, gauss, monkeypatch):
        # a solver that reports no optimum leaves the smoothing projection
        from types import SimpleNamespace

        monkeypatch.setattr(
            "scipy.optimize.linprog", lambda *a, **k: SimpleNamespace(status=4)
        )
        ba = best_approx(gauss, 2.0, 1, LAM)
        assert ba.value == self._projection_error_p1(gauss, 2.0, LAM)
        assert ba.value == pytest.approx(self._projection_error_p1_by_inverse(gauss, 2.0, LAM),
                                         rel=1e-12)

    def test_p1_beyond_last_node_reproduces_f(self, grid, gauss):
        ba = best_approx(gauss, 2.0 * grid.rmax, 1, LAM)
        assert ba.value < 1e-6 * lp_norm(gauss, 1, LAM)

    @pytest.mark.parametrize("p", [1.0, 2.0, math.inf])
    def test_sweep_equals_single_calls(self, p):
        # each distinct sigma once, every entry == its own best_approx call;
        # the p = 1 fits run on a small grid
        grid = make_grid(30.0, 256 if p == 1 else 1024)
        f = make_profile("rational", grid, LAM)
        fhat = hankel(f, LAM)
        sigmas = [1.0, 2.0, 4.0, 2.5, 2.5000000000000004, 5.0, 1.0, 0.3, 2.0 * grid.rmax]
        sweep = _best_approxes(f, fhat, sigmas, (p,), LAM)[p]
        assert list(sweep) == list(dict.fromkeys(sigmas))
        for sigma, ba in sweep.items():
            single = best_approx(f, sigma, p, LAM, fhat=fhat)
            assert ba.value == single.value and ba.near_best == single.near_best
            assert np.array_equal(ba.g_star.values, single.g_star.values)
            assert ba.g_star.bandlimit == single.g_star.bandlimit

    def test_joint_p_sweep_equals_single_calls(self):
        # off p = 2 every p measures one projection residual per sigma; the
        # values, approximants and their order equal each (sigma, p) alone
        grid = make_grid(30.0, 256)
        f = make_profile("rational", grid, LAM)
        fhat = hankel(f, LAM)
        ps, sigmas = (1.0, 2.0, math.inf), [2.0, 0.3, 2.0 * grid.rmax]
        sweep = _best_approxes(f, fhat, sigmas, ps, LAM)
        assert list(sweep) == list(ps) and all(list(sweep[p]) == sigmas for p in ps)
        for p in ps:
            for sigma, ba in sweep[p].items():
                single = best_approx(f, sigma, p, LAM, fhat=fhat)
                assert ba.value == single.value and ba.near_best == single.near_best
                assert np.array_equal(ba.g_star.values, single.g_star.values)

    @pytest.mark.parametrize("p", [2.0, math.inf])
    def test_sweep_refuses_a_nonpositive_sigma(self, gauss, p):
        with pytest.raises(ValueError, match="sigma must be finite and positive"):
            _best_approxes(gauss, hankel(gauss, LAM), (1.0, 0.0), (p,), LAM)


class TestRealization:
    def test_bandlimited_input_p2(self, grid):
        # bandlimit <= 1/t makes the approximation error vanish and the
        # value reduce to t^r || (-Lap)^(r/2) f ||_2.
        from dunklsmooth.harness import bandlimited_spectrum

        t, r = 0.05, 1.0
        shat = bandlimited_spectrum(grid, LAM, 12.0)
        f = inverse_hankel(shat)
        res = realization(f, t, r, 2, LAM)
        assert res.approx_error < 5e-6
        w = nu_weights(grid, LAM)
        deriv = math.sqrt(float(np.sum(w * (grid.nodes**r * shat.values) ** 2)))
        assert res.value == pytest.approx(t**r * deriv, rel=1e-4)

    def test_decay_as_t_to_zero(self, grid, gauss):
        # r=2: quadratic in t, comfortably below 1e-4 by j=10; r=1 decays
        # linearly (value ~ t * ||(-Lap)^(1/2) f||), needing j=13.
        vals = [realization(gauss, 2.0**-j, 2.0, 2, LAM).value for j in range(1, 11)]
        assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))
        assert vals[-1] < 1e-4
        vals1 = [realization(gauss, 2.0**-j, 1.0, 2, LAM).value for j in range(1, 14)]
        assert all(a >= b - 1e-12 for a, b in zip(vals1, vals1[1:]))
        assert vals1[-1] < 1e-4

    def test_scaling_bound(self, grid, gauss):
        # R_r(2t) <= 4 * 2^r R_r(t) along the sweep.
        r = 1.0
        for t in (0.05, 0.1, 0.2, 0.4):
            a = realization(gauss, 2 * t, r, 2, LAM).value
            b = realization(gauss, t, r, 2, LAM).value
            assert a <= 4.0 * 2.0**r * b

    def test_value_is_sum_of_terms(self, grid, gauss):
        res = realization(gauss, 0.3, 1.0, 2, LAM)
        assert res.value == pytest.approx(res.approx_error + res.derivative_term, rel=1e-15)
        assert res.sigma_used == pytest.approx(1.0 / 0.3)

    def test_candidate_min_at_most_rstar(self, grid, gauss):
        for p in (1, 2, math.inf):
            rc = realization_candidate_min(gauss, 0.3, 1.0, p, LAM)
            rstar = realization(gauss, 0.3, 1.0, p, LAM).value
            assert rc <= rstar * (1 + 1e-12)

    def test_shared_approximant_matches_fresh(self, grid, gauss):
        # a sweep's shared approximant and a caller's transform give the
        # same numbers as a fresh computation
        t, rs = 0.3, (0.5, 1.0)
        fhat = hankel(gauss, LAM)
        for p in (1, 2, math.inf):
            ba = best_approx(gauss, 1.0 / t, p, LAM, fhat=fhat)
            sweep = _realizations({t: ba}, rs, p)
            assert set(sweep) == {(t, r) for r in rs}
            for r in rs:
                assert sweep[t, r] == realization(gauss, t, r, p, LAM, fhat=fhat) == realization(
                    gauss, t, r, p, LAM
                )
            assert realization_candidate_min(
                gauss, t, 1.0, p, LAM, fhat=fhat
            ) == realization_candidate_min(gauss, t, 1.0, p, LAM)


class TestKFunctionalUpper:
    def test_zero_function(self, grid):
        z = RadialFunction(grid=grid, values=np.zeros(grid.n))
        assert k_functional_upper(z, 0.5, 1.0, 2, LAM) == 0.0

    def test_never_exceeds_derivative_cap(self, grid, gauss):
        # K_r(t, f) <= t^r ||(-Lap)^(r/2) f|| (take g = f); the candidate
        # family approaches f, so at most 5% grid slack above the cap.
        for r in (0.5, 1.0):
            for t in (0.02, 0.1, 0.5):
                cap = t**r * diff_norm(gauss, 0.0, 0.0, 2, LAM, r=r)
                assert k_functional_upper(gauss, t, r, 2, LAM) <= 1.05 * cap

    @pytest.mark.parametrize("p", [1, 2, math.inf])
    def test_never_exceeds_zero_candidate(self, grid, gauss, p):
        # g = 0 is admissible, so K_r(t, f)_p <= ||f||_p; at t = 1 the
        # smoothing projections alone overshoot it at p = 1, r = 2.
        norm = lp_norm(gauss, p, LAM)
        for r in (0.5, 1.0, 2.0):
            assert k_functional_upper(gauss, 1.0, r, p, LAM) <= norm * (1 + 1e-12)

    def test_within_equivalence_window_of_realization(self, grid, gauss):
        # Realization is the sanctioned equivalent; ratios must be modest.
        for t in (0.1, 0.3):
            ku = k_functional_upper(gauss, t, 1.0, 2, LAM)
            rstar = realization(gauss, t, 1.0, 2, LAM).value
            assert rstar / 20.0 <= ku <= rstar * (1 + 1e-9)

    def test_lower_bound_stability(self, grid, gauss):
        # C(delta) = ||Delta_delta^r f|| / K_upper(delta) stays within +-25%
        # across the two-decade sweep.
        ratios = []
        for d in np.geomspace(0.01, 1.0, 9):
            ratios.append(
                diff_norm(gauss, d, 1.0, 2, LAM) / k_functional_upper(gauss, d, 1.0, 2, LAM)
            )
        ratios = np.array(ratios)
        mid = math.sqrt(ratios.max() * ratios.min())
        assert ratios.max() <= 1.25 * mid
        assert ratios.min() >= 0.75 * mid


class TestPinnedCandidateMinima:
    # Values of both candidate-family minima at t = 0.3, r = 1, pinned so
    # that a dropped or altered candidate family shows up; g = 0 does not win
    # at this scale.
    K_UPPER = {1: 0.4207858691504179, 2: 0.21748660500826855, math.inf: 0.4299640266320983}
    R_CAND = {1: 0.44840543731116106, 2: 0.2210468484820821, math.inf: 0.4323963286247569}

    @pytest.mark.parametrize("p", [1, 2, math.inf])
    def test_k_functional_upper(self, gauss, p):
        assert k_functional_upper(gauss, 0.3, 1.0, p, LAM) == pytest.approx(
            self.K_UPPER[p], rel=1e-12
        )

    @pytest.mark.parametrize("p", [1, 2, math.inf])
    def test_realization_candidate_min(self, gauss, p):
        assert realization_candidate_min(gauss, 0.3, 1.0, p, LAM) == pytest.approx(
            self.R_CAND[p], rel=1e-12
        )


class TestInverseBound:
    def test_zero_table(self):
        table = {j: 0.0 for j in range(5)}
        assert inverse_bound(table, 4, 1.0) == 0.0

    def test_arithmetic(self):
        # n^-m sum_{j=0..n} (j+1)^(m-1) E_j at E == 1, m=1, n=3 gives 4/3.
        table = {j: 1.0 for j in range(4)}
        assert inverse_bound(table, 3, 1.0) == pytest.approx(4.0 / 3.0, rel=1e-15)
        # and at m=2 the weights are (j+1): (1+2+3+4)/9
        assert inverse_bound(table, 3, 2.0) == pytest.approx(10.0 / 9.0, rel=1e-15)

    def test_missing_index_is_error(self):
        with pytest.raises(ValueError):
            inverse_bound({0: 1.0, 2: 1.0}, 2, 1.0)

    def test_dominates_modulus_for_gaussian(self, grid, gauss):
        m = 1.0
        table = {j: best_approx(gauss, j, 2, LAM).value if j else lp_norm(gauss, 2, LAM)
                 for j in range(17)}
        for n in (4, 8, 16):
            bound = inverse_bound(table, n, m)
            om = modulus(gauss, 1.0 / n, m, 2, LAM).value
            assert om <= bound


class TestMarchaudBound:
    def test_zero_function(self, grid):
        z = RadialFunction(grid=grid, values=np.zeros(grid.n))
        assert marchaud_bound(z, 0.2, 1.0, 2, LAM) == 0.0

    def test_monotone_structure(self, grid, gauss):
        # the delta^m prefactor dominates the slowly varying integral
        assert marchaud_bound(gauss, 0.1, 1.0, 2, LAM) <= marchaud_bound(
            gauss, 0.2, 1.0, 2, LAM
        )

    def test_dominates_k_upper(self, grid, gauss):
        for delta in (0.1, 0.2, 0.4):
            bound = marchaud_bound(gauss, delta, 1.0, 2, LAM)
            ku = k_functional_upper(gauss, delta, 1.0, 2, LAM)
            assert ku <= bound

    def test_rejects_delta_outside_unit_interval(self, grid, gauss):
        with pytest.raises(ValueError):
            marchaud_bound(gauss, 1.5, 1.0, 2, LAM)
        # the ladder itself refuses: a negative delta never ends its rungs
        with pytest.raises(ValueError, match="delta must lie in"):
            _marchaud_sigmas((0.2, -0.1))

    def test_nodes_are_delta_then_the_shared_ladder(self):
        nodes = _marchaud_nodes(0.1)
        assert nodes[0] == 0.1 and nodes[-1] == 1.0
        assert nodes[1:].tolist() == [2.0 ** (-k / 4.0) for k in range(13, -1, -1)]
        # a delta on a rung is not taken twice
        assert _marchaud_nodes(0.5).tolist() == [0.5, 2.0**-0.75, 2.0**-0.5, 2.0**-0.25, 1.0]
        union = {t for delta in (0.1, 0.2, 0.4) for t in _marchaud_nodes(delta).tolist()}
        assert len(union) == 17

    @pytest.mark.parametrize("p", [2.0, math.inf])
    def test_single_call_is_the_sweep_entry(self, gauss, p):
        fhat = hankel(gauss, LAM)
        deltas, orders = (0.1, 0.2, 0.4), (1.0, 2.0)
        approxes = _best_approxes(gauss, fhat, _marchaud_sigmas(deltas), (p,), LAM)[p]
        sweep = _marchaud_bounds(gauss, deltas, orders, p, LAM, approxes)
        assert set(sweep) == {(delta, m) for delta in deltas for m in orders}
        for (delta, m), bound in sweep.items():
            assert marchaud_bound(gauss, delta, m, p, LAM) == bound

    def test_single_call_is_the_sweep_entry_at_p1(self, gauss):
        fhat = hankel(gauss, LAM)
        approxes = _best_approxes(gauss, fhat, _marchaud_sigmas((0.2, 0.4)), (1.0,), LAM)[1.0]
        sweep = _marchaud_bounds(gauss, (0.2, 0.4), (1.0,), 1.0, LAM, approxes)
        assert marchaud_bound(gauss, 0.4, 1.0, 1.0, LAM, fhat=fhat) == sweep[0.4, 1.0]

    @pytest.mark.parametrize("p", [2.0, math.inf])
    def test_approximants_from_a_wider_sweep_give_the_same_bounds(self, gauss, p):
        # the inverse experiment hands in one sweep over the E_j types and
        # the ladder's; each bound reads only its own ladder's entries
        fhat = hankel(gauss, LAM)
        deltas, orders = (0.1, 0.2, 0.4), (1.0, 2.0)
        sigmas = [float(j) for j in range(1, 9)] + _marchaud_sigmas(deltas)
        approxes = _best_approxes(gauss, fhat, sigmas, (p,), LAM)[p]
        assert len(_marchaud_sigmas(deltas)) == 17
        own = _best_approxes(gauss, fhat, _marchaud_sigmas(deltas), (p,), LAM)[p]
        assert _marchaud_bounds(gauss, deltas, orders, p, LAM, approxes) == _marchaud_bounds(
            gauss, deltas, orders, p, LAM, own
        )

    @pytest.mark.parametrize("name", ["gaussian", "rational"])
    def test_quarter_octave_ladder_is_within_5e_3_of_a_fine_one(self, name):
        # reference: the same trapezoid rule on the nodes delta and
        # 2^(-k/32) > delta, 32 per octave; every delta's nodes are drawn
        # from the union, which takes one best approximation per point
        grid, deltas, orders = default_grid(), (0.1, 0.2, 0.4), (1.0, 2.0)
        f = make_profile(name, grid, LAM)
        fhat = hankel(f, LAM)
        approxes = _best_approxes(f, fhat, _marchaud_sigmas(deltas), (2,), LAM)[2]
        sweep = _marchaud_bounds(f, deltas, orders, 2, LAM, approxes)
        rungs = [2.0 ** (-k / 32.0) for k in range(128, -1, -1)]
        fine = {delta: np.array([delta] + [t for t in rungs if t > delta]) for delta in deltas}
        points = sorted({t for ts in fine.values() for t in ts.tolist()})
        approxes = _best_approxes(f, fhat, [1.0 / t for t in points], (2,), LAM)[2]
        values = _realizations({t: approxes[1.0 / t] for t in points},
                               [m + 1.0 for m in orders], 2)
        norm = lp_norm(f, 2, LAM)
        for delta, ts in fine.items():
            for m in orders:
                kvals = np.array([values[t, m + 1.0].value for t in ts.tolist()])
                integral = np.trapezoid(ts ** (-m) * kvals, x=np.log(ts))
                reference = delta**m * (norm + integral)
                assert abs(sweep[delta, m] / reference - 1.0) < 5e-3


class TestChainSweep:
    P_VALUES = (1.0, 2.0, math.inf)
    R_VALUES = (0.5, 1.0, 2.0)
    EQUIVALENCE = ("omega", "diff", "K")
    REALIZATION = ("omega", "K", "Rstar", "R")

    @pytest.mark.parametrize("t", [0.05, 0.3])
    def test_equivalence_values_equal_single_calls(self, gauss, t):
        fhat = hankel(gauss, LAM)
        chain = _chain_sweep(gauss, (t,), self.R_VALUES, self.P_VALUES, LAM, self.EQUIVALENCE,
                             fhat=fhat)
        points = {(t, p, r) for p in self.P_VALUES for r in self.R_VALUES}
        assert set(chain) == set(self.EQUIVALENCE)
        assert all(set(values) == points for values in chain.values())
        for t, p, r in points:
            assert {name: chain[name][t, p, r] for name in chain} == {
                "omega": modulus(gauss, t, r, p, LAM, fhat=fhat).value,
                "diff": diff_norm(gauss, t, r, p, LAM, fhat=fhat),
                "K": k_functional_upper(gauss, t, r, p, LAM, fhat=fhat),
            }

    @pytest.mark.parametrize("t", [0.05, 0.3])
    def test_realization_values_equal_single_calls(self, gauss, t):
        fhat = hankel(gauss, LAM)
        chain = _chain_sweep(gauss, (t,), self.R_VALUES, self.P_VALUES, LAM, self.REALIZATION,
                             fhat=fhat)
        assert set(chain) == set(self.REALIZATION)
        for t, p, r in chain["R"]:
            assert {name: chain[name][t, p, r] for name in chain} == {
                "omega": modulus(gauss, t, r, p, LAM, fhat=fhat).value,
                "K": k_functional_upper(gauss, t, r, p, LAM, fhat=fhat),
                "Rstar": realization(gauss, t, r, p, LAM, fhat=fhat).value,
                "R": realization_candidate_min(gauss, t, r, p, LAM, fhat=fhat),
            }

    @pytest.mark.parametrize("names", [("omega",), ("diff",), ("K",), ("Rstar",), ("R",),
                                       ("R", "omega")])
    def test_computes_only_the_named_functionals(self, gauss, names):
        fhat = hankel(gauss, LAM)
        full = _chain_sweep(gauss, (0.3,), (1.0,), (1.0, 2.0), LAM,
                            self.EQUIVALENCE + self.REALIZATION, fhat=fhat)
        chain = _chain_sweep(gauss, (0.3,), (1.0,), (1.0, 2.0), LAM, names, fhat=fhat)
        # R is the least of Rstar and its candidate family, so it brings Rstar
        kept = set(names) | ({"Rstar"} if "R" in names else set())
        assert chain == {name: full[name] for name in kept}

    def test_rejects_nonpositive_scale_or_order(self, gauss):
        with pytest.raises(ValueError):
            _chain_sweep(gauss, (0.0,), (1.0,), (2.0,), LAM, ("K",))
        with pytest.raises(ValueError):
            _chain_sweep(gauss, (0.1,), (1.0, 0.0), (2.0,), LAM, ("K",))

    def test_rejects_unknown_functional(self, gauss):
        with pytest.raises(ValueError, match="'E'"):
            _chain_sweep(gauss, (0.1,), (1.0,), (2.0,), LAM, ("K", "E"))

    def test_empty_sweep_axes_give_no_values(self, gauss):
        assert _chain_sweep(gauss, (0.1,), (), (2.0,), LAM, ("K",)) == {"K": {}}
        assert _chain_sweep(gauss, (0.1,), (1.0,), (), LAM, ("K",)) == {"K": {}}
        assert _chain_sweep(gauss, (), (1.0,), (2.0,), LAM, ("K",)) == {"K": {}}


class TestSpectrumPassThrough:
    def test_spectral_tail_takes_the_spectrum(self, gauss):
        fhat = hankel(gauss, LAM)
        for sigma in (0.0, 1.3, 4.0):
            assert spectral_tail_l2(gauss, LAM, sigma, fhat=fhat) == spectral_tail_l2(
                gauss, LAM, sigma
            )

    def test_marchaud_takes_the_spectrum(self, gauss):
        fhat = hankel(gauss, LAM)
        assert marchaud_bound(gauss, 0.2, 1.0, 2, LAM, fhat=fhat) == marchaud_bound(
            gauss, 0.2, 1.0, 2, LAM
        )

    def test_spectrum_at_another_lambda_is_refused(self, gauss):
        # the spectrum's own lambda with the caller's weights matched neither
        wrong = hankel(gauss, LAM)
        with pytest.raises(ValueError, match="does not match"):
            modulus(gauss, 0.3, 1.0, 2, 1.0, fhat=wrong)
        assert modulus(gauss, 0.3, 1.0, 2, 1.0, fhat=hankel(gauss, 1.0)) == modulus(
            gauss, 0.3, 1.0, 2, 1.0
        )

    def test_approximant_at_another_lambda_is_refused(self, gauss):
        # the approximant is built from the spectrum, which must match
        wrong = hankel(gauss, LAM)
        with pytest.raises(ValueError, match="does not match"):
            realization(gauss, 0.3, 1.0, 2, 1.0, fhat=wrong)

    def test_spectrum_on_another_grid_is_refused(self):
        small, large = make_grid(20.0, 512), make_grid(30.0, 512)
        f = RadialFunction(grid=small, values=np.exp(-0.5 * small.nodes**2))
        wrong = hankel(RadialFunction(grid=large, values=np.exp(-0.5 * large.nodes**2)), LAM)
        with pytest.raises(ValueError, match="does not match"):
            k_functional_upper(f, 0.3, 1.0, 2, LAM, fhat=wrong)
        with pytest.raises(ValueError, match="does not match"):
            spectral_tail_l2(f, LAM, 1.0, fhat=wrong)

    def test_approximant_on_another_grid_is_refused(self):
        coarse, fine = make_grid(30.0, 256), make_grid(30.0, 512)
        f = RadialFunction(grid=coarse, values=np.exp(-0.5 * coarse.nodes**2))
        g = RadialFunction(grid=fine, values=np.exp(-0.5 * fine.nodes**2))
        wrong = hankel(g, LAM)
        with pytest.raises(ValueError, match="does not match"):
            realization(f, 0.3, 1.0, 2, LAM, fhat=wrong)

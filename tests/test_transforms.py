import math
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad as adaptive_quad
from scipy.integrate import solve_ivp
from scipy.special import gammaincc

from dunklsmooth import special, transforms
from dunklsmooth.quad import (
    RadialFunction,
    RadialGrid,
    load_radial_csv,
    lp_norm,
    make_grid,
    nu_weights,
    save_radial_csv,
)
from dunklsmooth.special import BesselEvaluator, bessel_norm
from dunklsmooth.transforms import (
    DunklKernel1D,
    LineFunction,
    SymmetricGrid,
    bandlimit_project,
    dunkl_inverse_1d,
    dunkl_kernel_1d,
    dunkl_transform_1d,
    hankel,
    inverse_hankel,
    load_spectrum_csv,
    save_spectrum_csv,
    spectral_tail_l2,
    spectrum_from_values,
)


def l2_rel_error(f, g, lam):
    diff = RadialFunction(grid=f.grid, values=f.values - g.values)
    return lp_norm(diff, 2, lam) / lp_norm(f, 2, lam)


@pytest.fixture(scope="module")
def grid():
    return make_grid(30.0, 1024)


class TestHankel:
    @pytest.mark.parametrize("lam", [0.0, 0.25, 1.0, 2.5])
    def test_gaussian_fixed_point(self, grid, lam):
        f = RadialFunction(grid=grid, values=np.exp(-0.5 * grid.nodes**2))
        s = hankel(f, lam)
        assert np.max(np.abs(s.values - np.exp(-0.5 * grid.nodes**2))) < 1e-8

    def test_zero_function(self, grid):
        f = RadialFunction(grid=grid, values=np.zeros(grid.n))
        assert np.all(hankel(f, 0.5).values == 0.0)

    def test_half_order_is_sine_transform(self, grid):
        # H_{1/2}(f)(r) = sqrt(2/pi) / r * integral f(t) t sin(rt) dt;
        # oracle: adaptive oscillatory quadrature.
        f_profile = lambda t: np.exp(-0.5 * (t - 3.0) ** 2)
        f = RadialFunction(grid=grid, values=f_profile(grid.nodes))
        s = hankel(f, 0.5)
        for r in (0.5, 1.0, 2.7):
            oracle, _ = adaptive_quad(
                lambda t: f_profile(t) * t * math.sin(r * t), 0.0, 30.0, limit=400
            )
            oracle *= math.sqrt(2.0 / math.pi) / r
            idx = np.argmin(np.abs(grid.nodes - r))
            node_val = float(
                np.sum(
                    nu_weights(grid, 0.5)
                    * f.values
                    * bessel_norm(0.5, grid.nodes[idx] * grid.nodes)
                )
            )
            assert s.values[idx] == pytest.approx(node_val, abs=1e-12)
            # compare at the actual node frequency
            oracle_node, _ = adaptive_quad(
                lambda t: f_profile(t) * t * math.sin(grid.nodes[idx] * t), 0.0, 30.0, limit=400
            )
            oracle_node *= math.sqrt(2.0 / math.pi) / grid.nodes[idx]
            assert s.values[idx] == pytest.approx(oracle_node, abs=1e-7)

    def test_rejects_bad_lambda(self, grid):
        f = RadialFunction(grid=grid, values=np.zeros(grid.n))
        with pytest.raises(ValueError):
            hankel(f, -0.5)

    def test_refuses_a_lambda_whose_weights_overflow_before_any_bessel_work(
        self, grid, monkeypatch
    ):
        # the weights hold rmax^(2 lambda + 1) = 30^221, past the largest
        # double: the spectrum came out non-finite at every node
        f = RadialFunction(grid=grid, values=np.exp(-0.5 * grid.nodes**2))
        calls = record_bessel_calls(monkeypatch)
        with pytest.raises(ValueError, match=r"lambda must be <= 103\.8 on a grid of rmax 30\.0"):
            hankel(f, 110.0)
        assert calls == []

    def test_lambda_at_the_weight_bound_gives_a_finite_spectrum(self, grid):
        f = RadialFunction(grid=grid, values=np.exp(-0.5 * grid.nodes**2))
        assert np.all(np.isfinite(hankel(f, 103.8).values))

    def test_truncation_flag_propagates(self, grid):
        slow = RadialFunction(grid=grid, values=(1.0 + grid.nodes**2) ** -2.0)
        assert hankel(slow, 0.0).truncated
        fast = RadialFunction(grid=grid, values=np.exp(-0.5 * grid.nodes**2))
        assert not hankel(fast, 0.0).truncated


def full_kernel(lam, g):
    """The kernel evaluated point by point, without any block sharing."""
    return BesselEvaluator(lam)(np.multiply.outer(g.nodes, g.nodes)) * nu_weights(g, lam)[None, :]


def record_bessel_calls(monkeypatch):
    """Argument count of each call to BesselEvaluator.__call__, in call order."""
    sizes: list[int] = []
    original = BesselEvaluator.__call__

    def recording(self, t):
        sizes.append(np.size(t))
        return original(self, t)

    monkeypatch.setattr(BesselEvaluator, "__call__", recording)
    return sizes


def distinct_products(g):
    """Number of distinct arguments r_i r_j, i <= j, of the grid's kernel."""
    i, j = np.triu_indices(g.n)
    return np.unique(g.nodes[i] * g.nodes[j]).size


class TestKernelMatrix:
    @pytest.mark.parametrize("lam", [-0.25, 0.0, 1.7])
    def test_self_dual_blocks_match_full_evaluation(self, lam):
        for rmax, n in ((30.0, 100), (12.0, 256), (7.0, 777)):
            g = make_grid(rmax, n)
            mat = transforms._kernel_matrix.__wrapped__(lam, g)
            assert np.array_equal(mat, full_kernel(lam, g)), (rmax, n)

    @pytest.mark.parametrize("lam", [-0.25, 1.7])
    def test_grid_without_panel_edges_is_one_block(self, lam):
        g = make_grid(12.0, 256)
        bare = RadialGrid(nodes=g.nodes, weights=g.weights, rmax=g.rmax)
        assert np.array_equal(transforms._kernel_matrix.__wrapped__(lam, bare), full_kernel(lam, g))

    def test_panel_scaling_is_checked(self):
        # one panel's nodes are nudged off the exact 2^e image of its base
        # panel, so its blocks may not be copied from the base's
        g = make_grid(30.0, 100)
        nodes = g.nodes.copy()
        lo, hi = np.searchsorted(nodes, g.panel_edges[5:7])
        nodes[lo:hi] *= 1.0 + 2.0**-40
        nudged = RadialGrid(nodes=nodes, weights=g.weights, rmax=g.rmax, panel_edges=g.panel_edges)
        mat = transforms._kernel_matrix.__wrapped__(0.25, nudged)
        assert np.array_equal(mat, full_kernel(0.25, nudged))
        assert not np.array_equal(mat, transforms._kernel_matrix.__wrapped__(0.25, g))

    def test_build_evaluates_distinct_blocks_only(self, monkeypatch):
        g = make_grid(30.0, 512)
        sizes = record_bessel_calls(monkeypatch)
        transforms._kernel_matrix.__wrapped__(0.8125, g)
        assert sum(sizes) == distinct_products(g)

    @pytest.mark.parametrize("cap", [transforms._BESSEL_BATCH, 100])
    @pytest.mark.parametrize("bare", [False, True], ids=["panels", "bare"])
    def test_evaluator_calls_stay_within_the_batch_cap(self, monkeypatch, cap, bare):
        # at cap 100 the bare grid's rows are wider than a batch and are split
        g = make_grid(12.0, 256)
        if bare:
            g = RadialGrid(nodes=g.nodes, weights=g.weights, rmax=g.rmax)
        monkeypatch.setattr(transforms, "_BESSEL_BATCH", cap)
        sizes = record_bessel_calls(monkeypatch)
        mat = transforms._kernel_matrix.__wrapped__(1.7, g)
        assert 0 < max(sizes) <= cap
        # a bare grid has no panels to share, only its symmetry
        assert sum(sizes) == (g.n * (g.n + 1) // 2 if bare else distinct_products(g))
        assert np.array_equal(mat, full_kernel(1.7, g))

    @pytest.mark.parametrize("bare", [False, True], ids=["panels", "bare"])
    def test_self_dual_build_peak_memory(self, bare):
        lam = 0.8125
        g = make_grid(30.0, 1024)
        if bare:
            g = RadialGrid(nodes=g.nodes, weights=g.weights, rmax=g.rmax)
        nu_weights(g, lam)
        tracemalloc.start()
        try:
            mat = transforms._kernel_matrix.__wrapped__(lam, g)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * mat.nbytes

    @pytest.mark.parametrize("lam", [-0.45, 0.37])
    def test_kernel_does_not_depend_on_the_table_it_grew(self, lam):
        # a build from a cold table grows it to the panels its largest
        # argument reads; one after the table was grown to all 1000 panels
        # reads the same columns
        g = make_grid(30.0, 512)
        special._bessel_table.cache_clear()
        cold = transforms._kernel_matrix.__wrapped__(lam, g)
        special._bessel_table.cache_clear()
        special._bessel_table(lam).upto(1000)
        warm = transforms._kernel_matrix.__wrapped__(lam, g)
        assert cold.tobytes() == warm.tobytes()
        assert np.array_equal(cold, full_kernel(lam, g))

    def test_cached_kernel_is_read_only(self, grid):
        mat = transforms._kernel_matrix(0.25, grid)
        assert not mat.flags.writeable
        with pytest.raises(ValueError):
            mat[0, 0] = 0.0

    def test_cache_stays_within_its_bound(self):
        g = make_grid(4.0, 16)
        for j in range(20):
            transforms._kernel_matrix(0.1 + 0.01 * j, g)
            assert transforms._kernel_matrix.cache_info().currsize <= 12

    def test_reloaded_profile_reuses_the_kernel(self, grid, tmp_path):
        # a grid rebuilt from a CSV header is equal to the original, so the
        # transform of the re-loaded profile hits the cached kernel
        lam = 0.75
        original = make_grid.__wrapped__(grid.rmax, grid.n)
        f = RadialFunction(grid=original, values=np.exp(-0.5 * original.nodes**2))
        first = hankel(f, lam)
        save_radial_csv(f, tmp_path / "f.csv", lam)
        g, _ = load_radial_csv(tmp_path / "f.csv")
        assert g.grid is not original and g.grid == original
        misses = transforms._kernel_matrix.cache_info().misses
        again = hankel(g, lam)
        assert transforms._kernel_matrix.cache_info().misses == misses
        assert np.array_equal(again.values, first.values)


class TestInverseHankel:
    @pytest.mark.parametrize("lam", [0.0, 0.25, 1.0, 2.5])
    def test_round_trip_gaussian(self, grid, lam):
        f = RadialFunction(grid=grid, values=np.exp(-0.5 * grid.nodes**2))
        back = inverse_hankel(hankel(f, lam))
        assert l2_rel_error(f, back, lam) < 1e-7

    def test_round_trip_modulated(self, grid):
        f = RadialFunction(grid=grid, values=grid.nodes**2 * np.exp(-0.5 * grid.nodes**2))
        back = inverse_hankel(hankel(f, 0.25))
        assert l2_rel_error(f, back, 0.25) < 1e-6

    def test_zero_spectrum(self, grid):
        s = spectrum_from_values(grid, 1.0, np.zeros(grid.n))
        assert np.all(inverse_hankel(s).values == 0.0)

    @pytest.mark.parametrize("lam", [0.0, 0.25, 1.0, 2.5])
    def test_parseval(self, grid, lam):
        f = RadialFunction(grid=grid, values=np.exp(-0.5 * grid.nodes**2))
        s = hankel(f, lam)
        sf = RadialFunction(grid=grid, values=s.values)
        a = lp_norm(f, 2, lam)
        b = lp_norm(sf, 2, lam)
        assert abs(a - b) / a < 1e-7


class TestBandlimitProject:
    def test_idempotent(self, grid):
        s = spectrum_from_values(grid, 0.25, np.exp(-0.5 * grid.nodes**2))
        once = bandlimit_project(s, 2.0)
        twice = bandlimit_project(once, 2.0)
        assert np.array_equal(once.values, twice.values)
        assert once.bandlimit == twice.bandlimit == 2.0
        assert np.all(once.values[grid.nodes > 2.0] == 0.0)

    def test_sigma_above_grid_is_identity(self, grid):
        s = spectrum_from_values(grid, 0.25, np.exp(-0.5 * grid.nodes**2))
        out = bandlimit_project(s, 100.0)
        assert np.array_equal(out.values, s.values)

    def test_l2_optimality_gaussian(self, grid):
        # Parseval: || f - invH(project(s, sigma)) ||_2 equals the spectral
        # tail mass (integral_{r>sigma} e^{-r^2} d nu)^(1/2); oracle via the
        # upper incomplete gamma function.  The equality is checked on the
        # spectral side at 1e-7; the physical-grid norm undercounts it by
        # the mass of the slowly decaying cutoff ringing beyond rmax, so it
        # only agrees at the few-permille level on the desk-scale grid.
        lam = 0.25
        sigma = 2.0
        f = RadialFunction(grid=grid, values=np.exp(-0.5 * grid.nodes**2))
        s = hankel(f, lam)
        oracle = math.sqrt(gammaincc(lam + 1.0, sigma**2) / 2.0 ** (lam + 1.0))
        spectral = spectral_tail_l2(f, lam, sigma)
        assert spectral == pytest.approx(oracle, abs=1e-7)
        proj = bandlimit_project(s, sigma)
        back = inverse_hankel(proj)
        diff = RadialFunction(grid=grid, values=f.values - back.values)
        measured = lp_norm(diff, 2, lam)
        assert measured == pytest.approx(oracle, abs=5e-3)
        assert measured <= oracle + 1e-10


def _edgeless(grid):
    """The grid's nodes and weights without panel edges: one cut panel."""
    return RadialGrid(nodes=grid.nodes, weights=grid.weights, rmax=grid.rmax)


def _tail_sigmas(grid):
    """0, panel edges, doubling chains, near-doubles, off-edge values,
    sigmas at or beyond rmax (inf included) and a repeat."""
    edges = [e for e in grid.panel_edges if e > 0][-5:]
    rmax = grid.rmax
    return [0.0, *edges, 1.0, 2.0, 4.0, 8.0, 0.75, 1.5, 3.0, 6.0, 2.5, 2.5000000000000004,
            5.0, 5.000000000000001, 0.3 * rmax, 0.6 * rmax, 0.999 * rmax, rmax, 2.0 * rmax,
            math.inf, 4.0]


class TestSpectralTails:
    @pytest.mark.parametrize("lam", [0.25, 1.0, 2.5])
    @pytest.mark.parametrize("make", [
        lambda: make_grid(30.0, 1024),
        lambda: make_grid(12.0, 256),
        lambda: _edgeless(make_grid(30.0, 512)),
    ], ids=["octave-30", "octave-12", "edgeless"])
    def test_sweep_equals_single_tails(self, make, lam):
        # every sigma of one sweep equals its own one-sigma call by ==
        grid = make()
        sigmas = _tail_sigmas(grid)
        for values in (np.exp(-0.5 * grid.nodes**2), (1.0 + grid.nodes**2) ** -(lam + 2.0)):
            f = RadialFunction(grid=grid, values=values)
            fhat = hankel(f, lam)
            tails = transforms._spectral_tails(f, lam, sigmas, fhat)
            assert set(tails) == set(sigmas)
            for sigma in sigmas:
                assert tails[sigma] == spectral_tail_l2(f, lam, sigma, fhat=fhat), sigma
            assert tails[math.inf] == tails[grid.rmax] == 0.0

    def test_doubling_chain_shares_its_blocks(self, grid, monkeypatch):
        # sigma and 2 sigma cut octave panels whose nodes differ by exactly 2,
        # so a doubling chain evaluates far fewer Bessel points together than
        # one at a time; near-doubles share nothing and cost a full row each
        points = record_bessel_calls(monkeypatch)
        f = RadialFunction(grid=grid, values=np.exp(-0.5 * grid.nodes**2))
        fhat = hankel(f, 0.25)
        full = transforms._CUT_NODES.size * grid.n
        transforms._spectral_tails(f, 0.25, (1.5, 3.0, 6.0, 12.0), fhat)
        assert len(points) == 4 and points[0] == full and sum(points) < 2 * full
        points.clear()
        transforms._spectral_tails(f, 0.25, (2.5, 2.5000000000000004), fhat)
        assert points == [full, full]

    @pytest.mark.parametrize("bad", [math.nan, -1.0, -math.inf])
    def test_refuses_a_negative_or_nan_sigma_before_any_work(self, grid, bad, monkeypatch):
        f = RadialFunction(grid=grid, values=np.exp(-0.5 * grid.nodes**2))
        fhat = hankel(f, 0.25)
        monkeypatch.setattr(BesselEvaluator, "__call__", None)
        with pytest.raises(ValueError, match=f"sigma must be a nonnegative number, got {bad!r}"):
            spectral_tail_l2(f, 0.25, bad, fhat=fhat)
        with pytest.raises(ValueError, match=repr(bad)):
            transforms._spectral_tails(f, 0.25, (1.0, bad), fhat)


class TestSpectrumMechanics:
    def test_pending_symbols_sorted_for_materialization(self, grid):
        s = spectrum_from_values(grid, 0.5, np.exp(-grid.nodes))
        a = np.linspace(0.5, 1.5, grid.n)
        b = np.linspace(1.5, 0.5, grid.n)
        s_ab = s.with_symbol("alpha", a).with_symbol("beta", b)
        s_ba = s.with_symbol("beta", b).with_symbol("alpha", a)
        assert np.array_equal(s_ab.values, s_ba.values)

    def test_subtraction_requires_same_grid(self, grid):
        other = make_grid(30.0, 512)
        s1 = spectrum_from_values(grid, 0.5, np.zeros(grid.n))
        s2 = spectrum_from_values(other, 0.5, np.zeros(other.n))
        with pytest.raises(ValueError):
            _ = s1 - s2

    def test_rejects_non_finite_symbol(self, grid):
        s = spectrum_from_values(grid, 0.5, np.zeros(grid.n))
        bad = np.full(grid.n, np.inf)
        with pytest.raises(ValueError):
            s.with_symbol("bad", bad)

    def test_subtraction(self, grid):
        a = spectrum_from_values(grid, 0.5, np.exp(-grid.nodes), bandlimit=2.0)
        b = spectrum_from_values(grid, 0.5, np.exp(-2 * grid.nodes), bandlimit=3.0)
        diff = a - b
        assert np.array_equal(diff.values, a.values - b.values)
        assert diff.bandlimit == 3.0  # support of a difference is the union


class TestSpectrumCsv:
    @pytest.mark.parametrize("rmax, n, bandlimit, header", [
        (30.0, 128, 3.0, "# lambda=0.75 rmax=30.0 n=128 bandlimit=3.0"),
        (12.0, 256, None, "# lambda=0.75 rmax=12.0 n=256 bandlimit=none"),
    ])
    def test_round_trip(self, tmp_path, rmax, n, bandlimit, header):
        g = make_grid(rmax, n)
        # a bandlimited spectrum vanishes beyond its bandlimit
        values = np.exp(-g.nodes) * (g.nodes <= (bandlimit or rmax))
        s = spectrum_from_values(g, 0.75, values, bandlimit=bandlimit)
        path = tmp_path / "s.csv"
        save_spectrum_csv(s, path)
        assert path.read_text().splitlines()[:2] == [header, "node,value"]
        loaded = load_spectrum_csv(path)
        assert loaded.lam == 0.75
        assert loaded.bandlimit == bandlimit
        assert loaded.grid == g
        assert loaded.values.tobytes() == s.values.tobytes()

    @pytest.mark.parametrize("bandlimit, match", [
        ("wide", "bandlimit must be a number or none, got 'wide'"),
        ("nan", "bandlimit must be positive, got 'nan'"),
        ("-1.0", "bandlimit must be positive, got '-1.0'"),
        ("0.0", "bandlimit must be positive, got '0.0'"),
        # the values reach beyond 0.5, so the header may not certify 0.5
        ("0.5", r"at node [0-9.]+ lies beyond bandlimit 0\.5"),
    ], ids=["wide", "nan", "negative", "zero", "beyond"])
    def test_bad_bandlimit_names_the_file(self, tmp_path, bandlimit, match):
        g = make_grid(30.0, 128)
        path = tmp_path / "s.csv"
        save_spectrum_csv(spectrum_from_values(g, 0.5, np.exp(-g.nodes)), path)
        path.write_text(path.read_text().replace("bandlimit=none", f"bandlimit={bandlimit}"))
        with pytest.raises(ValueError, match=match) as info:
            load_spectrum_csv(path)
        assert str(path) in str(info.value)

    def test_complex_spectrum_refused(self, tmp_path):
        g = make_grid(30.0, 128)
        s = spectrum_from_values(g, 0.75, np.exp(-g.nodes) * (1 + 2j))
        path = tmp_path / "s.csv"
        with pytest.raises(ValueError, match="real"):
            save_spectrum_csv(s, path)
        assert not path.exists()

    @pytest.mark.parametrize(
        "text, match",
        [
            ("", "empty file"),
            ("# lambda=0.5 rmax=12.0 n=128 bandlimit=none\nnode,value\n", "no data rows"),
            ("# lambda=0.5 rmax=12.0 n=128 bandlimit=none\n0.1,1.0,2.0,3.0\n", "columns"),
            ("# lambda=0.5 rmax=12.0 n=128 bandlimit=none\n0.1,1.0\n0.2,1.0,0.0\n", "columns"),
            ("# lambda=0.5 rmax=12.0 n=128\n0.1,1.0\n", "missing field 'bandlimit'"),
            ("# lambda=0.5 bandlimit=none\n0.1,1.0\n", "missing field 'rmax'"),
        ],
    )
    def test_malformed_file_names_itself(self, tmp_path, text, match):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match=match) as info:
            load_spectrum_csv(path)
        assert str(path) in str(info.value)


# --------------------------------------------------------------------------
# rank-one kernel
# --------------------------------------------------------------------------


def kernel_ode_oracle(k: float, y: float, x_eval: np.ndarray) -> np.ndarray:
    """Numerically integrate the defining differential-difference system.

    Parity split f = a + i b with a even, b odd (both real for real y):
        a'(x) = -y b(x),      b'(x) + (2k/x) b(x) = y a(x),
    a(0) = 1, b(0) = 0.  Started at small x0 > 0 with ODE-derived Taylor
    data: b ~ y x/(1+2k), a ~ 1 - y^2 x^2 / (2(2k+1)).
    """
    x0 = 1e-4

    def rhs(x, u):
        a, b = u
        return [-y * b, y * a - (2.0 * k / x) * b]

    a2 = -y * y / (2.0 * (2.0 * k + 1.0))
    b1 = y / (1.0 + 2.0 * k)
    b3 = y * a2 / (3.0 + 2.0 * k)
    u0 = [1.0 + a2 * x0**2, b1 * x0 + b3 * x0**3]
    sol = solve_ivp(
        rhs, (x0, float(x_eval.max())), u0, t_eval=x_eval,
        method="DOP853", rtol=1e-12, atol=1e-14,
    )
    return sol.y[0] + 1j * sol.y[1]


class TestDunklKernel1D:
    def test_normalization_at_zero(self):
        for k in (0.0, 0.3, 0.75, 2.0):
            assert dunkl_kernel_1d(k, 0.0, 1.7) == 1.0 + 0.0j

    def test_k_zero_is_plane_wave(self):
        xs = np.linspace(-5, 5, 41)
        ys = np.linspace(-5, 5, 41)
        X, Y = np.meshgrid(xs, ys)
        from dunklsmooth.transforms import DunklKernel1D

        vals = DunklKernel1D(0.0)(X, Y)
        assert np.max(np.abs(vals - np.exp(1j * X * Y))) < 1e-10

    def test_closed_form_against_ode_oracle(self):
        x_eval = np.linspace(0.25, 5.0, 20)
        for k, y in ((0.75, 2.0), (0.3, -1.5), (1.5, 0.7)):
            oracle = kernel_ode_oracle(k, y, x_eval)
            ours = np.array([dunkl_kernel_1d(k, x, y) for x in x_eval])
            assert np.max(np.abs(ours - oracle)) < 1e-9

    def test_specific_candidate_value(self):
        # k=0.75, x=1, y=2: j_{k-1/2}(xy) + i xy/(2k+1) j_{k+1/2}(xy),
        # accepted against the ODE oracle above.
        val = dunkl_kernel_1d(0.75, 1.0, 2.0)
        expected = bessel_norm(0.25, 2.0) + 1j * 2.0 / 2.5 * bessel_norm(1.25, 2.0)
        assert val == pytest.approx(expected, abs=1e-14)
        oracle = kernel_ode_oracle(0.75, 2.0, np.array([1.0]))[0]
        assert val == pytest.approx(oracle, abs=1e-10)

    def test_modulus_symmetry_conjugation(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            k = rng.uniform(0, 3)
            x, y = rng.uniform(-6, 6, 2)
            e = dunkl_kernel_1d(k, x, y)
            assert abs(e) <= 1.0 + 1e-12
            assert e == pytest.approx(dunkl_kernel_1d(k, y, x), abs=1e-14)
            assert dunkl_kernel_1d(k, -x, y) == pytest.approx(np.conj(e), abs=1e-14)

    def test_spherical_mean_identity(self):
        # Rank-one averaging: (e_k(x, y) + e_k(x, -y))/2 = j_{k-1/2}(|x y|).
        k = 0.75
        rng = np.random.default_rng(3)
        for _ in range(25):
            x, y = rng.uniform(-5, 5, 2)
            mean = 0.5 * (dunkl_kernel_1d(k, x, y) + dunkl_kernel_1d(k, x, -y))
            assert mean == pytest.approx(bessel_norm(k - 0.5, abs(x * y)), abs=1e-8)

    def test_ode_residual_by_finite_differences(self):
        # D f(x) = f'(x) + k (f(x) - f(-x))/x must equal i y f(x).
        k, y = 0.75, 2.0
        h = 1e-6
        xs = np.linspace(0.25, 5.0, 25)
        for x in xs:
            fp = (dunkl_kernel_1d(k, x + h, y) - dunkl_kernel_1d(k, x - h, y)) / (2 * h)
            refl = k * (dunkl_kernel_1d(k, x, y) - dunkl_kernel_1d(k, -x, y)) / x
            resid = fp + refl - 1j * y * dunkl_kernel_1d(k, x, y)
            assert abs(resid) < 1e-8


@pytest.fixture(scope="module")
def sym_grid():
    return SymmetricGrid.from_radial(make_grid(12.0, 256))


class TestDunklTransform1D:
    def test_gaussian_fixed_point(self, sym_grid):
        for k in (0.0, 0.75):
            f = LineFunction(grid=sym_grid, values=np.exp(-0.5 * sym_grid.nodes**2))
            g = dunkl_transform_1d(f, k)
            assert np.max(np.abs(g.values - np.exp(-0.5 * sym_grid.nodes**2))) < 1e-7

    def test_zero(self, sym_grid):
        f = LineFunction(grid=sym_grid, values=np.zeros(sym_grid.n))
        assert np.all(dunkl_transform_1d(f, 0.75).values == 0.0)

    def test_even_input_reduces_to_hankel(self, sym_grid):
        # Even profile: transform equals the Hankel transform of the radial
        # profile at index k - 1/2.
        k = 0.75
        radial = make_grid(12.0, 256)
        prof = radial.nodes**2 * np.exp(-0.5 * radial.nodes**2)
        f_sym = LineFunction(
            grid=sym_grid,
            values=np.concatenate([prof[::-1], prof]),
        )
        g = dunkl_transform_1d(f_sym, k)
        h = hankel(RadialFunction(grid=radial, values=prof), k - 0.5)
        pos = g.values[sym_grid.n // 2 :]
        assert np.max(np.abs(pos.real - h.values)) < 1e-8
        assert np.max(np.abs(pos.imag)) < 1e-8

    def test_round_trip(self, sym_grid):
        k = 0.75
        vals = np.exp(-0.5 * sym_grid.nodes**2) * (1.0 + 0.2 * sym_grid.nodes)
        f = LineFunction(grid=sym_grid, values=vals)
        back = dunkl_inverse_1d(dunkl_transform_1d(f, k), k)
        assert np.max(np.abs(back.values - vals)) < 1e-6

    def test_truncation_flag(self, sym_grid):
        slow = LineFunction(grid=sym_grid, values=(1.0 + sym_grid.nodes**2) ** -1.0)
        assert dunkl_transform_1d(slow, 0.75).truncated
        fast = LineFunction(grid=sym_grid, values=np.exp(-0.5 * sym_grid.nodes**2))
        assert not dunkl_transform_1d(fast, 0.75).truncated

    def test_grid_mirrors_its_radial_grid(self, sym_grid):
        radial = sym_grid.radial
        assert np.array_equal(sym_grid.nodes, np.concatenate([-radial.nodes[::-1], radial.nodes]))
        weights = np.concatenate([radial.weights[::-1], radial.weights])
        assert np.array_equal(sym_grid.weights, weights)
        assert sym_grid.rmax == radial.rmax and sym_grid.n == 2 * radial.n

    @pytest.mark.parametrize("k", [0.0, 0.25, 0.75, 2.4])
    def test_transforms_equal_direct_kernel_evaluation(self, sym_grid, k):
        x = sym_grid.nodes
        kernel = DunklKernel1D(k)(x[None, :], x[:, None])
        mu = transforms._mu_weights(k, sym_grid)
        f = LineFunction(grid=sym_grid, values=np.exp(-0.5 * x * x) * (1.0 + 0.3 * x))
        g = dunkl_transform_1d(f, k)
        assert np.array_equal(g.values, (np.conj(kernel) * mu[None, :]) @ f.values)
        back = dunkl_inverse_1d(g, k)
        assert np.array_equal(back.values, (kernel * mu[None, :]) @ g.values)

    def test_transform_reuses_the_radial_evaluation(self, sym_grid, monkeypatch):
        f = LineFunction(grid=sym_grid, values=np.exp(-0.5 * sym_grid.nodes**2))
        sizes = record_bessel_calls(monkeypatch)
        g = dunkl_transform_1d(f, 1.1)
        # each Bessel part is evaluated once per distinct radial product, where
        # the pointwise kernel would take all (2n)^2 points
        assert sum(sizes) == 2 * distinct_products(sym_grid.radial)
        # the inverse at the same k reads both parts from the rank-one cache,
        # which holds that pair and nothing more, read-only
        dunkl_inverse_1d(g, 1.1)
        assert sum(sizes) == 2 * distinct_products(sym_grid.radial)
        info = transforms._radial_bessel.cache_info()
        assert info.maxsize == 2 and info.currsize == 2
        mat = transforms._radial_bessel(1.1 + 0.5, sym_grid.radial)
        assert mat.nbytes == 8 * sym_grid.radial.n ** 2 and not mat.flags.writeable


class TestBoundaryIndex:
    def test_gaussian_fixed_point_near_minus_half(self):
        # the admissible range is open at -1/2.  Near the boundary the
        # measure weight t^(2 lam + 1) develops an endpoint singularity the
        # geometric panels resolve only algebraically, so the accuracy is a
        # notch below the 1e-8 achieved on the nonnegative-index set.
        grid = make_grid(30.0, 512)
        f = RadialFunction(grid=grid, values=np.exp(-0.5 * grid.nodes**2))
        s = hankel(f, -0.4)
        assert np.max(np.abs(s.values - np.exp(-0.5 * grid.nodes**2))) < 1e-6

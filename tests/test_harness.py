import json
import math
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from dunklsmooth import harness, smoothness, transforms
from dunklsmooth.harness import (
    ConfigError,
    EXPERIMENTS,
    ExperimentConfig,
    HarnessConfig,
    ScaleGrid,
    SmoothnessReport,
    bandlimited_spectrum,
    concentrated_spectrum,
    default_config,
    load_config,
    make_profile,
    parse_config,
    run_all,
    write_report,
)
from dunklsmooth.quad import GRID_KINDS, make_grid, nu_weights
from dunklsmooth.special import BESSEL_LAMBDA_MAX, BesselEvaluator


@pytest.fixture(scope="module")
def grid():
    return make_grid(30.0, 512)


class TestConfig:
    def test_default_config_parses_and_validates(self):
        hc = parse_config(default_config())
        assert len(hc.experiments) == 8
        assert hc.grid_n == 2048

    def test_unknown_experiment(self):
        with pytest.raises(ConfigError, match="unknown experiment"):
            parse_config({"experiments": [{"name": "sobolev"}]})

    def test_duplicate_names(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config({"experiments": [{"name": "jackson"}, {"name": "jackson"}]})

    def test_nikolskii_scale_guard(self):
        spec = {
            "experiments": [
                {
                    "name": "nikolskii_stechkin",
                    "sigma": 4.0,
                    "scale": {"lo": 0.01, "hi": 0.5, "points": 3},
                }
            ]
        }
        with pytest.raises(ConfigError, match="1/\\(2\\*sigma\\)"):
            parse_config(spec)

    def test_general_rho_guard(self):
        spec = {
            "experiments": [
                {
                    "name": "general_entire",
                    "general_orders": [0.0, 1.0, 0.0, 2.0],
                    "scale": {"lo": 0.01, "hi": 0.12, "points": 2},
                }
            ]
        }
        with pytest.raises(ConfigError, match="r1 \\+ m1"):
            parse_config(spec)

    def test_nonpositive_orders_fail_at_parse_time(self):
        with pytest.raises(ConfigError, match="jackson: m_values must be positive"):
            parse_config({"experiments": [{"name": "jackson", "m_values": [2.0, 0.0]}]})
        for name in ("equivalence", "realization"):
            with pytest.raises(ConfigError, match=f"{name}: r_values must be positive"):
                parse_config({"experiments": [{"name": name, "r_values": [1.0, 0.0]}]})
        # r = 0 is the plain-norm case of the Jackson sweep
        parse_config({"experiments": [{"name": "jackson", "r_values": [0.0, 1.0]}]})

    def test_p_inf_parsing(self):
        hc = parse_config(
            {"experiments": [{"name": "equivalence", "p_values": ["inf", 2]}]}
        )
        assert hc.experiments[0].p_values == (math.inf, 2.0)

    def test_json_error_carries_position(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="line 1"):
            load_config(path)

    def test_missing_name_field(self):
        with pytest.raises(ConfigError, match="missing required field 'name'"):
            parse_config({"experiments": [{"lambda_values": [1.0]}]})

    def test_experiment_config_validates_when_built(self):
        # configs built in code get the checks parse_config applies
        with pytest.raises(ConfigError, match="equivalence: r_values must be positive"):
            ExperimentConfig(name="equivalence", r_values=(0.0,))
        with pytest.raises(ConfigError, match="realization: p_values must be >= 1"):
            ExperimentConfig(name="realization", p_values=(0.5,))

    def test_window_defaults_to_the_experiment_window(self):
        assert ExperimentConfig(name="inverse").window == (0.0, 1.0)
        assert ExperimentConfig(name="jackson").window == (0.0, 20.0)
        assert ExperimentConfig(name="inverse", window=(0.1, 2.0)).window == (0.1, 2.0)
        parsed = parse_config({"experiments": [{"name": "inverse"}]})
        assert parsed.experiments[0].window == (0.0, 1.0)
        parsed = parse_config({"experiments": [{"name": "inverse", "window": None}]})
        assert parsed.experiments[0].window == (0.0, 1.0)

    @pytest.mark.parametrize(
        "spec, match",
        [
            ({"experiment": []}, "config: unknown field 'experiment'"),
            ({"grid": {"rmax": 30.0, "nodes": 64}}, "config.grid: unknown field 'nodes'"),
            (
                {"experiments": [{"name": "jackson", "p_value": [1]}]},
                "experiments\\[0\\]: unknown field 'p_value'",
            ),
            (
                {"experiments": [{"name": "jackson", "scale": {"lo": 2.0, "hi": 4.0}}]},
                "experiments\\[0\\].scale: missing required field 'points'",
            ),
        ],
    )
    def test_unknown_or_missing_fields_are_named(self, spec, match):
        with pytest.raises(ConfigError, match=match):
            parse_config(spec)

    @pytest.mark.parametrize(
        "field, value, match",
        [
            ("lambda_values", 1, "experiments\\[0\\].lambda_values must be a list, got 1"),
            ("lambda_values", "0.25", "experiments\\[0\\].lambda_values must be a list"),
            ("lambda_values", None, "experiments\\[0\\].lambda_values must be a list, got null"),
            ("lambda_values", ["x"], "experiments\\[0\\].lambda_values\\[0\\] must be a finite"),
            ("lambda_values", [True], "experiments\\[0\\].lambda_values\\[0\\] must be a finite"),
            ("lambda_values", [[0.25]], "experiments\\[0\\].lambda_values\\[0\\] must be a finite"),
            ("window", [1], "experiments\\[0\\].window must have 2 entries, got 1"),
            ("window", [0, "20"], "experiments\\[0\\].window\\[1\\] must be a finite"),
            ("p_values", ["two"], "experiments\\[0\\].p_values\\[0\\]: cannot parse"),
            ("p_values", [False], "experiments\\[0\\].p_values\\[0\\] must be a finite"),
            ("n_values", [2.5], "experiments\\[0\\].n_values\\[0\\] must be an integer"),
            ("test_functions", "gaussian", "experiments\\[0\\].test_functions must be a list"),
            ("test_functions", [1], "experiments\\[0\\].test_functions\\[0\\] must be a string"),
            ("sigma", "4", "experiments\\[0\\].sigma must be a finite number"),
            ("drift_max", None, "experiments\\[0\\].drift_max must be a finite number, got null"),
            ("drift_max", True, "experiments\\[0\\].drift_max must be a finite number, got true"),
            ("general_orders", [1, 1, 0], "experiments\\[0\\].general_orders must have 4"),
            ("scale", [0.1, 1.0, 3], "experiments\\[0\\].scale must be a JSON object"),
            ("scale", {"lo": 0.1, "hi": 1.0, "points": 2.5},
             "experiments\\[0\\].scale.points must be an integer"),
            ("name", ["jackson"], "experiments\\[0\\].name must be a string"),
        ],
    )
    def test_wrongly_typed_fields_are_named(self, field, value, match):
        spec = {"name": "jackson", field: value}
        with pytest.raises(ConfigError, match=match):
            parse_config({"experiments": [spec]})

    @pytest.mark.parametrize(
        "data, match",
        [
            ({"experiments": {"name": "jackson"}}, "config.experiments must be a list"),
            ({"grid": {"rmax": "30"}}, "config.grid.rmax must be a finite number"),
            ({"grid": {"n": 512.5}}, "config.grid.n must be an integer"),
            ({"grid": None}, "config.grid must be a JSON object"),
            ({"output_dir": 3}, "config.output_dir must be a string"),
        ],
    )
    def test_wrongly_typed_top_level_fields_are_named(self, data, match):
        with pytest.raises(ConfigError, match=match):
            parse_config(data)

    def test_grid_beyond_the_bessel_range_is_rejected(self):
        with pytest.raises(ConfigError, match="config.grid.rmax"):
            parse_config({"grid": {"rmax": 50.0, "n": 2048}})
        with pytest.raises(ConfigError, match="config.grid.rmax"):
            HarnessConfig(grid_rmax=50.0)
        assert HarnessConfig().grid_rmax == 30.0
        assert parse_config({"grid": {"rmax": 31.6}}).grid_rmax == 31.6

    def test_scale_grid_values(self):
        sg = ScaleGrid(0.1, 1.0, 3)
        np.testing.assert_allclose(sg.values(), [0.1, math.sqrt(0.1), 1.0], rtol=1e-12)
        assert ScaleGrid(0.5, 0.5, 1).values().tolist() == [0.5]
        # an integral float passes the integer kind, as 3.0 does in JSON
        assert ScaleGrid(0.1, 1.0, 3.0).values().tolist() == sg.values().tolist()

    @pytest.mark.parametrize(
        "build, match",
        [
            (lambda: ExperimentConfig(name="jackson", lambda_values=(math.nan,)),
             "jackson: lambda_values\\[0\\] must be a finite number, got NaN"),
            (lambda: ExperimentConfig(name="jackson", drift_max=math.nan),
             "jackson: drift_max must be a finite number"),
            (lambda: ScaleGrid(0.05, math.inf, 5), "scale.hi must be a finite number"),
            (lambda: ExperimentConfig(name="jackson", sigma=math.inf),
             "jackson: sigma must be a finite number"),
            (lambda: HarnessConfig(grid_kind="bogus"), "config.grid.kind must be one of"),
            (lambda: HarnessConfig(grid_n=3), "config.grid.n must be >= 16, got 3"),
            (lambda: parse_config({"grid": {"n": 8}}), "config.grid.n must be >= 16, got 8"),
            (lambda: HarnessConfig(grid_n=16.5), "config.grid.n must be an integer"),
            (lambda: ExperimentConfig(name="jackson", drift_max=1.0),
             "jackson: drift_max must be > 1, got 1.0"),
            (lambda: ExperimentConfig(name="jackson", lambda_values=(150.0,)),
             "jackson: lambda_values must be in \\(-1/2, 120\\]"),
            (lambda: ExperimentConfig(name="inverse", delta_values=(0.5, 1.0)),
             "inverse: delta_values must be in \\(0, 1\\), got 1.0"),
            (lambda: ExperimentConfig(name="inverse", n_values=(2, 0)),
             "inverse: n_values must be positive, got 0"),
            (lambda: ExperimentConfig(name="jackson", window=(2.0, 1.0)),
             "jackson: window must satisfy lo < hi"),
            (lambda: ExperimentConfig(name=["jackson"]), "unknown experiment \\['jackson'\\]"),
        ],
    )
    def test_configs_built_in_code_get_the_parse_time_checks(self, build, match):
        with pytest.raises(ConfigError, match=match):
            build()

    @pytest.mark.parametrize(
        "field, value, match",
        [
            ("drift_max", 0.5, "jackson: drift_max must be > 1, got 0.5"),
            ("drift_max", 1.0, "jackson: drift_max must be > 1, got 1.0"),
            ("drift_max", 1e400, "experiments\\[0\\].drift_max must be a finite number"),
            ("lambda_values", [0.25, -0.5], "jackson: lambda_values must be in \\(-1/2, 120\\]"),
            ("test_functions", ["sinc"], "jackson: test_functions must be one of"),
            ("scale", {"lo": 0.0, "hi": 1.0, "points": 2}, "scale.lo must be positive, got 0.0"),
        ],
    )
    def test_out_of_range_fields_are_named(self, field, value, match):
        with pytest.raises(ConfigError, match=match):
            parse_config({"experiments": [{"name": "jackson", field: value}]})

    def test_lambda_is_bounded_where_the_weights_stay_doubles(self):
        # nu_weights forms t^(2 lam + 1) for nodes t < rmax: at rmax = 30 that
        # overflows past lam = 103.8, short of the Bessel limit of 120
        def config(lam, rmax=30.0):
            return HarnessConfig(grid_rmax=rmax, experiments=(
                ExperimentConfig(name="bernstein", lambda_values=(0.25, lam)),))

        assert config(103.8).experiments[0].lambda_values == (0.25, 103.8)
        assert np.all(np.isfinite(nu_weights(make_grid(30.0, 2048), 103.8)))
        with pytest.raises(ConfigError, match="bernstein: lambda_values must be <= 103.8"):
            config(103.9)
        # a smaller grid reaches the Bessel limit first
        assert config(BESSEL_LAMBDA_MAX, rmax=15.0).experiments[0].lambda_values[1] == 120.0
        assert np.all(np.isfinite(nu_weights(make_grid(15.0, 512), BESSEL_LAMBDA_MAX)))


# JSON values for the config property tests: each field's kind, read off its
# type, with numbers in, at and beyond every range; and junk of every type
_NEAR = st.sampled_from([0.01, 0.05, 0.1, 0.25, 0.5, 1.0, 2.0, 4.0, 16.0, 30.0, 104.0, 120.0])
_NUMBER = _NEAR | st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(min_value=-3, max_value=40),
    st.sampled_from([0.0, -0.0, 1e-300, 1e200, 1e308, -1e308]),
    st.integers(300, 400).map(lambda k: (-1) ** k * 10**k),  # beyond the float range
)
_STRING = st.sampled_from(["gaussian", "bandlimited", *GRID_KINDS, "inf", "Infinity", "x", ""])
_JSON = st.recursive(
    st.one_of(_NUMBER, _STRING, st.none(), st.booleans(), st.text(max_size=4)),
    lambda inner: st.lists(inner, max_size=5)
    | st.dictionaries(st.sampled_from(["lo", "hi", "points", "name", "x"]), inner, max_size=4),
    max_leaves=12,
)


def _of_kind(annotation: str, number=_NEAR):
    """A strategy for a field of this type annotation: lists of its entry
    kind, of the fixed length when the type has one."""
    integer = number | st.integers(min_value=-2, max_value=40)
    if annotation.startswith("tuple"):
        entry = _STRING if "str" in annotation else integer if "int" in annotation else number
        if "..." in annotation:
            return st.lists(entry, min_size=1, max_size=3)
        size = annotation.count("float")
        return st.lists(entry, min_size=size, max_size=size)
    if annotation == "ScaleGrid":
        return st.fixed_dictionaries({"lo": number, "hi": number, "points": integer})
    return {"str": _STRING, "int": integer}.get(annotation, number)


def _config(value):
    """Configs whose field values (beyond the name) are drawn by ``value``."""
    experiment = st.fixed_dictionaries(
        {"name": st.sampled_from(sorted(EXPERIMENTS))},
        optional={f.name: value(f.type) for f in fields(ExperimentConfig)[1:]},
    )
    grid = st.fixed_dictionaries({}, optional={"rmax": value("float"), "n": value("int"),
                                               "kind": value("str")})
    return st.fixed_dictionaries({}, optional={
        "output_dir": value("str"), "grid": grid, "experiments": st.lists(experiment, max_size=3),
    })


_CONFIG = st.one_of(
    _config(_of_kind),
    _config(lambda t: _of_kind(t, _NUMBER)),
    _config(lambda t: _of_kind(t, _NUMBER) | _JSON),
    _JSON,
)


class TestConfigBoundary:
    """Whatever arrives, the config boundary gives a config or a ConfigError:
    no other exception, no run, no kernel."""

    @given(data=_CONFIG)
    # rmax**2 once overflowed here
    @example(data={"grid": {"rmax": 1e300}})
    @settings(max_examples=200, deadline=None)
    def test_parse_config_gives_a_config_or_a_config_error(self, data):
        try:
            hc = parse_config(data)
        except ConfigError:
            return
        assert isinstance(hc, HarnessConfig)

    @given(
        name=st.sampled_from(sorted(EXPERIMENTS)),
        values=st.lists(_NEAR | st.floats(allow_nan=True, allow_infinity=True),
                        min_size=16, max_size=16),
    )
    @settings(max_examples=100, deadline=None)
    def test_configs_built_from_floats_are_built_or_refused(self, name, values):
        lam, p, m, r, lo, hi, drift, sigma, theta, delta, w0, w1, o1, o2, rmax, n = values
        try:
            cfg = ExperimentConfig(
                name=name, lambda_values=(lam,), p_values=(p,), m_values=(m,), r_values=(r,),
                scale=ScaleGrid(lo, hi, 3), window=(w0, w1), drift_max=drift, sigma=sigma,
                thetas=(theta,), delta_values=(delta,), general_orders=(o1, o2, 0.0, 0.0),
            )
            HarnessConfig(grid_rmax=rmax, grid_n=n, experiments=(cfg,))
        except ConfigError:
            pass


class TestReportMechanics:
    def test_window_and_ratio(self):
        rep = SmoothnessReport(experiment="equivalence", window=(0.05, 20.0), drift_max=4.0)
        row = rep.add("x", 0.25, 2, 1, 1, 0.1, lhs=1.0, rhs=2.0)
        assert row.ratio == 0.5 and row.passed
        row = rep.add("x", 0.25, 2, 1, 1, 0.1, lhs=1.0, rhs=0.01)
        assert not row.passed
        row = rep.add("x", 0.25, 2, 1, 1, 0.1, lhs=0.0, rhs=0.0)
        assert row.passed and row.ratio == 0.0
        row = rep.add("x", 0.25, 2, 1, 1, 0.1, lhs=1.0, rhs=0.0)
        assert not row.passed and row.ratio == math.inf

    def test_one_sided_window(self):
        rep = SmoothnessReport(experiment="jackson", window=(0.0, 20.0), drift_max=4.0)
        row = rep.add("x", 0.25, 2, 1, 1, 0.1, lhs=1e-9, rhs=1.0)
        assert row.passed  # tiny ratios pass one-sided checks

    def test_drift(self):
        rep = SmoothnessReport(experiment="equivalence", window=(0.05, 20.0), drift_max=4.0)
        for scale, ratio in ((0.1, 1.0), (0.2, 2.0), (0.4, 5.0)):
            rep.add("x", 0.25, 2, 1, 1, scale, lhs=ratio, rhs=1.0, group=("g",))
        assert rep.drift == pytest.approx(5.0)
        assert not rep.verdict

    def test_write_report_deterministic(self, tmp_path):
        rep = SmoothnessReport(experiment="jackson", window=(0.0, 20.0), drift_max=4.0)
        rep.add("jackson", 0.25, 2, 2, 1, 4.0, lhs=0.125, rhs=1.0)
        csv1, json1 = write_report(rep, tmp_path / "a")
        csv2, json2 = write_report(rep, tmp_path / "b")
        assert csv1.read_bytes() == csv2.read_bytes()
        header = csv1.read_text().splitlines()
        assert header[0].startswith("# experiment=jackson window_lo=0.0 window_hi=20.0")
        assert header[1] == "experiment,lambda,p,m,r,scale,lhs,rhs,ratio,pass"
        summary = json.loads(json1.read_text())
        assert summary["verdict"] == "pass"


class TestProfiles:
    def test_known_profiles(self, grid):
        for name in ("gaussian", "gaussian_t2", "gaussian_wide", "gaussian_narrow",
                     "rational", "bandlimited"):
            f = make_profile(name, grid, 0.25)
            assert f.values.shape == grid.nodes.shape
            assert np.all(np.isfinite(f.values))

    def test_unknown_profile(self, grid):
        with pytest.raises(ConfigError, match="unknown test function"):
            make_profile("sinc", grid, 0.25)

    def test_bandlimited_spectrum_support(self, grid):
        s = bandlimited_spectrum(grid, 0.25, 4.0)
        assert s.bandlimit == 4.0
        assert np.all(s.values[grid.nodes >= 4.0] == 0.0)
        assert np.all(s.values[grid.nodes <= 2.0] > 0.0)

    def test_concentrated_spectrum_support(self, grid):
        s = concentrated_spectrum(grid, 0.25, 4.0)
        inside = (grid.nodes > 3.6) & (grid.nodes < 4.0)
        assert np.all(s.values[~inside] == 0.0)
        assert np.any(s.values[inside] > 0.0)


class TestExperiments:
    def test_jackson_bounded_and_decaying(self, grid):
        cfg = ExperimentConfig(
            name="jackson",
            m_values=(2.0,),
            r_values=(0.0, 1.0),
            scale=ScaleGrid(2.0, 16.0, 4),
            window=(0.0, 20.0),
        )
        rep = EXPERIMENTS["jackson"](cfg, grid)
        assert rep.verdict
        # ratios decay along the sigma sweep until E hits quadrature noise
        for r_val in (0.0, 1.0):
            ratios = [row.ratio for row in rep.rows if row.r == r_val]
            assert all(a >= b - 1e-12 or b < 1e-8 for a, b in zip(ratios, ratios[1:]))

    def test_jackson_trivial_pass_on_bandlimited_input(self, grid):
        # an input of spherical type below the sigma sweep has E ~ 0 (up to
        # its sampling floor): near-zero ratios, trivial pass.  Uses a wide
        # transition so the physical tail dies out inside rmax.
        from dunklsmooth.smoothness import best_approx, modulus
        from dunklsmooth.transforms import inverse_hankel

        lam = 0.25
        # type-12 content needs the fine grid to be resolved in space
        fine = make_grid(30.0, 1024)
        f = inverse_hankel(bandlimited_spectrum(fine, lam, 12.0))
        for sigma in (12.0, 16.0):
            e_val = best_approx(f, sigma, 2, lam).value
            om = modulus(f, 1.0 / sigma, 2.0, 2, lam).value
            assert e_val / om < 1e-2

    def test_equivalence_window_and_trivial_row(self, grid):
        cfg = ExperimentConfig(name="equivalence", r_values=(1.0,), scale=ScaleGrid(0.05, 0.8, 5))
        rep = EXPERIMENTS["equivalence"](cfg, grid)
        assert rep.verdict
        om_diff = [row for row in rep.rows if row.check == "equivalence:omega/diff"]
        assert all(row.ratio >= 1.0 - 1e-12 for row in om_diff)

    def test_equivalence_p_inf(self, grid):
        cfg = ExperimentConfig(
            name="equivalence", p_values=(math.inf,), r_values=(1.0,),
            scale=ScaleGrid(0.1, 0.8, 3),
        )
        rep = EXPERIMENTS["equivalence"](cfg, grid)
        assert rep.verdict

    def test_realization_window_p2(self, grid):
        cfg = ExperimentConfig(name="realization", r_values=(1.0,), scale=ScaleGrid(0.05, 0.8, 4))
        rep = EXPERIMENTS["realization"](cfg, grid)
        assert rep.verdict
        checks = {row.check for row in rep.rows}
        assert "realization:R/omega" in checks and "realization:Rstar/K" in checks

    @pytest.mark.parametrize("name", ["equivalence", "realization"])
    def test_chain_rows_do_not_depend_on_p_sweep(self, grid, name):
        # one sweep over p (which reuses each p-independent inverse batch)
        # gives the rows of three single-p sweeps, bit for bit and in order
        shared = dict(name=name, r_values=(0.5, 2.0), scale=ScaleGrid(0.1, 0.8, 3))
        ps = (1.0, 2.0, math.inf)
        joint = EXPERIMENTS[name](ExperimentConfig(p_values=ps, **shared), grid)
        single = [
            row
            for p in ps
            for row in EXPERIMENTS[name](ExperimentConfig(p_values=(p,), **shared), grid).rows
        ]
        assert [repr(row) for row in joint.rows] == [repr(row) for row in single]

    @pytest.mark.parametrize("name", ["equivalence", "realization"])
    def test_chain_sweep_product_and_bessel_counts(self, grid, name, monkeypatch):
        # per (lambda, scale): at most two wide products and one Bessel base;
        # the difference norms add one single-column product per r, and the
        # p = 1 approximant's LP fit one product of its hat columns
        widths, bases, realizations, fits = [], [], [], []
        products = smoothness._inverse_products
        one_minus = BesselEvaluator.one_minus
        realization = smoothness.realization
        l1_fit = smoothness._l1_fit_symbol

        def counted_products(fhat, symbols):
            widths.append(symbols.shape[1])
            return products(fhat, symbols)

        def counted_one_minus(self, t):
            bases.append(np.shape(t))
            return one_minus(self, t)

        def counted_realization(*args, **kwargs):
            realizations.append(args[1:4])
            return realization(*args, **kwargs)

        def counted_l1_fit(*args):
            fits.append(args[2])
            return l1_fit(*args)

        monkeypatch.setattr(smoothness, "_inverse_products", counted_products)
        monkeypatch.setattr(smoothness, "_l1_fit_symbol", counted_l1_fit)
        monkeypatch.setattr(BesselEvaluator, "one_minus", counted_one_minus)
        monkeypatch.setattr(smoothness, "realization", counted_realization)
        lams, ps, rs, scales = (0.25, 1.0), (1.0, 2.0, math.inf), (0.5, 1.0, 2.0), 3
        cfg = ExperimentConfig(name=name, lambda_values=lams, p_values=ps, r_values=rs,
                               scale=ScaleGrid(0.05, 0.8, scales))
        EXPERIMENTS[name](cfg, grid)
        per_scale = len(lams) * scales
        wide = [w for w in widths if w > 1]
        assert len(fits) == (per_scale if name == "realization" else 0)
        assert len(wide) <= 2 * per_scale + len(fits)
        singles = len(widths) - len(wide)
        assert singles == (per_scale * len(rs) if name == "equivalence" else 0)
        assert len(bases) == per_scale
        if name == "realization":
            assert len(realizations) == per_scale * len(rs) * len(ps)
            assert len(set(realizations)) == len(realizations) // len(lams)

    def test_default_sweep_transforms_each_input_once(self, grid, monkeypatch):
        # a modulus of a derivative takes that derivative's spectrum, made
        # once per r, and at r = 0 the input's own: one hankel call per
        # distinct (lambda, input) of each experiment, 7 in the default sweep
        inputs = []
        hankel = transforms.hankel

        def counted(f, lam):
            inputs[-1].append((lam, f.values.tobytes()))
            return hankel(f, lam)

        monkeypatch.setattr(transforms, "hankel", counted)
        monkeypatch.setattr(harness, "hankel", counted)
        for cfg in parse_config(default_config()).experiments:
            inputs.append([])
            EXPERIMENTS[cfg.name](cfg, grid)
        assert [len(set(seen)) for seen in inputs] == [len(seen) for seen in inputs]
        assert sum(map(len, inputs)) == 7

    def test_two_scale_norms_are_computed_once_per_step(self, grid, monkeypatch):
        calls = []
        diff_norm = harness.diff_norm

        def counted(f, t, m, *args, **kwargs):
            calls.append((t, m))
            return diff_norm(f, t, m, *args, **kwargs)

        monkeypatch.setattr(harness, "diff_norm", counted)
        cfg = ExperimentConfig(name="boas", m_values=(1.0,), scale=ScaleGrid(0.01, 0.125, 4),
                               thetas=(1.0, 0.5, 0.25))
        rep = EXPERIMENTS["boas"](cfg, grid)
        # theta = 1 reuses the right-hand norm: 3 distinct steps per t, not 6
        assert len(rep.rows) == 12
        assert len(calls) == len(set(calls)) == 12

    def test_bernstein_exact_constant_and_sharpness(self, grid):
        cfg = ExperimentConfig(
            name="bernstein", r_values=(1.0, 2.0), scale=ScaleGrid(1.0, 8.0, 4),
            window=(0.0, 20.0),
        )
        rep = EXPERIMENTS["bernstein"](cfg, grid)
        assert rep.verdict
        p2 = [row for row in rep.rows if row.check == "bernstein"]
        assert all(row.ratio <= 1.0 + 1e-8 for row in p2)
        sharp = [row for row in rep.rows if row.check == "bernstein:sharpness"]
        assert sharp and all(row.ratio >= 0.8 for row in sharp)

    def test_bernstein_sigma_doubling_scaling(self, grid):
        # same spectrum measured against a doubled type halves the ratio 2^-r
        cfg = ExperimentConfig(name="bernstein", r_values=(1.0,), scale=ScaleGrid(2.0, 2.0, 1))
        rep = EXPERIMENTS["bernstein"](cfg, grid)
        row = next(r for r in rep.rows if r.check == "bernstein")
        assert row.lhs / (2.0 * row.rhs) == pytest.approx(row.ratio / 2.0, rel=1e-12)

    def test_nikolskii_p1_bounded(self, grid):
        cfg = ExperimentConfig(
            name="nikolskii_stechkin", p_values=(1.0,), m_values=(1.0,),
            sigma=4.0, scale=ScaleGrid(0.01, 0.125, 3),
        )
        rep = EXPERIMENTS["nikolskii_stechkin"](cfg, grid)
        assert rep.verdict

    def test_nikolskii_limit_constant(self, grid):
        lam, m = 0.25, 2.0
        cfg = ExperimentConfig(
            name="nikolskii_stechkin", lambda_values=(lam,), m_values=(m,),
            sigma=4.0, scale=ScaleGrid(0.001, 0.125, 5),
        )
        rep = EXPERIMENTS["nikolskii_stechkin"](cfg, grid)
        assert rep.verdict
        smallest = min(rep.rows, key=lambda row: row.scale)
        predicted = (4.0 * (lam + 1.0)) ** (m / 2.0)
        assert smallest.ratio == pytest.approx(predicted, rel=2e-2)

    def test_boas_trivial_equal_scales(self, grid):
        cfg = ExperimentConfig(
            name="boas", m_values=(1.0,), sigma=4.0, scale=ScaleGrid(0.01, 0.125, 3),
            thetas=(1.0, 0.5),
        )
        rep = EXPERIMENTS["boas"](cfg, grid)
        assert rep.verdict
        equal_scale = [row for row in rep.rows if row.check == "boas:theta=1.0"]
        assert equal_scale and all(row.ratio == 1.0 for row in equal_scale)

    def test_general_specializes_to_nikolskii(self, grid):
        m = 2.0
        shared = dict(lambda_values=(0.25,), p_values=(2.0,), sigma=4.0,
                      scale=ScaleGrid(0.01, 0.125, 4))
        ns_cfg = ExperimentConfig(name="nikolskii_stechkin", m_values=(m,), **shared)
        gen_cfg = ExperimentConfig(
            name="general_entire", general_orders=(m, 0.0, 0.0, m), thetas=(1.0,), **shared
        )
        ns = EXPERIMENTS["nikolskii_stechkin"](ns_cfg, grid)
        gen = EXPERIMENTS["general_entire"](gen_cfg, grid)
        direct = [r for r in gen.rows if r.check.startswith("general:theta")]
        assert len(ns.rows) == len(direct)
        for a, b in zip(ns.rows, direct):
            assert abs(a.ratio - b.ratio) <= 1e-12 * max(1.0, abs(a.ratio))
        # the report carries the cross-check rows itself
        cons = [r for r in gen.rows if r.check == "general:consistency:nikolskii_stechkin"]
        assert len(cons) == len(ns.rows)
        assert all(r.passed for r in cons)

    def test_general_specializes_to_boas(self, grid):
        m = 1.0
        shared = dict(lambda_values=(0.25,), p_values=(2.0,), sigma=4.0,
                      scale=ScaleGrid(0.01, 0.125, 3))
        gen_cfg = ExperimentConfig(
            name="general_entire", general_orders=(0.0, m, 0.0, m),
            thetas=(1.0, 0.5), **shared
        )
        gen = EXPERIMENTS["general_entire"](gen_cfg, grid)
        cons = [r for r in gen.rows if r.check == "general:consistency:boas"]
        assert cons and all(r.passed for r in cons)

    def test_general_trivial_identity_orders(self, grid):
        cfg = ExperimentConfig(
            name="general_entire", general_orders=(0.0, 1.0, 0.0, 1.0), thetas=(1.0,),
            sigma=4.0, scale=ScaleGrid(0.01, 0.125, 3),
        )
        rep = EXPERIMENTS["general_entire"](cfg, grid)
        assert all(row.ratio == 1.0 for row in rep.rows)

    def test_inverse_dominance(self, grid):
        cfg = ExperimentConfig(
            name="inverse", m_values=(2.0,), r_values=(1.0,),
            n_values=(2, 4, 8, 16), delta_values=(0.1, 0.2, 0.4),
            window=(0.0, 1.0),
        )
        rep = EXPERIMENTS["inverse"](cfg, grid)
        assert rep.verdict
        checks = {row.check for row in rep.rows}
        assert checks == {"inverse", "marchaud", "inverse-derivative"}
        assert all(row.ratio <= 1.0 for row in rep.rows)


class TestRunAll:
    def test_default_config_round_trips_through_json(self, tmp_path):
        path = tmp_path / "default.json"
        path.write_text(json.dumps(default_config()))
        hc = load_config(path)
        assert hc == parse_config(default_config())

    def test_empty_experiment_list(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"experiments": [], "output_dir": str(tmp_path / "out")}))
        assert run_all(cfg_path) == 0
        assert not (tmp_path / "out").exists() or not list((tmp_path / "out").iterdir())

    def test_unknown_experiment_raises_config_error(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"experiments": [{"name": "nope"}]}))
        with pytest.raises(ConfigError):
            run_all(cfg_path)

    def test_small_run_writes_reports(self, tmp_path):
        spec = {
            "output_dir": str(tmp_path / "reports"),
            "grid": {"rmax": 30.0, "n": 512, "kind": "gauss-legendre-composite"},
            "experiments": [
                {
                    "name": "equivalence",
                    "lambda_values": [0.25],
                    "p_values": [2],
                    "r_values": [1.0],
                    "scale": {"lo": 0.1, "hi": 0.4, "points": 2},
                }
            ],
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(spec))
        assert run_all(cfg_path) == 0
        assert (tmp_path / "reports" / "equivalence.csv").exists()
        summary = json.loads((tmp_path / "reports" / "equivalence.json").read_text())
        assert summary["verdict"] == "pass"
        assert summary["window"] == [0.05, 20.0]

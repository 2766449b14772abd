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
    PROFILES,
    ReportRow,
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
from dunklsmooth.quad import RadialFunction, _spectral_l2, default_grid, make_grid, nu_weights
from dunklsmooth.special import BESSEL_LAMBDA_MAX, BesselEvaluator


@pytest.fixture(scope="module")
def grid():
    return make_grid(30.0, 512)


def test_harness_reads_every_functional_from_a_sweep():
    # the one-point functionals are the library's entries; the experiments
    # read the sweeps they are cases of
    one_point = ("modulus", "diff_norm", "best_approx", "realization", "k_functional_upper",
                 "realization_candidate_min", "marchaud_bound")
    assert [name for name in one_point if name in vars(harness)] == []


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
        one = {"experiments": [{"name": "bernstein"}]}
        assert parse_config(one).grid_rmax == 30.0
        assert parse_config({"grid": {"rmax": 31.6}, **one}).grid_rmax == 31.6

    def test_scale_grid_values(self):
        sg = ScaleGrid(0.1, 1.0, 3)
        np.testing.assert_allclose(sg.values(), [0.1, math.sqrt(0.1), 1.0], rtol=1e-12)
        assert ScaleGrid(0.5, 0.5, 1).values() == [0.5]
        # an integral float passes the integer kind, as 3.0 does in JSON
        assert ScaleGrid(0.1, 1.0, 3.0).values() == sg.values()

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
            (lambda: HarnessConfig(grid_n=3), "config.grid.n must be >= 16, got 3"),
            (lambda: parse_config({"grid": {"n": 8}}), "config.grid.n must be >= 16, got 8"),
            (lambda: HarnessConfig(grid_n=16.5), "config.grid.n must be an integer"),
            (lambda: ExperimentConfig(name="jackson", drift_max=1.0),
             "jackson: drift_max must be > 1, got 1.0"),
            (lambda: ExperimentConfig(name="jackson", lambda_values=(150.0,)),
             "jackson: lambda_values must lie in \\(-1/2, 120\\]"),
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
            ("lambda_values", [0.25, -0.5], "jackson: lambda_values must lie in \\(-1/2, 120\\]"),
            ("test_functions", ["sinc"], "jackson: test_functions must be one of"),
            ("scale", {"lo": 0.0, "hi": 1.0, "points": 2}, "scale.lo must be positive, got 0.0"),
        ],
    )
    def test_out_of_range_fields_are_named(self, field, value, match):
        with pytest.raises(ConfigError, match=match):
            parse_config({"experiments": [{"name": "jackson", field: value}]})

    def test_kernel_beyond_physical_memory_is_refused(self):
        # 8 * (2**20)**2 bytes = 8 TiB: refused by arithmetic, nothing allocated
        with pytest.raises(ConfigError, match=r"config\.grid\.n = 1048576 needs an n x n"
                                              r" float64 kernel of 8796093022208 bytes, more"
                                              r" than the \d+ bytes of physical memory"):
            parse_config({"grid": {"n": 2**20}})
        assert parse_config({"grid": {"n": 2048},
                             "experiments": [{"name": "bernstein"}]}).grid_n == 2048

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
        # the library applies the same rule wherever weights are formed
        with pytest.raises(ValueError, match=r"lambda must be <= 103\.8 on a grid of rmax 30\.0"):
            nu_weights(make_grid(30.0, 2048), 103.9)
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
_STRING = st.sampled_from(["gaussian", "bandlimited", "inf", "Infinity", "x", ""])
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
    grid = st.fixed_dictionaries({}, optional={"rmax": value("float"), "n": value("int")})
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

    def test_write_report_over_old_reports(self, tmp_path):
        reports = []
        for lhs in (0.5, 0.125):
            rep = SmoothnessReport(experiment="jackson", window=(0.0, 20.0), drift_max=4.0)
            rep.add("jackson", 0.25, 2, 2, 1, 4.0, lhs=lhs, rhs=1.0)
            reports.append(rep)
        old, rep = reports
        fresh = [p.read_bytes() for p in write_report(rep, tmp_path / "fresh")]
        paths = write_report(old, tmp_path / "out")
        before = [p.read_bytes() for p in paths]
        handles = [open(p, "rb") for p in paths]
        try:
            assert write_report(rep, tmp_path / "out") == paths
            assert [p.read_bytes() for p in paths] == fresh
            # each file is new: a handle on the old one still reads it in full
            assert [h.read() for h in handles] == before
        finally:
            for h in handles:
                h.close()

    def test_rows_have_no_dict(self):
        rep = SmoothnessReport(experiment="jackson", window=(0.0, 20.0), drift_max=4.0)
        row = rep.add("jackson", 0.25, 2, 2, 1, 4.0, lhs=0.125, rhs=1.0)
        assert not hasattr(row, "__dict__")


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
        # per input: one Bessel base over the union of its scales' modulus
        # steps and one modulus product per order r, and for equivalence one
        # base over the scales for the difference norms.  Off p = 2 every
        # other sweep makes one product for all of its columns, except the
        # packed ones: equivalence one product of every difference norm and
        # one of the K family at all three scales (40 columns a scale);
        # realization one of the projection residuals, one of the p = 1 fit's
        # hat columns (41 a type), one of the fit residuals, one of the
        # derivative terms per p != 2, from one realization sweep per
        # (input, p), and one candidate product per scale (K and R take 84
        # columns a scale, and two exceed the column budget).  No product
        # has one column: every width is a multiple of _PAD.
        widths, bases, realizations, fits = [], [], [], []
        product = smoothness._product
        one_minus = BesselEvaluator.one_minus
        realizations_of = smoothness._realizations
        l1_fits = smoothness._l1_fit_symbols

        def counted_product(mat, columns):
            out = product(mat, columns)
            widths.append(out.shape[1])
            return out

        def counted_one_minus(self, t):
            bases.append(np.shape(t))
            return one_minus(self, t)

        def counted_realizations(approxes, r_values, p):
            realizations.append((len(approxes), tuple(r_values), p))
            return realizations_of(approxes, r_values, p)

        def counted_l1_fits(f, fhat, sigmas):
            fits.append(list(sigmas))
            return l1_fits(f, fhat, sigmas)

        monkeypatch.setattr(smoothness, "_product", counted_product)
        monkeypatch.setattr(smoothness, "_l1_fit_symbols", counted_l1_fits)
        monkeypatch.setattr(BesselEvaluator, "one_minus", counted_one_minus)
        monkeypatch.setattr(smoothness, "_realizations", counted_realizations)
        lams, ps, rs, scales = (0.25, 1.0), (1.0, 2.0, math.inf), (0.5, 1.0, 2.0), 3
        cfg = ExperimentConfig(name=name, lambda_values=lams, p_values=ps, r_values=rs,
                               scale=ScaleGrid(0.05, 0.8, scales))
        EXPERIMENTS[name](cfg, grid)
        union = smoothness._ladder(cfg.scale.values())[0].size
        assert union < 25 * scales
        diff_base = [(grid.n, scales)] if name == "equivalence" else []
        assert bases == ([(grid.n, union)] + diff_base) * len(lams)
        assert all(w > 1 and w % smoothness._PAD == 0 for w in widths)
        assert all(w <= smoothness._PRODUCT_COLUMNS for w in widths)
        off_2 = sum(p != 2 for p in ps)
        per_input = len(rs) + (2 if name == "equivalence" else 3 + off_2 + scales)
        assert len(widths) == per_input * len(lams)
        # each input's products open with its moduli
        for i in range(len(lams)):
            head = widths[i * per_input : i * per_input + len(rs)]
            assert head == [smoothness._width(union)] * len(rs)
        if name == "equivalence":
            assert fits == [] and realizations == []
            assert widths[len(rs) : per_input] == [smoothness._width(scales * len(rs)), 120]
        else:
            sigmas = [1.0 / t for t in cfg.scale.values()]
            assert all(sigma < grid.nodes[-1] for sigma in sigmas)
            assert fits == [sigmas] * len(lams)
            assert realizations == [(scales, rs, p) for p in ps] * len(lams)
            assert widths[len(rs) : per_input] == (
                [8, 128, 8] + [smoothness._width(scales * len(rs))] * off_2 + [88] * scales)

    @pytest.mark.parametrize("name", ["equivalence", "realization"])
    def test_chain_rows_do_not_depend_on_the_scales_swept_with_them(self, grid, name):
        # a scale's rows read its own columns of the shared products; they
        # rest on the product rule of README, "Numerical design notes",
        # "One modulus ladder per sweep"
        self.assert_rows_do_not_depend_on_the_scales(grid, name, (1.0, 2.0, math.inf))

    @pytest.mark.parametrize("name", ["equivalence", "realization"])
    def test_chain_rows_do_not_depend_on_the_scales_swept_with_them_on_a_small_grid(self, name):
        # at n = 128 most narrow widths take other BLAS kernels than wide
        # ones, so only the padding keeps the rows of a scale alone equal to
        # its rows among nine
        self.assert_rows_do_not_depend_on_the_scales(make_grid(30.0, 128), name, (1.0, math.inf))

    @staticmethod
    def assert_rows_do_not_depend_on_the_scales(grid, name, ps):
        shared = dict(name=name, p_values=ps, r_values=(0.5, 2.0))
        scales = ScaleGrid(1e-2, 1.0, 9)
        joint = EXPERIMENTS[name](ExperimentConfig(scale=scales, **shared), grid).rows
        for t in scales.values():
            alone = EXPERIMENTS[name](ExperimentConfig(scale=ScaleGrid(t, t, 1), **shared), grid)
            mine = [repr(row) for row in joint if row.scale == t]
            assert mine == [repr(row) for row in alone.rows], (
                f"rows at t={t!r} move with the scales swept beside them: see README,"
                " Numerical design notes, 'One modulus ladder per sweep'"
            )

    def test_realization_takes_its_approximants_from_one_sweep(self, grid, monkeypatch):
        # "R" and "Rstar" read every p's approximants of the types 1/t from
        # one _best_approxes sweep per input.  At p = 2 its tails are one
        # _spectral_tails call, where the default scales' sigmas 20, 10, 5 and
        # 1.25 share one r~ group and 2.5000000000000004 has its own: the
        # first sigma of a group evaluates the whole 32 x n cut-panel block,
        # the others only the columns their group has not made yet
        sweeps, tails_points, inside = [], [], []
        approxes = smoothness._best_approxes
        tails = smoothness._spectral_tails
        call = BesselEvaluator.__call__

        def counted_approxes(f, fhat, sigmas, p_values, lam):
            sweeps.append((p_values, list(sigmas)))
            return approxes(f, fhat, sigmas, p_values, lam)

        def counted_tails(f, lam, sigmas, fhat=None):
            tails_points.append([])
            inside.append(True)
            try:
                return tails(f, lam, sigmas, fhat)
            finally:
                inside.pop()

        def counted_points(self, t):
            if inside:
                tails_points[-1].append(np.size(t))
            return call(self, t)

        monkeypatch.setattr(smoothness, "_best_approxes", counted_approxes)
        monkeypatch.setattr(smoothness, "_spectral_tails", counted_tails)
        monkeypatch.setattr(BesselEvaluator, "__call__", counted_points)
        cfg = next(c for c in parse_config(default_config()).experiments if c.name == "realization")
        assert cfg.p_values == (2.0,) and len(cfg.lambda_values) == len(cfg.test_functions) == 1
        ps = (1.0, 2.0, math.inf)
        EXPERIMENTS["realization"](ExperimentConfig(name="realization", p_values=ps), grid)
        sigmas = [1.0 / t for t in cfg.scale.values()]
        assert sigmas == [20.0, 10.0, 5.0, 2.5000000000000004, 1.25]
        assert sweeps == [(ps, sigmas)]
        full = transforms._CUT_NODES.size * grid.n
        (points,) = tails_points
        # the groups in order: (20, 10, 5, 1.25), then (2.5000000000000004,)
        assert [n == full for n in points] == [True, False, False, False, True]
        assert sum(points) < 3 * full

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
        diff_norms = harness._diff_norms

        def counted(fhat, points, p_values):
            calls.append(list(points))
            return diff_norms(fhat, points, p_values)

        monkeypatch.setattr(harness, "_diff_norms", counted)
        cfg = ExperimentConfig(name="boas", m_values=(1.0,), scale=ScaleGrid(0.01, 0.125, 4),
                               thetas=(1.0, 0.5, 0.25))
        rep = EXPERIMENTS["boas"](cfg, grid)
        # one sweep per input; theta = 1 reuses the right-hand norm: 3
        # distinct steps per t, not 6
        assert len(rep.rows) == 12
        assert len(calls) == 1 and len(calls[0]) == len(set(calls[0])) == 12

    def test_default_inverse_sweep_takes_one_marchaud_ladder(self, grid, monkeypatch):
        # one sweep per (input, p) over the E_j table's types 1..32 and the
        # types 1/t of the ladder the three default deltas share (17 points,
        # where a fresh 17-point grid per delta took 51): 43 distinct sigmas,
        # the 6 both share taken once.  At p = 2 every tail comes from one
        # _spectral_tails call; a second run hands over the same sigmas and
        # evaluates the same Bessel points, as no memo outlives the sweep
        swept, points = [], []
        tails = smoothness._spectral_tails
        call = BesselEvaluator.__call__

        def counted_tails(f, lam, sigmas, fhat=None):
            swept.append(list(sigmas))
            return tails(f, lam, sigmas, fhat)

        def counted_points(self, t):
            points.append(np.size(t))
            return call(self, t)

        monkeypatch.setattr(smoothness, "_spectral_tails", counted_tails)
        monkeypatch.setattr(BesselEvaluator, "__call__", counted_points)
        cfg = next(c for c in parse_config(default_config()).experiments if c.name == "inverse")
        ladder = {1.0 / t for delta in cfg.delta_values for t in smoothness._marchaud_nodes(delta)}
        expected = set(map(float, range(1, max(cfg.n_values) + 1))) | ladder
        assert len(ladder) == 17 and len(expected) == 43
        runs = []
        for _ in range(2):
            swept.clear()
            points.clear()
            EXPERIMENTS["inverse"](cfg, grid)
            assert len(swept) == 1 and sorted(swept[0]) == sorted(expected)
            runs.append(sum(points))
        assert runs[0] == runs[1] > 0

    @pytest.mark.parametrize("lam", [0.25, 1.0])
    def test_e0_plancherel_norm_is_the_tail_from_zero(self, lam):
        # E_0 at p = 2 is the spectrum's Plancherel norm, bit for bit the
        # spectral tail from sigma = 0 that the table read before
        grid = default_grid()
        for name in PROFILES:
            f = make_profile(name, grid, lam)
            fhat = transforms.hankel(f, lam)
            assert _spectral_l2(fhat.values, grid, lam) == transforms.spectral_tail_l2(
                f, lam, 0.0, fhat=fhat
            ), name

    def test_inverse_sweep_fits_each_p1_type_once(self, grid, monkeypatch):
        # at p = 1 each type below the last node is one LP: the 43 distinct
        # types less the three at or beyond it (30, 31, 32), so 40 LPs where
        # a table and a ladder approximated apart took 46
        import scipy.optimize

        fits, solves = [], []
        l1_fits = smoothness._l1_fit_symbols
        linprog = scipy.optimize.linprog

        def counted(f, fhat, sigmas):
            fits.extend(sigmas)
            return l1_fits(f, fhat, sigmas)

        def counted_linprog(*args, **kwargs):
            solves.append(1)
            return linprog(*args, **kwargs)

        monkeypatch.setattr(smoothness, "_l1_fit_symbols", counted)
        monkeypatch.setattr(scipy.optimize, "linprog", counted_linprog)
        cfg = ExperimentConfig(name="inverse", p_values=(1.0,), m_values=(2.0,))
        EXPERIMENTS["inverse"](cfg, grid)
        assert len(fits) == len(set(fits)) == len(solves) == 40
        assert all(sigma < grid.nodes[-1] for sigma in fits)

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

    @pytest.mark.parametrize("p", [1.0, 2.0, math.inf])
    def test_bernstein_norms_are_one_column_image_norms(self, grid, p, monkeypatch):
        # both sides of a row are the _image_norms of one symbol column, and
        # each spectrum takes those of every r in one call: off p = 2 one
        # product per spectrum, padded to _PAD columns by the product rule;
        # Plancherel sums and no product at p = 2
        widths = []
        product = smoothness._product

        def counted(mat, columns):
            out = product(mat, columns)
            widths.append(out.shape[1])
            return out

        monkeypatch.setattr(smoothness, "_product", counted)
        cfg = ExperimentConfig(name="bernstein", p_values=(p,), r_values=(1.0, 2.0),
                               scale=ScaleGrid(1.0, 8.0, 3))
        rows = [row for row in EXPERIMENTS["bernstein"](cfg, grid).rows
                if row.check == "bernstein"]
        assert len(rows) == 6
        assert widths == ([] if p == 2 else [smoothness._PAD] * len(cfg.scale.values()))

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


class TestChainHandOff:
    """Equivalence hands omega and K to a realization run after it on the
    same inputs, and each handed value serves one later experiment only."""

    LAMS, PS, RS = (0.25, 1.0), (1.0, 2.0, math.inf), (0.5, 2.0)
    SCALE = ScaleGrid(0.05, 0.8, 3)
    # inputs x scales: the candidate families are built once per scale
    PER_SCALE = len(LAMS) * 3

    @pytest.fixture
    def run(self, grid, monkeypatch):
        """``run(name, **changes)`` runs a chain experiment on a small
        criterion-6-shaped config and returns its rows as ``repr``s, the
        widths of the inverse products it made, the candidate families
        whose symbols it built and, for each modulus sweep it ran, the
        number of products that sweep made."""
        widths, families, moduli = [], [], []
        product = smoothness._product
        moduli_of = smoothness._moduli

        def counted_product(mat, columns):
            out = product(mat, columns)
            widths.append(out.shape[1])
            return out

        def counted_moduli(*args):
            w0 = len(widths)
            out = moduli_of(*args)
            moduli.append(len(widths) - w0)
            return out

        def counted_family(name, build):
            def symbols(nodes, t, sharp):
                families.append(name)
                return build(nodes, t, sharp)

            return symbols

        monkeypatch.setattr(smoothness, "_product", counted_product)
        monkeypatch.setattr(smoothness, "_moduli", counted_moduli)
        for name, build in smoothness._FAMILIES.items():
            monkeypatch.setitem(smoothness._FAMILIES, name, counted_family(name, build))
        shared = dict(lambda_values=self.LAMS, p_values=self.PS, r_values=self.RS,
                      scale=self.SCALE, test_functions=("gaussian",),
                      window=(1.0 / 20.0, 20.0), drift_max=4.0)

        def run(name, **changes):
            w0, f0, m0 = len(widths), len(families), len(moduli)
            cfg = ExperimentConfig(name=name, **{**shared, **changes})
            rows = [repr(row) for row in EXPERIMENTS[name](cfg, grid).rows]
            return rows, widths[w0:], families[f0:], moduli[m0:]

        return run

    def test_eq_then_re_makes_the_moduli_and_the_k_family_once(self, run):
        _, eq_widths, eq_families, eq_moduli = run("equivalence")
        _, re_widths, re_families, re_moduli = run("realization")
        # one modulus sweep per input with one product per r, one K family
        # per (input, scale) at p = 2 and one off p = 2, all made by
        # equivalence
        assert eq_moduli == [len(self.RS)] * len(self.LAMS)
        assert eq_families.count("K") == 2 * self.PER_SCALE
        assert re_moduli == [] and "K" not in re_families
        assert re_families.count("R") == 2 * self.PER_SCALE
        # a realization run alone makes both itself
        harness._HANDOFF.clear()
        _, alone_widths, alone_families, alone_moduli = run("realization")
        assert alone_moduli == [len(self.RS)] * len(self.LAMS)
        assert alone_families.count("K") == 2 * self.PER_SCALE
        assert sum(re_widths) < sum(alone_widths)

    def test_rows_do_not_depend_on_the_hand_off(self, run):
        eq_alone = run("equivalence")[0]
        harness._HANDOFF.clear()
        re_alone = run("realization")[0]
        # a second realization takes every value, each of its own type
        again, again_widths, _, _ = run("realization")
        assert again == re_alone and again_widths == []
        harness._HANDOFF.clear()
        run("realization")
        # equivalence after realization takes omega and K from it
        eq_after, _, _, eq_after_moduli = run("equivalence")
        assert eq_after_moduli == []
        assert eq_after == eq_alone
        harness._HANDOFF.clear()
        assert run("equivalence")[0] == eq_alone
        assert run("realization")[0] == re_alone

    def test_a_repeated_pair_makes_the_products_of_the_first(self, run):
        # realization hands on only R and Rstar, which equivalence does not
        # read: a warm repeat computes what a fresh run computes
        first = [run(name)[1:] for name in ("equivalence", "realization")]
        second = [run(name)[1:] for name in ("equivalence", "realization")]
        assert second == first

    def test_a_third_equivalence_recomputes(self, run):
        first, second, third = (run("equivalence") for _ in range(3))
        # the second takes every value and computes none, so hands on none
        assert second[1:] == ([], [], [])
        assert third[1:] == first[1:]
        assert first[0] == second[0] == third[0]

    def test_an_input_one_ulp_apart_takes_nothing(self, run, monkeypatch):
        run("equivalence")
        nudged_scale = ScaleGrid(math.nextafter(0.05, 1.0), 0.8, 3)
        _, _, families, moduli = run("realization", scale=nudged_scale)
        assert moduli == [len(self.RS)] * len(self.LAMS)
        assert families.count("K") == 2 * self.PER_SCALE
        run("equivalence")

        def nudged(name, grid, lam):
            values = make_profile(name, grid, lam).values.copy()
            values[0] = math.nextafter(values[0], 0.0)
            return RadialFunction(grid=grid, values=values)

        monkeypatch.setattr(harness, "make_profile", nudged)
        _, _, families, moduli = run("realization")
        assert moduli == [len(self.RS)] * len(self.LAMS)
        assert families.count("K") == 2 * self.PER_SCALE

    def test_the_hand_off_holds_floats_of_one_experiment(self, run):
        def held_names():
            assert harness._HANDOFF.held == {}
            names = set()
            for key, values in harness._HANDOFF.made.items():
                assert all(isinstance(x, (str, float, tuple)) for x in key)
                for by_point in values.values():
                    assert len(by_point) == 3 * len(self.PS) * len(self.RS)
                    # Python floats, never numpy scalars or arrays
                    assert all(type(v) is float for v in by_point.values())
                    assert all(type(x) is float for point in by_point for x in point)
                names.add(frozenset(values))
            return len(harness._HANDOFF.made), names

        run("equivalence")
        assert held_names() == (len(self.LAMS), {frozenset({"omega", "diff", "K"})})
        run("realization")
        assert held_names() == (len(self.LAMS), {frozenset({"R", "Rstar"})})
        run("equivalence", lambda_values=(0.5,))
        assert held_names() == (1, {frozenset({"omega", "diff", "K"})})
        # an experiment that is not a chain leaves the hand-off as it is
        EXPERIMENTS["jackson"](ExperimentConfig(name="jackson"), make_grid(30.0, 512))
        assert held_names() == (1, {frozenset({"omega", "diff", "K"})})

    def test_a_pair_projects_each_input_and_type_once(self, run, monkeypatch):
        # off p = 2 every p takes its norm of one smoothing projection of
        # type 1/t and its one residual, so p = 1 and p = inf share it
        calls = []
        vallee_poussin = smoothness.vallee_poussin

        def counted(fhat, sigma):
            calls.append((fhat.lam, sigma))
            return vallee_poussin(fhat, sigma)

        monkeypatch.setattr(smoothness, "vallee_poussin", counted)
        run("equivalence")
        run("realization")
        assert len(calls) == len(set(calls)) == self.PER_SCALE


def test_rows_hold_python_floats_and_bools(default_run, criterion_6_reports):
    # a numpy scalar would show in a row's repr and in the hand-off, and its
    # type would depend on which functional made the value
    numeric = [f.name for f in fields(ReportRow) if f.name not in ("check", "passed")]
    for report in default_run[0] + criterion_6_reports[0]:
        for row in report.rows:
            assert [type(getattr(row, name)) for name in numeric] == [float] * len(numeric), row
            assert type(row.passed) is bool, row


def test_rows_of_a_sweep_share_their_check_strings(default_run, criterion_6_reports):
    # a label is built once per sweep (one input), not once per row
    chains = criterion_6_reports[0]
    general = [r for r in default_run[0] if r.experiment == "general_entire"]
    assert [r.experiment for r in chains] == ["equivalence", "realization"] and general
    for report in chains + general:
        sweeps = {}
        for row in report.rows:
            sweeps.setdefault((row.check, row.lam), set()).add(id(row.check))
        assert all(len(ids) == 1 for ids in sweeps.values()), report.experiment


class TestRunAll:
    def test_default_config_round_trips_through_json(self, tmp_path):
        path = tmp_path / "default.json"
        path.write_text(json.dumps(default_config()))
        hc = load_config(path)
        assert hc == parse_config(default_config())

    def test_empty_experiment_list(self, tmp_path):
        # a config that runs nothing is refused, not a vacuous pass
        for data in ({"experiments": []}, {}):
            cfg_path = tmp_path / "cfg.json"
            cfg_path.write_text(json.dumps({**data, "output_dir": str(tmp_path / "out")}))
            with pytest.raises(ConfigError, match=r"config\.experiments must name at least one"):
                run_all(cfg_path)
            assert not (tmp_path / "out").exists()

    def test_unknown_experiment_raises_config_error(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"experiments": [{"name": "nope"}]}))
        with pytest.raises(ConfigError):
            run_all(cfg_path)

    def test_default_run_makes_no_inverse_product(self, tmp_path, monkeypatch):
        # the default sweep is p = 2 only, where the moduli and difference
        # norms are Plancherel sums of the symbol-multiplied spectrum
        calls = []
        product = smoothness._product

        def counted(mat, columns):
            calls.append(columns.shape)
            return product(mat, columns)

        monkeypatch.setattr(smoothness, "_product", counted)
        assert run_all(output_dir=tmp_path / "reports") == 0
        assert len(list((tmp_path / "reports").iterdir())) == 16
        assert calls == []

    def test_small_run_writes_reports(self, tmp_path):
        spec = {
            "output_dir": str(tmp_path / "reports"),
            "grid": {"rmax": 30.0, "n": 512},
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

import json
import math

import numpy as np
import pytest

from dunklsmooth.harness import (
    ConfigError,
    EXPERIMENTS,
    ExperimentConfig,
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
from dunklsmooth.quad import make_grid


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

    def test_scale_grid_values(self):
        sg = ScaleGrid(0.1, 1.0, 3)
        np.testing.assert_allclose(sg.values(), [0.1, math.sqrt(0.1), 1.0], rtol=1e-12)
        assert ScaleGrid(0.5, 0.5, 1).values().tolist() == [0.5]


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
        from dunklsmooth.weights import params_from_lambda

        lam = 0.25
        params = params_from_lambda(lam)
        # type-12 content needs the fine grid to be resolved in space
        fine = make_grid(30.0, 1024)
        f = inverse_hankel(bandlimited_spectrum(fine, lam, 12.0))
        for sigma in (12.0, 16.0):
            e_val = best_approx(f, sigma, 2, params).value
            om = modulus(f, 1.0 / sigma, 2.0, 2, params).value
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

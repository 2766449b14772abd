import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from dunklsmooth import cli, quad
from dunklsmooth.cli import _build_parser, main
from dunklsmooth.harness import ConfigError, ExperimentConfig, HarnessConfig
from dunklsmooth.quad import RadialFunction, _node_text, default_grid, make_grid, save_radial_csv
from dunklsmooth.transforms import hankel, load_spectrum_csv, save_spectrum_csv


def test_transform_command(tmp_path):
    grid = make_grid(30.0, 512)
    f = RadialFunction(grid=grid, values=np.exp(-0.5 * grid.nodes**2))
    src = tmp_path / "f.csv"
    dst = tmp_path / "fhat.csv"
    save_radial_csv(f, src, lam=0.25)
    assert main(["transform", "--input", str(src), "--lambda", "0.25", "--output", str(dst)]) == 0
    spectrum = load_spectrum_csv(dst)
    assert spectrum.lam == 0.25
    assert np.max(np.abs(spectrum.values - np.exp(-0.5 * grid.nodes**2))) < 1e-8


def test_transform_round_trip_off_the_default_rmax(tmp_path):
    grid = make_grid(12.0, 256)
    f = RadialFunction(grid=grid, values=np.exp(-0.5 * grid.nodes**2))
    src = tmp_path / "f.csv"
    dst = tmp_path / "fhat.csv"
    save_radial_csv(f, src, lam=0.5)
    assert main(["transform", "--input", str(src), "--lambda", "0.5", "--output", str(dst)]) == 0
    spectrum = load_spectrum_csv(dst)
    assert spectrum.grid == grid and spectrum.lam == 0.5
    assert spectrum.values.tobytes() == hankel(f, 0.5).values.tobytes()


def test_transform_bytes_do_not_depend_on_the_node_text_memo(tmp_path):
    # a fresh process starts with no grid's node text, while in process the
    # saved input leaves it cached: every output must be the same bytes
    grid, lam = default_grid(), 0.75
    rng = np.random.default_rng(2048)
    f = RadialFunction(grid=grid, values=rng.standard_normal(grid.n) * np.exp(-grid.nodes))
    src = tmp_path / "f.csv"
    save_radial_csv(f, src, lam=lam)
    argv = ["transform", "--input", str(src), "--lambda", repr(lam), "--output"]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH", "")])}
    fresh = tmp_path / "fresh.csv"
    proc = subprocess.run([sys.executable, "-m", "dunklsmooth.cli", *argv, str(fresh)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    outputs = [fresh.read_bytes()]
    hits = _node_text.cache_info().hits
    for j in range(2):
        warm = tmp_path / f"warm{j}.csv"
        assert main([*argv, str(warm)]) == 0
        outputs.append(warm.read_bytes())
    assert _node_text.cache_info().hits >= hits + 4  # each call's load and save
    expected = tmp_path / "expected.csv"
    save_spectrum_csv(hankel(f, lam), expected)
    assert outputs == [expected.read_bytes()] * 3


def test_transform_refuses_a_header_lambda_other_than_the_flag(tmp_path, capsys):
    grid = make_grid(30.0, 512)
    src, dst = tmp_path / "f.csv", tmp_path / "fhat.csv"
    save_radial_csv(RadialFunction(grid=grid, values=np.exp(-0.5 * grid.nodes**2)), src, lam=0.25)
    rc = main(["transform", "--input", str(src), "--lambda", "0.5", "--output", str(dst)])
    assert rc == 2
    assert "header lambda=0.25 differs from --lambda 0.5" in capsys.readouterr().err
    assert not dst.exists()


def test_transform_refuses_an_rmax_beyond_the_bessel_range(tmp_path, capsys):
    # kernel arguments reach rmax^2 = 1e4, past the Bessel accuracy contract:
    # a Gaussian came out 1.7e-3 off its closed form with exit 0
    grid = make_grid(100.0, 256)
    src, dst = tmp_path / "f.csv", tmp_path / "fhat.csv"
    save_radial_csv(RadialFunction(grid=grid, values=np.exp(-0.5 * grid.nodes**2)), src, lam=0.25)
    rc = main(["transform", "--input", str(src), "--lambda", "0.25", "--output", str(dst)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "header rmax must be in (0, 31.62]" in err and "got 100.0" in err
    assert not dst.exists()


def test_transform_refuses_a_lambda_whose_weights_overflow(tmp_path, capsys):
    # the weights hold rmax^(2 lambda + 1) = 30^221, past the largest double:
    # the spectrum came out inf at every node, with exit 0
    grid = make_grid(30.0, 64)
    src, dst = tmp_path / "f.csv", tmp_path / "fhat.csv"
    save_radial_csv(RadialFunction(grid=grid, values=np.exp(-0.5 * grid.nodes**2)), src, lam=110.0)
    rc = main(["transform", "--input", str(src), "--lambda", "110", "--output", str(dst)])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"{src}: header lambda must be <= 103.8 on a grid of rmax 30.0" in err
    assert "got 110.0" in err
    assert not dst.exists()


@pytest.mark.parametrize("bad", ["nan", "inf"])
def test_transform_refuses_a_non_finite_sample(tmp_path, capsys, bad):
    # the spectrum came out NaN at every node, with exit 0
    grid = make_grid(30.0, 64)
    src, dst = tmp_path / "f.csv", tmp_path / "fhat.csv"
    save_radial_csv(RadialFunction(grid=grid, values=np.exp(-0.5 * grid.nodes**2)), src, lam=0.25)
    lines = src.read_text().splitlines()
    lines[7] = f"{lines[7].partition(',')[0]},{bad}"
    src.write_text("\n".join(lines) + "\n")
    rc = main(["transform", "--input", str(src), "--lambda", "0.25", "--output", str(dst)])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"{src}: value {float(bad)!r} at node {grid.nodes.tolist()[5]!r} is not finite" in err
    assert not dst.exists()


@pytest.mark.parametrize("bad", ["nan", "inf", "-0.5", "121"])
def test_transform_refuses_a_lambda_flag_outside_the_bessel_range(tmp_path, capsys, bad):
    # the range is checked before the header: nan read "header lambda=0.25
    # differs from --lambda nan"
    grid = make_grid(30.0, 64)
    src, dst = tmp_path / "f.csv", tmp_path / "fhat.csv"
    save_radial_csv(RadialFunction(grid=grid, values=np.exp(-0.5 * grid.nodes**2)), src, lam=0.25)
    rc = main(["transform", "--input", str(src), "--lambda", bad, "--output", str(dst)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "lambda must lie in (-1/2, 120]" in err and f"got {float(bad)!r}" in err
    assert "differs" not in err
    assert not dst.exists()


def test_transform_refuses_a_kernel_beyond_physical_memory(tmp_path, capsys, monkeypatch):
    # an n x n kernel the machine cannot hold is refused by arithmetic, before
    # the grid is built: with the memory figure one byte short of the n = 64
    # kernel, nothing is allocated and nothing is written
    grid = make_grid(30.0, 64)
    src, dst = tmp_path / "f.csv", tmp_path / "fhat.csv"
    save_radial_csv(RadialFunction(grid=grid, values=np.exp(-0.5 * grid.nodes**2)), src, lam=0.25)
    monkeypatch.setattr(quad, "_physical_memory", lambda: 8 * 64 * 64 - 1)

    def no_grid(rmax, n):
        raise AssertionError(f"make_grid({rmax!r}, {n!r}) was called")

    monkeypatch.setattr(quad, "make_grid", no_grid)
    rc = main(["transform", "--input", str(src), "--lambda", "0.25", "--output", str(dst)])
    assert rc == 2
    assert (f"{src}: header n = 64 needs an n x n float64 kernel of 32768 bytes, more than"
            " the 32767 bytes of physical memory") in capsys.readouterr().err
    assert not dst.exists()
    # a config's grid is refused by the same arithmetic
    with pytest.raises(ConfigError, match=r"config\.grid\.n = 64 needs an n x n float64 kernel"
                                          r" of 32768 bytes, more than the 32767 bytes"):
        HarnessConfig(grid_n=64)


def test_transform_missing_input(tmp_path):
    rc = main(
        ["transform", "--input", str(tmp_path / "nope.csv"), "--lambda", "0.5",
         "--output", str(tmp_path / "out.csv")]
    )
    assert rc == 2


def test_transform_malformed_input_exits_2(tmp_path, capsys):
    src = tmp_path / "empty.csv"
    src.write_text("")
    rc = main(["transform", "--input", str(src), "--lambda", "0.5",
               "--output", str(tmp_path / "out.csv")])
    assert rc == 2
    assert "empty.csv: empty file" in capsys.readouterr().err
    assert not (tmp_path / "out.csv").exists()


def test_run_with_config(tmp_path, capsys):
    spec = {
        "output_dir": str(tmp_path / "reports"),
        "grid": {"rmax": 30.0, "n": 512},
        "experiments": [
            {
                "name": "bernstein",
                "lambda_values": [0.25],
                "p_values": [2],
                "r_values": [1.0],
                "scale": {"lo": 1.0, "hi": 4.0, "points": 2},
            }
        ],
    }
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(spec))
    assert main(["run", "--config", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert "bernstein: pass" in out
    assert (tmp_path / "reports" / "bernstein.csv").exists()


def test_run_bad_config_exit_code(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"experiments": [{"name": "unknown-exp"}]}))
    assert main(["run", "--config", str(cfg)]) == 2


def test_run_config_naming_a_grid_kind_exits_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"grid": {"kind": "gauss-legendre-composite"}}))
    assert main(["run", "--config", str(cfg)]) == 2
    assert "config.grid: unknown field 'kind'" in capsys.readouterr().err


def test_verify_command(tmp_path, capsys):
    rc = main(
        ["verify", "equivalence", "--lambda", "0.25", "--p", "2", "--r", "1.0",
         "--scale-min", "0.1", "--scale-max", "0.4", "--points", "2",
         "--output-dir", str(tmp_path / "rep")]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "verdict: pass" in out
    assert (tmp_path / "rep" / "equivalence.csv").exists()


def test_verify_uses_the_experiment_window(tmp_path, capsys):
    out = tmp_path / "rep"
    assert main(["verify", "inverse", "--output-dir", str(out)]) == 0
    header = (out / "inverse.csv").read_text().splitlines()[0]
    assert "window_lo=0.0 window_hi=1.0" in header


def test_verify_names_a_bad_p_flag(capsys, monkeypatch):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "jackson", "--p", "abc"])
    assert exc.value.code == 2
    assert "argument --p: expected a number or inf, got 'abc'" in capsys.readouterr().err
    assert _build_parser().parse_args(["verify", "jackson", "--p", "Infinity"]).p == math.inf
    # without --p, verify runs the field default of p_values
    runs = _captured_verify_runs(monkeypatch, ["verify", "jackson"])
    assert runs[0].experiments[0].p_values == ExperimentConfig(name="jackson").p_values


def _captured_verify_runs(monkeypatch, argv):
    """The HarnessConfig each ``run_config`` call of ``main(argv)`` receives;
    the run itself is skipped."""
    runs = []

    def capture(hc):
        runs.append(hc)
        raise ConfigError("run skipped")

    monkeypatch.setattr(cli, "run_config", capture)
    assert main(argv) == 2
    return runs


def test_verify_flags_default_to_the_field_table(monkeypatch):
    (hc,) = _captured_verify_runs(monkeypatch, ["verify", "bernstein"])
    (cfg,) = hc.experiments
    default = ExperimentConfig(name="bernstein")
    for field in ("lambda_values", "p_values", "m_values", "r_values"):
        assert getattr(cfg, field) == getattr(default, field)
    assert hc.output_dir == HarnessConfig(experiments=(default,)).output_dir
    (hc,) = _captured_verify_runs(monkeypatch, [
        "verify", "bernstein", "--lambda", "1", "--p", "inf", "--m", "2", "--r", "0.5",
        "--output-dir", "elsewhere",
    ])
    (cfg,) = hc.experiments
    assert (cfg.lambda_values, cfg.p_values, cfg.m_values, cfg.r_values) == (
        (1.0,), (math.inf,), (2.0,), (0.5,)
    )
    assert hc.output_dir == "elsewhere"


def test_verify_unknown_experiment(capsys):
    assert main(["verify", "does-not-exist"]) == 2


def test_verify_nonpositive_r_exits_before_any_report(tmp_path, capsys):
    out = tmp_path / "rep"
    assert main(["verify", "equivalence", "--r", "0", "--output-dir", str(out)]) == 2
    assert "r_values" in capsys.readouterr().err
    assert not out.exists()


def test_run_rejects_bad_orders_before_any_report(tmp_path, capsys):
    out = tmp_path / "reports"
    spec = {
        "output_dir": str(out),
        "experiments": [
            {"name": "bernstein", "r_values": [1.0]},
            {"name": "realization", "r_values": [-1.0]},
        ],
    }
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(spec))
    assert main(["run", "--config", str(cfg)]) == 2
    assert "realization: r_values must be positive" in capsys.readouterr().err
    assert not out.exists()


def test_run_rejects_unknown_config_field(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"experiments": [{"name": "jackson", "p_value": [1]}]}))
    assert main(["run", "--config", str(cfg), "--output-dir", str(tmp_path / "rep")]) == 2
    assert "'p_value'" in capsys.readouterr().err
    assert not (tmp_path / "rep").exists()


@pytest.mark.parametrize(
    "spec, field",
    [
        ({"experiments": [{"name": "jackson", "lambda_values": 1}]},
         "experiments[0].lambda_values"),
        ({"experiments": [{"name": "jackson", "window": [1]}]}, "experiments[0].window"),
        ({"experiments": [{"name": "jackson", "lambda_values": ["x"]}]},
         "experiments[0].lambda_values[0]"),
        ({"grid": {"rmax": 50.0, "n": 2048}}, "config.grid.rmax"),
        # a sweep that asks for nothing
        ({"experiments": [{"name": "jackson", "lambda_values": []}]}, "jackson: lambda_values"),
        ({"experiments": [{"name": "jackson", "p_values": []}]}, "jackson: p_values"),
        ({"experiments": [{"name": "jackson", "r_values": []}]}, "jackson: r_values"),
        ({"experiments": [{"name": "equivalence", "test_functions": []}]},
         "equivalence: test_functions"),
        ({"experiments": [{"name": "boas", "thetas": []}]}, "boas: thetas"),
        ({"experiments": [{"name": "inverse", "n_values": []}]}, "inverse: n_values"),
        # out-of-range values, caught before any experiment runs
        ({"experiments": [{"name": "boas", "sigma": 0}]}, "boas: sigma"),
        ({"experiments": [{"name": "bernstein", "scale": {"lo": 1.0, "hi": 1.0, "points": 1}},
                          {"name": "boas", "thetas": [0]}]}, "boas: thetas"),
        ({"experiments": [{"name": "jackson", "r_values": [-1]}]}, "jackson: r_values"),
    ],
)
def test_run_names_a_wrongly_typed_or_out_of_range_field(tmp_path, capsys, spec, field):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(spec))
    assert main(["run", "--config", str(cfg), "--output-dir", str(tmp_path / "rep")]) == 2
    assert field in capsys.readouterr().err
    assert not (tmp_path / "rep").exists()


@pytest.mark.parametrize(
    "flags, field",
    [
        (["--lambda", "150"], "bernstein: lambda_values must lie in (-1/2, 120]"),
        (["--lambda", "400"], "bernstein: lambda_values must lie in (-1/2, 120]"),
        (["--lambda", "inf"], "bernstein: lambda_values[0] must be a finite number"),
        (["--lambda", "nan"], "bernstein: lambda_values[0] must be a finite number"),
        # the weights on the default grid hold 30^(2*lambda+1)
        (["--lambda", "110"], "bernstein: lambda_values must be <= 103.8"),
        (["--scale-max", "inf"], "scale.hi must be a finite number"),
    ],
)
def test_verify_refuses_flags_outside_the_field_ranges(tmp_path, capsys, flags, field):
    out = tmp_path / "rep"
    assert main(["verify", "bernstein", *flags, "--output-dir", str(out)]) == 2
    assert field in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, field",
    [
        # Bessel arguments reach step * rmax, and rmax = 30: steps stop at 33.3
        (["verify", "equivalence", "--scale-min", "40", "--scale-max", "1000", "--points", "2"],
         "equivalence: scale.hi gives difference steps up to 1000.0, beyond 33.33"),
        (["verify", "jackson", "--scale-min", "0.001", "--scale-max", "0.002"],
         "jackson: scale.lo gives difference steps up to 1000.0, beyond 33.33"),
        (["verify", "realization", "--scale-max", "1e308"],
         "realization: scale.hi gives difference steps up to 1e+308"),
        (["run", "--config", {"experiments": [{"name": "general_entire", "sigma": 0.01,
                                               "thetas": [2.0], "scale": {"lo": 1.0, "hi": 20.0,
                                                                         "points": 2}}]}],
         "general_entire: scale.hi and thetas gives difference steps up to 40.0"),
        # a config that runs nothing
        (["run", "--config", {}], "config.experiments must name at least one experiment"),
        (["run", "--config", {"experiments": []}], "config.experiments must name at least one"),
    ],
)
def test_refusals_name_the_field_before_any_report(tmp_path, capsys, argv, field):
    if isinstance(argv[-1], dict):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(argv[-1]))
        argv = [*argv[:-1], str(cfg)]
    out = tmp_path / "rep"
    assert main([*argv, "--output-dir", str(out)]) == 2
    assert field in capsys.readouterr().err
    assert not out.exists()


def test_p1_reports_do_not_depend_on_the_blas_thread_count(tmp_path):
    # p = 1 rows go through HiGHS after one kernel product; a product whose
    # bits depend on the BLAS thread count would move them.  The p = 2
    # Jackson rows take cut-panel spectral tails, whose Bessel blocks are
    # read from the j_lam table that each process builds, summed without BLAS
    spec = {
        "grid": {"rmax": 30.0, "n": 512},
        "experiments": [
            {"name": "jackson", "p_values": [1, 2], "m_values": [2.0], "r_values": [0.0, 1.0],
             "scale": {"lo": 2.0, "hi": 16.0, "points": 4}},
            # the chain's wide products and the realization's LP fit
            {"name": "realization", "p_values": [1], "r_values": [0.5, 1.0],
             "scale": {"lo": 0.1, "hi": 0.4, "points": 2}},
        ],
    }
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(spec))
    src = str(Path(__file__).resolve().parents[1] / "src")
    reports = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        out = tmp_path / f"threads{threads}"
        proc = subprocess.run(
            [sys.executable, "-m", "dunklsmooth.cli", "run", "--config", str(cfg),
             "--output-dir", str(out)],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode in (0, 1), proc.stderr
        reports.append([(out / f"{name}.csv").read_bytes() for name in ("jackson", "realization")])
    assert reports[0] == reports[1]

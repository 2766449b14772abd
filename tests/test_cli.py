import json

import numpy as np

from dunklsmooth.cli import main
from dunklsmooth.quad import RadialFunction, make_grid, save_radial_csv
from dunklsmooth.transforms import load_spectrum_csv


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
        "grid": {"rmax": 30.0, "n": 512, "kind": "gauss-legendre-composite"},
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

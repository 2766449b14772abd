"""Command-line interface.

Subcommands:

* ``run --config cfg.json``      run every configured experiment, write one
                                 CSV + JSON summary per experiment, exit 0
                                 iff every verdict passes (2 on bad config).
* ``verify NAME --lambda ...``   run a single experiment from flags.
* ``transform --input f.csv --lambda v --output fhat.csv``
                                 Hankel-transform a sampled radial profile
                                 whose header holds the same lambda, on a
                                 grid the kernel and weights serve (2 otherwise).
"""

from __future__ import annotations

import argparse
import math
import sys
from functools import lru_cache

from .harness import (
    ConfigError,
    EXPERIMENTS,
    ExperimentConfig,
    HarnessConfig,
    ScaleGrid,
    default_config,
    load_config,
    parse_config,
    run_config,
)
from .quad import _check_rmax, _check_weights, load_radial_csv
from .special import _check_lambda
from .transforms import hankel, save_spectrum_csv

__all__ = ["main"]


def _p_flag(text: str) -> float:
    """A --p value: a number, or inf."""
    if text.lower() in ("inf", "infinity"):
        return math.inf
    try:
        return float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number or inf, got {text!r}") from None


@lru_cache(maxsize=1)
def _build_parser() -> argparse.ArgumentParser:
    # parse_args leaves the parser unchanged, so one tree serves every call
    parser = argparse.ArgumentParser(
        prog="dunklsmooth",
        description="Weighted radial transforms and smoothness-inequality certification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run all experiments from a JSON config")
    run_p.add_argument("--config", help="config path (built-in default when omitted)")
    run_p.add_argument("--output-dir", help="override the config output directory")

    ver_p = sub.add_parser("verify", help="run one experiment from flags")
    ver_p.add_argument("experiment", help=f"one of: {', '.join(sorted(EXPERIMENTS))}")
    # an absent flag takes the ExperimentConfig / HarnessConfig field default
    ver_p.add_argument("--lambda", dest="lam", type=float)
    ver_p.add_argument("--p", type=_p_flag)
    ver_p.add_argument("--m", type=float)
    ver_p.add_argument("--r", type=float)
    ver_p.add_argument("--scale-min", type=float)
    ver_p.add_argument("--scale-max", type=float)
    ver_p.add_argument("--points", type=int, default=5)
    ver_p.add_argument("--output-dir")

    tr_p = sub.add_parser("transform", help="Hankel-transform a radial CSV")
    tr_p.add_argument("--input", required=True)
    tr_p.add_argument("--lambda", dest="lam", type=float, required=True)
    tr_p.add_argument("--output", required=True)
    return parser


def _cmd_run(args) -> int:
    hc = load_config(args.config) if args.config else parse_config(default_config())
    reports = run_config(hc, output_dir=args.output_dir)
    for report in reports:
        s = report.summary()
        print(
            f"{s['experiment']}: {s['verdict']} "
            f"(rows={s['rows']}, failed={s['failed_rows']}, "
            f"ratio range [{s['min_ratio']:.4g}, {s['max_ratio']:.4g}], drift {s['drift']:.3g})"
        )
    return 0 if all(r.verdict for r in reports) else 1


def _cmd_verify(args) -> int:
    name = args.experiment
    if name not in EXPERIMENTS:
        print(f"unknown experiment {name!r}; known: {', '.join(sorted(EXPERIMENTS))}",
              file=sys.stderr)
        return 2
    scale = next(cfg.scale for cfg in parse_config(default_config()).experiments
                 if cfg.name == name)
    lo = args.scale_min if args.scale_min is not None else scale.lo
    hi = args.scale_max if args.scale_max is not None else scale.hi
    flags = {"lambda_values": args.lam, "p_values": args.p, "m_values": args.m,
             "r_values": args.r}
    cfg = ExperimentConfig(name=name, scale=ScaleGrid(lo, hi, args.points),
                           **{field: (v,) for field, v in flags.items() if v is not None})
    out = {} if args.output_dir is None else {"output_dir": args.output_dir}
    hc = HarnessConfig(experiments=(cfg,), **out)
    report = run_config(hc)[0]
    for row in report.rows:
        print(
            f"{row.check} lam={row.lam:g} p={row.p:g} m={row.m:g} r={row.r:g} "
            f"scale={row.scale:.4g}: lhs={row.lhs:.6g} rhs={row.rhs:.6g} "
            f"ratio={row.ratio:.4g} {'ok' if row.passed else 'FAIL'}"
        )
    s = report.summary()
    print(f"verdict: {s['verdict']} (drift {s['drift']:.3g}, window {s['window']})")
    return 0 if report.verdict else 1


def _cmd_transform(args) -> int:
    _check_lambda(args.lam)
    f, lam = load_radial_csv(args.input)
    if lam != args.lam:
        raise ValueError(f"{args.input}: header lambda={lam!r} differs from --lambda {args.lam!r}")
    _check_rmax(f.grid.rmax, f"{args.input}: header rmax")
    _check_weights(f.grid.rmax, lam, f"{args.input}: header lambda")
    spectrum = hankel(f, args.lam)
    save_spectrum_csv(spectrum, args.output)
    if spectrum.truncated:
        print("warning: input mass near rmax suggests truncation error", file=sys.stderr)
    print(f"wrote {args.output}")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "verify":
            return _cmd_verify(args)
        return _cmd_transform(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""Parameter-sweep experiments certifying inequalities as bounded ratios.

Each experiment measures a left-hand and right-hand side of one classical
approximation-theory inequality (Jackson, Bernstein, Nikolskii-Stechkin,
Boas, the general two-scale comparison, K-functional/modulus equivalence,
realization equivalence, inverse/Marchaud bounds) across a parameter sweep
and reports rows of (lambda, p, m, r, scale, lhs, rhs, ratio, pass).

Constants in such inequalities are existential, so a "holds" verdict means:
(a) every ratio falls inside the configured window, and (b) for equivalence
experiments, the ratio drifts by less than the configured factor across the
scale sweep.  Window and drift policy are recorded in every report header;
rows carry the exact lhs/rhs so failures are auditable.

Experiments hold no numerical rule of their own: every norm of a multiplier
image a row reads comes from ``smoothness`` (``_inverse_norms`` and the
sweeps over it), one sweep per functional and input, never a one-point call, and
the grid, lambdas and largest difference steps a config names are admitted
by the ``_check_*`` rules of ``quad`` and ``special``, which ``transform``
and the library share.

The two chain experiments share their values: equivalence computes omega,
diff and K, and a realization run after it on the same inputs takes omega
and K from it and computes only R and Rstar (``_HandOff``).
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
from dataclasses import MISSING, dataclass, field, fields, replace
from itertools import combinations
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from .operators import eta
from .quad import (
    DEFAULT_N,
    DEFAULT_RMAX,
    RadialFunction,
    RadialGrid,
    _check_kernel_size,
    _check_rmax,
    _check_step,
    _check_weights,
    _spectral_l2,
    lp_norm,
    make_grid,
)
from .smoothness import (
    _best_approxes,
    _chain_sweep,
    _diff_norms,
    _image_norms,
    _marchaud_bounds,
    _marchaud_sigmas,
    _moduli,
    inverse_bound,
)
from .special import _check_lambda
from .transforms import Spectrum, hankel, inverse_hankel, spectrum_from_values

__all__ = [
    "ConfigError",
    "ScaleGrid",
    "ExperimentConfig",
    "HarnessConfig",
    "ReportRow",
    "SmoothnessReport",
    "EXPERIMENTS",
    "PROFILES",
    "make_profile",
    "bandlimited_spectrum",
    "concentrated_spectrum",
    "default_config",
    "load_config",
    "parse_config",
    "run_config",
    "run_all",
    "write_report",
]


class ConfigError(ValueError):
    """Invalid harness configuration (message names the offending field)."""


# --------------------------------------------------------------------------
# test-function profiles
# --------------------------------------------------------------------------


def _bump(u: np.ndarray) -> np.ndarray:
    out = np.zeros_like(u)
    inside = np.abs(u) < 1.0
    out[inside] = np.exp(-1.0 / (1.0 - u[inside] ** 2))
    return out


def _profile_gaussian(grid, lam):
    return np.exp(-0.5 * grid.nodes**2)


def _profile_gaussian_t2(grid, lam):
    return grid.nodes**2 * np.exp(-0.5 * grid.nodes**2)


def _profile_gaussian_wide(grid, lam):
    return np.exp(-grid.nodes**2 / 8.0)


def _profile_gaussian_narrow(grid, lam):
    return np.exp(-2.0 * grid.nodes**2)


def _profile_rational(grid, lam):
    # Polynomial decay tuned to the weight: (1 + t^2)^-(lam + 2) stays
    # integrable against t^(2 lam + 1) with two powers to spare.
    return (1.0 + grid.nodes**2) ** -(lam + 2.0)


def _profile_bandlimited(grid, lam):
    # synthesized from a compact smooth spectrum of type 4
    return inverse_hankel(bandlimited_spectrum(grid, lam, 4.0)).values


PROFILES: dict[str, Callable] = {
    "gaussian": _profile_gaussian,
    "gaussian_t2": _profile_gaussian_t2,
    "gaussian_wide": _profile_gaussian_wide,
    "gaussian_narrow": _profile_gaussian_narrow,
    "rational": _profile_rational,
    "bandlimited": _profile_bandlimited,
}


def make_profile(name: str, grid: RadialGrid, lam: float) -> RadialFunction:
    """Materialize a named test profile on a grid at weight index lam."""
    if name not in PROFILES:
        raise ConfigError(f"unknown test function {name!r}; known: {sorted(PROFILES)}")
    return RadialFunction(grid=grid, values=PROFILES[name](grid, lam))


def bandlimited_spectrum(grid: RadialGrid, lam: float, sigma: float) -> Spectrum:
    """Unit-L2 spectrum supported in [0, sigma]: smooth cutoff eta(2r/sigma)."""
    vals = eta(2.0 * grid.nodes / sigma)
    return spectrum_from_values(grid, lam, vals / _spectral_l2(vals, grid, lam), bandlimit=sigma)


def concentrated_spectrum(grid: RadialGrid, lam: float, sigma: float) -> Spectrum:
    """Unit-L2 spectrum concentrated in the shell [0.9 sigma, sigma]."""
    u = (grid.nodes - 0.95 * sigma) / (0.05 * sigma)
    vals = _bump(u)
    return spectrum_from_values(grid, lam, vals / _spectral_l2(vals, grid, lam), bandlimit=sigma)


# --------------------------------------------------------------------------
# configuration
# --------------------------------------------------------------------------
#
# Each config field is declared once, with ``_cfg``: its JSON kind, default
# and range.  ``_read`` builds a block from JSON with that table, and every
# block's ``__post_init__`` applies it through ``_check_fields``, so a config
# built in code gets the checks a parsed one gets.  A kind is a reader
# ``(value, context) -> value`` that accepts a JSON value or the value a
# config built in code holds, and raises a ConfigError naming the context.


def _json(value) -> str:
    return json.dumps(value, default=repr)


def _number(value, context: str, integer: bool = False):
    """A finite number (integral with ``integer``); anything else, booleans
    included, is an error naming the field."""
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    # the comparison also rejects NaN and ints beyond the float range
    if not (number and abs(value) <= sys.float_info.max) or (integer and value != int(value)):
        kind = "an integer" if integer else "a finite number"
        raise ConfigError(f"{context} must be {kind}, got {_json(value)}")
    return int(value) if integer else float(value)


def _integer(value, context: str) -> int:
    return _number(value, context, integer=True)


def _p(value, context: str) -> float:
    """A finite number or inf, which JSON spells "inf" or "infinity"."""
    if isinstance(value, str):
        if value.lower() in ("inf", "infinity"):
            return math.inf
        raise ConfigError(f"{context}: cannot parse p value {value!r}")
    if value == math.inf and not isinstance(value, bool):
        return math.inf
    return _number(value, context)


def _string(value, context: str) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"{context} must be a string, got {_json(value)}")
    return value


def _list(parse, length: int | None = None):
    """The kind "list of ``parse``", of ``length`` entries when given: a JSON
    list, or a tuple in a config built in code.  Errors name the entry."""

    def read(value, context: str) -> tuple:
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"{context} must be a list, got {_json(value)}")
        if length is not None and len(value) != length:
            raise ConfigError(f"{context} must have {length} entries, got {len(value)}")
        return tuple(parse(v, f"{context}[{i}]") for i, v in enumerate(value))

    return read


def _optional(parse):
    """``parse``, or None (JSON null), which means the default."""
    return lambda value, context: None if value is None else parse(value, context)


def _block(cls):
    """The kind "config block": a JSON object read by ``_read``, or a built
    block, which checked itself."""
    return lambda value, context: value if isinstance(value, cls) else _read(cls, value, context)


_NUMBERS = _list(_number)


# a range: a rule each value (each entry, for a list) must pass, which raises a
# ConfigError naming the field it is given
_Range = Callable[[object, str], None]


def _range(ok: Callable[[object], bool], text: str) -> _Range:
    """The range of the values that pass ``ok``, described by ``text``."""

    def rule(x, name: str) -> None:
        if not ok(x):
            raise ConfigError(f"{name} must be {text}, got {x!r}")

    return rule


def _bessel_orders(lam, name: str) -> None:
    """The range of lambda, by the rule and text of ``special``."""
    try:
        _check_lambda(lam, name)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


_POSITIVE = _range(lambda x: x > 0, "positive")
_NONNEGATIVE = _range(lambda x: x >= 0, "nonnegative")


def _cfg(kind, default=MISSING, range: _Range | None = None, key: str | None = None):
    """Declare a config field: its kind, its default (none: required), its
    range, and its JSON key when that is not the field name (a dotted key is
    a field of a nested object)."""
    return field(default=default, metadata={"kind": kind, "range": range, "key": key})


def _check_fields(block, prefix: str, ranges: dict[str, _Range] | None = None) -> None:
    """Apply the field table to a built block: each value has its kind and
    lies in its range, or in the one ``ranges`` gives in its place.  Errors
    name the field, after ``prefix``."""
    for f in fields(block):
        value, meta = getattr(block, f.name), f.metadata
        name = prefix + (meta["key"] or f.name)
        meta["kind"](value, name)
        rule = (ranges or {}).get(f.name, meta["range"])
        if rule is not None:
            for x in value if isinstance(value, tuple) else (value,):
                rule(x, name)


def _check_keys(mapping, known, context: str) -> None:
    if not isinstance(mapping, dict):
        raise ConfigError(f"{context} must be a JSON object")
    unknown = sorted(set(mapping) - set(known))
    if unknown:
        raise ConfigError(
            f"{context}: unknown field {', '.join(map(repr, unknown))}; known: {sorted(known)}"
        )


def _read(cls, data, context: str):
    """A config block from its JSON object, by the field table: an absent
    field takes its default, and a present one is read by its kind.  A key no
    field declares is an error, so a misspelled field never silently runs
    with its default."""
    table = {f.metadata["key"] or f.name: f for f in fields(cls)}
    _check_keys(data, {key.partition(".")[0] for key in table}, context)
    values = {}
    for key, f in table.items():
        outer, _, leaf = key.rpartition(".")
        block = data
        if outer:
            block = data.get(outer, {})
            inner = [k.rpartition(".")[2] for k in table if k.startswith(outer + ".")]
            _check_keys(block, inner, f"{context}.{outer}")
        if leaf in block:
            values[f.name] = f.metadata["kind"](block[leaf], f"{context}.{key}")
        elif f.default is MISSING:
            raise ConfigError(f"{context}: missing required field {leaf!r}")
    return cls(**values)


@dataclass(frozen=True)
class ScaleGrid:
    """Geometric scale sweep (sigma, delta, or t depending on experiment)."""

    lo: float = _cfg(_number, range=_POSITIVE)
    hi: float = _cfg(_number)
    points: int = _cfg(_integer, range=_POSITIVE)

    def __post_init__(self) -> None:
        _check_fields(self, "scale.")
        if not self.lo <= self.hi:
            raise ConfigError(f"scale grid needs lo <= hi, got [{self.lo}, {self.hi}]")

    def values(self) -> list[float]:
        # geomspace returns lo itself as its first point, so one point is [lo]
        return np.geomspace(self.lo, self.hi, int(self.points)).tolist()


@dataclass(frozen=True)
class ExperimentConfig:
    """Sweep parameters for one experiment.  Every list must be non-empty,
    whether or not the experiment reads it: a sweep that asks for nothing is
    an error, not a pass with no rows."""

    name: str = _cfg(_string)
    lambda_values: tuple[float, ...] = _cfg(_NUMBERS, (0.25,), _bessel_orders)
    p_values: tuple[float, ...] = _cfg(_list(_p), (2.0,), _range(lambda p: p >= 1, ">= 1 or inf"))
    m_values: tuple[float, ...] = _cfg(_NUMBERS, (1.0,), _POSITIVE)
    # r = 0 is the plain norm; the chain experiments take r > 0 (see _SPECS)
    r_values: tuple[float, ...] = _cfg(_NUMBERS, (1.0,), _NONNEGATIVE)
    scale: ScaleGrid = _cfg(_block(ScaleGrid), ScaleGrid(0.05, 0.8, 5))
    test_functions: tuple[str, ...] = _cfg(
        _list(_string), ("gaussian",),
        _range(lambda fn: fn in PROFILES, f"one of {sorted(PROFILES)}"),
    )
    # None (JSON null or absent): the experiment's default
    window: tuple[float, float] | None = _cfg(_optional(_list(_number, 2)), None, _NONNEGATIVE)
    # drift is a max/min ratio, so at least 1, and the verdict needs drift < drift_max
    drift_max: float = _cfg(_number, 4.0, _range(lambda d: d > 1, "> 1"))
    sigma: float = _cfg(_number, 4.0, _POSITIVE)
    thetas: tuple[float, ...] = _cfg(_NUMBERS, (1.0, 0.5, 0.25), _POSITIVE)
    general_orders: tuple[float, float, float, float] = _cfg(
        _list(_number, 4), (1.0, 1.0, 0.0, 2.0), _NONNEGATIVE
    )
    n_values: tuple[int, ...] = _cfg(_list(_integer), (2, 4, 8, 16, 32), _POSITIVE)
    delta_values: tuple[float, ...] = _cfg(
        _NUMBERS, (0.1, 0.2, 0.4), _range(lambda d: 0 < d < 1, "in (0, 1)")
    )

    def __post_init__(self) -> None:
        if not (isinstance(self.name, str) and self.name in _SPECS):
            raise ConfigError(f"unknown experiment {self.name!r}; known: {sorted(_SPECS)}")
        if self.window is None:
            object.__setattr__(self, "window", _SPECS[self.name].window)
        _check_fields(self, f"{self.name}: ", _SPECS[self.name].ranges)
        for f in fields(self):
            if getattr(self, f.name) == ():
                raise ConfigError(f"{self.name}: {f.name} must not be empty")
        if not self.window[0] < self.window[1]:
            raise ConfigError(f"{self.name}: window must satisfy lo < hi, got {self.window}")
        for check in _SPECS[self.name].checks:
            check(self)


@dataclass(frozen=True)
class HarnessConfig:
    output_dir: str = _cfg(_string, "reports")
    grid_rmax: float = _cfg(_number, DEFAULT_RMAX, key="grid.rmax")
    grid_n: int = _cfg(_integer, DEFAULT_N, _range(lambda n: n >= 16, ">= 16"), key="grid.n")
    experiments: tuple[ExperimentConfig, ...] = _cfg(_list(_block(ExperimentConfig)), ())

    def __post_init__(self) -> None:
        _check_fields(self, "config.")
        names = [cfg.name for cfg in self.experiments]
        for name in names:
            if names.count(name) > 1:
                raise ConfigError(f"config.experiments: duplicate experiment name {name!r}")
        try:
            _check_rmax(self.grid_rmax, "config.grid.rmax")
            _check_kernel_size(int(self.grid_n), "config.grid.n")
            for cfg in self.experiments:
                for lam in cfg.lambda_values:
                    _check_weights(self.grid_rmax, lam, f"{cfg.name}: lambda_values")
                if _SPECS[cfg.name].largest_step is not None:
                    name, step = _SPECS[cfg.name].largest_step(cfg)
                    _check_step(step, self.grid_rmax, f"{cfg.name}: {name}")
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        if not self.experiments:
            raise ConfigError("config.experiments must name at least one experiment, got []")

    def grid(self) -> RadialGrid:
        return make_grid(self.grid_rmax, self.grid_n)


# --------------------------------------------------------------------------
# reports
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class ReportRow:
    check: str
    lam: float
    p: float
    m: float
    r: float
    scale: float
    lhs: float
    rhs: float
    ratio: float
    passed: bool


@dataclass
class SmoothnessReport:
    experiment: str
    window: tuple[float, float]
    drift_max: float
    rows: list[ReportRow] = field(default_factory=list)
    drift_groups: dict[tuple, list[float]] = field(default_factory=dict)
    truncation_warnings: int = 0

    def add(self, check, lam, p, m, r, scale, lhs, rhs, *, group: tuple | None = None) -> ReportRow:
        lo, hi = self.window
        if rhs == 0.0 and lhs == 0.0:
            ratio = 0.0
            passed = True
        elif rhs == 0.0:
            ratio = math.inf
            passed = False
        else:
            ratio = lhs / rhs
            passed = (ratio <= hi) and (not _SPECS[self.experiment].two_sided or ratio >= lo)
        row = ReportRow(check, lam, p, m, r, scale, lhs, rhs, ratio, passed)
        self.rows.append(row)
        if group is not None and ratio > 0 and math.isfinite(ratio):
            self.drift_groups.setdefault(group, []).append(ratio)
        return row

    @property
    def drift(self) -> float:
        worst = 1.0
        for ratios in self.drift_groups.values():
            if len(ratios) >= 2:
                worst = max(worst, max(ratios) / min(ratios))
        return worst

    @property
    def verdict(self) -> bool:
        ok = all(row.passed for row in self.rows)
        if _SPECS[self.experiment].drift_checked:
            ok = ok and self.drift < self.drift_max
        return ok

    def summary(self) -> dict:
        ratios = [r.ratio for r in self.rows if math.isfinite(r.ratio) and r.ratio > 0]
        return {
            "experiment": self.experiment,
            "min_ratio": min(ratios) if ratios else 0.0,
            "max_ratio": max(ratios) if ratios else 0.0,
            "drift": self.drift,
            "verdict": "pass" if self.verdict else "fail",
            "window": list(self.window),
            "drift_max": self.drift_max,
            "rows": len(self.rows),
            "failed_rows": sum(1 for r in self.rows if not r.passed),
            "truncation_warnings": self.truncation_warnings,
        }


def _fmt(x: float) -> str:
    if x == math.inf:
        return "inf"
    return repr(float(x))


def write_report(report: SmoothnessReport, output_dir: str | Path) -> tuple[Path, Path]:
    """Write <name>.csv (rows) and <name>.json (summary); deterministic bytes."""
    out = Path(output_dir)
    out.mkdir(parents=True, exist_ok=True)
    lo, hi = report.window
    lines = [
        f"# experiment={report.experiment} window_lo={_fmt(lo)} window_hi={_fmt(hi)}"
        f" drift_max={_fmt(report.drift_max)}",
        "experiment,lambda,p,m,r,scale,lhs,rhs,ratio,pass",
    ]
    for r in report.rows:
        lines.append(
            f"{r.check},{_fmt(r.lam)},{_fmt(r.p)},{_fmt(r.m)},{_fmt(r.r)},{_fmt(r.scale)},"
            f"{_fmt(r.lhs)},{_fmt(r.rhs)},{_fmt(r.ratio)},{'true' if r.passed else 'false'}"
        )
    csv_path = out / f"{report.experiment}.csv"
    csv_path.write_text("\n".join(lines) + "\n")
    json_path = out / f"{report.experiment}.json"
    json_path.write_text(json.dumps(report.summary(), sort_keys=True, indent=2) + "\n")
    return csv_path, json_path


# --------------------------------------------------------------------------
# experiments
# --------------------------------------------------------------------------


class _Input(NamedTuple):
    """One input of a sweep: the weight index and, for experiments that sweep
    profiles or the bandlimited input, the function with its spectrum."""

    grid: RadialGrid
    lam: float
    profile: str = ""
    f: RadialFunction | None = None
    fhat: Spectrum | None = None


def _inputs(kind: str, cfg: ExperimentConfig, grid: RadialGrid, report: SmoothnessReport):
    """The inputs of a sweep, lambda outermost: each test function with its
    transform ("profiles"; a truncation-suspect transform counts a warning),
    the bandlimited input of type cfg.sigma ("bandlimited"), or lambda alone."""
    for lam in cfg.lambda_values:
        if kind == "profiles":
            for name in cfg.test_functions:
                f = make_profile(name, grid, lam)
                fhat = hankel(f, lam)
                report.truncation_warnings += fhat.truncated
                yield _Input(grid, lam, name, f, fhat)
        elif kind == "bandlimited":
            shat = bandlimited_spectrum(grid, lam, cfg.sigma)
            yield _Input(grid, lam, "", inverse_hankel(shat), shat)
        else:
            yield _Input(grid, lam)


def _derivatives(inp: _Input, r_values) -> dict[float, Spectrum]:
    """The transform of (-Lap)^(r/2) f for each r: the round trip through
    the inverse transform of nodes^r * fhat; at r = 0 the spectrum of f."""
    out = {}
    for r in r_values:
        out[r] = inp.fhat
        if r > 0:
            dhat = spectrum_from_values(inp.grid, inp.lam, inp.fhat.values * inp.grid.nodes**r)
            out[r] = hankel(inverse_hankel(dhat), inp.lam)
    return out


def _jackson_rows(report, cfg, inp):
    """E_sigma(f) against sigma^-r * modulus of the r-th derivative at 1/sigma.

    Every E_sigma comes from one ``_best_approxes`` sweep over the p values,
    and each r takes every modulus from one ``_moduli`` sweep over the
    deltas 1/sigma."""
    sigmas = cfg.scale.values()
    deltas = [1.0 / sigma for sigma in sigmas]
    moduli = {r: _moduli(dfhat, deltas, cfg.m_values, cfg.p_values)
              for r, dfhat in _derivatives(inp, cfg.r_values).items()}
    approxes = _best_approxes(inp.f, inp.fhat, sigmas, cfg.p_values, inp.lam)
    for p in cfg.p_values:
        for m in cfg.m_values:
            for r in cfg.r_values:
                for sigma, delta in zip(sigmas, deltas):
                    om = moduli[r][delta, p, m].value
                    report.add("jackson", inp.lam, p, m, r, sigma, approxes[p][sigma].value,
                               sigma ** (-r) * om)


class _HandOff:
    """The chain values one chain experiment hands to the next.

    ``held`` maps each input of the previous chain experiment, keyed by
    ``_chain_key``, to the values that experiment computed itself, in the
    layout ``_chain_sweep`` returns, ``{name: {(t, p, r): float}}``.
    ``made`` gathers the running experiment's own values, and ``_sweep``
    makes it the next ``held``.  A value taken from ``held`` is not handed
    on again, so each computed value serves at most one later experiment,
    and the hand-off holds at most one experiment's inputs.  It is not a
    cache, on purpose: a cache would let a repeated experiment, or a
    benchmark's next warm pass, read its own earlier results, a gain no
    fresh run sees.  Here a repeated equivalence-realization pair computes
    what the first pair computed.
    """

    def __init__(self) -> None:
        self.held: dict[tuple, dict[str, dict[tuple, float]]] = {}
        self.made: dict[tuple, dict[str, dict[tuple, float]]] = {}

    def clear(self) -> None:
        self.held, self.made = {}, {}


_HANDOFF = _HandOff()


def _digest(values: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(values).tobytes()).hexdigest()


def _chain_key(inp: _Input, scales: list[float], cfg: ExperimentConfig) -> tuple:
    """What a chain value depends on, as digests and floats: lambda, the
    grid's content key, the bits of f and of its spectrum, and the scales, r
    and p swept."""
    return (inp.lam, inp.grid.key, _digest(inp.f.values), _digest(inp.fhat.values),
            tuple(scales), cfg.r_values, cfg.p_values)


def _chain_rows(pairs):
    """Rows of one profile's chain sweep in p, r, scale order: one row per
    (a, b) pair of functionals, grouped for the drift check.

    The chain takes from the hand-off (``_HandOff``) the functionals the
    pairs name that the previous chain experiment computed for the same
    input (``_chain_key``: equal bits of f and its spectrum, the same
    lambda, grid, scales, r and p), and computes only the others, which it
    leaves in the hand-off for the next one.  Each value equals the one a
    fresh ``_chain_sweep`` gives: those of realization's candidate family
    sit in a product of their own columns, and a gemm column does not
    depend on the columns beside it.
    """
    names = {name for pair in pairs for name in pair}

    def rows(report, cfg, inp):
        scales = cfg.scale.values()
        key = _chain_key(inp, scales, cfg)
        given = {name: v for name, v in _HANDOFF.held.get(key, {}).items() if name in names}
        made = _chain_sweep(inp.f, scales, cfg.r_values, cfg.p_values, inp.lam,
                            names - set(given), fhat=inp.fhat)
        _HANDOFF.made[key] = made
        values = {**made, **given}
        for p in cfg.p_values:
            for r in cfg.r_values:
                for t in scales:
                    for a, b in pairs:
                        report.add(f"{cfg.name}:{a}/{b}", inp.lam, p, r, r, t,
                                   values[a][t, p, r], values[b][t, p, r],
                                   group=(inp.lam, p, r, inp.profile, f"{a}/{b}"))

    return rows


def _bernstein_rows(report, cfg, inp):
    """Derivative norms of bandlimited inputs against sigma^r times their norm.

    Both sides are ``_image_norms`` of one symbol column, nodes^r and 1,
    and each spectrum takes the columns of every r and 1 at every p in one
    call: one product per spectrum off p = 2.  At p = 2 the ratio admits
    the exact constant 1 (checked to 1e-8); a shell-concentrated spectrum
    witnesses sharpness from below at r = 1.
    """
    grid, lam, scales = inp.grid, inp.lam, cfg.scale.values()

    def sides(shat, r_values, p_values):
        """{p: ([||nodes^r shat|| for each r], ||shat||)}"""
        syms = np.stack([grid.nodes**r for r in r_values] + [np.ones_like(grid.nodes)], axis=1)
        return {p: (norms[:-1].tolist(), float(norms[-1]))
                for p, norms in _image_norms(shat, syms, p_values).items()}

    norms = {sigma: sides(bandlimited_spectrum(grid, lam, sigma), cfg.r_values, cfg.p_values)
             for sigma in scales}
    rows = [("bernstein", p, r, sigma, norms[sigma][p][0][i], norms[sigma][p][1], 0.0)
            for p in cfg.p_values for i, r in enumerate(cfg.r_values) for sigma in scales]
    # sharpness witness at p = 2, r = 1
    for sigma in scales:
        (lhs,), norm = sides(concentrated_spectrum(grid, lam, sigma), (1.0,), (2.0,))[2.0]
        rows.append(("bernstein:sharpness", 2.0, 1.0, sigma, lhs, norm, 0.8))
    for check, p, r, sigma, lhs, norm, lo in rows:
        rhs = sigma**r * norm
        if p == 2:
            ratio = lhs / rhs
            report.rows.append(ReportRow(check, lam, p, 0.0, r, sigma, lhs, rhs, ratio,
                                         lo <= ratio <= 1.0 + 1e-8))
        else:
            report.add(check, lam, p, 0.0, r, sigma, lhs, rhs)


def _nikolskii_rows(report, cfg, inp):
    """t^m-scaled difference norms control the m-th derivative norm; every
    norm comes from one ``_diff_norms`` sweep."""
    scales = cfg.scale.values()
    points = [(0.0, 0.0, m) for m in cfg.m_values]
    points += [(t, m, 0.0) for m in cfg.m_values for t in scales]
    norms = _diff_norms(inp.fhat, points, cfg.p_values)
    for p in cfg.p_values:
        for m in cfg.m_values:
            for t in scales:
                report.add("nikolskii-stechkin", inp.lam, p, m, m, t,
                           norms[0.0, 0.0, m, p] * t**m, norms[t, m, 0.0, p])


def _two_scale_rows(check, orders):
    """Rows of the general two-scale comparison of the bandlimited input, for
    each p and each (r1, m1, r2, m2) in ``orders(cfg)``.

    Every norm comes from one ``_diff_norms`` sweep over the distinct
    points (step, m, r): the right-hand norm does not depend on theta, and
    at theta = 1 with equal orders the left-hand norm is the same one.
    """

    def rows(report, cfg, inp):
        sigma, scales = cfg.sigma, cfg.scale.values()
        points = {(s, m, r) for r1, m1, r2, m2 in orders(cfg) for t in scales
                  for s, m, r in [(theta * t, m1, r1) for theta in cfg.thetas] + [(t, m2, r2)]}
        norms = _diff_norms(inp.fhat, points, cfg.p_values)
        for p in cfg.p_values:
            for r1, m1, r2, m2 in orders(cfg):
                rho = r1 + m1 - r2 - m2
                for t in scales:
                    for theta in cfg.thetas:
                        delta = theta * t
                        lhs = norms[delta, m1, r1, p]
                        if m1 > 0:
                            lhs = delta ** (-m1) * lhs
                        rhs = sigma**rho * t ** (-m2) * norms[t, m2, r2, p]
                        report.add(f"{check}:theta={theta!r}", inp.lam, p, m1 if m1 > 0 else m2,
                                   r1, t, lhs, rhs)

    return rows


def _inverse_rows(report, cfg, inp):
    """Inverse-direction bounds: cumulative sums, Marchaud, derivative variant.

    One ``_best_approxes`` sweep over the p values takes the E_j table's
    types j = 1..max(n_values) and Marchaud's ladder types 1/t, so a type
    both share is approximated once.  f and each derivative take one
    ``_moduli`` sweep over the deltas 1/n, and Marchaud's left-hand K one
    ``_chain_sweep`` over the deltas."""
    f, fhat, lam = inp.f, inp.fhat, inp.lam
    tail_cutoff = 1e-10
    j_cap = 64
    n_max = max(cfg.n_values)
    deltas = {n: 1.0 / n for n in cfg.n_values}
    # f itself is the r = 0 entry
    moduli = {r: _moduli(dfhat, list(deltas.values()), cfg.m_values, cfg.p_values)
              for r, dfhat in _derivatives(inp, (0.0, *cfg.r_values)).items()}
    sigmas = [float(j) for j in range(1, n_max + 1)] + _marchaud_sigmas(cfg.delta_values)
    approxes = _best_approxes(f, fhat, sigmas, cfg.p_values, lam)
    k_upper = _chain_sweep(f, cfg.delta_values, cfg.m_values, cfg.p_values, lam, ("K",), fhat)["K"]
    for p in cfg.p_values:
        # E_0 is the norm of f, by Plancherel at p = 2
        table = {0: _spectral_l2(fhat.values, fhat.grid, lam) if p == 2 else lp_norm(f, p, lam)}
        table.update((j, approxes[p][float(j)].value) for j in range(1, n_max + 1))
        # the derivative rows extend the table until E_j decays below the cutoff
        j_hi = n_max
        while max(cfg.r_values) > 0 and j_hi < j_cap and table[j_hi] > tail_cutoff:
            j_hi += 1
            table[j_hi] = _best_approxes(f, fhat, (float(j_hi),), (p,), lam)[p][float(j_hi)].value
        marchaud = _marchaud_bounds(f, cfg.delta_values, cfg.m_values, p, lam, approxes[p])
        for m in cfg.m_values:
            for n in cfg.n_values:
                lhs = moduli[0.0][deltas[n], p, m].value
                report.add("inverse", lam, p, m, 0.0, float(n), lhs, inverse_bound(table, n, m))
            for delta in cfg.delta_values:
                report.add("marchaud", lam, p, m, 0.0, delta, k_upper[delta, p, m],
                           marchaud[delta, m])
            for r in cfg.r_values:
                if r <= 0:
                    continue
                for n in cfg.n_values:
                    lhs = moduli[r][deltas[n], p, m].value
                    head = sum((j + 1.0) ** (m + r - 1.0) * table[j] for j in range(n + 1))
                    tail = sum(float(j) ** (r - 1.0) * table[j] for j in range(n + 1, j_hi + 1))
                    rhs = n ** (-r) * head + tail
                    report.add("inverse-derivative", lam, p, m, r, float(n), lhs, rhs)


def _steps_below_half_bandwidth(cfg: ExperimentConfig) -> None:
    """Two-scale comparisons of the type-sigma input need steps t <= 1/(2 sigma)."""
    if cfg.scale.hi > 1.0 / (2.0 * cfg.sigma) + 1e-12:
        raise ConfigError(
            f"{cfg.name}: scale.hi={cfg.scale.hi} violates t <= 1/(2*sigma) for sigma={cfg.sigma}"
        )


def _nonnegative_order_gap(cfg: ExperimentConfig) -> None:
    r1, m1, r2, m2 = cfg.general_orders
    if r1 + m1 - r2 - m2 < 0:
        raise ConfigError(
            f"{cfg.name}: requires r1 + m1 - r2 - m2 >= 0, got {r1 + m1 - r2 - m2}"
        )


@dataclass(frozen=True)
class _Spec:
    """One experiment: the inputs it sweeps ("profiles", "bandlimited" or
    "lambda", see ``_inputs``), the rows it adds for one input, its default
    window, whether the window is two-sided and the drift checked, the
    hypotheses its config must meet beyond the field table (``ranges`` in
    place of a field's range, and ``checks`` across fields), whether it is a
    chain experiment, which reads and refills the hand-off, and the field
    setting its largest difference step and that step, which the grid must
    keep in the Bessel range (``quad._check_step``)."""

    inputs: str
    rows: Callable[[SmoothnessReport, ExperimentConfig, _Input], None]
    window: tuple[float, float]
    two_sided: bool = False
    drift_checked: bool = False
    ranges: dict[str, _Range] = field(default_factory=dict)
    checks: tuple[Callable[[ExperimentConfig], None], ...] = ()
    chained: bool = False
    largest_step: Callable[[ExperimentConfig], tuple[str, float]] | None = None


# the chain experiments take r as a smoothness order
_SMOOTHNESS_ORDERS = {"r_values": _POSITIVE}


# the field setting an experiment's largest difference step, and that step;
# inverse steps at most 1, which every admitted grid keeps in range
def _scale_hi(cfg):
    return "scale.hi", cfg.scale.hi


def _two_scale_hi(cfg):
    return "scale.hi and thetas", max(1.0, *cfg.thetas) * cfg.scale.hi


_SPECS: dict[str, _Spec] = {
    "jackson": _Spec("profiles", _jackson_rows, (0.0, 20.0),
                     largest_step=lambda cfg: ("scale.lo", 1.0 / cfg.scale.lo)),
    "equivalence": _Spec(
        "profiles", _chain_rows((("K", "omega"), ("omega", "diff"), ("K", "diff"))),
        (0.05, 20.0), two_sided=True, drift_checked=True, ranges=_SMOOTHNESS_ORDERS, chained=True,
        largest_step=_scale_hi,
    ),
    "realization": _Spec(
        "profiles",
        _chain_rows(list(combinations(("R", "Rstar", "K", "omega"), 2))),
        (0.05, 20.0), two_sided=True, drift_checked=True, ranges=_SMOOTHNESS_ORDERS, chained=True,
        largest_step=_scale_hi,
    ),
    "bernstein": _Spec("lambda", _bernstein_rows, (0.0, 20.0)),
    "nikolskii_stechkin": _Spec(
        "bandlimited", _nikolskii_rows, (0.0, 20.0), checks=(_steps_below_half_bandwidth,),
        largest_step=_scale_hi,
    ),
    "boas": _Spec(
        "bandlimited",
        _two_scale_rows("boas", lambda cfg: [(0.0, m, 0.0, m) for m in cfg.m_values]),
        (0.05, 20.0), two_sided=True, checks=(_steps_below_half_bandwidth,),
        largest_step=_two_scale_hi,
    ),
    "general_entire": _Spec(
        "bandlimited", _two_scale_rows("general", lambda cfg: [cfg.general_orders]), (0.0, 20.0),
        checks=(_steps_below_half_bandwidth, _nonnegative_order_gap), largest_step=_two_scale_hi,
    ),
    "inverse": _Spec("profiles", _inverse_rows, (0.0, 1.0)),
}


def _sweep(cfg: ExperimentConfig, grid: RadialGrid) -> SmoothnessReport:
    """The report of one experiment: its rows for every input it sweeps.

    A chain experiment holds what the previous chain experiment computed
    while it runs, and leaves only what it computed itself (``_HandOff``).
    """
    spec = _SPECS[cfg.name]
    report = SmoothnessReport(experiment=cfg.name, window=cfg.window, drift_max=cfg.drift_max)
    if spec.chained:
        _HANDOFF.held, _HANDOFF.made = _HANDOFF.made, {}
    for inp in _inputs(spec.inputs, cfg, grid, report):
        spec.rows(report, cfg, inp)
    if spec.chained:
        _HANDOFF.held = {}
    return report


def _general_entire(cfg: ExperimentConfig, grid: RadialGrid) -> SmoothnessReport:
    """General two-scale inequality subsuming the dedicated special cases.

    When the configured orders reduce to the dedicated derivative-vs-
    difference or two-step comparisons, the report also cross-checks the
    general rows against the dedicated experiment's row for row, demanding
    agreement at 1e-12 relative.
    """
    report = _sweep(cfg, grid)
    r1, m1, r2, m2 = cfg.general_orders
    if m1 == 0.0 and r2 == 0.0 and m2 > 0.0 and r1 == m2:
        # derivative-norm specialization, aligned with it at theta = 1
        tag, m, thetas = "nikolskii_stechkin", m2, (1.0,)
    elif r1 == 0.0 and r2 == 0.0 and m1 == m2 and m1 > 0.0:
        tag, m, thetas = "boas", m1, cfg.thetas
    else:
        return report
    if thetas == cfg.thetas:
        general = list(report.rows)
    else:
        general = _sweep(replace(cfg, thetas=thetas), grid).rows
    dedicated = _sweep(replace(cfg, name=tag, m_values=(m,)), grid).rows
    for g, d in zip(general, dedicated):
        ok = abs(g.ratio - d.ratio) <= 1e-12 * max(1.0, abs(d.ratio))
        report.rows.append(
            ReportRow(f"general:consistency:{tag}", g.lam, g.p, g.m, g.r, g.scale,
                      g.ratio, d.ratio, g.ratio / d.ratio if d.ratio else math.inf, ok)
        )
    return report


EXPERIMENTS: dict[str, Callable[[ExperimentConfig, RadialGrid], SmoothnessReport]] = {
    name: _general_entire if name == "general_entire" else _sweep for name in _SPECS
}


# --------------------------------------------------------------------------
# config parsing and the runner
# --------------------------------------------------------------------------


def default_config() -> dict:
    """The built-in sweep exercised by `run` when no config file is given;
    a field it leaves out takes its default."""
    return {
        "experiments": [
            {
                "name": "jackson",
                "m_values": [2.0],
                "r_values": [0.0, 1.0],
                "scale": {"lo": 2.0, "hi": 16.0, "points": 4},
            },
            {"name": "equivalence", "lambda_values": [0.25, 1.0]},
            {"name": "realization"},
            {
                "name": "bernstein",
                "lambda_values": [0.25, 1.0],
                "r_values": [1.0, 2.0],
                "scale": {"lo": 1.0, "hi": 8.0, "points": 4},
            },
            {
                "name": "nikolskii_stechkin",
                "m_values": [1.0, 2.0],
                "scale": {"lo": 0.01, "hi": 0.125, "points": 4},
            },
            {"name": "boas", "scale": {"lo": 0.01, "hi": 0.125, "points": 4}},
            {"name": "general_entire", "scale": {"lo": 0.01, "hi": 0.125, "points": 4}},
            {"name": "inverse", "m_values": [2.0]},
        ],
    }


def parse_config(data: dict) -> HarnessConfig:
    """Build a validated HarnessConfig from a JSON-shaped dict."""
    return _read(HarnessConfig, data, "config")


def load_config(path: str | Path) -> HarnessConfig:
    """Parse a JSON config file; JSON syntax errors carry line/column info."""
    try:
        data = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: line {exc.lineno} column {exc.colno}: {exc.msg}") from exc
    return parse_config(data)


def run_config(hc: HarnessConfig, output_dir: str | Path | None = None) -> list[SmoothnessReport]:
    """Execute every configured experiment and write its CSV/JSON pair."""
    grid = hc.grid()
    out = Path(output_dir) if output_dir is not None else Path(hc.output_dir)
    reports = []
    for cfg in hc.experiments:
        report = EXPERIMENTS[cfg.name](cfg, grid)
        write_report(report, out)
        reports.append(report)
    return reports


def run_all(config_path: str | Path | None = None, output_dir: str | Path | None = None) -> int:
    """Run a config file (or the built-in default); 0 iff every verdict passes."""
    hc = load_config(config_path) if config_path is not None else parse_config(default_config())
    reports = run_config(hc, output_dir=output_dir)
    return 0 if all(r.verdict for r in reports) else 1

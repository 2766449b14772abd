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
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable

import numpy as np

from .operators import eta
from .quad import GRID_KINDS, RadialFunction, RadialGrid, lp_norm, make_grid, nu_weights
from .smoothness import (
    best_approx,
    diff_norm,
    inverse_bound,
    k_functional_upper,
    marchaud_bound,
    modulus,
    realization,
    realization_candidate_min,
)
from .transforms import Spectrum, hankel, inverse_hankel, spectral_tail_l2, spectrum_from_values
from .weights import params_from_lambda

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
    return RadialFunction(grid=grid, values=PROFILES[name](grid, lam), label=name)


def bandlimited_spectrum(grid: RadialGrid, lam: float, sigma: float) -> Spectrum:
    """Unit-L2 spectrum supported in [0, sigma]: smooth cutoff eta(2r/sigma)."""
    vals = eta(2.0 * grid.nodes / sigma)
    norm = math.sqrt(float(np.sum(nu_weights(grid, lam) * vals**2)))
    return spectrum_from_values(grid, lam, vals / norm, bandlimit=sigma)


def concentrated_spectrum(grid: RadialGrid, lam: float, sigma: float) -> Spectrum:
    """Unit-L2 spectrum concentrated in the shell [0.9 sigma, sigma]."""
    u = (grid.nodes - 0.95 * sigma) / (0.05 * sigma)
    vals = _bump(u)
    norm = math.sqrt(float(np.sum(nu_weights(grid, lam) * vals**2)))
    return spectrum_from_values(grid, lam, vals / norm, bandlimit=sigma)


# --------------------------------------------------------------------------
# configuration
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class ScaleGrid:
    """Geometric scale sweep (sigma, delta, or t depending on experiment)."""

    lo: float
    hi: float
    points: int

    def __post_init__(self) -> None:
        if not (0 < self.lo <= self.hi):
            raise ConfigError(f"scale grid needs 0 < lo <= hi, got [{self.lo}, {self.hi}]")
        if self.points < 1:
            raise ConfigError("scale grid needs at least one point")

    def values(self) -> np.ndarray:
        if self.points == 1:
            return np.array([self.lo])
        return np.geomspace(self.lo, self.hi, self.points)


DEFAULT_WINDOWS = {
    "jackson": (0.0, 20.0),
    "equivalence": (0.05, 20.0),
    "bernstein": (0.0, 20.0),
    "nikolskii_stechkin": (0.0, 20.0),
    "boas": (0.05, 20.0),
    "general_entire": (0.0, 20.0),
    "realization": (0.05, 20.0),
    "inverse": (0.0, 1.0),
}

_TWO_SIDED = {"equivalence", "boas", "realization"}
_DRIFT_CHECKED = {"equivalence", "realization"}


@dataclass(frozen=True)
class ExperimentConfig:
    """Sweep parameters for one experiment."""

    name: str
    lambda_values: tuple[float, ...] = (0.25,)
    p_values: tuple[float, ...] = (2.0,)
    m_values: tuple[float, ...] = (1.0,)
    r_values: tuple[float, ...] = (1.0,)
    scale: ScaleGrid = ScaleGrid(0.05, 0.8, 5)
    test_functions: tuple[str, ...] = ("gaussian",)
    window: tuple[float, float] | None = None  # None: DEFAULT_WINDOWS[name]
    drift_max: float = 4.0
    sigma: float = 4.0
    thetas: tuple[float, ...] = (1.0, 0.5, 0.25)
    general_orders: tuple[float, float, float, float] = (1.0, 1.0, 0.0, 2.0)
    n_values: tuple[int, ...] = (2, 4, 8, 16, 32)
    delta_values: tuple[float, ...] = (0.1, 0.2, 0.4)

    def __post_init__(self) -> None:
        if self.window is None:
            object.__setattr__(self, "window", DEFAULT_WINDOWS.get(self.name))
        self.validate()

    def validate(self) -> None:
        if self.name not in EXPERIMENTS:
            raise ConfigError(f"unknown experiment {self.name!r}; known: {sorted(EXPERIMENTS)}")
        for lam in self.lambda_values:
            if lam <= -0.5:
                raise ConfigError(f"{self.name}: lambda must exceed -1/2, got {lam}")
        for p in self.p_values:
            if not (p == math.inf or p >= 1):
                raise ConfigError(f"{self.name}: p_values must be >= 1 or inf, got {p}")
        for m in self.m_values:
            if not (m > 0):
                raise ConfigError(f"{self.name}: m_values must be positive, got {m}")
        if self.name in ("equivalence", "realization"):
            for r in self.r_values:
                if not (r > 0):
                    raise ConfigError(f"{self.name}: r_values must be positive, got {r}")
        lo, hi = self.window
        if not (0 <= lo < hi):
            raise ConfigError(f"{self.name}: window must satisfy 0 <= lo < hi")
        for fn in self.test_functions:
            if fn not in PROFILES:
                raise ConfigError(f"{self.name}: unknown test function {fn!r}")
        if self.name in ("nikolskii_stechkin", "boas", "general_entire"):
            # two-scale comparisons require steps below half the bandwidth
            if self.scale.hi > 1.0 / (2.0 * self.sigma) + 1e-12:
                raise ConfigError(
                    f"{self.name}: scale.hi={self.scale.hi} violates t <= 1/(2*sigma)"
                    f" for sigma={self.sigma}"
                )
        if self.name == "general_entire":
            r1, m1, r2, m2 = self.general_orders
            if min(r1, m1, r2, m2) < 0:
                raise ConfigError("general_entire: orders must be nonnegative")
            if r1 + m1 - r2 - m2 < 0:
                raise ConfigError(
                    "general_entire: requires r1 + m1 - r2 - m2 >= 0, got "
                    f"{r1 + m1 - r2 - m2}"
                )
        if self.name == "inverse":
            for n in self.n_values:
                if int(n) != n or n < 1:
                    raise ConfigError(f"inverse: n values must be positive integers, got {n}")
            for d in self.delta_values:
                if not (0 < d < 1):
                    raise ConfigError(f"inverse: delta values must lie in (0,1), got {d}")


@dataclass(frozen=True)
class HarnessConfig:
    output_dir: str = "reports"
    grid_rmax: float = 30.0
    grid_n: int = 2048
    grid_kind: str = "gauss-legendre-composite"
    experiments: tuple[ExperimentConfig, ...] = ()

    def grid(self) -> RadialGrid:
        return make_grid(self.grid_rmax, self.grid_n, self.grid_kind)


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

    def add(self, check, lam, p, m, r, scale, lhs, rhs, *, two_sided: bool | None = None,
            group: tuple | None = None) -> ReportRow:
        lo, hi = self.window
        if rhs == 0.0 and lhs == 0.0:
            ratio = 0.0
            passed = True
        elif rhs == 0.0:
            ratio = math.inf
            passed = False
        else:
            ratio = lhs / rhs
            if two_sided is None:
                two_sided = self.experiment in _TWO_SIDED
            passed = (ratio <= hi) and (not two_sided or ratio >= lo)
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
        if self.experiment in _DRIFT_CHECKED:
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


def _new_report(cfg: ExperimentConfig) -> SmoothnessReport:
    return SmoothnessReport(experiment=cfg.name, window=cfg.window, drift_max=cfg.drift_max)


def _profile_with_spectrum(grid, lam, name, report):
    f = make_profile(name, grid, lam)
    fhat = hankel(f, lam)
    if fhat.truncated:
        report.truncation_warnings += 1
    return f, fhat


def verify_jackson(cfg: ExperimentConfig, grid: RadialGrid) -> SmoothnessReport:
    """E_sigma(f) against sigma^-r * modulus of the r-th derivative at 1/sigma."""
    report = _new_report(cfg)
    for lam in cfg.lambda_values:
        params = params_from_lambda(lam)
        for fname in cfg.test_functions:
            f, fhat = _profile_with_spectrum(grid, lam, fname, report)
            for p in cfg.p_values:
                for m in cfg.m_values:
                    for r in cfg.r_values:
                        if r > 0:
                            df = inverse_hankel(
                                spectrum_from_values(grid, lam, fhat.values * grid.nodes**r)
                            )
                        else:
                            df = f
                        for sigma in cfg.scale.values():
                            lhs = best_approx(f, sigma, p, params).value
                            om = modulus(df, 1.0 / sigma, m, p, params).value
                            rhs = sigma ** (-r) * om
                            report.add("jackson", lam, p, m, r, sigma, lhs, rhs)
    return report


def verify_equivalence(cfg: ExperimentConfig, grid: RadialGrid) -> SmoothnessReport:
    """Three-way chain: K-upper, modulus, and single-difference norm at order r."""
    report = _new_report(cfg)
    scales = cfg.scale.values()
    for lam in cfg.lambda_values:
        params = params_from_lambda(lam)
        for fname in cfg.test_functions:
            f, fhat = _profile_with_spectrum(grid, lam, fname, report)
            # p innermost, so each p-independent inverse batch is computed
            # once and reused; the rows are emitted in p, r, scale order
            values = {}
            for delta in scales:
                for r in cfg.r_values:
                    for p in cfg.p_values:
                        values[p, r, delta] = (
                            modulus(f, delta, r, p, params, fhat=fhat).value,
                            diff_norm(f, delta, r, p, params, fhat=fhat),
                            k_functional_upper(f, delta, r, p, params, fhat=fhat),
                        )
            for p in cfg.p_values:
                for r in cfg.r_values:
                    for delta in scales:
                        om, dn, ku = values[p, r, delta]
                        base = (lam, p, r, fname)
                        report.add("equivalence:K/omega", lam, p, r, r, delta, ku, om,
                                   group=base + ("K/omega",))
                        report.add("equivalence:omega/diff", lam, p, r, r, delta, om, dn,
                                   group=base + ("omega/diff",))
                        report.add("equivalence:K/diff", lam, p, r, r, delta, ku, dn,
                                   group=base + ("K/diff",))
    return report


def verify_realization(cfg: ExperimentConfig, grid: RadialGrid) -> SmoothnessReport:
    """Four-way chain: candidate-grid R, near-best R*, K-upper, and modulus."""
    report = _new_report(cfg)
    scales = cfg.scale.values()
    for lam in cfg.lambda_values:
        params = params_from_lambda(lam)
        for fname in cfg.test_functions:
            f, fhat = _profile_with_spectrum(grid, lam, fname, report)
            # the type-1/t approximant depends on neither r nor the caller
            approxes = {
                (p, t): best_approx(f, 1.0 / t, p, params, fhat=fhat)
                for p in cfg.p_values
                for t in scales
            }
            # p innermost, as in verify_equivalence
            quartets = {}
            for t in scales:
                for r in cfg.r_values:
                    for p in cfg.p_values:
                        ba = approxes[p, t]
                        quartets[p, r, t] = {
                            "R": realization_candidate_min(
                                f, t, r, p, params, fhat=fhat, approx=ba
                            ),
                            "Rstar": realization(f, t, r, p, params, approx=ba).value,
                            "K": k_functional_upper(f, t, r, p, params, fhat=fhat),
                            "omega": modulus(f, t, r, p, params, fhat=fhat).value,
                        }
            for p in cfg.p_values:
                for r in cfg.r_values:
                    for t in scales:
                        quartet = quartets[p, r, t]
                        base = (lam, p, r, fname)
                        names = list(quartet)
                        for i, a in enumerate(names):
                            for b in names[i + 1 :]:
                                report.add(
                                    f"realization:{a}/{b}", lam, p, r, r, t,
                                    quartet[a], quartet[b],
                                    group=base + (f"{a}/{b}",),
                                )
    return report


def verify_bernstein(cfg: ExperimentConfig, grid: RadialGrid) -> SmoothnessReport:
    """Derivative norms of bandlimited inputs against sigma^r times their norm.

    At p = 2 the ratio admits the exact constant 1 (checked to 1e-8); a
    shell-concentrated spectrum witnesses sharpness from below at r = 1.
    """
    report = _new_report(cfg)
    nodes = grid.nodes
    for lam in cfg.lambda_values:
        params = params_from_lambda(lam)
        w = nu_weights(grid, lam)
        for p in cfg.p_values:
            for r in cfg.r_values:
                for sigma in cfg.scale.values():
                    shat = bandlimited_spectrum(grid, lam, sigma)
                    if p == 2:
                        # spectral closed form; the exact constant is 1 here
                        num = math.sqrt(float(np.sum(w * (nodes**r * shat.values) ** 2)))
                        den = sigma**r * math.sqrt(float(np.sum(w * shat.values**2)))
                        ratio = num / den
                        report.rows.append(
                            ReportRow("bernstein", lam, p, 0.0, r, sigma, num, den, ratio,
                                      ratio <= 1.0 + 1e-8)
                        )
                    else:
                        fphys = inverse_hankel(shat)
                        dphys = inverse_hankel(
                            spectrum_from_values(grid, lam, shat.values * nodes**r)
                        )
                        lhs = lp_norm(dphys, p, lam)
                        rhs = sigma**r * lp_norm(fphys, p, lam)
                        report.add("bernstein", lam, p, 0.0, r, sigma, lhs, rhs)
        # sharpness witness at p = 2, r = 1
        for sigma in cfg.scale.values():
            shat = concentrated_spectrum(grid, lam, sigma)
            w = nu_weights(grid, lam)
            num = math.sqrt(float(np.sum(w * (nodes * shat.values) ** 2)))
            den = sigma * math.sqrt(float(np.sum(w * shat.values**2)))
            ratio = num / den
            report.rows.append(
                ReportRow("bernstein:sharpness", lam, 2.0, 0.0, 1.0, sigma, num, den,
                          ratio, 0.8 <= ratio <= 1.0 + 1e-8)
            )
    return report


def _two_scale_rows(report, cfg, grid, lam, params, p, check, r1, m1, r2, m2):
    """Rows of the general two-scale comparison for bandlimited input."""
    sigma = cfg.sigma
    shat = bandlimited_spectrum(grid, lam, sigma)
    f = inverse_hankel(shat)
    rho = r1 + m1 - r2 - m2
    for t in cfg.scale.values():
        for theta in cfg.thetas:
            delta = theta * t
            lhs = delta ** (-m1) * diff_norm(f, delta, m1, p, params, r=r1, fhat=shat) \
                if m1 > 0 else diff_norm(f, 0.0, 0.0, p, params, r=r1, fhat=shat)
            rhs_norm = diff_norm(f, t, m2, p, params, r=r2, fhat=shat) \
                if m2 > 0 else diff_norm(f, 0.0, 0.0, p, params, r=r2, fhat=shat)
            rhs = sigma**rho * t ** (-m2) * rhs_norm
            report.add(f"{check}:theta={theta!r}", lam, p, m1 if m1 > 0 else m2, r1,
                       t, lhs, rhs)


def verify_nikolskii_stechkin(cfg: ExperimentConfig, grid: RadialGrid) -> SmoothnessReport:
    """t^m-scaled difference norms control the m-th derivative norm."""
    report = _new_report(cfg)
    for lam in cfg.lambda_values:
        params = params_from_lambda(lam)
        shat = bandlimited_spectrum(grid, lam, cfg.sigma)
        f = inverse_hankel(shat)
        for p in cfg.p_values:
            for m in cfg.m_values:
                lhs_const = diff_norm(f, 0.0, 0.0, p, params, r=m, fhat=shat)
                for t in cfg.scale.values():
                    rhs = diff_norm(f, t, m, p, params, fhat=shat)
                    report.add("nikolskii-stechkin", lam, p, m, m, t,
                               lhs_const * t**m, rhs)
    return report


def verify_boas(cfg: ExperimentConfig, grid: RadialGrid) -> SmoothnessReport:
    """Two-sided comparison of delta^-m and t^-m scaled difference norms."""
    report = _new_report(cfg)
    for lam in cfg.lambda_values:
        params = params_from_lambda(lam)
        shat = bandlimited_spectrum(grid, lam, cfg.sigma)
        f = inverse_hankel(shat)
        for p in cfg.p_values:
            for m in cfg.m_values:
                for t in cfg.scale.values():
                    for theta in cfg.thetas:
                        delta = theta * t
                        lhs = delta ** (-m) * diff_norm(f, delta, m, p, params, fhat=shat)
                        rhs = t ** (-m) * diff_norm(f, t, m, p, params, fhat=shat)
                        report.add(f"boas:theta={theta!r}", lam, p, m, 0.0, t, lhs, rhs)
    return report


def _consistency_rows(report, general_rows, dedicated_rows, tag):
    """Cross-check rows: general ratios against the dedicated experiment's.

    Appended when the configured orders specialize to a dedicated
    inequality; agreement is demanded at 1e-12 relative per row.
    """
    for g, d in zip(general_rows, dedicated_rows):
        ok = abs(g.ratio - d.ratio) <= 1e-12 * max(1.0, abs(d.ratio))
        report.rows.append(
            ReportRow(f"general:consistency:{tag}", g.lam, g.p, g.m, g.r, g.scale,
                      g.ratio, d.ratio, g.ratio / d.ratio if d.ratio else math.inf, ok)
        )


def _general_rows(report, cfg, grid):
    """Append the general two-scale rows for every lambda and p; return them."""
    for lam in cfg.lambda_values:
        params = params_from_lambda(lam)
        for p in cfg.p_values:
            _two_scale_rows(report, cfg, grid, lam, params, p, "general", *cfg.general_orders)
    return list(report.rows)


def verify_general_entire(cfg: ExperimentConfig, grid: RadialGrid) -> SmoothnessReport:
    """General two-scale inequality subsuming the dedicated special cases.

    When the configured orders reduce to the dedicated derivative-vs-
    difference or two-step comparisons, the report also cross-checks the
    general rows against the dedicated experiments row-for-row.
    """
    report = _new_report(cfg)
    general = _general_rows(report, cfg, grid)
    r1, m1, r2, m2 = cfg.general_orders
    if m1 == 0.0 and r2 == 0.0 and m2 > 0.0 and r1 == m2:
        # derivative-norm specialization, aligned with it at theta = 1
        tag, dedicated, m, thetas = "nikolskii_stechkin", verify_nikolskii_stechkin, m2, (1.0,)
    elif r1 == 0.0 and r2 == 0.0 and m1 == m2 and m1 > 0.0:
        tag, dedicated, m, thetas = "boas", verify_boas, m1, cfg.thetas
    else:
        return report
    if thetas != cfg.thetas:
        general = _general_rows(_new_report(cfg), replace(cfg, thetas=thetas), grid)
    ded = dedicated(replace(cfg, name=tag, m_values=(m,)), grid)
    _consistency_rows(report, general, ded.rows, tag)
    return report


def _best_approx_error(f, fhat, j, p, params):
    """E_j(f)_p; E_0 is the norm of f (its spectral tail from 0 at p = 2)."""
    if j > 0:
        return best_approx(f, float(j), p, params, fhat=fhat).value
    if p == 2:
        return spectral_tail_l2(f, params.lambda_k, 0.0)
    return lp_norm(f, p, params.lambda_k)


def verify_inverse(cfg: ExperimentConfig, grid: RadialGrid) -> SmoothnessReport:
    """Inverse-direction bounds: cumulative sums, Marchaud, derivative variant."""
    report = _new_report(cfg)
    tail_cutoff = 1e-10
    j_cap = 64
    n_max = max(cfg.n_values)
    for lam in cfg.lambda_values:
        params = params_from_lambda(lam)
        for fname in cfg.test_functions:
            f, fhat = _profile_with_spectrum(grid, lam, fname, report)
            for p in cfg.p_values:
                table = {j: _best_approx_error(f, fhat, j, p, params) for j in range(n_max + 1)}
                for m in cfg.m_values:
                    for n in cfg.n_values:
                        lhs = modulus(f, 1.0 / n, m, p, params, fhat=fhat).value
                        rhs = inverse_bound(table, n, m)
                        report.add("inverse", lam, p, m, 0.0, float(n), lhs, rhs)
                    for delta in cfg.delta_values:
                        lhs = k_functional_upper(f, delta, m, p, params, fhat=fhat)
                        rhs = marchaud_bound(f, delta, m, p, params)
                        report.add("marchaud", lam, p, m, 0.0, delta, lhs, rhs)
                    for r in cfg.r_values:
                        if r <= 0:
                            continue
                        df = inverse_hankel(
                            spectrum_from_values(grid, lam, fhat.values * grid.nodes**r)
                        )
                        # extend the table until E_j decays below the cutoff
                        j_hi = n_max
                        while j_hi < j_cap and table[j_hi] > tail_cutoff:
                            j_hi += 1
                            if j_hi not in table:
                                table[j_hi] = _best_approx_error(f, fhat, j_hi, p, params)
                        for n in cfg.n_values:
                            lhs = modulus(df, 1.0 / n, m, p, params).value
                            head = sum(
                                (j + 1.0) ** (m + r - 1.0) * table[j] for j in range(n + 1)
                            )
                            tail = sum(
                                float(j) ** (r - 1.0) * table[j]
                                for j in range(n + 1, j_hi + 1)
                            )
                            rhs = n ** (-r) * head + tail
                            report.add("inverse-derivative", lam, p, m, r, float(n), lhs, rhs)
    return report


EXPERIMENTS: dict[str, Callable[[ExperimentConfig, RadialGrid], SmoothnessReport]] = {
    "jackson": verify_jackson,
    "equivalence": verify_equivalence,
    "realization": verify_realization,
    "bernstein": verify_bernstein,
    "nikolskii_stechkin": verify_nikolskii_stechkin,
    "boas": verify_boas,
    "general_entire": verify_general_entire,
    "inverse": verify_inverse,
}


# --------------------------------------------------------------------------
# config parsing and the runner
# --------------------------------------------------------------------------


def default_config() -> dict:
    """The built-in sweep exercised by `run` when no config file is given."""
    return {
        "output_dir": "reports",
        "grid": {"rmax": 30.0, "n": 2048, "kind": "gauss-legendre-composite"},
        "experiments": [
            {
                "name": "jackson",
                "lambda_values": [0.25],
                "p_values": [2],
                "m_values": [2.0],
                "r_values": [0.0, 1.0],
                "scale": {"lo": 2.0, "hi": 16.0, "points": 4},
                "test_functions": ["gaussian"],
            },
            {
                "name": "equivalence",
                "lambda_values": [0.25, 1.0],
                "p_values": [2],
                "r_values": [1.0],
                "scale": {"lo": 0.05, "hi": 0.8, "points": 5},
                "test_functions": ["gaussian"],
            },
            {
                "name": "realization",
                "lambda_values": [0.25],
                "p_values": [2],
                "r_values": [1.0],
                "scale": {"lo": 0.05, "hi": 0.8, "points": 5},
                "test_functions": ["gaussian"],
            },
            {
                "name": "bernstein",
                "lambda_values": [0.25, 1.0],
                "p_values": [2],
                "r_values": [1.0, 2.0],
                "scale": {"lo": 1.0, "hi": 8.0, "points": 4},
            },
            {
                "name": "nikolskii_stechkin",
                "lambda_values": [0.25],
                "p_values": [2],
                "m_values": [1.0, 2.0],
                "sigma": 4.0,
                "scale": {"lo": 0.01, "hi": 0.125, "points": 4},
            },
            {
                "name": "boas",
                "lambda_values": [0.25],
                "p_values": [2],
                "m_values": [1.0],
                "sigma": 4.0,
                "scale": {"lo": 0.01, "hi": 0.125, "points": 4},
            },
            {
                "name": "general_entire",
                "lambda_values": [0.25],
                "p_values": [2],
                "general_orders": [1.0, 1.0, 0.0, 2.0],
                "sigma": 4.0,
                "scale": {"lo": 0.01, "hi": 0.125, "points": 4},
            },
            {
                "name": "inverse",
                "lambda_values": [0.25],
                "p_values": [2],
                "m_values": [2.0],
                "r_values": [1.0],
                "n_values": [2, 4, 8, 16, 32],
                "delta_values": [0.1, 0.2, 0.4],
                "test_functions": ["gaussian"],
            },
        ],
    }


def _field(mapping: dict, key: str, context: str, default=None, required=False):
    if key in mapping:
        return mapping[key]
    if required:
        raise ConfigError(f"{context}: missing required field {key!r}")
    return default


def _parse_p(value) -> float:
    if isinstance(value, str):
        if value.lower() in ("inf", "infinity"):
            return math.inf
        raise ConfigError(f"cannot parse p value {value!r}")
    return float(value)


def _check_keys(mapping, known, context: str) -> None:
    if not isinstance(mapping, dict):
        raise ConfigError(f"{context} must be a JSON object")
    unknown = sorted(set(mapping) - set(known))
    if unknown:
        raise ConfigError(
            f"{context}: unknown field {', '.join(map(repr, unknown))}; known: {sorted(known)}"
        )


def parse_config(data: dict) -> HarnessConfig:
    """Build a validated HarnessConfig from a JSON-shaped dict.

    A field no config block knows is an error, so a misspelled field never
    silently runs with its default.
    """
    _check_keys(data, ("output_dir", "grid", "experiments"), "config")
    grid_spec = _field(data, "grid", "config", default={})
    _check_keys(grid_spec, ("rmax", "n", "kind"), "config.grid")
    kind = _field(grid_spec, "kind", "config.grid", default="gauss-legendre-composite")
    if kind not in GRID_KINDS:
        raise ConfigError(f"config.grid.kind must be one of {GRID_KINDS}, got {kind!r}")
    experiments = []
    seen = set()
    for idx, spec in enumerate(_field(data, "experiments", "config", default=[])):
        ctx = f"experiments[{idx}]"
        _check_keys(spec, ExperimentConfig.__dataclass_fields__, ctx)
        name = _field(spec, "name", ctx, required=True)
        if name in seen:
            raise ConfigError(f"{ctx}: duplicate experiment name {name!r}")
        seen.add(name)
        window = _field(spec, "window", ctx, default=None)
        scale_spec = _field(spec, "scale", ctx, default=None)
        if scale_spec:
            sctx = f"{ctx}.scale"
            _check_keys(scale_spec, ("lo", "hi", "points"), sctx)
            lo, hi, points = (
                _field(scale_spec, k, sctx, required=True) for k in ("lo", "hi", "points")
            )
            scale = ScaleGrid(float(lo), float(hi), int(points))
        else:
            scale = ExperimentConfig.__dataclass_fields__["scale"].default
        cfg = ExperimentConfig(
            name=name,
            lambda_values=tuple(float(v) for v in _field(spec, "lambda_values", ctx, default=[0.25])),
            p_values=tuple(_parse_p(v) for v in _field(spec, "p_values", ctx, default=[2])),
            m_values=tuple(float(v) for v in _field(spec, "m_values", ctx, default=[1.0])),
            r_values=tuple(float(v) for v in _field(spec, "r_values", ctx, default=[1.0])),
            scale=scale,
            test_functions=tuple(_field(spec, "test_functions", ctx, default=["gaussian"])),
            window=None if window is None else (float(window[0]), float(window[1])),
            drift_max=float(_field(spec, "drift_max", ctx, default=4.0)),
            sigma=float(_field(spec, "sigma", ctx, default=4.0)),
            thetas=tuple(float(v) for v in _field(spec, "thetas", ctx, default=[1.0, 0.5, 0.25])),
            general_orders=tuple(
                float(v) for v in _field(spec, "general_orders", ctx, default=[1.0, 1.0, 0.0, 2.0])
            ),
            n_values=tuple(int(v) for v in _field(spec, "n_values", ctx, default=[2, 4, 8, 16, 32])),
            delta_values=tuple(
                float(v) for v in _field(spec, "delta_values", ctx, default=[0.1, 0.2, 0.4])
            ),
        )
        experiments.append(cfg)
    return HarnessConfig(
        output_dir=str(_field(data, "output_dir", "config", default="reports")),
        grid_rmax=float(_field(grid_spec, "rmax", "config.grid", default=30.0)),
        grid_n=int(_field(grid_spec, "n", "config.grid", default=2048)),
        grid_kind=kind,
        experiments=tuple(experiments),
    )


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

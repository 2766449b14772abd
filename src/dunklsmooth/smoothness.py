"""Approximation-theory functionals.

Best approximation by bandlimited functions, the fractional modulus of
smoothness, computable K-functional surrogates, and the bound evaluators of
the inverse direction (cumulative best-approximation sums, Marchaud-type
integrals).

Best approximation is exact at p = 2 (sharp spectral truncation).  At p = 1
a small weighted-L1 linear program chooses a bounded multiplier of the
spectrum on [0, sigma]; at other p the de la Vallee Poussin projection
P_{sigma/2} f is used.  Off p = 2 the error is always measured on the full
grid, so the value is an upper bound of the true distance.

The true K-functional infimum over the whole Sobolev class is not computable;
this module provides the two computable surrogates the harness certifies
against each other: the realization (objective at a near-best bandlimited
approximant of type 1/t) and a candidate-family upper bound (smoothing
projections P_sigma over a geometric sigma grid, sharp spectral truncations
at p = 2, and g = 0).  Each candidate family is a matrix of spectral symbol
columns, and ``_k_objectives`` is the one place that evaluates the
K-objective ||f - g||_p + t^r ||(-Lap)^(r/2) g||_p on it.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import NamedTuple, Sequence

import numpy as np

from .operators import eta, vallee_poussin
from .quad import RadialFunction, RadialGrid, lp_norm, nu_weights
from .special import jm_multiplier
from .transforms import (
    Spectrum,
    _kernel_matrix,
    bandlimit_project,
    hankel,
    spectral_tail_l2,
)
from .weights import WeightParams

__all__ = [
    "ModulusResult",
    "BestApprox",
    "RealizationResult",
    "modulus",
    "diff_norm",
    "best_approx",
    "realization",
    "realization_candidate_min",
    "k_functional_upper",
    "inverse_bound",
    "marchaud_bound",
]


# --------------------------------------------------------------------------
# batched physical norms
# --------------------------------------------------------------------------


def _norms_of_columns(phys: np.ndarray, grid: RadialGrid, lam: float, p: float) -> np.ndarray:
    """Lp(nu_lam) norm of each column of an (n, k) physical-sample matrix."""
    if p == math.inf:
        return np.max(np.abs(phys), axis=0)
    p = float(p)
    if p < 1.0:
        raise ValueError(f"p must be >= 1 or inf, got {p!r}")
    w = nu_weights(grid, lam)
    return np.sum(w[:, None] * np.abs(phys) ** p, axis=0) ** (1.0 / p)


def _inverse_batch(fhat: Spectrum, symbols: np.ndarray) -> np.ndarray:
    """Physical samples of invH(symbol_j * fhat), one column per symbol.

    A repeated call with the same spectrum object and an equal symbol matrix
    returns the read-only array the first call computed.
    """
    symbols = np.asarray(symbols, dtype=float)
    return _inverse_batch_of(fhat, symbols.shape, symbols.tobytes())


# A batch does not depend on p, and the chain sweeps ask for the same one at
# every p; 8 entries hold one scale's batches for every r of a realization
# sweep (2 smoothing batches that depend on t only, 3 per r).  A Spectrum
# hashes by identity, and holding it keeps its id from being reused; the
# symbol bytes are compared on every hit.
@lru_cache(maxsize=8)
def _inverse_batch_of(fhat: Spectrum, shape: tuple[int, ...], symbol_bytes: bytes) -> np.ndarray:
    symbols = np.frombuffer(symbol_bytes).reshape(shape)
    batch = _kernel_matrix(fhat.lam, fhat.grid) @ (fhat.values[:, None] * symbols)
    batch.flags.writeable = False
    return batch


def _spectral_l2(values: np.ndarray, grid: RadialGrid, lam: float) -> float:
    return float(np.sqrt(np.sum(nu_weights(grid, lam) * np.abs(values) ** 2)))


def diff_norm(
    f: RadialFunction,
    t: float,
    m: float,
    p: float,
    params: WeightParams,
    r: float = 0.0,
    fhat: Spectrum | None = None,
) -> float:
    """|| Delta_t^m (-Lap)^(r/2) f ||_{p, nu}; m = 0 (or r = 0) drops that factor.

    One code path for every p: invert the symbol-multiplied spectrum, then
    measure the norm on the physical grid.
    """
    lam = params.lambda_k
    fhat = hankel(f, lam) if fhat is None else fhat
    sym = np.ones_like(fhat.grid.nodes)
    if r > 0:
        sym = sym * fhat.grid.nodes**r
    if m > 0:
        if not (t > 0):
            raise ValueError("difference step must be positive when m > 0")
        sym = sym * jm_multiplier(lam, m, t * fhat.grid.nodes)
    phys = _inverse_batch(fhat, sym[:, None])
    return float(_norms_of_columns(phys, fhat.grid, lam, p)[0])


class ModulusResult(NamedTuple):
    """Modulus value and the step attaining the discretized sup."""

    value: float
    t_max: float


def modulus(
    f: RadialFunction,
    delta: float,
    m: float,
    p: float,
    params: WeightParams,
    samples: int = 24,
    fhat: Spectrum | None = None,
) -> ModulusResult:
    """Fractional modulus of smoothness sup_{0 < t <= delta} ||Delta_t^m f||_p.

    The sup is discretized on the quarter-octave grid delta * 2^(-j/4),
    j = 0..samples; nested delta values share sample points, which keeps the
    modulus exactly nondecreasing in delta along such sweeps.  The value is
    a lower bound of the true sup within grid slack.
    """
    if not (delta > 0):
        raise ValueError(f"delta must be positive, got {delta!r}")
    if not (m > 0):
        raise ValueError(f"order m must be positive, got {m!r}")
    lam = params.lambda_k
    fhat = hankel(f, lam) if fhat is None else fhat
    t_grid = delta * 2.0 ** (-np.arange(samples + 1) / 4.0)
    syms = jm_multiplier(lam, m, np.multiply.outer(fhat.grid.nodes, t_grid))
    phys = _inverse_batch(fhat, syms)
    norms = _norms_of_columns(phys, fhat.grid, lam, p)
    idx = int(np.argmax(norms))
    return ModulusResult(value=float(norms[idx]), t_max=float(t_grid[idx]))


class BestApprox(NamedTuple):
    """Best-approximation value, the bandlimited approximant, near-best flag."""

    value: float
    g_star: Spectrum
    near_best: bool


_L1_HATS = 41  # hat functions spanning [0, sigma] in the p = 1 fit
_L1_LP_ROWS = 512  # LP rows: blocks of consecutive grid nodes, summed


def _l1_fit_symbol(f: RadialFunction, fhat: Spectrum, sigma: float) -> np.ndarray | None:
    """Multiplier phi = sum_j c_j hat_j on [0, sigma], 0 <= c_j <= 1, zero
    beyond sigma, fitted so that invH(phi * fhat) is close to f in L1(nu).

    The weighted-L1 objective is a linear program (HiGHS).  Its rows are the
    nu-weighted residuals summed over blocks of consecutive nodes, about
    ``_L1_LP_ROWS`` blocks in all (four nodes each at n = 2048).  Summing
    lets a residual cancel inside a block, so the LP only chooses phi;
    callers re-measure the error on the full grid.
    The box on c keeps the derivative term of the K-objective bounded.
    Returns None when HiGHS does not report an optimum.
    """
    # imported here: scipy.optimize adds ~22 MB resident, paid only by runs
    # that fit at p = 1
    from scipy.optimize import linprog
    from scipy.sparse import csr_array, hstack, identity, vstack

    grid, lam = fhat.grid, fhat.lam
    nodes = grid.nodes
    knots = np.linspace(0.0, sigma, _L1_HATS)
    hats = np.clip(1.0 - np.abs(nodes[:, None] - knots[None, :]) / knots[1], 0.0, None)
    hats[nodes > sigma] = 0.0
    live = int(np.searchsorted(nodes, sigma, side="right"))
    mat = _kernel_matrix(lam, grid)
    cols = mat[:, :live] @ (fhat.values[:live, None] * hats[:live])
    w = nu_weights(grid, lam)
    starts = np.arange(0, nodes.size, max(1, nodes.size // _L1_LP_ROWS))
    rows = np.add.reduceat(w[:, None] * cols, starts, axis=0)
    target = np.add.reduceat(w * f.values, starts)
    # min sum e  s.t.  -e <= target - rows @ c <= e,  0 <= c <= 1,  e >= 0
    k, m = _L1_HATS, target.size
    fit, slack = csr_array(rows), identity(m, format="csr")
    res = linprog(
        np.concatenate([np.zeros(k), np.ones(m)]),
        A_ub=vstack([hstack([fit, -slack]), hstack([-fit, -slack])]),
        b_ub=np.concatenate([target, -target]),
        bounds=[(0.0, 1.0)] * k + [(0.0, None)] * m,
        method="highs",
    )
    if res.status != 0:
        return None
    return hats @ res.x[:k]


def best_approx(
    f: RadialFunction,
    sigma: float,
    p: float,
    params: WeightParams,
    fhat: Spectrum | None = None,
) -> BestApprox:
    """Distance from f to the bandlimited class of spherical type sigma.

    p = 2: exact minimizer by sharp spectral truncation (Parseval); the error
    is the spectral tail mass beyond sigma.  Other p start from the smoothing
    projection at sigma/2 (output bandlimited to sigma), a near-best
    approximant.  At p = 1 a bounded weighted-L1 fit of the spectrum on
    [0, sigma] (``_l1_fit_symbol``; once sigma reaches the last grid node,
    fhat itself) is the second candidate, and the one with the smaller
    full-grid error is returned, so the value is never above the projection's.
    Off p = 2 the value is an upper bound, flagged ``near_best=True``.
    ``fhat`` is the precomputed transform of f.
    """
    if not (sigma > 0):
        raise ValueError(f"sigma must be positive, got {sigma!r}")
    lam = params.lambda_k
    fhat = hankel(f, lam) if fhat is None else fhat
    if p == 2:
        g = bandlimit_project(fhat, sigma)
        return BestApprox(value=spectral_tail_l2(f, lam, sigma), g_star=g, near_best=False)
    mat = _kernel_matrix(lam, fhat.grid)

    def error(g: Spectrum) -> float:
        return lp_norm(RadialFunction(grid=f.grid, values=f.values - mat @ g.values), p, lam)

    g = vallee_poussin(fhat, sigma / 2.0)
    value = error(g)
    if p == 1:
        if sigma >= fhat.grid.nodes[-1]:
            phi = np.ones_like(fhat.grid.nodes)
        else:
            phi = _l1_fit_symbol(f, fhat, sigma)
        if phi is not None:
            bl = sigma if fhat.bandlimit is None else min(fhat.bandlimit, sigma)
            fit = fhat.with_symbol(f"l1fit:sigma={sigma!r}", phi, bandlimit=bl)
            fit_value = error(fit)
            if fit_value <= value:
                g, value = fit, fit_value
    return BestApprox(value=value, g_star=g, near_best=True)


class RealizationResult(NamedTuple):
    """K-objective at a (near-)best bandlimited approximant of type 1/t."""

    value: float
    approx_error: float
    derivative_term: float
    sigma_used: float


def realization(
    f: RadialFunction,
    t: float,
    r: float,
    p: float,
    params: WeightParams,
    fhat: Spectrum | None = None,
    approx: BestApprox | None = None,
) -> RealizationResult:
    """Realization of the K-functional at scale t.

    Evaluates ||f - g*||_p + t^r ||(-Lap)^(r/2) g*||_p with g* the
    (near-)best approximant of spherical type 1/t (see ``best_approx``: the
    weighted-L1 fit at p = 1, the smoothing projection at other p != 2);
    bandlimited functions lie in every Sobolev class, so the derivative term
    is always finite.  ``approx`` is a precomputed
    ``best_approx(f, 1/t, p, params)``, so that a sweep over r computes it
    once; ``fhat`` is the precomputed transform of f, used when ``approx`` is
    not given.
    """
    if not (t > 0 and r > 0):
        raise ValueError("t and r must be positive")
    lam = params.lambda_k
    if approx is None:
        approx = best_approx(f, 1.0 / t, p, params, fhat=fhat)
    elif approx.g_star.bandlimit is None or approx.g_star.bandlimit > 1.0 / t:
        raise ValueError(f"approximant is not of spherical type 1/t = {1.0 / t!r}")
    grid = approx.g_star.grid
    dg = grid.nodes**r * approx.g_star.values
    if p == 2:
        deriv = _spectral_l2(dg, grid, lam)
    else:
        phys = _kernel_matrix(lam, grid) @ dg
        deriv = lp_norm(RadialFunction(grid=f.grid, values=phys), p, lam)
    term = t**r * deriv
    return RealizationResult(
        value=approx.value + term,
        approx_error=approx.value,
        derivative_term=term,
        sigma_used=1.0 / t,
    )


def _k_objectives(
    f: RadialFunction, fhat: Spectrum, syms: np.ndarray, t: float, r: float, p: float
) -> np.ndarray:
    """K-objective ||f - g_j||_p + t^r ||(-Lap)^(r/2) g_j||_p of each candidate
    g_j = invH(syms[:, j] * fhat), one value per column of ``syms``.

    p = 2 measures both terms on the spectral side (Parseval); other p
    measure them on the physical grid.
    """
    grid, lam = fhat.grid, fhat.lam
    nodes = grid.nodes
    if p == 2:
        # (k, n) rows: each candidate is summed along a contiguous row, which
        # reproduces a 1-D sum bit for bit (an axis-0 sum of (n, k) does not)
        gs = np.ascontiguousarray(syms.T) * fhat.values
        w = nu_weights(grid, lam)
        approx = np.sqrt(np.sum(w * np.abs(fhat.values - gs) ** 2, axis=1))
        deriv = np.sqrt(np.sum(w * np.abs(nodes**r * gs) ** 2, axis=1))
    else:
        smooth = _inverse_batch(fhat, syms)
        approx = _norms_of_columns(f.values[:, None] - smooth, grid, lam, p)
        deriv_phys = _inverse_batch(fhat, syms * nodes[:, None] ** r)
        deriv = _norms_of_columns(deriv_phys, grid, lam, p)
    return approx + t**r * deriv


def _eta_symbols(nodes: np.ndarray, sigmas: np.ndarray) -> np.ndarray:
    """Smoothing-cutoff symbols eta(r / sigma), one column per sigma."""
    return eta(nodes[:, None] / sigmas[None, :])


def _sharp_symbols(nodes: np.ndarray, sigmas: np.ndarray) -> np.ndarray:
    """Sharp truncations 1_{r <= sigma}, one column per sigma."""
    return (nodes[:, None] <= sigmas[None, :]).astype(float)


def k_functional_upper(
    f: RadialFunction,
    t: float,
    r: float,
    p: float,
    params: WeightParams,
    points: int = 9,
    fhat: Spectrum | None = None,
) -> float:
    """Candidate-family upper bound on the K-functional K_r(t, f)_p.

    Minimizes the K-objective over smoothing projections P_sigma(f) with
    sigma on a geometric grid spanning [1/(4t), 4/t], sharp spectral
    truncations at the same scales (p = 2 only), and g = 0, so the value
    never exceeds ||f||_p.  Every candidate is one symbol column of a single
    ``_k_objectives`` call.  An upper bound on the true infimum by
    construction.
    """
    if not (t > 0 and r > 0):
        raise ValueError("t and r must be positive")
    fhat = hankel(f, params.lambda_k) if fhat is None else fhat
    nodes = fhat.grid.nodes
    sigmas = np.geomspace(1.0 / (4.0 * t), 4.0 / t, points)
    cols = [_eta_symbols(nodes, sigmas), np.zeros((nodes.size, 1))]
    if p == 2:
        cols.append(_sharp_symbols(nodes, sigmas))
    syms = np.concatenate(cols, axis=1)
    return float(np.min(_k_objectives(f, fhat, syms, t, r, p)))


def _plateau_symbols(nodes: np.ndarray, sigma_max: float, widths: Sequence[float]) -> np.ndarray:
    """Smooth cutoffs that are 1 up to (1-w) sigma_max and 0 beyond sigma_max.

    The usual eta(r/sigma) family fixes the transition at [sigma, 2 sigma];
    for restricted-bandlimit candidates the transition placement is a free
    tradeoff (wide transition = small kernel norm, late transition = small
    approximation error), so several widths are offered as candidates.
    """
    cols = []
    for w in widths:
        a = (1.0 - w) * sigma_max
        x = (nodes - a) / (sigma_max - a)
        cols.append(eta(1.0 + np.clip(x, 0.0, 1.0)))
    return np.stack(cols, axis=1)


def realization_candidate_min(
    f: RadialFunction,
    t: float,
    r: float,
    p: float,
    params: WeightParams,
    points: int = 7,
    fhat: Spectrum | None = None,
    approx: BestApprox | None = None,
) -> float:
    """Candidate-grid approximation of the restricted K-infimum over the
    bandlimited class of type 1/t.

    Candidates: P_sigma(f) for sigma in [1/(8t), 1/(2t)] (their outputs are
    bandlimited to 2*sigma <= 1/t), variable-width plateau cutoffs vanishing
    at 1/t, sharp truncations up to 1/t at p = 2, and the realization
    approximant itself (the weighted-L1 fit at p = 1).  ``fhat`` and
    ``approx`` are passed on to ``realization``.
    """
    if not (t > 0 and r > 0):
        raise ValueError("t and r must be positive")
    fhat = hankel(f, params.lambda_k) if fhat is None else fhat
    nodes = fhat.grid.nodes
    best = realization(f, t, r, p, params, fhat=fhat, approx=approx).value
    cols = [
        _eta_symbols(nodes, np.geomspace(1.0 / (8.0 * t), 1.0 / (2.0 * t), points)),
        _plateau_symbols(nodes, 1.0 / t, (0.3, 0.5, 0.7, 0.9)),
    ]
    if p == 2:
        cols.append(_sharp_symbols(nodes, np.geomspace(1.0 / (2.0 * t), 1.0 / t, 5)))
    objectives = _k_objectives(f, fhat, np.concatenate(cols, axis=1), t, r, p)
    return min(best, float(np.min(objectives)))


def inverse_bound(
    E_values: Sequence[tuple[int, float]] | dict[int, float], n: int, m: float
) -> float:
    """Weighted cumulative best-approximation sum n^-m sum_{j<=n} (j+1)^(m-1) E_j.

    Requires E_j for every j = 0..n; a missing index is an error.
    """
    if int(n) != n or n < 1:
        raise ValueError(f"n must be a positive integer, got {n!r}")
    if not (m > 0):
        raise ValueError(f"m must be positive, got {m!r}")
    table = dict(E_values)
    missing = [j for j in range(int(n) + 1) if j not in table]
    if missing:
        raise ValueError(f"missing best-approximation values for j={missing}")
    total = sum((j + 1.0) ** (m - 1.0) * float(table[j]) for j in range(int(n) + 1))
    return float(n) ** (-m) * total


def marchaud_bound(
    f: RadialFunction,
    delta: float,
    m: float,
    p: float,
    params: WeightParams,
    t_grid: np.ndarray | None = None,
) -> float:
    """Marchaud-type right-hand side delta^m (||f||_p + int_delta^1 t^-m K dt/t).

    K at order m+1 is replaced by realization values on a log grid; the
    integral is a trapezoid rule in log t.
    """
    if not (0 < delta < 1):
        raise ValueError(f"delta must lie in (0, 1), got {delta!r}")
    if not (m > 0):
        raise ValueError(f"m must be positive, got {m!r}")
    lam = params.lambda_k
    if t_grid is None:
        t_grid = np.geomspace(delta, 1.0, 17)
    t_grid = np.asarray(t_grid, dtype=float)
    fhat = hankel(f, lam)
    kvals = np.array([realization(f, t, m + 1.0, p, params, fhat=fhat).value for t in t_grid])
    integrand = t_grid ** (-m) * kvals
    integral = float(np.trapezoid(integrand, x=np.log(t_grid)))
    return delta**m * (lp_norm(f, p, lam) + integral)

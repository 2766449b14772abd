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
columns.

Each chain functional has one evaluator over a whole (orders, p) sweep at
one scale: ``_moduli`` for the modulus and ``_candidate_minima`` for the
candidate families.  ``modulus``, ``k_functional_upper`` and
``realization_candidate_min`` are their one-(p, r) case, and
``chain_at_scale`` composes them, so a sweep takes two wide inverse
products per scale instead of one product per (functional, p, r).
"""

from __future__ import annotations

from typing import Collection, NamedTuple, Sequence

import numpy as np

from .operators import eta, vallee_poussin
from .quad import RadialFunction, RadialGrid, _lp_norms, lp_norm, nu_weights
from .special import BesselEvaluator
from .transforms import (
    Spectrum,
    _kernel_matrix,
    _spectrum_of,
    bandlimit_project,
    spectral_tail_l2,
)

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
    "chain_at_scale",
    "inverse_bound",
    "marchaud_bound",
]


class ModulusResult(NamedTuple):
    """Modulus value and the step attaining the discretized sup."""

    value: float
    t_max: float


# --------------------------------------------------------------------------
# inverse products, symbol builders and the batched evaluators
# --------------------------------------------------------------------------


def _inverse_products(fhat: Spectrum, symbols: np.ndarray) -> np.ndarray:
    """Physical samples of invH(symbols[:, j] * fhat), one column per symbol.

    Every modulus, difference norm and candidate family goes through it.
    ``symbols`` is scaled by the spectrum in place, so callers pass an
    array they own and do not reuse.
    """
    symbols *= fhat.values[:, None]
    return _kernel_matrix(fhat.lam, fhat.grid) @ symbols


def _spectral_l2(values: np.ndarray, grid: RadialGrid, lam: float) -> float:
    return float(np.sqrt(np.sum(nu_weights(grid, lam) * np.abs(values) ** 2)))


_MODULUS_SAMPLES = 24  # quarter-octave steps below delta in the modulus sup
_K_UPPER_POINTS = 9  # smoothing scales of the K-upper candidate family
_R_CANDIDATE_POINTS = 7  # smoothing scales of the restricted R candidate family
_MARCHAUD_SCALES = 17  # log-grid points of the Marchaud integral over [delta, 1]


def _modulus_steps(delta: float) -> np.ndarray:
    """delta * 2^(-j/4), j = 0.._MODULUS_SAMPLES: the steps of the modulus sup."""
    return delta * 2.0 ** (-np.arange(_MODULUS_SAMPLES + 1) / 4.0)


def _bessel_base(lam: float, nodes: np.ndarray, steps: np.ndarray) -> np.ndarray:
    """max(1 - j_lam(nu * t_j), 0), one column per step t_j.

    Its (m/2)-th power is the order-m difference symbol ``jm_multiplier``,
    so one Bessel evaluation serves every order.
    """
    return np.maximum(BesselEvaluator(lam).one_minus(np.multiply.outer(nodes, steps)), 0.0)


def _moduli(fhat: Spectrum, base: np.ndarray, steps: np.ndarray, orders: Sequence[float],
            p_values: Sequence[float]) -> dict[tuple[float, float], ModulusResult]:
    """Modulus of every order m at every p, ``{(p, m): ModulusResult}``: the
    sup over ``steps`` of ||Delta_t^m f||_p, with ``base`` the
    ``_bessel_base`` at those steps.

    One inverse product holds the symbols base^(m/2) of every order.
    """
    k = steps.size
    phys = _inverse_products(fhat, np.concatenate([base ** (0.5 * m) for m in orders], axis=1))
    moduli = {}
    for i, m in enumerate(orders):
        for p in p_values:
            norms = _lp_norms(phys[:, i * k : (i + 1) * k], fhat.grid, fhat.lam, p)
            idx = int(np.argmax(norms))
            moduli[p, m] = ModulusResult(value=float(norms[idx]), t_max=float(steps[idx]))
    return moduli


def _eta_symbols(nodes: np.ndarray, sigmas: np.ndarray) -> np.ndarray:
    """Smoothing-cutoff symbols eta(r / sigma), one column per sigma."""
    return eta(nodes[:, None] / sigmas[None, :])


def _sharp_symbols(nodes: np.ndarray, sigmas: np.ndarray) -> np.ndarray:
    """Sharp truncations 1_{r <= sigma}, one column per sigma."""
    return (nodes[:, None] <= sigmas[None, :]).astype(float)


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


def _k_upper_symbols(nodes: np.ndarray, t: float, sharp: bool) -> np.ndarray:
    """K-upper candidates: P_sigma for sigma in [1/(4t), 4/t], g = 0, and
    with ``sharp`` (p = 2) the sharp truncations at the same scales."""
    sigmas = np.geomspace(1.0 / (4.0 * t), 4.0 / t, _K_UPPER_POINTS)
    cols = [_eta_symbols(nodes, sigmas), np.zeros((nodes.size, 1))]
    if sharp:
        cols.append(_sharp_symbols(nodes, sigmas))
    return np.concatenate(cols, axis=1)


def _r_candidate_symbols(nodes: np.ndarray, t: float, sharp: bool) -> np.ndarray:
    """Restricted candidates of type 1/t: P_sigma for sigma in [1/(8t), 1/(2t)],
    plateau cutoffs vanishing at 1/t, and with ``sharp`` (p = 2) sharp
    truncations up to 1/t."""
    cols = [
        _eta_symbols(nodes, np.geomspace(1.0 / (8.0 * t), 1.0 / (2.0 * t), _R_CANDIDATE_POINTS)),
        _plateau_symbols(nodes, 1.0 / t, (0.3, 0.5, 0.7, 0.9)),
    ]
    if sharp:
        cols.append(_sharp_symbols(nodes, np.geomspace(1.0 / (2.0 * t), 1.0 / t, 5)))
    return np.concatenate(cols, axis=1)


def _with_derivatives(syms: np.ndarray, nodes: np.ndarray, r_values: Sequence[float]) -> np.ndarray:
    """[S | S nu^r_1 | S nu^r_2 | ...]: a candidate family, then its order-r
    derivative block for each r."""
    return np.concatenate([syms] + [syms * nodes[:, None] ** r for r in r_values], axis=1)


def _l2_objectives(fhat: Spectrum, syms: np.ndarray, t: float, r: float) -> np.ndarray:
    """K-objective at p = 2 of each candidate column, on the spectral side
    (Parseval); no inverse product."""
    grid, lam = fhat.grid, fhat.lam
    # (k, n) rows: each candidate is summed along a contiguous row, which
    # reproduces a 1-D sum bit for bit (an axis-0 sum of (n, k) does not)
    gs = np.ascontiguousarray(syms.T) * fhat.values
    w = nu_weights(grid, lam)
    approx = np.sqrt(np.sum(w * np.abs(fhat.values - gs) ** 2, axis=1))
    deriv = np.sqrt(np.sum(w * np.abs(grid.nodes**r * gs) ** 2, axis=1))
    return approx + t**r * deriv


_FAMILIES = {"K": _k_upper_symbols, "R": _r_candidate_symbols}


def _candidate_minima(
    f: RadialFunction,
    fhat: Spectrum,
    t: float,
    families: Sequence[str],
    r_values: Sequence[float],
    p_values: Sequence[float],
) -> dict[tuple[str, float, float], float]:
    """Least K-objective ||f - g||_p + t^r ||(-Lap)^(r/2) g||_p over each
    named candidate family at scale t, ``{(name, p, r): value}``.

    ``families`` names entries of ``_FAMILIES``, whose symbol columns give
    the candidates g = invH(S_j fhat).  p = 2 measures both terms on the
    spectral side, with the sharp truncations added to each family.  The
    other p share one inverse product holding every family with its
    derivative blocks for every r; its layout does not depend on which p
    are swept.
    """
    grid, nodes, lam = fhat.grid, fhat.grid.nodes, fhat.lam
    minima = {}
    for p in p_values:
        if p == 2:
            for name in families:
                syms = _FAMILIES[name](nodes, t, True)
                for r in r_values:
                    minima[name, p, r] = float(np.min(_l2_objectives(fhat, syms, t, r)))
    off_2 = [p for p in p_values if p != 2]
    if not (off_2 and families):
        return minima
    syms = {name: _FAMILIES[name](nodes, t, False) for name in families}
    phys = _inverse_products(fhat, np.concatenate(
        [_with_derivatives(block, nodes, r_values) for block in syms.values()], axis=1
    ))
    col = 0
    for name, block in syms.items():
        k = block.shape[1]
        for p in off_2:
            approx = _lp_norms(f.values[:, None] - phys[:, col : col + k], grid, lam, p)
            for i, r in enumerate(r_values):
                deriv = _lp_norms(phys[:, col + (i + 1) * k : col + (i + 2) * k], grid, lam, p)
                minima[name, p, r] = float(np.min(approx + t**r * deriv))
        col += k * (len(r_values) + 1)
    return minima


# --------------------------------------------------------------------------
# smoothness functionals
# --------------------------------------------------------------------------


def diff_norm(
    f: RadialFunction,
    t: float,
    m: float,
    p: float,
    lam: float,
    r: float = 0.0,
    fhat: Spectrum | None = None,
) -> float:
    """|| Delta_t^m (-Lap)^(r/2) f ||_{p, nu}; m = 0 (or r = 0) drops that factor.

    One code path for every p: invert the symbol-multiplied spectrum, then
    measure the norm on the physical grid.
    """
    fhat = _spectrum_of(f, lam, fhat)
    nodes = fhat.grid.nodes
    sym = np.ones_like(nodes)
    if r > 0:
        sym = sym * nodes**r
    if m > 0:
        if not (t > 0):
            raise ValueError("difference step must be positive when m > 0")
        sym = sym * _bessel_base(lam, nodes, np.array([t]))[:, 0] ** (0.5 * m)
    phys = _inverse_products(fhat, sym[:, None])
    return float(_lp_norms(phys, fhat.grid, lam, p)[0])


def modulus(
    f: RadialFunction,
    delta: float,
    m: float,
    p: float,
    lam: float,
    fhat: Spectrum | None = None,
) -> ModulusResult:
    """Fractional modulus of smoothness sup_{0 < t <= delta} ||Delta_t^m f||_p.

    The sup is discretized on the quarter-octave grid delta * 2^(-j/4),
    j = 0.._MODULUS_SAMPLES; nested delta values share sample points, which
    keeps the modulus exactly nondecreasing in delta along such sweeps.  The
    value is a lower bound of the true sup within grid slack.
    """
    if not (delta > 0):
        raise ValueError(f"delta must be positive, got {delta!r}")
    if not (m > 0):
        raise ValueError(f"order m must be positive, got {m!r}")
    fhat = _spectrum_of(f, lam, fhat)
    steps = _modulus_steps(delta)
    return _moduli(fhat, _bessel_base(lam, fhat.grid.nodes, steps), steps, (m,), (p,))[p, m]


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
    # the full-square product: a product sliced at sigma gives bits that
    # depend on the BLAS thread count; hats is copied as it is scaled in place
    cols = _inverse_products(fhat, hats.copy())
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
    lam: float,
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
    fhat = _spectrum_of(f, lam, fhat)
    if p == 2:
        g = bandlimit_project(fhat, sigma)
        value = spectral_tail_l2(f, lam, sigma, fhat=fhat)
        return BestApprox(value=value, g_star=g, near_best=False)
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
    lam: float,
    fhat: Spectrum | None = None,
    approx: BestApprox | None = None,
) -> RealizationResult:
    """Realization of the K-functional at scale t.

    Evaluates ||f - g*||_p + t^r ||(-Lap)^(r/2) g*||_p with g* the
    (near-)best approximant of spherical type 1/t (see ``best_approx``: the
    weighted-L1 fit at p = 1, the smoothing projection at other p != 2);
    bandlimited functions lie in every Sobolev class, so the derivative term
    is always finite.  ``approx`` is a precomputed
    ``best_approx(f, 1/t, p, lam)``, so that a sweep over r computes it
    once; its approximant must live on f's grid at index lam.  ``fhat`` is
    the precomputed transform of f, used when ``approx`` is not given.
    """
    if not (t > 0 and r > 0):
        raise ValueError("t and r must be positive")
    if approx is None:
        approx = best_approx(f, 1.0 / t, p, lam, fhat=fhat)
    else:
        g = _spectrum_of(f, lam, approx.g_star)
        if g.bandlimit is None or g.bandlimit > 1.0 / t:
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


def k_functional_upper(
    f: RadialFunction,
    t: float,
    r: float,
    p: float,
    lam: float,
    fhat: Spectrum | None = None,
) -> float:
    """Candidate-family upper bound on the K-functional K_r(t, f)_p.

    Minimizes the K-objective over smoothing projections P_sigma(f) with
    sigma on a geometric grid spanning [1/(4t), 4/t], sharp spectral
    truncations at the same scales (p = 2 only), and g = 0, so the value
    never exceeds ||f||_p.  The one-(p, r) case of ``_candidate_minima``.
    An upper bound on the true infimum by construction.
    """
    if not (t > 0 and r > 0):
        raise ValueError("t and r must be positive")
    fhat = _spectrum_of(f, lam, fhat)
    return _candidate_minima(f, fhat, t, ("K",), (r,), (p,))["K", p, r]


def realization_candidate_min(
    f: RadialFunction,
    t: float,
    r: float,
    p: float,
    lam: float,
    fhat: Spectrum | None = None,
    approx: BestApprox | None = None,
) -> float:
    """Candidate-grid approximation of the restricted K-infimum over the
    bandlimited class of type 1/t.

    Candidates: P_sigma(f) for sigma in [1/(8t), 1/(2t)] (their outputs are
    bandlimited to 2*sigma <= 1/t), variable-width plateau cutoffs vanishing
    at 1/t, sharp truncations up to 1/t at p = 2, and the realization
    approximant itself (the weighted-L1 fit at p = 1).  ``fhat`` and
    ``approx`` are passed on to ``realization``.  The family is the
    one-(p, r) case of ``_candidate_minima``.
    """
    if not (t > 0 and r > 0):
        raise ValueError("t and r must be positive")
    fhat = _spectrum_of(f, lam, fhat)
    best = realization(f, t, r, p, lam, fhat=fhat, approx=approx).value
    low = _candidate_minima(f, fhat, t, ("R",), (r,), (p,))["R", p, r]
    return min(best, low)


_CHAIN_FUNCTIONALS = ("omega", "diff", "K", "Rstar", "R")


def chain_at_scale(
    f: RadialFunction,
    t: float,
    r_values: Sequence[float],
    p_values: Sequence[float],
    lam: float,
    names: Collection[str],
    fhat: Spectrum | None = None,
) -> dict[tuple[float, float], dict[str, float]]:
    """The named chain functionals at one scale t, for each (p, r) of a sweep.

    Returns ``{(p, r): {name: value}}`` for the ``names`` asked, drawn from
    ``_CHAIN_FUNCTIONALS``: the modulus ``"omega"`` at delta = t and order r,
    the difference norm ``"diff"`` at step t and order r, the K-upper bound
    ``"K"``, the realization ``"Rstar"`` and the candidate minimum ``"R"``,
    the least of Rstar and its candidate family (so "R" brings "Rstar").
    Each value equals the single call (``modulus``, ``diff_norm``,
    ``k_functional_upper``, ``realization``, ``realization_candidate_min``)
    at the same (p, r, t).

    The Bessel base is evaluated once for the moduli and the difference
    norms.  ``_moduli`` makes one inverse product for every r and releases
    it before ``_candidate_minima`` makes one for every candidate family off
    p = 2.  "R" and "Rstar" take each p's approximant of type 1/t, computed
    once for every r.  The difference norms stay single-column products: a
    one-column slice of a wide product is not bit-equal to the
    matrix-vector product ``diff_norm`` makes.
    """
    if not set(names) <= set(_CHAIN_FUNCTIONALS):
        raise ValueError(f"chain functionals are {_CHAIN_FUNCTIONALS}, got {sorted(names)}")
    if not (t > 0) or any(r <= 0 for r in r_values):
        raise ValueError("t and r must be positive")
    values = {(p, r): {} for p in p_values for r in r_values}
    if not values:
        return values
    fhat = _spectrum_of(f, lam, fhat)
    grid = fhat.grid

    if "omega" in names or "diff" in names:
        steps = _modulus_steps(t)
        base = _bessel_base(lam, grid.nodes, steps)
    if "omega" in names:
        for key, result in _moduli(fhat, base, steps, r_values, p_values).items():
            values[key]["omega"] = result.value
    if "diff" in names:
        # column 0 of the base is the step t itself
        column = np.ascontiguousarray(base[:, 0])
        for r in r_values:
            phys = _inverse_products(fhat, (column ** (0.5 * r))[:, None])
            for p in p_values:
                values[p, r]["diff"] = float(_lp_norms(phys, grid, lam, p)[0])

    if "R" in names or "Rstar" in names:
        for p in p_values:
            approx = best_approx(f, 1.0 / t, p, lam, fhat=fhat)
            for r in r_values:
                values[p, r]["Rstar"] = realization(f, t, r, p, lam, approx=approx).value

    families = [name for name in _FAMILIES if name in names]
    for (name, p, r), low in _candidate_minima(f, fhat, t, families, r_values, p_values).items():
        values[p, r][name] = low if name == "K" else min(values[p, r]["Rstar"], low)
    return values


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
    lam: float,
    fhat: Spectrum | None = None,
) -> float:
    """Marchaud-type right-hand side delta^m (||f||_p + int_delta^1 t^-m K dt/t).

    K at order m+1 is replaced by realization values on a log grid; the
    integral is a trapezoid rule in log t.  ``fhat`` is the precomputed
    transform of f.
    """
    if not (0 < delta < 1):
        raise ValueError(f"delta must lie in (0, 1), got {delta!r}")
    if not (m > 0):
        raise ValueError(f"m must be positive, got {m!r}")
    t_grid = np.geomspace(delta, 1.0, _MARCHAUD_SCALES)
    fhat = _spectrum_of(f, lam, fhat)
    kvals = np.array([realization(f, t, m + 1.0, p, lam, fhat=fhat).value for t in t_grid])
    integrand = t_grid ** (-m) * kvals
    integral = float(np.trapezoid(integrand, x=np.log(t_grid)))
    return delta**m * (lp_norm(f, p, lam) + integral)

"""Approximation-theory functionals.

Best approximation by bandlimited functions, the fractional modulus of
smoothness, computable K-functional surrogates, and the bound evaluators of
the inverse direction (cumulative best-approximation sums, Marchaud-type
integrals).

Best approximation is exact at p = 2 (sharp spectral truncation).  Off
p = 2 it starts from the de la Vallee Poussin projection P_{sigma/2} f, and
at p = 1 a small weighted-L1 linear program also chooses a bounded
multiplier of the spectrum on [0, sigma].  Off p = 2 the error is always
measured on the full grid, so the value is an upper bound of the true
distance.

The true K-functional infimum over the whole Sobolev class is not computable;
this module provides the two computable surrogates the harness certifies
against each other: the realization (objective at a near-best bandlimited
approximant of type 1/t) and a candidate-family upper bound (smoothing
projections P_sigma over a geometric sigma grid, sharp spectral truncations
at p = 2, and g = 0).  Each candidate family is a matrix of spectral symbol
columns.

Each functional has one body, a sweep whose one-point case is the single
call: ``_moduli`` (``modulus``), ``_diff_norms`` over (t, m, r)
(``diff_norm``), ``_best_approxes`` over (sigma, p) (``best_approx``),
``_realizations`` over (t, r) (``realization``), ``_chain_sweep`` over
(t, p, r) (``k_functional_upper``, ``realization_candidate_min``) and
``_marchaud_bounds`` (``marchaud_bound``).  No sweep takes another's
Bessel base.  Every p = 2 norm is taken on the spectral side, where the
transform is unitary (Plancherel), and an inverse product is made only for
the other p.  Every such product follows one rule (``_product``): its
columns are padded with zeros to a multiple of ``_PAD``, a width at which
a column's bits depend neither on the product's width nor on its position,
so no product takes the matrix-vector path and a sweep value equals its
one-point call.  No product is wider than ``_PRODUCT_COLUMNS`` columns
(save a single candidate block wider than that), so a sweep's memory does
not grow with its points.  Every modulus sup samples delta and the
quarter-octave rungs 2^(-k/4) below it, a lattice all deltas share, so
``_moduli`` makes one Bessel base over the union of its deltas' steps and,
off p = 2, one product per order and per ``_PRODUCT_COLUMNS`` steps;
``_diff_norms`` makes one base over its distinct steps and the products of
all its points, ``_realizations`` those of every (t, r) at its p, all
through ``_inverse_norms``.  ``_best_approxes`` takes its p = 2 values
from one ``transforms._spectral_tails`` sweep and, off p = 2, the products
of every projection residual and, at p = 1, of every fit residual.  The
candidate families of whole scales (``_candidate_minima``) and the p = 1
fit's hat columns of whole types are packed into products of at most
``_PRODUCT_COLUMNS`` columns.
"""

from __future__ import annotations

import math
from typing import Callable, Collection, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .operators import eta, vallee_poussin
from .quad import (
    RadialFunction,
    RadialGrid,
    _check_step,
    _lp_norms,
    _spectral_l2s,
    lp_norm,
    nu_weights,
)
from .special import BesselEvaluator, _require
from .transforms import (
    Spectrum,
    _kernel_matrix,
    _spectral_tails,
    _spectrum_of,
    bandlimit_project,
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


_PAD = 8  # every product width off p = 2 is a multiple of this
# column budget of every product (a single wider candidate block makes a
# product alone): at n = 2048 its symbols and its product take 2 MB each
_PRODUCT_COLUMNS = 128


def _width(k: int) -> int:
    """The width of a product of k columns: k rounded up to a multiple of
    ``_PAD``."""
    return -(-k // _PAD) * _PAD


def _block(n: int, k: int) -> np.ndarray:
    """A zero C-order (n, ``_width(k)``) array, for a caller to fill its
    first k columns in place and hand to ``_product`` without a copy."""
    return np.zeros((n, _width(k)))


def _product(mat: np.ndarray, columns: np.ndarray) -> np.ndarray:
    """mat @ columns by the product rule: ``columns`` padded with zero
    columns to a multiple of ``_PAD`` (copied unless it is a C-order
    ``_block``), and the whole (n, ``_width(k)``) product returned.

    Every product off p = 2 goes through here, so no column takes the
    matrix-vector path.  At such widths a column's bits depend neither on
    the product's width nor on its position in it (README, "Numerical
    design notes"), and a norm taken over the whole block reduces at least
    ``_PAD`` columns, so each value equals its one-point call.
    """
    k = columns.shape[1]
    if k != _width(k) or not columns.flags.c_contiguous:
        padded = _block(columns.shape[0], k)
        padded[:, :k] = columns
        columns = padded
    return mat @ columns


def _packs(items: Iterable, width: Callable[[object], int]) -> Iterator[tuple[list, int]]:
    """Consecutive runs of ``items`` and their summed widths, each run as
    long as its width stays within ``_PRODUCT_COLUMNS`` (an item wider than
    that makes a run alone): the blocks of one packed product.  Items are
    drawn lazily, one beyond the run at most."""
    run, total = [], 0
    for item in items:
        k = width(item)
        if run and total + k > _PRODUCT_COLUMNS:
            yield run, total
            run, total = [], 0
        run.append(item)
        total += k
    if run:
        yield run, total


def _inverse_products(fhat: Spectrum, symbols: np.ndarray) -> np.ndarray:
    """Physical samples of invH(symbols[:, j] * fhat), one column per symbol,
    then the zero columns of the product rule (``_product``).

    The candidate families and the p = 1 fit's hat columns go through it.
    ``symbols`` is scaled by the spectrum in place, so callers pass an
    array they own and do not reuse, ideally a filled ``_block``, which
    spares ``_product`` its padding copy.
    """
    symbols *= fhat.values[:, None]
    return _product(_kernel_matrix(fhat.lam, fhat.grid), symbols)


_MODULUS_SAMPLES = 24  # quarter-octave rungs below delta in the modulus sup
_K_UPPER_POINTS = 9  # smoothing scales of the K-upper candidate family
_R_CANDIDATE_POINTS = 7  # smoothing scales of the restricted R candidate family


def _rung(k: int) -> float:
    """The quarter-octave rung 2^(-k/4), a Python float power: its bits do
    not depend on which ladder takes it."""
    return 2.0 ** (-k / 4.0)


def _rung_index(x: float) -> int:
    """The least k with 2^(-k/4) <= x, for finite positive x."""
    k = math.ceil(-4.0 * math.log2(x))
    while _rung(k) > x:
        k += 1
    while _rung(k - 1) <= x:
        k -= 1
    return k


def _modulus_steps(delta: float) -> np.ndarray:
    """delta, then the _MODULUS_SAMPLES rungs 2^(-k/4) below it, in
    decreasing order: the steps of the modulus sup, in [delta 2^-6, delta].

    Every delta shares the rungs, as the Marchaud nodes do.  At an octave
    point delta = 2^-k they are bit-equal to delta 2^(-j/4); at other
    lattice points they may differ from that product by one ulp.
    """
    _require("delta", delta)
    k = _rung_index(delta)
    k += _rung(k) == delta
    return np.array([delta] + [_rung(j) for j in range(k, k + _MODULUS_SAMPLES)])


def _ladder(deltas: Sequence[float]) -> tuple[np.ndarray, dict[float, np.ndarray]]:
    """The union of the deltas' ``_modulus_steps`` in decreasing order, and
    for each delta the positions of its own steps in it, in its own order."""
    own = {delta: _modulus_steps(delta).tolist() for delta in deltas}
    union = sorted({t for steps in own.values() for t in steps}, reverse=True)
    at = {t: i for i, t in enumerate(union)}
    return np.array(union), {delta: np.array([at[t] for t in steps]) for delta, steps in own.items()}


def _bessel_base(lam: float, nodes: np.ndarray, steps: np.ndarray) -> np.ndarray:
    """max(1 - j_lam(nu * t_j), 0), one column per step t_j.

    Its (m/2)-th power is the order-m difference symbol ``jm_multiplier``,
    so one Bessel evaluation serves every order.
    """
    return np.maximum(BesselEvaluator(lam).one_minus(np.multiply.outer(nodes, steps)), 0.0)


def _image_norms(fhat: Spectrum, symbols: np.ndarray, p_values: Sequence[float]
                 ) -> dict[float, np.ndarray]:
    """||invH(symbols[:, j] * fhat)||_p of every column j, ``{p: norms}``
    (see ``_inverse_norms``)."""
    return _inverse_norms(fhat.grid, fhat.lam, symbols.shape[1], p_values,
                          lambda j, out: np.multiply(symbols[:, j], fhat.values, out=out))


def _inverse_norms(grid: RadialGrid, lam: float, count: int, p_values: Sequence[float],
                   fill: Callable[[int, np.ndarray], None], minus: np.ndarray | None = None
                   ) -> dict[float, np.ndarray]:
    """||invH(s_j)||_p of ``count`` spectra s_j at every p, ``{p: norms}``;
    ``fill(j, out)`` writes s_j into ``out``.  Given the physical samples
    ``minus``, the norms off p = 2 are of minus - invH(s_j) instead.

    The spectra are drawn ``_PRODUCT_COLUMNS`` at a time into one
    ``_block``, so one block and its product alone are alive.  p = 2 is
    taken on the spectral side: the transform is unitary on L2(nu_lam), so
    each norm is the Plancherel norm of s_j, summed along a contiguous row
    as ``_spectral_l2`` sums it.  The other p share one ``_product`` per
    block, made only when some p != 2 is swept, and reduce its whole
    padded block, so each value equals its one-point call.
    """
    norms = {p: np.empty(count) for p in p_values}
    off_2 = [p for p in p_values if p != 2]
    for start in range(0, count, _PRODUCT_COLUMNS):
        k = min(_PRODUCT_COLUMNS, count - start)
        images = _block(grid.n, k)
        for j in range(k):
            fill(start + j, images[:, j])
        if 2 in p_values:
            norms[2][start : start + k] = _spectral_l2s(np.ascontiguousarray(images[:, :k].T),
                                                        grid, lam)
        if off_2:
            phys = _product(_kernel_matrix(lam, grid), images)
            del images  # the product alone is alive while it is reduced
            if minus is not None:
                np.subtract(minus[:, None], phys, out=phys)
            for p in off_2:
                norms[p][start : start + k] = _lp_norms(phys, grid, lam, p)[:k]
    return norms


def _moduli(fhat: Spectrum, deltas: Sequence[float], orders: Sequence[float],
            p_values: Sequence[float]) -> dict[tuple[float, float, float], ModulusResult]:
    """Modulus of every order m at every p and every delta,
    ``{(delta, p, m): ModulusResult}``: the sup over delta's
    ``_modulus_steps`` of ||Delta_t^m f||_p.

    The sweep evaluates one ``_bessel_base`` over the union U of the
    deltas' steps (``_ladder``), once the largest delta passes
    ``quad._check_step``, and takes the ``_inverse_norms`` of the spectra
    base^(m/2) fhat once per order, raising one column of the base at a
    time: Plancherel sums at p = 2, and for the other p the products of U
    columns by the product rule, ``_PRODUCT_COLUMNS`` at a time.  Each
    delta reads its own entries of each p's norm vector, in its own
    decreasing order, so ties of ``t_max`` break towards the larger step,
    and each value equals the one-delta sweep's.
    """
    _check_step(max(deltas, default=0.0), fhat.grid.rmax, "delta")
    union, own = _ladder(deltas)
    base = _bessel_base(fhat.lam, fhat.grid.nodes, union)
    moduli = {}
    for m in orders:
        norms = _inverse_norms(
            fhat.grid, fhat.lam, union.size, p_values,
            lambda j, out: np.multiply(base[:, j] ** (0.5 * m), fhat.values, out=out))
        for p in p_values:
            for delta, idx in own.items():
                mine = norms[p][idx]
                i = int(np.argmax(mine))
                moduli[delta, p, m] = ModulusResult(value=float(mine[i]),
                                                    t_max=float(union[idx[i]]))
    return moduli


def _diff_norms(fhat: Spectrum, points: Collection[tuple[float, float, float]],
                p_values: Sequence[float]) -> dict[tuple[float, float, float, float], float]:
    """|| Delta_t^m (-Lap)^(r/2) f ||_p at every point (t, m, r) and every p,
    ``{(t, m, r, p): value}``; m = 0 (or r = 0) drops that factor.

    One ``_bessel_base`` serves the distinct steps t of the points with
    m > 0, once the largest passes ``quad._check_step``.  Each distinct
    point is one spectrum of a single ``_inverse_norms`` call: its
    Plancherel norm at p = 2, and off p = 2 one column of a product by the
    product rule.
    """
    nodes = fhat.grid.nodes
    points = list(dict.fromkeys(points))
    steps = sorted({t for t, m, _ in points if m > 0})
    _check_step(max(steps, default=0.0), fhat.grid.rmax, "step t")
    base = _bessel_base(fhat.lam, nodes, np.array(steps))
    column = {t: np.ascontiguousarray(base[:, i]) for i, t in enumerate(steps)}

    def fill(j, out):
        t, m, r = points[j]
        sym = np.ones_like(nodes)
        if r > 0:
            sym = sym * nodes**r
        if m > 0:
            sym = sym * column[t] ** (0.5 * m)
        np.multiply(sym, fhat.values, out=out)

    values = _inverse_norms(fhat.grid, fhat.lam, len(points), p_values, fill)
    return {(t, m, r, p): float(norm[j])
            for j, (t, m, r) in enumerate(points) for p, norm in values.items()}


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


def _l2_objectives(fhat: Spectrum, syms: np.ndarray, t: float, r: float) -> np.ndarray:
    """K-objective at p = 2 of each candidate column, on the spectral side
    (Parseval); no inverse product."""
    grid, lam = fhat.grid, fhat.lam
    # (k, n) rows, one candidate each, as ``_spectral_l2s`` sums them
    gs = np.ascontiguousarray(syms.T) * fhat.values
    approx = _spectral_l2s(fhat.values - gs, grid, lam)
    deriv = _spectral_l2s(grid.nodes**r * gs, grid, lam)
    return approx + t**r * deriv


_FAMILIES = {"K": _k_upper_symbols, "R": _r_candidate_symbols}


def _candidate_minima(
    f: RadialFunction,
    fhat: Spectrum,
    scales: Sequence[float],
    families: Sequence[str],
    r_values: Sequence[float],
    p_values: Sequence[float],
) -> dict[tuple[str, float, float, float], float]:
    """Least K-objective ||f - g||_p + t^r ||(-Lap)^(r/2) g||_p over each
    named candidate family at every scale t, ``{(name, t, p, r): value}``.

    ``families`` names entries of ``_FAMILIES``, whose symbol columns give
    the candidates g = invH(S_j fhat).  p = 2 measures both terms on the
    spectral side, with the sharp truncations added to each family.  The
    other p read one block per scale: each family, then its nu^r derivative
    blocks for every r, a layout that does not depend on which p are
    swept.  Whole scales' blocks are packed into products of at most
    ``_PRODUCT_COLUMNS`` columns (``_packs``), each filled in place into
    one ``_block``, so only one packed product is alive at a time.
    """
    grid, nodes, lam = fhat.grid, fhat.grid.nodes, fhat.lam
    minima = {}
    for p in p_values:
        if p == 2:
            for t in scales:
                for name in families:
                    syms = _FAMILIES[name](nodes, t, True)
                    for r in r_values:
                        minima[name, t, p, r] = float(np.min(_l2_objectives(fhat, syms, t, r)))
    off_2 = [p for p in p_values if p != 2]
    if not (off_2 and families):
        return minima
    blocks = 1 + len(r_values)
    powers = [nodes[:, None] ** r for r in r_values]
    per_scale = ((t, [(name, _FAMILIES[name](nodes, t, False)) for name in families])
                 for t in scales)
    for run, width in _packs(per_scale, lambda item: blocks * sum(s.shape[1] for _, s in item[1])):
        symbols, layout, col = _block(nodes.size, width), [], 0
        for t, syms in run:
            for name, block in syms:
                k = block.shape[1]
                symbols[:, col : col + k] = block
                for i, power in enumerate(powers, start=1):
                    np.multiply(block, power, out=symbols[:, col + i * k : col + (i + 1) * k])
                layout.append((name, t, col, k))
                col += blocks * k
        phys = _inverse_products(fhat, symbols)
        del symbols  # the product alone is alive while it is reduced
        for name, t, col, k in layout:
            for p in off_2:
                approx = _lp_norms(f.values[:, None] - phys[:, col : col + k], grid, lam, p)
                for i, r in enumerate(r_values, start=1):
                    deriv = _lp_norms(phys[:, col + i * k : col + (i + 1) * k], grid, lam, p)
                    minima[name, t, p, r] = float(np.min(approx + t**r * deriv))
        del phys
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

    At p = 2 the norm is the Plancherel norm of the symbol-multiplied
    spectrum; other p invert it and measure the norm on the physical grid
    (``_inverse_norms``).  t, m and r must be finite and nonnegative, and t
    positive when m > 0.  The one-point case of ``_diff_norms``.
    """
    _require("order m", m, zero_ok=True)
    _require("r", r, zero_ok=True)
    _require("step t", t, zero_ok=m == 0)
    return _diff_norms(_spectrum_of(f, lam, fhat), ((t, m, r),), (p,))[t, m, r, p]


def modulus(
    f: RadialFunction,
    delta: float,
    m: float,
    p: float,
    lam: float,
    fhat: Spectrum | None = None,
) -> ModulusResult:
    """Fractional modulus of smoothness sup_{0 < t <= delta} ||Delta_t^m f||_p.

    The sup is discretized on delta and the _MODULUS_SAMPLES quarter-octave
    rungs 2^(-k/4) below it (``_modulus_steps``), a lattice every delta
    shares, so a sweep over many deltas evaluates each step once.  The value
    is a lower bound of the true sup within grid slack.  At p = 2 each
    step's norm is the Plancherel norm of the symbol-multiplied spectrum,
    at other p the physical norm of its inverse.  The one-delta case of
    ``_moduli``.
    """
    _require("delta", delta)
    _require("order m", m)
    fhat = _spectrum_of(f, lam, fhat)
    return _moduli(fhat, (delta,), (m,), (p,))[delta, p, m]


class BestApprox(NamedTuple):
    """Best-approximation value, the bandlimited approximant, near-best flag."""

    value: float
    g_star: Spectrum
    near_best: bool


_L1_HATS = 41  # hat functions spanning [0, sigma] in the p = 1 fit
_L1_LP_ROWS = 512  # LP rows: blocks of consecutive grid nodes, summed


def _hats(nodes: np.ndarray, sigma: float) -> np.ndarray:
    """The ``_L1_HATS`` hat functions spanning [0, sigma], one column each,
    zero beyond sigma."""
    knots = np.linspace(0.0, sigma, _L1_HATS)
    hats = np.clip(1.0 - np.abs(nodes[:, None] - knots[None, :]) / knots[1], 0.0, None)
    hats[nodes > sigma] = 0.0
    return hats


def _l1_fit_symbols(f: RadialFunction, fhat: Spectrum, sigmas: Sequence[float]
                    ) -> dict[float, np.ndarray | None]:
    """For each sigma the multiplier phi = sum_j c_j hat_j on [0, sigma],
    0 <= c_j <= 1, zero beyond sigma, fitted so that invH(phi * fhat) is
    close to f in L1(nu), ``{sigma: phi}``.

    The weighted-L1 objective is a linear program (HiGHS), one per sigma.
    Its rows are the nu-weighted residuals summed over blocks of
    consecutive nodes, about ``_L1_LP_ROWS`` blocks in all (four nodes each
    at n = 2048).  Summing lets a residual cancel inside a block, so the LP
    only chooses phi; callers re-measure the error on the full grid.  The
    box on c keeps the derivative term of the K-objective bounded.  Every
    part of the program but the fit rows is built once for the sweep, and
    the hat columns of whole sigmas are packed into products of at most
    ``_PRODUCT_COLUMNS`` columns (``_packs``).  phi is None where HiGHS
    does not report an optimum.
    """
    if not sigmas:
        return {}
    # imported here: scipy.optimize adds ~22 MB resident, paid only by runs
    # that fit at p = 1
    from scipy.optimize import linprog
    from scipy.sparse import csr_array, hstack, identity, vstack

    grid, lam = fhat.grid, fhat.lam
    nodes = grid.nodes
    w = nu_weights(grid, lam)
    starts = np.arange(0, nodes.size, max(1, nodes.size // _L1_LP_ROWS))
    target = np.add.reduceat(w * f.values, starts)
    # min sum e  s.t.  -e <= target - rows @ c <= e,  0 <= c <= 1,  e >= 0
    k, m = _L1_HATS, target.size
    slack = -identity(m, format="csr")
    cost = np.concatenate([np.zeros(k), np.ones(m)])
    b_ub = np.concatenate([target, -target])
    bounds = [(0.0, 1.0)] * k + [(0.0, None)] * m
    phis = {}
    for run, width in _packs(sigmas, lambda _: k):
        symbols = _block(nodes.size, width)
        for i, sigma in enumerate(run):
            symbols[:, i * k : (i + 1) * k] = _hats(nodes, sigma)
        # the full-square product: a product sliced at sigma gives bits that
        # depend on the BLAS thread count
        cols = _inverse_products(fhat, symbols)
        del symbols  # the product alone is alive while it is reduced
        fits = [np.add.reduceat(w[:, None] * cols[:, i * k : (i + 1) * k], starts, axis=0)
                for i in range(len(run))]
        del cols
        for sigma, rows in zip(run, fits):
            fit = csr_array(rows)
            res = linprog(cost, A_ub=vstack([hstack([fit, slack]), hstack([-fit, slack])]),
                          b_ub=b_ub, bounds=bounds, method="highs")
            phis[sigma] = _hats(nodes, sigma) @ res.x[:k] if res.status == 0 else None
    return phis


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
    [0, sigma] (``_l1_fit_symbols``; once sigma reaches the last grid node,
    fhat itself) is the second candidate, and the one with the smaller
    full-grid error is returned, so the value is never above the projection's.
    Off p = 2 the value is an upper bound, flagged ``near_best=True``.
    ``fhat`` is the precomputed transform of f.  The one-(sigma, p) case of
    ``_best_approxes``.
    """
    return _best_approxes(f, fhat, (sigma,), (p,), lam)[p][sigma]


def _best_approxes(
    f: RadialFunction,
    fhat: Spectrum | None,
    sigmas: Sequence[float],
    p_values: Sequence[float],
    lam: float,
) -> dict[float, dict[float, BestApprox]]:
    """``best_approx`` at every p and every distinct sigma,
    ``{p: {sigma: BestApprox}}``.

    At p = 2 every value comes from one ``_spectral_tails`` sweep, which
    evaluates each Bessel block the cut panels share once.  Off p = 2 each
    sigma takes one smoothing projection, and the products of every
    projection give the residuals f - invH(g), whose norm every such p
    takes (``_residual_norms``); p = 1 then fits its own candidates
    (``_l1_fit_symbols``) and measures them the same way.
    """
    sigmas = list(dict.fromkeys(sigmas))
    for sigma in sigmas:
        _require("sigma", sigma)
    fhat = _spectrum_of(f, lam, fhat)
    approxes = {p: {} for p in p_values}
    if 2 in p_values:
        tails = _spectral_tails(f, lam, sigmas, fhat)
        approxes[2] = {sigma: BestApprox(value=tails[sigma], g_star=bandlimit_project(fhat, sigma),
                                         near_best=False) for sigma in sigmas}
    off_2 = [p for p in p_values if p != 2]
    if not (off_2 and sigmas):
        return approxes
    projections = [vallee_poussin(fhat, sigma / 2.0) for sigma in sigmas]
    for p, errors in _residual_norms(f, lam, projections, off_2).items():
        for sigma, g, value in zip(sigmas, projections, errors.tolist()):
            approxes[p][sigma] = BestApprox(value=value, g_star=g, near_best=True)
    if 1 not in off_2:
        return approxes
    nodes = fhat.grid.nodes
    phis = _l1_fit_symbols(f, fhat, [sigma for sigma in sigmas if sigma < nodes[-1]])
    fits = {}
    for sigma in sigmas:
        phi = phis[sigma] if sigma < nodes[-1] else np.ones_like(nodes)
        if phi is not None:
            bl = sigma if fhat.bandlimit is None else min(fhat.bandlimit, sigma)
            fits[sigma] = fhat.with_symbol(f"l1fit:sigma={sigma!r}", phi, bandlimit=bl)
    values = _residual_norms(f, lam, fits.values(), (1,))[1].tolist()
    for (sigma, fit), value in zip(fits.items(), values):
        if value <= approxes[1][sigma].value:
            approxes[1][sigma] = BestApprox(value=value, g_star=fit, near_best=True)
    return approxes


def _residual_norms(f: RadialFunction, lam: float, spectra: Collection[Spectrum],
                    p_values: Sequence[float]) -> dict[float, np.ndarray]:
    """||f - invH(g)||_p of every spectrum g at every p != 2,
    ``{p: norms}``, from the products of ``_inverse_norms``."""
    spectra = list(spectra)
    return _inverse_norms(f.grid, lam, len(spectra), p_values,
                          lambda j, out: np.copyto(out, spectra[j].values), minus=f.values)


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
) -> RealizationResult:
    """Realization of the K-functional at scale t.

    Evaluates ||f - g*||_p + t^r ||(-Lap)^(r/2) g*||_p with g* the
    (near-)best approximant of spherical type 1/t (see ``best_approx``: the
    weighted-L1 fit at p = 1, the smoothing projection at other p != 2);
    bandlimited functions lie in every Sobolev class, so the derivative term
    is always finite.  ``fhat`` is the precomputed transform of f.  The
    one-(t, r) case of ``_realizations``.
    """
    _require("t", t)
    _require("r", r)
    return _realizations({t: best_approx(f, 1.0 / t, p, lam, fhat=fhat)}, (r,), p)[t, r]


def _realizations(approxes: dict[float, BestApprox], r_values: Sequence[float], p: float
                  ) -> dict[tuple[float, float], RealizationResult]:
    """``realization`` at one p of every scale t of ``approxes`` and every
    r, ``{(t, r): RealizationResult}``.

    ``approxes`` maps each t to its approximant of type 1/t at p, an entry
    of a ``_best_approxes`` sweep, so every r reads it once.  The derivative
    terms are the norms of the spectra nodes^r g of every (t, r), one
    spectrum each of a single ``_inverse_norms`` call: Plancherel sums at
    p = 2, one column of a product by the product rule at other p.
    """
    points = [(t, r) for t in approxes for r in r_values]
    if not points:
        return {}
    first = next(iter(approxes.values())).g_star

    def fill(j, out):
        t, r = points[j]
        np.multiply(first.grid.nodes**r, approxes[t].g_star.values, out=out)

    norms = _inverse_norms(first.grid, first.lam, len(points), (p,), fill)[p]
    results = {}
    for j, (t, r) in enumerate(points):
        value = approxes[t].value
        term = t**r * float(norms[j])
        results[t, r] = RealizationResult(value=value + term, approx_error=value,
                                          derivative_term=term, sigma_used=1.0 / t)
    return results


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
    never exceeds ||f||_p.  An upper bound on the true infimum by
    construction.  The one-point "K" case of ``_chain_sweep``.
    """
    return _chain_sweep(f, (t,), (r,), (p,), lam, ("K",), fhat)["K"][t, p, r]


def realization_candidate_min(
    f: RadialFunction,
    t: float,
    r: float,
    p: float,
    lam: float,
    fhat: Spectrum | None = None,
) -> float:
    """Candidate-grid approximation of the restricted K-infimum over the
    bandlimited class of type 1/t.

    Candidates: P_sigma(f) for sigma in [1/(8t), 1/(2t)] (their outputs are
    bandlimited to 2*sigma <= 1/t), variable-width plateau cutoffs vanishing
    at 1/t, sharp truncations up to 1/t at p = 2, and the realization
    approximant itself (the weighted-L1 fit at p = 1).  The one-point "R"
    case of ``_chain_sweep``.
    """
    return _chain_sweep(f, (t,), (r,), (p,), lam, ("R",), fhat)["R"][t, p, r]


_CHAIN_FUNCTIONALS = ("omega", "diff", "K", "Rstar", "R")


def _chain_sweep(
    f: RadialFunction,
    scales: Sequence[float],
    r_values: Sequence[float],
    p_values: Sequence[float],
    lam: float,
    names: Collection[str],
    fhat: Spectrum | None = None,
) -> dict[str, dict[tuple[float, float, float], float]]:
    """The named chain functionals at every scale t and every (p, r) of a
    sweep, ``{name: {(t, p, r): value}}``.

    ``names`` are drawn from ``_CHAIN_FUNCTIONALS``: the modulus ``"omega"``
    at delta = t and order r, the difference norm ``"diff"`` at step t and
    order r, the K-upper bound ``"K"``, the realization ``"Rstar"`` and the
    candidate minimum ``"R"``, the least of Rstar and its candidate family
    (so "R" brings "Rstar").  Each value equals the single call
    (``modulus``, ``diff_norm``, ``realization``); ``k_functional_upper``
    and ``realization_candidate_min`` are this sweep at one point.

    The moduli of every scale come from one ``_moduli`` sweep and the
    difference norms from one ``_diff_norms`` sweep, each with its own
    Bessel base.  "R" and "Rstar" take the approximants of the types 1/t
    from one ``_best_approxes`` sweep over every p and their values from one
    ``_realizations`` sweep per p, and one ``_candidate_minima`` sweep over
    every scale packs the families of whole scales into products off
    p = 2.  A sweep at p = 2 alone makes no inverse product.  Nothing here
    remembers a call: the harness hands values from one chain experiment
    to the next (``harness._HandOff``) and asks only for the names it must
    compute.
    """
    if not set(names) <= set(_CHAIN_FUNCTIONALS):
        raise ValueError(f"chain functionals are {_CHAIN_FUNCTIONALS}, got {sorted(names)}")
    for t in scales:
        _require("t", t)
    for r in r_values:
        _require("r", r)
    values = {name: {} for name in _CHAIN_FUNCTIONALS
              if name in names or (name == "Rstar" and "R" in names)}
    if not (p_values and r_values):
        return values
    fhat = _spectrum_of(f, lam, fhat)

    if "omega" in values:
        for (t, p, r), result in _moduli(fhat, scales, r_values, p_values).items():
            values["omega"][t, p, r] = result.value
    if "diff" in values:
        points = [(t, r, 0.0) for t in scales for r in r_values]
        for (t, r, _, p), value in _diff_norms(fhat, points, p_values).items():
            values["diff"][t, p, r] = value
    if "Rstar" in values:
        approxes = _best_approxes(f, fhat, [1.0 / t for t in scales], p_values, lam)
        for p in p_values:
            realized = _realizations({t: approxes[p][1.0 / t] for t in scales}, r_values, p)
            for (t, r), result in realized.items():
                values["Rstar"][t, p, r] = result.value
    families = [name for name in _FAMILIES if name in names]
    for (name, t, p, r), low in _candidate_minima(f, fhat, scales, families, r_values,
                                                  p_values).items():
        values[name][t, p, r] = low if name == "K" else min(values["Rstar"][t, p, r], low)
    return values


def inverse_bound(
    E_values: Sequence[tuple[int, float]] | dict[int, float], n: int, m: float
) -> float:
    """Weighted cumulative best-approximation sum n^-m sum_{j<=n} (j+1)^(m-1) E_j.

    Requires E_j for every j = 0..n; a missing index is an error.
    """
    if not (1 <= n < math.inf and int(n) == n):
        raise ValueError(f"n must be a positive integer, got {n!r}")
    _require("m", m)
    table = dict(E_values)
    missing = [j for j in range(int(n) + 1) if j not in table]
    if missing:
        raise ValueError(f"missing best-approximation values for j={missing}")
    total = sum((j + 1.0) ** (m - 1.0) * float(table[j]) for j in range(int(n) + 1))
    return float(n) ** (-m) * total


def _marchaud_nodes(delta: float) -> np.ndarray:
    """delta, then the quarter-octave rungs 2^(-k/4) > delta, k >= 0, in
    increasing order up to 1: the nodes of the Marchaud integral over
    [delta, 1].  Every delta shares the rungs (``_rung``), as every modulus
    sup does.
    """
    if not (0 < delta < 1):
        raise ValueError(f"delta must lie in (0, 1), got {delta!r}")
    return np.array([delta] + [_rung(k) for k in range(_rung_index(delta) - 1, -1, -1)])


def _marchaud_sigmas(deltas: Sequence[float]) -> list[float]:
    """The types 1/t of the approximants ``_marchaud_bounds`` reads: one per
    point t of the union of the deltas' ladders, in increasing t."""
    points = {t for delta in deltas for t in _marchaud_nodes(delta).tolist()}
    return [1.0 / t for t in sorted(points)]


def _marchaud_bounds(
    f: RadialFunction,
    deltas: Sequence[float],
    orders: Sequence[float],
    p: float,
    lam: float,
    approxes: dict[float, BestApprox],
) -> dict[tuple[float, float], float]:
    """Marchaud right-hand side of every (delta, m) at one p,
    ``{(delta, m): bound}`` (see ``marchaud_bound``).

    The nodes of every delta lie on one ladder (``_marchaud_nodes``), so the
    sweep reads one approximant per point t of their union, of type
    sigma = 1/t (``_marchaud_sigmas``), and takes the realizations of every
    (point, m) from one ``_realizations`` sweep; each delta's integral reads
    its own nodes only.
    ``approxes`` maps each such sigma to its ``best_approx`` at p: the p
    entry of a caller's ``_best_approxes`` sweep over these sigmas, and
    perhaps others.
    """
    for m in orders:
        _require("m", m)
    nodes = {delta: _marchaud_nodes(delta) for delta in deltas}
    points = sorted({t for ts in nodes.values() for t in ts.tolist()})
    kvals = _realizations({t: approxes[1.0 / t] for t in points}, [m + 1.0 for m in orders], p)
    norm = lp_norm(f, p, lam)
    bounds = {}
    for delta, ts in nodes.items():
        for m in orders:
            integrand = ts ** (-m) * np.array([kvals[t, m + 1.0].value for t in ts.tolist()])
            integral = float(np.trapezoid(integrand, x=np.log(ts)))
            bounds[delta, m] = delta**m * (norm + integral)
    return bounds


def marchaud_bound(
    f: RadialFunction,
    delta: float,
    m: float,
    p: float,
    lam: float,
    fhat: Spectrum | None = None,
) -> float:
    """Marchaud-type right-hand side delta^m (||f||_p + int_delta^1 t^-m K dt/t).

    K at order m+1 is replaced by realization values at the nodes delta and
    2^(-k/4) > delta (k = 0, 1, ...), a quarter-octave ladder that every
    delta shares; the integral is a trapezoid rule in log t over them.  The
    one-(delta, m) case of ``_marchaud_bounds``.  ``fhat`` is the
    precomputed transform of f.  delta must lie in (0, 1) and m be finite
    and positive; both are checked before any transform.
    """
    sigmas = _marchaud_sigmas((delta,))
    _require("m", m)
    approxes = _best_approxes(f, fhat, sigmas, (p,), lam)[p]
    return _marchaud_bounds(f, (delta,), (m,), p, lam, approxes)[delta, m]

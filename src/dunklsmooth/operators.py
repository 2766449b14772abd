"""Spectral multiplier operators.

Every operator here acts canonically in the frequency domain: transform,
multiply by a radial symbol, (optionally) invert.  The symbols in play are

* ``j_lam(t r)``           generalized translation T^t (an Lp contraction),
* ``(1 - j_lam(t r))^(m/2)``  fractional difference Delta_t^m = (I - T^t)^(m/2),
* ``r^s``                  fractional Laplacian power: symbol |y|^s realizes
                           the s/2 power of the (positive) weighted Laplacian,
* ``eta(r / sigma)``       de la Vallee Poussin smoothing P_sigma.

Pointwise symbol products commute, so any two operators commute; the Spectrum
pending-symbol mechanism makes that true to the bit under reordering.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .quad import RadialFunction, lp_norm
from .special import BesselEvaluator, _require, binom_frac, binom_tail_bound, jm_multiplier
from .transforms import Spectrum, hankel, inverse_hankel

__all__ = [
    "eta",
    "translate_T",
    "frac_laplacian",
    "frac_difference",
    "SeriesDifference",
    "frac_difference_series",
    "vallee_poussin",
]


def eta(t):
    """Smooth cutoff: 1 on [0, 1], 0 on [2, inf), and on (1, 2) the
    exponential-bump bridge h(2-t) / (h(2-t) + h(t-1)), h(u) = exp(-1/u).

    A scalar gives a float, an array an array of the same shape; NaN maps
    to NaN.
    """
    arr = np.asarray(t, dtype=float)
    u = np.atleast_1d(arr)

    def h(x: np.ndarray) -> np.ndarray:
        out = np.zeros_like(x)
        pos = x > 0
        out[pos] = np.exp(-1.0 / x[pos])
        return out

    out = np.full_like(u, np.nan)
    out[u <= 1.0] = 1.0
    out[u >= 2.0] = 0.0
    mid = (u > 1.0) & (u < 2.0)
    a = h(2.0 - u[mid])
    b = h(u[mid] - 1.0)
    out[mid] = a / (a + b)
    return float(out[0]) if arr.ndim == 0 else out


# --------------------------------------------------------------------------
# the multiplier operators
# --------------------------------------------------------------------------


def translate_T(s: Spectrum, t: float) -> Spectrum:
    """Generalized translation by t: symbol j_lam(t r); preserves bandlimit.

    |j_lam| <= 1 makes this an L^2 contraction exactly in spectral form.
    """
    t = float(t)
    _require("step t", t)
    sym = BesselEvaluator(s.lam)(t * s.grid.nodes)
    return s.with_symbol(f"T:t={t!r}", sym)


def frac_laplacian(s: Spectrum, r: float) -> Spectrum:
    """Half-power r of the weighted Laplacian: symbol |y|^r.

    Applying with exponents a then b equals a single application with a+b
    (power-law composition); the symbol vanishes at zero frequency for r > 0.
    """
    r = float(r)
    _require("power r", r)
    return s.with_symbol(f"L:r={r!r}", s.grid.nodes**r)


def frac_difference(s: Spectrum, t: float, m: float) -> Spectrum:
    """Fractional difference Delta_t^m: symbol (1 - j_lam(t r))^(m/2).

    m == 2 is evaluated as f - T^t f (the binomial terminates), keeping the
    operator identity Delta_t^2 = I - T^t exact to the bit.
    """
    t = float(t)
    m = float(m)
    _require("step t", t)
    _require("order m", m)
    if m == 2.0:
        return s - translate_T(s, t)
    sym = jm_multiplier(s.lam, m, t * s.grid.nodes)
    return s.with_symbol(f"D:t={t!r}:m={m!r}", sym)


class SeriesDifference(NamedTuple):
    """Truncated-series difference plus its sup-norm truncation certificate."""

    result: RadialFunction
    tail_bound: float


def frac_difference_series(
    f: RadialFunction, t: float, m: float, N: int, lam: float
) -> SeriesDifference:
    """Binomial-series form of Delta_t^m truncated at N terms.

    Evaluates sum_{s=0}^N (-1)^s C(m/2, s) (T^t)^s f through the transform
    and returns it with the certificate binom_tail_bound(m/2, N) * ||f||_inf,
    a rigorous sup-norm bound on the discarded tail (T^t contracts every Lp).
    """
    # the range test first: int() of NaN or inf raises its own error
    if not (0 <= N < math.inf and int(N) == N):
        raise ValueError(f"N must be a nonnegative integer, got {N!r}")
    _require("step t", t)
    _require("order m", m)
    fhat = hankel(f, lam)
    jarr = BesselEvaluator(lam)(t * f.grid.nodes)
    acc = np.zeros_like(f.grid.nodes)
    power = np.ones_like(f.grid.nodes)
    for s_idx in range(int(N) + 1):
        acc = acc + (-1.0) ** s_idx * binom_frac(0.5 * m, s_idx) * power
        power = power * jarr
    out = inverse_hankel(fhat.with_symbol(f"series:t={t!r}:m={m!r}:N={N}", acc))
    cert = binom_tail_bound(0.5 * m, int(N)) * lp_norm(f, math.inf, lam)
    return SeriesDifference(result=out, tail_bound=cert)


def vallee_poussin(s: Spectrum, sigma: float) -> Spectrum:
    """Smoothing projection P_sigma: symbol eta(r / sigma).

    Reproduces spectra bandlimited to sigma exactly at the nodes and outputs
    a spectrum bandlimited to 2 sigma; for p != 2 it is the near-best
    bandlimited approximant the smoothness layer relies on.
    """
    sigma = float(sigma)
    _require("sigma", sigma)
    sym = eta(s.grid.nodes / sigma)
    new_bl = 2.0 * sigma if s.bandlimit is None else min(s.bandlimit, 2.0 * sigma)
    return s.with_symbol(f"P:sigma={sigma!r}", sym, bandlimit=new_bl)


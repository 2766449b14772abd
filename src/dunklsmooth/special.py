"""Normalized Bessel kernels and generalized binomial machinery.

The scalar building blocks of the spectral calculus:

* ``j_lam(t) = 2^lam * Gamma(lam+1) * t^(-lam) * J_lam(t)``, the normalized
  Bessel function: j_lam(0) = 1 and |j_lam(t)| <= 1 for lam >= -1/2.
* the fractional-difference symbol ``(1 - j_lam(t))^(m/2)``,
* generalized binomial coefficients ``C(alpha, s)`` for real alpha > 0 with a
  rigorous bound on the absolute tail sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special as _sps

from .weights import LAMBDA_MIN

__all__ = [
    "BesselEvaluator",
    "bessel_norm",
    "bessel_norm_one_minus",
    "bessel_norm_derivative",
    "jm_multiplier",
    "binom_frac",
    "binom_tail_bound",
]


def _check_order(lam: float) -> float:
    lam = float(lam)
    if not math.isfinite(lam) or lam <= LAMBDA_MIN:
        raise ValueError(f"order must be a finite real > -1/2, got {lam!r}")
    return lam


@dataclass(frozen=True)
class BesselEvaluator:
    """Evaluator for j_lam with a power series below ``series_cutoff`` and
    library Bessel-J above it.

    The split keeps t = 0 exact (empty product = 1) and avoids the 0 * inf
    indeterminacy of t^(-lam) * J_lam(t) near the origin; the large-t branch
    meets the 1e-12 absolute-accuracy contract on [0, 1e3].
    """

    lam: float
    series_cutoff: float = 0.5
    series_terms: int = 18

    def __post_init__(self) -> None:
        _check_order(self.lam)

    def _series(self, t: np.ndarray) -> np.ndarray:
        # j_lam(t) = sum_k (-1)^k Gamma(lam+1) (t/2)^(2k) / (k! Gamma(k+lam+1));
        # successive-term ratio is -(t/2)^2 / (k (k+lam)).
        x = -0.25 * t * t
        term = np.ones_like(t)
        acc = np.ones_like(t)
        for k in range(1, self.series_terms):
            term = term * x / (k * (k + self.lam))
            acc = acc + term
        return acc

    def __call__(self, t):
        arr = np.asarray(t, dtype=float)
        scalar = arr.ndim == 0
        arr = np.atleast_1d(arr)
        if np.any(arr < 0):
            raise ValueError("argument must be nonnegative")
        out = np.empty_like(arr)
        small = arr <= self.series_cutoff
        if small.any():
            out[small] = self._series(arr[small])
        big = ~small
        if big.any():
            tb = arr[big]
            norm = 2.0**self.lam * math.gamma(self.lam + 1.0) * tb ** (-self.lam)
            out[big] = norm * _sps.jv(self.lam, tb)
        return float(out[0]) if scalar else out

    def one_minus(self, t):
        """1 - j_lam(t), cancellation-free for small t.

        Below t = 0.1 the direct subtraction would lose ~5 digits; the
        leading series 1 - j = t^2/(4(lam+1)) * (1 - ...) is used instead.
        """
        arr = np.asarray(t, dtype=float)
        scalar = arr.ndim == 0
        arr = np.atleast_1d(arr)
        if np.any(arr < 0):
            raise ValueError("argument must be nonnegative")
        out = np.empty_like(arr)
        small = arr <= 0.1
        if small.any():
            x = -0.25 * arr[small] * arr[small]
            term = x / (1.0 + self.lam)
            acc = term.copy()
            for k in range(2, 7):
                term = term * x / (k * (k + self.lam))
                acc = acc + term
            out[small] = -acc
        big = ~small
        if big.any():
            out[big] = 1.0 - self(arr[big])
        return float(out[0]) if scalar else out


def bessel_norm(lam: float, t):
    """Normalized Bessel function j_lam(t); accepts scalars or arrays."""
    return BesselEvaluator(lam)(t)


def bessel_norm_one_minus(lam: float, t):
    """1 - j_lam(t) without small-argument cancellation."""
    return BesselEvaluator(lam).one_minus(t)


def bessel_norm_derivative(lam: float, t):
    """d/dt j_lam(t) = -t/(2(lam+1)) * j_(lam+1)(t)."""
    _check_order(lam)
    arr = np.asarray(t, dtype=float)
    return -(arr / (2.0 * (lam + 1.0))) * BesselEvaluator(lam + 1.0)(arr)


def jm_multiplier(lam: float, m: float, t):
    """Fractional-difference symbol (1 - j_lam(t))^(m/2).

    Nonnegative since j_lam <= 1; vanishes like t^m at the origin.
    """
    _check_order(lam)
    if not (m > 0):
        raise ValueError(f"order m must be positive, got {m!r}")
    base = np.maximum(BesselEvaluator(lam).one_minus(t), 0.0)
    return base ** (0.5 * m)


def _sinpi(x: float) -> float:
    """sin(pi x) with argument reduction (full relative accuracy near zeros)."""
    k = round(x)
    return (-1.0) ** (k % 2) * math.sin(math.pi * (x - k))


def binom_frac(alpha: float, s: int) -> float:
    """Generalized binomial coefficient Gamma(a+1)/(Gamma(s+1) Gamma(a-s+1)).

    For s > alpha the Gamma in the denominator sits at or beyond a pole;
    the reflection form (-1)^(s+1) sin(pi a)/pi * Gamma(a+1) Gamma(s-a) /
    Gamma(s+1) is used there, and integer alpha terminates exactly at 0.
    """
    alpha = float(alpha)
    if not (alpha > 0):
        raise ValueError(f"alpha must be positive, got {alpha!r}")
    if int(s) != s or s < 0:
        raise ValueError(f"s must be a nonnegative integer, got {s!r}")
    s = int(s)
    if s == 0:
        return 1.0
    if alpha == round(alpha) and s > alpha:
        return 0.0
    if alpha - s + 1.0 > 0.0:
        return math.exp(
            math.lgamma(alpha + 1.0) - math.lgamma(s + 1.0) - math.lgamma(alpha - s + 1.0)
        )
    mag = math.exp(math.lgamma(alpha + 1.0) + math.lgamma(s - alpha) - math.lgamma(s + 1.0))
    return (-1.0) ** (s + 1) * _sinpi(alpha) / math.pi * mag


def binom_tail_bound(alpha: float, N: int, max_terms: int = 200_000) -> float:
    """Rigorous upper bound on sum_{s > N} |C(alpha, s)|.

    Sums terms by the exact ratio |C(a,s+1)| = |C(a,s)| * |a-s|/(s+1) until
    they drop below machine precision (or ``max_terms``), then bounds the
    remainder: u_s = t_s * s^(alpha+1) is decreasing for s > alpha, so
    sum_{s >= M} t_s <= t_M * (1 + M/alpha), an integral-comparison bound of
    the C / N^alpha shape.
    """
    alpha = float(alpha)
    if not (alpha > 0):
        raise ValueError(f"alpha must be positive, got {alpha!r}")
    if int(N) != N or N < 0:
        raise ValueError(f"N must be a nonnegative integer, got {N!r}")
    N = int(N)
    if alpha == round(alpha) and N >= alpha:
        return 0.0
    s = N + 1
    t_s = abs(binom_frac(alpha, s))
    total = 0.0
    for _ in range(max_terms):
        total += t_s
        t_s = t_s * abs(alpha - s) / (s + 1.0)
        s += 1
        if t_s == 0.0:
            return total
        if s > alpha + 1.0 and t_s < 1e-17 * (1.0 + total):
            break
    return total + t_s * (1.0 + s / alpha)

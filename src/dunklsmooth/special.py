"""Normalized Bessel kernels and generalized binomial machinery.

The scalar building blocks of the spectral calculus:

* ``j_lam(t) = 2^lam * Gamma(lam+1) * t^(-lam) * J_lam(t)``, the normalized
  Bessel function: j_lam(0) = 1 and |j_lam(t)| <= 1 for lam >= -1/2.  Above
  the series range it is read from a per-lam table of Chebyshev
  interpolants of that library formula.
* the fractional-difference symbol ``(1 - j_lam(t))^(m/2)``,
* generalized binomial coefficients ``C(alpha, s)`` for real alpha > 0 with a
  rigorous bound on the absolute tail sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import special as _sps

__all__ = [
    "BESSEL_ARG_MAX",
    "BESSEL_LAMBDA_MAX",
    "BesselEvaluator",
    "bessel_norm",
    "jm_multiplier",
    "binom_frac",
    "binom_tail_bound",
]


# j_lam is bounded by 1 for orders above LAMBDA_MIN, and meets its 1e-12
# absolute-accuracy contract for arguments in [0, BESSEL_ARG_MAX] and orders
# up to BESSEL_LAMBDA_MAX (at 130 the library branch gives 0 for j_lam(0.51),
# near 1); a kernel on [0, rmax] evaluates up to rmax^2
LAMBDA_MIN = -0.5
BESSEL_ARG_MAX = 1e3
BESSEL_LAMBDA_MAX = 120.0


def _check_lambda(lam: float, name: str = "lambda") -> float:
    """``lam`` as a float; refused unless it lies in (LAMBDA_MIN,
    BESSEL_LAMBDA_MAX], naming the field ``name``."""
    lam = float(lam)
    if not (LAMBDA_MIN < lam <= BESSEL_LAMBDA_MAX):
        raise ValueError(
            f"{name} must lie in (-1/2, {BESSEL_LAMBDA_MAX:g}], where the Bessel evaluation"
            f" is accurate, got {lam!r}"
        )
    return lam


def _require(name: str, value: float, zero_ok: bool = False) -> None:
    """Refuse a scale or order that is NaN, infinite, negative, or zero
    unless ``zero_ok``, naming it; callers check before any work."""
    if not (0 <= value < math.inf if zero_ok else 0 < value < math.inf):
        kind = "nonnegative" if zero_ok else "positive"
        raise ValueError(f"{name} must be finite and {kind}, got {value!r}")


# j_lam is summed as its power series at arguments up to _SERIES_CUTOFF, to
# at most _SERIES_TERMS terms.  There every partial sum lies in [7/8, 1] (the
# first term is at most (1/16) / (1/2) in size), so a term below 2^-54, half
# an ulp there, leaves the rounded sum unchanged; terms shrink at least 48x a
# step after the first, so the sum stops once a bound on the next term drops
# below _SERIES_TAIL, a factor 4 short of that, with every bit of the
# _SERIES_TERMS-term sum
_SERIES_CUTOFF = 0.5
_SERIES_TERMS = 18
_SERIES_TAIL = 2.0**-56


def _library(lam: float, t: np.ndarray) -> np.ndarray:
    """j_lam(t) = 2^lam Gamma(lam+1) t^(-lam) J_lam(t) by library Bessel-J, t > 0."""
    norm = 2.0**lam * math.gamma(lam + 1.0) * t ** (-lam)
    return norm * _sps.jv(lam, t)


# Above _SERIES_CUTOFF and up to BESSEL_ARG_MAX, j_lam is read from a table of
# width-1 panels [k + 1/2, k + 3/2]: on each, the polynomial interpolating
# ``_library`` at _TABLE_NODES Chebyshev points, held as its coefficients in
# u = 2 (t - k - 1), which lies in [-1, 1).  j_lam and its derivatives are
# bounded by 1, so the interpolation error is below 1e-20; what is left is
# the rounding of the library values.
_TABLE_NODES = 15
_THETA = np.pi * (np.arange(_TABLE_NODES) + 0.5) / _TABLE_NODES
_CHEB_NODES = np.cos(_THETA)
_DEGREES = np.arange(_TABLE_NODES)
# values at the nodes -> Chebyshev coefficients, by discrete orthogonality;
# cos(k theta_j) = cos(pi m / 2N) with m = k (2j + 1) reduced mod 4N first,
# since the angle k theta_j formed in floating point is up to k ulps off
_TO_CHEB = 2.0 / _TABLE_NODES * np.cos(
    np.pi * (np.multiply.outer(_DEGREES, 2 * _DEGREES + 1) % (4 * _TABLE_NODES))
    / (2 * _TABLE_NODES))
_TO_CHEB[0] *= 0.5
# Chebyshev coefficients -> slope at the nodes, T_k'(cos th) = k sin(k th) / sin(th)
_CHEB_SLOPE = _DEGREES * np.sin(np.multiply.outer(_THETA, _DEGREES)) / np.sin(_THETA)[:, None]


def _chebyshev_to_monomial(n: int) -> np.ndarray:
    """Column k holds the monomial coefficients of T_k, by
    T_k = 2 u T_(k-1) - T_(k-2); all are integers, so exact."""
    mono = np.zeros((n, n))
    mono[0, 0] = mono[1, 1] = 1.0
    for k in range(2, n):
        mono[1:, k] = 2.0 * mono[:-1, k - 1]
        mono[:, k] -= mono[:, k - 2]
    return mono


_CHEB_TO_MONO = _chebyshev_to_monomial(_TABLE_NODES)


def _mix(matrix: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """matrix @ rows, summed term by term in a fixed order: no BLAS, so the
    bits do not depend on the thread count, and each column of rows (a
    panel) is mixed on its own."""
    out = np.zeros((matrix.shape[0],) + rows.shape[1:])
    product = np.empty_like(out)
    for j, row in enumerate(rows):
        np.multiply(matrix[:, j, None], row, out=product)
        out += product
    return out


def _panel_columns(lam: float, start: int, stop: int) -> np.ndarray:
    """Monomial coefficients of j_lam on panels start, ..., stop - 1, one
    column per panel, highest degree in the last row.

    Every step acts on each column on its own, so a column depends only on
    lam and its panel index.
    """
    centers = np.arange(start, stop) + 1.0
    nodes = centers + 0.5 * _CHEB_NODES[:, None]
    values = _library(lam, nodes)
    # rounding moved each node off its Chebyshev point, by shift (exactly:
    # centers - nodes is exact, and so is the rounding error of a sum); one
    # step along the interpolant's slope puts the value back on the point
    shift = (centers - nodes) + 0.5 * _CHEB_NODES[:, None]
    values += 2.0 * shift * _mix(_CHEB_SLOPE, _mix(_TO_CHEB, values))
    return _mix(_CHEB_TO_MONO, _mix(_TO_CHEB, values))


class _BesselTable:
    """The panels of j_lam built so far: ``columns`` holds ``_panel_columns``
    of panels 0, 1, ..., read-only, and ``upto`` extends it, never rebuilding
    a panel.  A column depends only on lam and its index, so no value depends
    on the order in which the table grew."""

    def __init__(self, lam: float) -> None:
        self.lam = lam
        self.columns = np.empty((_TABLE_NODES, 0))
        self.columns.flags.writeable = False

    def upto(self, panels: int) -> np.ndarray:
        """The table holding at least the first ``panels`` panels."""
        have = self.columns.shape[1]
        if panels > have:
            columns = np.concatenate([self.columns, _panel_columns(self.lam, have, panels)], axis=1)
            columns.flags.writeable = False
            self.columns = columns
        return self.columns


@lru_cache(maxsize=12)
def _bessel_table(lam: float) -> _BesselTable:
    """The table of j_lam, one per lam; at most the 1000 panels that
    arguments up to BESSEL_ARG_MAX reach."""
    return _BesselTable(lam)


@dataclass(frozen=True)
class BesselEvaluator:
    """Evaluator for j_lam: a power series up to _SERIES_CUTOFF, a table of
    Chebyshev interpolants of library Bessel-J up to BESSEL_ARG_MAX, and
    library Bessel-J above.

    The split keeps t = 0 exact (empty product = 1) and avoids the 0 * inf
    indeterminacy of t^(-lam) * J_lam(t) near the origin; the table and the
    library branch meet the 1e-12 absolute-accuracy contract on [0, 1e3].
    Every branch acts elementwise, so no value depends on the batch it is
    evaluated in.
    """

    lam: float

    def __post_init__(self) -> None:
        _check_lambda(self.lam)

    def _series(self, t: np.ndarray) -> np.ndarray:
        # j_lam(t) = sum_k (-1)^k Gamma(lam+1) (t/2)^(2k) / (k! Gamma(k+lam+1));
        # successive-term ratio is -(t/2)^2 / (k (k+lam)).
        # |term| <= bound, by induction, since rounding is monotone; the
        # updates run in place, in the order of term = term * x / scale
        x = -0.25 * t * t
        term = np.ones_like(t)
        acc = np.ones_like(t)
        x_max, bound = float(-x.min()), 1.0
        for k in range(1, _SERIES_TERMS):
            scale = k * (k + self.lam)
            bound = bound * x_max / scale
            if bound < _SERIES_TAIL:
                break
            term *= x
            term /= scale
            acc += term
        return acc

    def _tabled(self, t: np.ndarray) -> np.ndarray:
        # t > 1/2, so t - 1/2 is exact and truncation is its floor; t minus
        # its panel's center is exact too
        panel = (t - 0.5).astype(np.intp)
        table = _bessel_table(float(self.lam)).upto(int(panel.max()) + 1)
        u = 2.0 * (t - (panel + 1.0))
        acc = table[-1].take(panel)
        for row in table[-2::-1]:
            acc *= u
            acc += row.take(panel)
        return acc

    def reserve(self, t_max: float) -> None:
        """Grow the table to the panels that arguments up to ``t_max`` read,
        in one step: a caller that evaluates its points in many batches then
        grows it once, not once per batch that passes its extent.  No value
        depends on the table's extent."""
        t = min(float(t_max), BESSEL_ARG_MAX)
        if t > _SERIES_CUTOFF:
            _bessel_table(float(self.lam)).upto(int(t - 0.5) + 1)

    def __call__(self, t):
        arr = np.asarray(t, dtype=float)
        scalar = arr.ndim == 0
        arr = np.atleast_1d(arr)
        if np.any(arr < 0):
            raise ValueError("argument must be nonnegative")
        out = np.empty_like(arr)
        small = arr <= _SERIES_CUTOFF
        if small.any():
            out[small] = self._series(arr[small])
        tabled = ~small & (arr <= BESSEL_ARG_MAX)
        if tabled.any():
            out[tabled] = self._tabled(arr[tabled])
        rest = ~(small | tabled)  # above BESSEL_ARG_MAX, or NaN
        if rest.any():
            out[rest] = _library(self.lam, arr[rest])
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


def jm_multiplier(lam: float, m: float, t):
    """Fractional-difference symbol (1 - j_lam(t))^(m/2).

    Nonnegative since j_lam <= 1; vanishes like t^m at the origin.
    """
    _check_lambda(lam)
    _require("order m", m)
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


_TAIL_MAX_TERMS = 200_000  # most series terms binom_tail_bound sums


def binom_tail_bound(alpha: float, N: int) -> float:
    """Rigorous upper bound on sum_{s > N} |C(alpha, s)|.

    Sums terms by the exact ratio |C(a,s+1)| = |C(a,s)| * |a-s|/(s+1) until
    they drop below machine precision (or _TAIL_MAX_TERMS), then bounds the
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
    for _ in range(_TAIL_MAX_TERMS):
        total += t_s
        t_s = t_s * abs(alpha - s) / (s + 1.0)
        s += 1
        if t_s == 0.0:
            return total
        if s > alpha + 1.0 and t_s < 1e-17 * (1.0 + total):
            break
    return total + t_s * (1.0 + s / alpha)

"""Hankel transform, bandlimiting projection, and the rank-one kernel transform.

The Hankel transform

    H_lam(f)(r) = integral_0^inf f(t) j_lam(r t) d nu_lam(t)

is self-inverse and unitary on L^2(nu_lam); on radial functions of the
weighted d-dimensional space it coincides with the full weighted Fourier
(Dunkl) transform at the derived index lam.  Spectra live on the same grid
family as physical profiles (the default Gaussian-dominated test set is
self-dual).

Frequency-side operators act by pointwise symbols.  A :class:`Spectrum`
therefore keeps a materialized ``base`` array plus a tuple of pending
(label, symbol-array) factors and multiplies them in label-sorted order when
``values`` is read: any reordering of the same multiplier set produces
bit-identical values, which is the commutation contract the operator layer
advertises (two floats multiply to the same correctly rounded product in
either order; a fixed canonical order removes the association ambiguity).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache
from pathlib import Path

import numpy as np

from .quad import (
    DEFAULT_RMAX,
    TAIL_WARN_FRACTION,
    RadialFunction,
    RadialGrid,
    _match_grid,
    _read_csv,
    nu_weights,
)
from .special import BesselEvaluator
from .weights import LAMBDA_MIN, measure_constants

__all__ = [
    "Spectrum",
    "spectrum_from_values",
    "hankel",
    "inverse_hankel",
    "bandlimit_project",
    "spectral_tail_l2",
    "save_spectrum_csv",
    "load_spectrum_csv",
    "DunklKernel1D",
    "dunkl_kernel_1d",
    "SymmetricGrid",
    "LineFunction",
    "gauss_normalization_1d",
    "dunkl_transform_1d",
    "dunkl_inverse_1d",
]


# --------------------------------------------------------------------------
# spectra
# --------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Frequency-side samples at index lam, with deferred multiplier factors.

    ``bandlimit=sigma`` certifies that ``values`` vanish at every node
    r > sigma.  ``truncated`` propagates quadrature truncation suspicion from
    the transform that produced the spectrum.
    """

    grid: RadialGrid
    lam: float
    base: np.ndarray
    pending: tuple[tuple[str, np.ndarray], ...] = ()
    bandlimit: float | None = None
    truncated: bool = False
    label: str = ""

    def __post_init__(self) -> None:
        base = np.asarray(self.base)
        if base.shape != self.grid.nodes.shape:
            raise ValueError("base values must match the grid node count")
        object.__setattr__(self, "base", base)

    @property
    def values(self) -> np.ndarray:
        """Materialize base times pending symbols, in label-sorted order."""
        out = self.base
        for _, arr in sorted(self.pending, key=lambda entry: entry[0]):
            out = out * arr
        return out

    def with_symbol(self, label: str, symbol_values: np.ndarray, bandlimit=None) -> "Spectrum":
        """Append one pointwise factor; bandlimit defaults to the current one."""
        symbol_values = np.asarray(symbol_values)
        if symbol_values.shape != self.grid.nodes.shape:
            raise ValueError("symbol values must match the grid node count")
        if not np.all(np.isfinite(symbol_values)):
            raise ValueError(f"symbol {label!r} is not finite at every frequency node")
        return replace(
            self,
            pending=self.pending + ((label, symbol_values),),
            bandlimit=self.bandlimit if bandlimit is None else bandlimit,
        )

    def materialized(self) -> "Spectrum":
        return replace(self, base=self.values, pending=())

    def _binary(self, other: "Spectrum", op) -> "Spectrum":
        if not isinstance(other, Spectrum):
            return NotImplemented
        if other.grid != self.grid or other.lam != self.lam:
            raise ValueError("spectra live on different grids or indices")
        if self.bandlimit is not None and other.bandlimit is not None:
            bl = max(self.bandlimit, other.bandlimit)
        else:
            bl = None
        return Spectrum(
            grid=self.grid,
            lam=self.lam,
            base=op(self.values, other.values),
            bandlimit=bl,
            truncated=self.truncated or other.truncated,
        )

    def __sub__(self, other: "Spectrum") -> "Spectrum":
        return self._binary(other, lambda a, b: a - b)

    def __add__(self, other: "Spectrum") -> "Spectrum":
        return self._binary(other, lambda a, b: a + b)


def spectrum_from_values(
    grid: RadialGrid,
    lam: float,
    values: np.ndarray,
    bandlimit: float | None = None,
    truncated: bool = False,
    label: str = "",
) -> Spectrum:
    return Spectrum(
        grid=grid, lam=float(lam), base=np.asarray(values),
        bandlimit=bandlimit, truncated=truncated, label=label,
    )


# --------------------------------------------------------------------------
# Hankel transform
# --------------------------------------------------------------------------

# rows per block of the self-dual kernel's upper triangle; 128-row blocks
# evaluate a quarter more points at n = 512 and build more slowly there
_KERNEL_BLOCK = 32


def _check_lambda(lam: float) -> float:
    lam = float(lam)
    if not math.isfinite(lam) or lam <= LAMBDA_MIN:
        raise ValueError(f"lambda must be a finite real > -1/2, got {lam!r}")
    return lam


@lru_cache(maxsize=12)
def _kernel_matrix(lam: float, grid: RadialGrid) -> np.ndarray:
    """K[i, j] = j_lam(r_i t_j) * nu-weight_j; the transform is K @ values.

    Cached per (lam, grid), read-only: harness sweeps apply the same
    transform thousands of times.  The argument matrix r_i t_j is symmetric,
    so only its upper triangle is evaluated, in blocks of ``_KERNEL_BLOCK``
    rows that keep the temporaries small next to the kernel itself.
    """
    evaluator = BesselEvaluator(lam)
    nodes = grid.nodes
    mat = np.empty((nodes.size, nodes.size))
    for i in range(0, nodes.size, _KERNEL_BLOCK):
        block = evaluator(np.multiply.outer(nodes[i : i + _KERNEL_BLOCK], nodes[i:]))
        mat[i : i + _KERNEL_BLOCK, i:] = block
        mat[i:, i : i + _KERNEL_BLOCK] = block.T
    mat *= nu_weights(grid, lam)[None, :]
    mat.flags.writeable = False
    return mat


def _input_tail_fraction(grid: RadialGrid, values: np.ndarray, lam: float) -> float:
    abs_contrib = nu_weights(grid, lam) * np.abs(values)
    mass = float(np.sum(abs_contrib))
    if mass <= 0.0:
        return 0.0
    return float(np.sum(abs_contrib[grid.nodes >= 0.9 * grid.rmax])) / mass


def hankel(f: RadialFunction, lam: float) -> Spectrum:
    """Hankel transform of a sampled radial profile, on the profile's grid.

    Deterministic given the grid; flags the output when the input's
    nu-weighted mass is truncation-suspect near rmax.
    """
    lam = _check_lambda(lam)
    mat = _kernel_matrix(lam, f.grid)
    tail = _input_tail_fraction(f.grid, f.values, lam)
    return Spectrum(
        grid=f.grid,
        lam=lam,
        base=mat @ f.values,
        truncated=tail > TAIL_WARN_FRACTION,
        label=f.label,
    )


def inverse_hankel(s: Spectrum) -> RadialFunction:
    """Inverse transform; the Hankel transform is self-inverse."""
    mat = _kernel_matrix(s.lam, s.grid)
    return RadialFunction(grid=s.grid, values=mat @ s.values, label=s.label)


def spectral_tail_l2(f: RadialFunction, lam: float, sigma: float) -> float:
    """sqrt of integral_{r > sigma} |H_lam(f)(r)|^2 d nu_lam(r).

    By Parseval this is the L^2 distance from f to its best bandlimited
    approximation of type sigma.  Node masking alone would split one
    quadrature panel at sigma and lose ~1e-4 accuracy, so the cut panel gets
    a dedicated Gauss rule with the spectrum evaluated directly there.
    """
    lam = _check_lambda(lam)
    sigma = float(sigma)
    if sigma < 0:
        raise ValueError(f"sigma must be nonnegative, got {sigma!r}")
    grid = f.grid
    if sigma >= grid.rmax:
        return 0.0
    fhat = hankel(f, lam)
    nuw = nu_weights(grid, lam)
    edges = grid.panel_edges if grid.panel_edges else (0.0, grid.rmax)
    cut_edge = min(e for e in edges if e >= sigma)
    whole = float(np.sum(nuw[grid.nodes > cut_edge] * np.abs(fhat.values[grid.nodes > cut_edge]) ** 2))
    partial = 0.0
    if cut_edge > sigma:
        x, w = np.polynomial.legendre.leggauss(32)
        r = 0.5 * (cut_edge - sigma) * (x + 1.0) + sigma
        wr = 0.5 * (cut_edge - sigma) * w
        kernel = BesselEvaluator(lam)(np.multiply.outer(r, grid.nodes))
        fhat_r = kernel @ (nuw * f.values)
        b = measure_constants(lam).b_lambda
        partial = float(np.sum(wr * b * r ** (2.0 * lam + 1.0) * np.abs(fhat_r) ** 2))
    return math.sqrt(whole + partial)


def bandlimit_project(s: Spectrum, sigma: float) -> Spectrum:
    """Zero all frequency content above sigma (sharp Paley-Wiener truncation).

    Idempotent; the result carries ``bandlimit = min(existing, sigma)``.
    For L^2 this is the orthogonal (hence best) bandlimited approximation.
    """
    sigma = float(sigma)
    if not (sigma > 0):
        raise ValueError(f"sigma must be positive, got {sigma!r}")
    indicator = (s.grid.nodes <= sigma).astype(float)
    new_bl = sigma if s.bandlimit is None else min(s.bandlimit, sigma)
    return s.with_symbol(f"proj:sigma={sigma!r}", indicator, bandlimit=new_bl)


def save_spectrum_csv(s: Spectrum, path: str | Path) -> None:
    """Write node,value[,imag] rows under a `# lambda=... bandlimit=...` header."""
    bl = "none" if s.bandlimit is None else repr(float(s.bandlimit))
    lines = [f"# lambda={float(s.lam)!r} bandlimit={bl}"]
    vals = s.values
    if np.iscomplexobj(vals):
        lines.append("node,value,imag")
        for t, v in zip(s.grid.nodes, vals):
            lines.append(f"{float(t)!r},{float(v.real)!r},{float(v.imag)!r}")
    else:
        lines.append("node,value")
        for t, v in zip(s.grid.nodes, vals):
            lines.append(f"{float(t)!r},{float(v)!r}")
    Path(path).write_text("\n".join(lines) + "\n")


def load_spectrum_csv(path: str | Path, rmax: float | None = None) -> Spectrum:
    """Read a spectrum CSV written by :func:`save_spectrum_csv`."""
    fields, data = _read_csv(path, ("lambda", "bandlimit"), (2, 3))
    bl = None if fields["bandlimit"] == "none" else float(fields["bandlimit"])
    nodes = data[:, 0]
    values = data[:, 1] if data.shape[1] == 2 else data[:, 1] + 1j * data[:, 2]
    rmaxes = (float(rmax),) if rmax is not None else (DEFAULT_RMAX, float(nodes[-1]))
    grid = _match_grid(path, nodes, rmaxes)
    return spectrum_from_values(grid, float(fields["lambda"]), values, bandlimit=bl)


# --------------------------------------------------------------------------
# rank-one kernel and transform
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class DunklKernel1D:
    """Generalized exponential kernel of the rank-one reflection calculus.

    e_k(x, y) solves the differential-difference system

        f'(x) + k (f(x) - f(-x)) / x = i y f(x),    f(0) = 1,

    and degenerates to exp(ixy) at k = 0.  For k > 0 the even/odd parts are
    normalized Bessel kernels of orders k -/+ 1/2::

        e_k(x, y) = j_(k-1/2)(xy) + i x y / (2k+1) * j_(k+1/2)(xy).

    The closed form is accepted against a numerical integration of the
    defining system (see the test suite) and satisfies |e_k| <= 1,
    e_k(x, y) = e_k(y, x), e_k(-x, y) = conj(e_k(x, y)).
    """

    k: float

    def __post_init__(self) -> None:
        if not (self.k >= 0) or not math.isfinite(self.k):
            raise ValueError(f"multiplicity k must be finite and >= 0, got {self.k!r}")

    def __call__(self, x, y) -> np.ndarray | complex:
        xa = np.asarray(x, dtype=float)
        ya = np.asarray(y, dtype=float)
        scalar = xa.ndim == 0 and ya.ndim == 0
        prod = xa * ya
        if self.k == 0.0:
            out = np.exp(1j * prod)
        else:
            u = np.abs(prod)
            even = BesselEvaluator(self.k - 0.5)(u)
            odd = prod / (2.0 * self.k + 1.0) * BesselEvaluator(self.k + 0.5)(u)
            out = even + 1j * odd
        return complex(out) if scalar else out


def dunkl_kernel_1d(k: float, x: float, y: float) -> complex:
    """e_k(x, y) for real arguments (see :class:`DunklKernel1D`)."""
    return DunklKernel1D(k)(x, y)


@dataclass(frozen=True, eq=False)
class SymmetricGrid:
    """Mirror image of a RadialGrid: quadrature on [-rmax, rmax] minus {0}."""

    nodes: np.ndarray
    weights: np.ndarray
    rmax: float

    @classmethod
    def from_radial(cls, grid: RadialGrid) -> "SymmetricGrid":
        return cls(
            nodes=np.concatenate([-grid.nodes[::-1], grid.nodes]),
            weights=np.concatenate([grid.weights[::-1], grid.weights]),
            rmax=grid.rmax,
        )

    @property
    def n(self) -> int:
        return int(self.nodes.size)


@dataclass(frozen=True, eq=False)
class LineFunction:
    """Samples of a (possibly complex) function on a SymmetricGrid."""

    grid: SymmetricGrid
    values: np.ndarray
    label: str = ""
    truncated: bool = False

    def __post_init__(self) -> None:
        values = np.asarray(self.values)
        if values.shape != self.grid.nodes.shape:
            raise ValueError("values must match the grid node count")
        object.__setattr__(self, "values", values)


def gauss_normalization_1d(k: float, grid: SymmetricGrid) -> float:
    """c_k with c_k^{-1} = integral exp(-x^2/2) |x|^(2k) dx, by quadrature."""
    mass = float(
        np.sum(grid.weights * np.exp(-0.5 * grid.nodes**2) * np.abs(grid.nodes) ** (2.0 * k))
    )
    return 1.0 / mass


def _mu_weights(k: float, grid: SymmetricGrid) -> np.ndarray:
    return gauss_normalization_1d(k, grid) * grid.weights * np.abs(grid.nodes) ** (2.0 * k)


def _dunkl_apply(f: LineFunction, k: float, conjugate: bool) -> LineFunction:
    mu = _mu_weights(k, f.grid)
    kernel = DunklKernel1D(k)(f.grid.nodes[None, :], f.grid.nodes[:, None])
    if conjugate:
        kernel = np.conj(kernel)
    vals = (kernel * mu[None, :]) @ f.values
    # truncation suspicion: weighted input mass in the outermost tenths
    contrib = mu * np.abs(f.values)
    mass = float(np.sum(contrib))
    boundary = float(np.sum(contrib[np.abs(f.grid.nodes) >= 0.9 * f.grid.rmax]))
    truncated = f.truncated or (mass > 0 and boundary / mass > TAIL_WARN_FRACTION)
    return LineFunction(grid=f.grid, values=vals, label=f.label, truncated=truncated)


def dunkl_transform_1d(f: LineFunction, k: float) -> LineFunction:
    """Weighted transform against conj(e_k) and the measure c_k |x|^(2k) dx.

    At k = 0 this is the classical (unitary, angular-frequency) Fourier
    transform; on even inputs it reduces to the Hankel transform of the
    profile at index k - 1/2.
    """
    if not (k >= 0):
        raise ValueError(f"multiplicity k must be >= 0, got {k!r}")
    return _dunkl_apply(f, k, conjugate=True)


def dunkl_inverse_1d(g: LineFunction, k: float) -> LineFunction:
    """Inverse of :func:`dunkl_transform_1d` (kernel without conjugation)."""
    if not (k >= 0):
        raise ValueError(f"multiplicity k must be >= 0, got {k!r}")
    return _dunkl_apply(g, k, conjugate=False)

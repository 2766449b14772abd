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
from collections import Counter
from collections.abc import Iterator
from dataclasses import dataclass, field, replace
from functools import lru_cache
from pathlib import Path

import numpy as np

from .quad import RadialFunction, RadialGrid, _load_csv, _write_csv, b_lambda, nu_weights
from .special import BesselEvaluator, _check_lambda, _require

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

    def __sub__(self, other: "Spectrum") -> "Spectrum":
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
            base=self.values - other.values,
            bandlimit=bl,
            truncated=self.truncated or other.truncated,
        )


def spectrum_from_values(
    grid: RadialGrid,
    lam: float,
    values: np.ndarray,
    bandlimit: float | None = None,
) -> Spectrum:
    return Spectrum(grid=grid, lam=float(lam), base=np.asarray(values), bandlimit=bandlimit)


# --------------------------------------------------------------------------
# Hankel transform
# --------------------------------------------------------------------------


def _panel_slices(grid: RadialGrid) -> list[tuple[slice, int, int]]:
    """(slice, base panel, exponent) per nonempty panel of the grid.

    A panel's base is the first earlier base panel whose nodes, scaled by
    2^e, are bit-equal to its own (checked, not assumed); a panel without
    one is its own base with e = 0.  A grid without panel edges is one
    panel.
    """
    nodes = grid.nodes
    cuts = np.searchsorted(nodes, grid.panel_edges[1:-1]) if grid.panel_edges else []
    bounds = [0, *(int(c) for c in cuts), nodes.size]
    panels: list[tuple[slice, int, int]] = []
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        if hi == lo:
            continue
        own = nodes[lo:hi]
        base, exp = len(panels), 0
        for index, (sl, b, _) in enumerate(panels):
            other = nodes[sl]
            if b != index or other.size != own.size:
                continue
            e = int(np.frexp(own[0])[1] - np.frexp(other[0])[1])
            if np.array_equal(np.ldexp(other, e), own):
                base, exp = index, e
                break
        panels.append((slice(lo, hi), base, exp))
    return panels


# Most Bessel points one evaluator call takes in _bessel_outer: large enough
# to spread the call's fixed cost, small enough that a batch's temporaries
# stay a few percent of an n >= 1024 kernel
_BESSEL_BATCH = 1 << 13


def _batches(blocks) -> Iterator[list[tuple[slice, slice, np.ndarray | None]]]:
    """The points of (rows, cols, symmetric) blocks in batches of at most
    _BESSEL_BATCH points.

    A batch is a list of (rows, cols, upper) rectangles: runs of whole block
    rows, or segments of one row wider than a batch.  A symmetric block
    contributes only its upper triangle, the points ``upper`` masks in the
    rectangle (None: every point).
    """
    cap = _BESSEL_BATCH
    batch: list[tuple[slice, slice, np.ndarray | None]] = []
    size = 0

    def piece(rows, cols, symmetric, i, k, lo, hi):
        upper = np.arange(lo, hi)[None, :] >= np.arange(i, k)[:, None] if symmetric else None
        return slice(rows.start + i, rows.start + k), slice(cols.start + lo, cols.start + hi), upper

    for rows, cols, symmetric in blocks:
        height, width = rows.stop - rows.start, cols.stop - cols.start
        whole = height * (height + 1) // 2 if symmetric else height * width
        if size + whole <= cap:
            batch.append(piece(rows, cols, symmetric, 0, height, 0, width))
            size += whole
            continue
        # points in rows 0..i-1 of the block, for each i
        ends = np.zeros(height + 1, dtype=np.int64)
        np.cumsum(width - np.arange(height) if symmetric else np.full(height, width), out=ends[1:])
        i = 0
        while i < height:
            lo = i if symmetric else 0
            if width - lo > cap:
                for seg in range(lo, width, cap):
                    if batch:
                        yield batch
                    hi = min(seg + cap, width)
                    batch, size = [piece(rows, cols, symmetric, i, i + 1, seg, hi)], hi - seg
                i += 1
                continue
            k = int(np.searchsorted(ends, ends[i] + cap - size, side="right")) - 1
            if k == i:
                yield batch
                batch, size = [], 0
                continue
            batch.append(piece(rows, cols, symmetric, i, k, lo, width))
            size += int(ends[k] - ends[i])
            i = k
    if batch:
        yield batch


def _mirror_upper(block: np.ndarray) -> None:
    """Copy a square block's upper triangle onto its lower triangle, in bands
    of rows whose temporaries hold at most _BESSEL_BATCH values."""
    m = block.shape[0]
    band = max(1, _BESSEL_BATCH // m)
    for a in range(0, m, band):
        b = min(a + band, m)
        lower = np.arange(b)[None, :] < np.arange(a, b)[:, None]
        np.copyto(block[a:b, :b], block[:b, a:b].T, where=lower)


def _bessel_outer(evaluator: BesselEvaluator, grid: RadialGrid) -> np.ndarray:
    """evaluator(outer(nodes, nodes)), evaluating each distinct argument once.

    Nodes of panels p and q with bases bp, bq and exponents ep, eq give the
    block outer(nodes_p, nodes_q) = 2^(ep+eq) outer(base_bp, base_bq), and
    power-of-two scaling is exact in floating point: blocks with the same
    key (bp, bq, ep+eq) hold bit-equal arguments, hence bit-equal values,
    and the block keyed (bq, bp, ep+eq) holds their transpose.  A block with
    bp == bq is moreover symmetric, since base_i base_j = base_j base_i.

    The first block of each key in the upper block triangle is evaluated,
    only its upper triangle when symmetric, in batches of at most
    _BESSEL_BATCH points; j_lam acts elementwise, so batching changes no
    value.  The evaluator's table is first grown to the panels of the
    largest argument, so it grows once per build, not once per batch that
    reaches past its extent.  Every other block is then copied from the
    first of its key, or transposed from the first of the transposed key.
    """
    panels = _panel_slices(grid)
    nodes = grid.nodes
    mat = np.empty((grid.n, grid.n))
    first: dict[tuple[int, int, int], tuple[slice, slice, bool]] = {}
    for p, (rows, bp, ep) in enumerate(panels):
        for cols, bq, eq in panels[p:]:
            first.setdefault((bp, bq, ep + eq), (rows, cols, bp == bq))
    evaluator.reserve(nodes[-1] * nodes[-1])
    for batch in _batches(first.values()):
        args = []
        for rows, cols, upper in batch:
            outer = np.multiply.outer(nodes[rows], nodes[cols])
            args.append(outer.ravel() if upper is None else outer[upper])
        values = evaluator(np.concatenate(args))
        at = 0
        for (rows, cols, upper), part in zip(batch, args):
            vals = values[at:at + part.size]
            at += part.size
            if upper is None:
                mat[rows, cols] = vals.reshape(rows.stop - rows.start, -1)
            else:
                mat[rows, cols][upper] = vals
    written = {}
    for key, (rows, cols, symmetric) in first.items():
        if symmetric:
            _mirror_upper(mat[rows, cols])
        written[key] = (rows, cols)
    for rows, bp, ep in panels:
        for cols, bq, eq in panels:
            key = (bp, bq, ep + eq)
            if key not in written:
                mat[rows, cols] = mat[written[bq, bp, ep + eq]].T
                written[key] = (rows, cols)
            elif written[key] != (rows, cols):
                mat[rows, cols] = mat[written[key]]
    return mat


@lru_cache(maxsize=12)
def _kernel_matrix(lam: float, grid: RadialGrid) -> np.ndarray:
    """K[i, j] = j_lam(r_i t_j) * nu-weight_j; the transform is K @ values.

    Cached per (lam, grid), read-only: harness sweeps apply the same
    transform thousands of times.  The Bessel part is built from its
    distinct panel blocks (see ``_bessel_outer``) once the weights admit lam.
    """
    weights = nu_weights(grid, lam)
    mat = _bessel_outer(BesselEvaluator(lam), grid)
    mat *= weights[None, :]
    mat.flags.writeable = False
    return mat


# Fraction of an input's weighted |f| mass allowed in the outermost tenth
# [0.9*rmax, rmax] of the grid before its transform is flagged
# truncation-suspect.
TAIL_WARN_FRACTION = 1e-8


def _tail_suspect(weights: np.ndarray, values: np.ndarray, nodes: np.ndarray,
                  rmax: float) -> bool:
    """Whether nodes with |x| >= 0.9 rmax carry more than TAIL_WARN_FRACTION
    of the input mass sum(weights * |values|)."""
    contrib = weights * np.abs(values)
    mass = float(np.sum(contrib))
    if mass <= 0.0:
        return False
    return float(np.sum(contrib[np.abs(nodes) >= 0.9 * rmax])) / mass > TAIL_WARN_FRACTION


def hankel(f: RadialFunction, lam: float) -> Spectrum:
    """Hankel transform of a sampled radial profile, on the profile's grid.

    Deterministic given the grid; flags the output when the input's
    nu-weighted mass is truncation-suspect near rmax.  A lambda outside the
    Bessel range, or whose weights overflow on the grid, raises ValueError.
    """
    lam = _check_lambda(lam)
    grid = f.grid
    return Spectrum(
        grid=grid,
        lam=lam,
        base=_kernel_matrix(lam, grid) @ f.values,
        truncated=_tail_suspect(nu_weights(grid, lam), f.values, grid.nodes, grid.rmax),
    )


def _spectrum_of(f: RadialFunction, lam: float, fhat: Spectrum | None) -> Spectrum:
    """``hankel(f, lam)``, or the caller's precomputed ``fhat`` once it is
    checked to be a transform of f's grid at index lam.

    Every smoothness functional starts here, so ``lam`` is checked against
    the Bessel range even when ``fhat`` spares the transform."""
    lam = _check_lambda(lam)
    if fhat is None:
        return hankel(f, lam)
    if fhat.lam != lam or fhat.grid != f.grid:
        raise ValueError(f"spectrum at lambda={fhat.lam!r} on grid {fhat.grid.key} does not"
                         f" match its input at lambda={lam!r} on grid {f.grid.key}")
    return fhat


def inverse_hankel(s: Spectrum) -> RadialFunction:
    """Inverse transform; the Hankel transform is self-inverse."""
    mat = _kernel_matrix(s.lam, s.grid)
    return RadialFunction(grid=s.grid, values=mat @ s.values)


# 32-node Gauss-Legendre rule on [-1, 1] for the panel a cut at sigma splits
_CUT_NODES, _CUT_WEIGHTS = np.polynomial.legendre.leggauss(32)
_CUT_NODES.flags.writeable = _CUT_WEIGHTS.flags.writeable = False


def spectral_tail_l2(
    f: RadialFunction, lam: float, sigma: float, fhat: Spectrum | None = None
) -> float:
    """sqrt of integral_{r > sigma} |H_lam(f)(r)|^2 d nu_lam(r).

    By Parseval this is the L^2 distance from f to its best bandlimited
    approximation of type sigma.  Node masking alone would split one
    quadrature panel at sigma and lose ~1e-4 accuracy, so the cut panel gets
    a dedicated Gauss rule with the spectrum evaluated directly there.
    ``fhat`` is the precomputed ``hankel(f, lam)``.  The one-sigma case of
    ``_spectral_tails``.
    """
    return _spectral_tails(f, lam, (sigma,), fhat)[float(sigma)]


def _spectral_tails(
    f: RadialFunction, lam: float, sigmas, fhat: Spectrum | None = None
) -> dict[float, float]:
    """``spectral_tail_l2`` at every sigma, ``{sigma: tail}``, each distinct
    Bessel block of the cut panels evaluated once.

    Panel edges are octave edges, so the cut nodes r of 2 sigma are exactly
    2 r of sigma.  With s the exponent of the cut edge and r~ = ldexp(r, -s),
    the block outer(r, nodes_p) of a panel with base b and exponent e (see
    ``_panel_slices``) is 2^(e+s) outer(r~, base_b): blocks with the same key
    (r~ bytes, b, e + s) hold bit-equal arguments, hence bit-equal values.
    Sigmas are grouped by r~; a group's missing blocks are evaluated in one
    evaluator call per sigma, and each block is released once the last sigma
    of its group that reads it is done, so nothing outlives the group.  A
    sigma at or beyond rmax has tail 0; a negative or NaN sigma raises before
    any work.
    """
    lam = _check_lambda(lam)
    sigmas = list(dict.fromkeys(float(sigma) for sigma in sigmas))
    for sigma in sigmas:
        if not (sigma >= 0):
            raise ValueError(f"sigma must be a nonnegative number, got {sigma!r}")
    grid = f.grid
    tails = {sigma: 0.0 for sigma in sigmas if sigma >= grid.rmax}
    cut = [sigma for sigma in sigmas if sigma < grid.rmax]
    if not cut:
        return tails
    fhat = _spectrum_of(f, lam, fhat)
    nodes, nuw = grid.nodes, nu_weights(grid, lam)
    weighted = nuw * f.values
    edges = grid.panel_edges if grid.panel_edges else (0.0, grid.rmax)
    panels = _panel_slices(grid)
    evaluator = BesselEvaluator(lam)
    groups: dict[bytes, list[tuple[float, float, np.ndarray, np.ndarray, int]]] = {}
    for sigma in cut:
        cut_edge = min(e for e in edges if e >= sigma)
        whole = float(np.sum(nuw[nodes > cut_edge] * np.abs(fhat.values[nodes > cut_edge]) ** 2))
        if cut_edge == sigma:
            tails[sigma] = math.sqrt(whole)
            continue
        r = 0.5 * (cut_edge - sigma) * (_CUT_NODES + 1.0) + sigma
        wr = 0.5 * (cut_edge - sigma) * _CUT_WEIGHTS
        s = int(np.frexp(cut_edge)[1])
        groups.setdefault(np.ldexp(r, -s).tobytes(), []).append((sigma, whole, r, wr, s))
    for members in groups.values():
        readers = Counter((b, e + s) for *_, s in members for _, b, e in panels)
        blocks: dict[tuple[int, int], np.ndarray] = {}
        for sigma, whole, r, wr, s in members:
            keys = [(b, e + s) for _, b, e in panels]
            missing = {key: sl for (sl, _, _), key in zip(panels, keys) if key not in blocks}
            if missing:
                ends = np.cumsum([sl.stop - sl.start for sl in missing.values()])[:-1]
                kernel = evaluator(np.multiply.outer(r, nodes[np.r_[tuple(missing.values())]]))
                blocks.update(zip(missing, np.split(kernel, ends, axis=1)))
            if len(missing) < len(keys):
                # panels are contiguous and in order: the blocks side by side
                # are the 32 x n cut-panel kernel
                kernel = np.concatenate([blocks[key] for key in keys], axis=1)
            fhat_r = kernel @ weighted
            # the next sigma evaluates with only the blocks its group reads alive
            del kernel
            for key in keys:
                readers[key] -= 1
                if not readers[key]:
                    del blocks[key]
            partial = float(np.sum(wr * b_lambda(lam) * r ** (2.0 * lam + 1.0)
                                   * np.abs(fhat_r) ** 2))
            tails[sigma] = math.sqrt(whole + partial)
    return tails


def bandlimit_project(s: Spectrum, sigma: float) -> Spectrum:
    """Zero all frequency content above sigma (sharp Paley-Wiener truncation).

    Idempotent; the result carries ``bandlimit = min(existing, sigma)``.
    For L^2 this is the orthogonal (hence best) bandlimited approximation.
    """
    sigma = float(sigma)
    _require("sigma", sigma)
    indicator = (s.grid.nodes <= sigma).astype(float)
    new_bl = sigma if s.bandlimit is None else min(s.bandlimit, sigma)
    return s.with_symbol(f"proj:sigma={sigma!r}", indicator, bandlimit=new_bl)


def save_spectrum_csv(s: Spectrum, path: str | Path) -> None:
    """Write node,value rows under a `# lambda=... rmax=... n=... bandlimit=...`
    header.  Only a real spectrum can be written (the transform of a real
    profile is real); a complex one raises ValueError."""
    bl = "none" if s.bandlimit is None else repr(float(s.bandlimit))
    _write_csv(path, s.grid, s.values, s.lam, extra=f" bandlimit={bl}")


def load_spectrum_csv(path: str | Path) -> Spectrum:
    """Read a spectrum CSV written by :func:`save_spectrum_csv`, on the grid
    its header names.  A bandlimit other than ``none`` must be positive, and
    every value beyond it zero; an error names the file and, for a value,
    its node."""
    f, lam, fields = _load_csv(path, ("bandlimit",))
    bl = fields["bandlimit"]
    if bl == "none":
        return spectrum_from_values(f.grid, lam, f.values)
    try:
        bandlimit = float(bl)
    except ValueError:
        raise ValueError(f"{path}: bandlimit must be a number or none, got {bl!r}") from None
    if not bandlimit > 0:
        raise ValueError(f"{path}: bandlimit must be positive, got {bl!r}")
    beyond = np.flatnonzero((f.grid.nodes > bandlimit) & (f.values != 0))
    if beyond.size:
        i = beyond[0]
        raise ValueError(f"{path}: value {float(f.values[i])!r} at node {float(f.grid.nodes[i])!r}"
                         f" lies beyond bandlimit {bl}")
    return spectrum_from_values(f.grid, lam, f.values, bandlimit=bandlimit)


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
            out = self._assemble(prod, even, BesselEvaluator(self.k + 0.5)(u))
        return complex(out) if scalar else out

    def _assemble(self, prod, even, odd):
        """e_k from x*y and j_(k-1/2), j_(k+1/2) at |x*y| (k > 0)."""
        return even + 1j * (prod / (2.0 * self.k + 1.0) * odd)


def dunkl_kernel_1d(k: float, x: float, y: float) -> complex:
    """e_k(x, y) for real arguments (see :class:`DunklKernel1D`)."""
    return DunklKernel1D(k)(x, y)


@dataclass(frozen=True, eq=False)
class SymmetricGrid:
    """Mirror image of a RadialGrid: quadrature on [-rmax, rmax] minus {0}.

    Nodes, weights and rmax derive from ``radial``; node i < n is the
    negated radial node n-1-i, node n+i the radial node i.
    """

    radial: RadialGrid
    nodes: np.ndarray = field(init=False, repr=False)
    weights: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        radial = self.radial
        nodes = np.concatenate([-radial.nodes[::-1], radial.nodes])
        weights = np.concatenate([radial.weights[::-1], radial.weights])
        nodes.flags.writeable = weights.flags.writeable = False
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)

    @classmethod
    def from_radial(cls, grid: RadialGrid) -> "SymmetricGrid":
        return cls(grid)

    @property
    def rmax(self) -> float:
        return self.radial.rmax

    @property
    def n(self) -> int:
        return int(self.nodes.size)


@dataclass(frozen=True, eq=False)
class LineFunction:
    """Samples of a (possibly complex) function on a SymmetricGrid."""

    grid: SymmetricGrid
    values: np.ndarray
    truncated: bool = False

    def __post_init__(self) -> None:
        values = np.asarray(self.values)
        if values.shape != self.grid.nodes.shape:
            raise ValueError("values must match the grid node count")
        object.__setattr__(self, "values", values)


def _mu_weights(k: float, grid: SymmetricGrid) -> np.ndarray:
    """Weights of c_k |x|^(2k) dx, with c_k^{-1} = integral exp(-x^2/2)
    |x|^(2k) dx by the same quadrature."""
    mass = float(
        np.sum(grid.weights * np.exp(-0.5 * grid.nodes**2) * np.abs(grid.nodes) ** (2.0 * k))
    )
    return 1.0 / mass * grid.weights * np.abs(grid.nodes) ** (2.0 * k)


@lru_cache(maxsize=2)
def _radial_bessel(order: float, grid: RadialGrid) -> np.ndarray:
    """j_order(r_a r_b) on a radial grid, read-only.

    A rank-one transform at k > 0 reads the orders k -/+ 1/2, so two entries
    let the inverse at the same k evaluate no Bessel point.
    """
    mat = _bessel_outer(BesselEvaluator(order), grid)
    mat.flags.writeable = False
    return mat


def _mirrored(mat: np.ndarray) -> np.ndarray:
    """A radial matrix on the symmetric grid: node i < n is radial node
    n-1-i and node n+i radial node i, so rows and columns run reversed,
    then forward."""
    n = mat.shape[0]
    out = np.empty((2 * n, 2 * n))
    out[:n, :n] = mat[::-1, ::-1]
    out[:n, n:] = mat[::-1]
    out[n:, :n] = mat[:, ::-1]
    out[n:, n:] = mat
    return out


def _dunkl_apply(f: LineFunction, k: float, conjugate: bool) -> LineFunction:
    mu = _mu_weights(k, f.grid)
    x = f.grid.nodes
    if k == 0.0:
        kernel = DunklKernel1D(k)(x[None, :], x[:, None])
    else:
        # |x_i x_j| is a radial product r_a r_b exactly, so both Bessel parts
        # are radial matrices mirrored by index reversal
        radial = f.grid.radial
        even = _mirrored(_radial_bessel(k - 0.5, radial))
        odd = _mirrored(_radial_bessel(k + 0.5, radial))
        kernel = DunklKernel1D(k)._assemble(x[None, :] * x[:, None], even, odd)
    # the kernel is this call's own array, so both steps run in place
    if conjugate:
        np.conj(kernel, out=kernel)
    kernel *= mu
    vals = kernel @ f.values
    truncated = f.truncated or _tail_suspect(mu, f.values, x, f.grid.rmax)
    return LineFunction(grid=f.grid, values=vals, truncated=truncated)


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

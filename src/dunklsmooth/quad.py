"""Radial grids, nu_lam-weighted quadrature, and weighted Lp norms.

Everything radial is measured against d nu_lam(t) = b_lam t^(2*lam+1) dt on
(0, inf), with lam = d/2 - 1 + sum_j k_j for the sign-change group Z_2^d of
R^d with per-axis multiplicities k_j >= 0.

Grids are composite Gauss-Legendre rules on [0, rmax] with geometric panel
refinement toward the origin so the fractional weight t^(2*lam+1) is
resolved; all nodes are strictly positive, which is what lets frequency
symbols with a singularity at zero be evaluated safely downstream.
"""

from __future__ import annotations

import hashlib
import math
import operator
import os
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import repeat
from pathlib import Path

import numpy as np

from .special import BESSEL_ARG_MAX, _check_lambda

__all__ = [
    "RadialGrid",
    "RadialFunction",
    "DEFAULT_RMAX",
    "DEFAULT_N",
    "make_grid",
    "default_grid",
    "b_lambda",
    "nu_weights",
    "lp_norm",
    "save_radial_csv",
    "load_radial_csv",
]

DEFAULT_RMAX = 30.0
DEFAULT_N = 2048

@dataclass(frozen=True, eq=False)
class RadialGrid:
    """Quadrature nodes/weights on (0, rmax] (plain Lebesgue weights).

    ``panel_edges`` records the composite-rule breakpoints (when known), so
    integrals over [sigma, rmax] can re-rule the one panel a cut at sigma
    would otherwise split.  Grids are immutable (read-only arrays) and
    compare and hash by ``key``, a digest of nodes, weights and rmax, so a
    cache keyed by a grid hits for every equal rebuild.
    """

    nodes: np.ndarray
    weights: np.ndarray
    rmax: float
    panel_edges: tuple[float, ...] = ()
    key: str = field(init=False, repr=False)

    def __post_init__(self) -> None:
        nodes = np.array(self.nodes, dtype=float)
        weights = np.array(self.weights, dtype=float)
        nodes.flags.writeable = weights.flags.writeable = False
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)
        if nodes.ndim != 1 or weights.shape != nodes.shape:
            raise ValueError("nodes and weights must be 1-d arrays of equal length")
        if not (np.all(np.diff(nodes) > 0) and nodes[0] > 0 and nodes[-1] <= self.rmax):
            raise ValueError("nodes must be strictly increasing inside (0, rmax]")
        if np.any(weights <= 0):
            raise ValueError("weights must be positive")
        digest = hashlib.sha1(nodes.tobytes() + weights.tobytes()).hexdigest()[:16]
        object.__setattr__(self, "key", f"{digest}:{nodes.size}:{self.rmax!r}")

    def __eq__(self, other) -> bool:
        return self.key == other.key if isinstance(other, RadialGrid) else NotImplemented

    def __hash__(self) -> int:
        return hash(self.key)

    @property
    def n(self) -> int:
        return int(self.nodes.size)


@dataclass(frozen=True, eq=False)
class RadialFunction:
    """Samples of a radial profile f0(t) on a RadialGrid."""

    grid: RadialGrid
    values: np.ndarray

    def __post_init__(self) -> None:
        values = np.asarray(self.values)
        if values.shape != self.grid.nodes.shape:
            raise ValueError("values must match the grid node count")
        object.__setattr__(self, "values", values)


@lru_cache(maxsize=16)
def make_grid(rmax: float, n: int) -> RadialGrid:
    """Composite Gauss-Legendre grid on [0, rmax] with 2^-j panel refinement
    at 0.

    Node budget n is split as evenly as possible across the panels, with the
    remainder going to the outermost (longest) ones.  Repeated calls return
    the same (immutable) grid.
    """
    rmax = float(rmax)
    if not (rmax > 0):
        raise ValueError(f"rmax must be positive, got {rmax!r}")
    if int(n) != n or n < 16:
        raise ValueError(f"n must be an integer >= 16, got {n!r}")
    n = int(n)
    levels = min(12, max(1, n // 16))
    edges = [0.0] + [rmax * 2.0 ** (-j) for j in range(levels, -1, -1)]
    panels = len(edges) - 1
    counts = [n // panels] * panels
    for i in range(n - sum(counts)):
        counts[panels - 1 - (i % panels)] += 1
    # panels take at most two node counts; a Gauss rule of ~150 nodes costs
    # tens of ms, so each count's rule is computed once
    rules = {m: np.polynomial.legendre.leggauss(m) for m in set(counts)}
    nodes_parts = []
    weights_parts = []
    for (a, b), m in zip(zip(edges[:-1], edges[1:]), counts):
        x, w = rules[m]
        nodes_parts.append(0.5 * (b - a) * (x + 1.0) + a)
        weights_parts.append(0.5 * (b - a) * w)
    return RadialGrid(
        nodes=np.concatenate(nodes_parts),
        weights=np.concatenate(weights_parts),
        rmax=rmax,
        panel_edges=tuple(edges),
    )


def default_grid() -> RadialGrid:
    """The desk-scale grid every stated tolerance refers to (rmax=30, n=2048)."""
    return make_grid(DEFAULT_RMAX, DEFAULT_N)


def _physical_memory() -> int:
    """Bytes of physical memory on this machine."""
    return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")


def _check_kernel_size(n: int, name: str) -> None:
    """Refuse, by arithmetic alone, a grid of n nodes whose n x n float64
    transform kernel exceeds physical memory, naming the field ``name``;
    callers check before the grid is built."""
    kernel = 8 * n * n
    memory = _physical_memory()
    if kernel > memory:
        raise ValueError(f"{name} = {n} needs an n x n float64 kernel of {kernel} bytes,"
                         f" more than the {memory} bytes of physical memory")


def _check_rmax(rmax: float, name: str) -> None:
    """Refuse a grid rmax whose kernel arguments r_i t_j, which reach
    rmax^2, leave the range where the Bessel evaluation keeps its accuracy,
    naming the field ``name``."""
    if not 0 < rmax <= math.sqrt(BESSEL_ARG_MAX):
        raise ValueError(f"{name} must be in (0, {math.sqrt(BESSEL_ARG_MAX):.4g}] (kernel"
                         " arguments reach rmax^2, and the Bessel evaluation is accurate on"
                         f" [0, {BESSEL_ARG_MAX:g}] only), got {rmax!r}")


def _check_step(step: float, rmax: float, name: str) -> None:
    """Refuse a difference step whose symbol's Bessel arguments nu * step,
    which reach step * rmax on a grid of rmax, leave the range where the
    Bessel evaluation keeps its accuracy, naming the field ``name``."""
    if not step * rmax <= BESSEL_ARG_MAX:
        raise ValueError(f"{name} gives difference steps up to {step!r}, beyond"
                         f" {BESSEL_ARG_MAX / rmax:.4g}: on a grid of rmax {rmax!r} their Bessel"
                         f" arguments reach step * rmax, and the Bessel evaluation is accurate"
                         f" on [0, {BESSEL_ARG_MAX:g}] only")


def _check_weights(rmax: float, lam: float, name: str) -> None:
    """Refuse a lambda whose nu weights overflow on a grid of rmax, naming the
    field ``name``: they reach b_lam * rmax^(2 lam + 1), and rmax^(2 lam + 1)
    is formed first, so it must stay a double."""
    log_rmax, log_max = math.log(rmax), math.log(np.finfo(float).max)
    if (2.0 * lam + 1.0) * log_rmax > log_max:
        raise ValueError(f"{name} must be <= {(log_max / log_rmax - 1.0) / 2.0:.4g} on a grid"
                         f" of rmax {rmax!r}, whose weights hold rmax^(2*lambda+1), got {lam!r}")


def b_lambda(lam: float) -> float:
    """Normalizer b_lam = 1/(2^lam Gamma(lam+1)) of d nu_lam; requires
    lam > -1 for integrability at 0."""
    lam = float(lam)
    if not math.isfinite(lam) or lam <= -1.0:
        raise ValueError(f"lambda must exceed -1, got {lam!r}")
    return 1.0 / (2.0**lam * math.gamma(lam + 1.0))


@lru_cache(maxsize=32)
def nu_weights(grid: RadialGrid, lam: float) -> np.ndarray:
    """Quadrature weights of d nu_lam on the grid: b_lam * w_i * t_i^(2*lam+1)
    (read-only); a lambda whose weights overflow is refused."""
    lam = float(lam)
    _check_weights(grid.rmax, lam, "lambda")
    weights = b_lambda(lam) * grid.weights * grid.nodes ** (2.0 * lam + 1.0)
    weights.flags.writeable = False
    return weights


def _spectral_l2(values: np.ndarray, grid: RadialGrid, lam: float) -> float:
    """L2(nu_lam) norm of samples on the grid, the Plancherel norm of a
    spectrum."""
    return float(_spectral_l2s(values, grid, lam))


def _spectral_l2s(rows: np.ndarray, grid: RadialGrid, lam: float) -> np.ndarray:
    """``_spectral_l2`` of each row of a C-order (k, n) array of spectra (of
    the array itself when 1-d).  Each row is summed along its contiguous
    axis, which reproduces the 1-d sum bit for bit; an axis-0 sum of the
    transposed (n, k) array does not."""
    return np.sqrt(np.sum(nu_weights(grid, lam) * np.abs(rows) ** 2, axis=-1))


def lp_norm(f: RadialFunction, p: float, lam: float) -> float:
    """Weighted norm ||f||_{p, nu_lam}; p = inf means the grid max of |f|
    (a lower bound of the true sup; comparisons use it on both sides).

    For a radial function on R^d this radial norm equals the full weighted
    Lp norm, which is the contract callers rely on.
    """
    return float(_lp_norms(f.values[:, None], f.grid, lam, p)[0])


def _lp_norms(values: np.ndarray, grid: RadialGrid, lam: float, p: float) -> np.ndarray:
    """``lp_norm`` of each column of an (n, k) matrix of samples on the grid."""
    if p == math.inf:
        return np.max(np.abs(values), axis=0)
    p = float(p)
    if not p >= 1.0:
        raise ValueError(f"p must be >= 1 or inf, got {p!r}")
    w = nu_weights(grid, lam)
    return np.sum(w[:, None] * np.abs(values) ** p, axis=0) ** (1.0 / p)


# Both CSV formats (radial profiles here, spectra in ``transforms``) share one
# layout: a header line `# lambda=... rmax=... n=...` (spectra add
# `bandlimit=...`), a `node,value` line, then one row per grid node.  The
# header's (rmax, n) names the make_grid grid the nodes lie on, and the node
# column is the grid's ``_node_text``.


@lru_cache(maxsize=16)
def _node_text(grid: RadialGrid) -> tuple[str, ...]:
    """``repr`` of every node: the node column of each CSV on the grid.

    Writing joins it with the values' text, and reading compares the file's
    node column with it as text; ``float(repr(x)) == x``, so a match means
    the nodes are exactly the grid's and only the values need parsing.
    """
    return tuple(map(repr, grid.nodes.tolist()))


def _write_csv(path: str | Path, grid: RadialGrid, values: np.ndarray, lam: float,
               extra: str = "") -> None:
    """Write real samples on a grid in the CSV layout; ``extra`` ends the
    header line."""
    if np.iscomplexobj(values):
        raise ValueError(f"{path}: CSV values must be real, got a complex array")
    lines = [f"# lambda={float(lam)!r} rmax={float(grid.rmax)!r} n={grid.n}{extra}", "node,value"]
    pairs = zip(_node_text(grid), np.asarray(values, dtype=float).tolist())
    lines += [f"{t},{v!r}" for t, v in pairs]
    _write_text(path, "\n".join(lines) + "\n")


def _write_text(path: str | Path, text: str) -> None:
    """Write ``text`` to ``path``; a regular file there is replaced by a new one.

    The one writer of every CSV and report.  A symlink is followed, so its
    target is replaced and the link stays.  No regular file is truncated in
    place: on ext4 (``auto_da_alloc``) the close after a truncate to zero
    starts writeback, and the next overwrite of the path waits for it.  That
    flush is also ext4's guard against a crash leaving the file empty, so an
    output is no more durable than any new file until it is synced; callers
    that need it on disk must fsync.  The old file's hard links and mode are
    not kept, and its directory must be writable.  Anything else at the path
    (a device such as ``/dev/null``, a FIFO, the pipe behind ``/dev/stdout``)
    is opened and written in place, as are paths with nothing there yet.
    Callers build ``text`` before the call, so a write refused while
    building it leaves the old file as it was.
    """
    path = Path(path)
    if path.is_file():
        path = path.resolve()
        path.unlink()
    path.write_text(text)


def _csv_rows(path: str | Path, expected: tuple[str, ...]) -> tuple[dict[str, str], list[str]]:
    """Header fields and data lines of a CSV in the package layout.

    A file that is empty, lacks a header field, or holds no data rows raises
    ValueError naming the file.
    """
    lines = Path(path).read_text().strip().splitlines()
    if not lines:
        raise ValueError(f"{path}: empty file")
    if not lines[0].startswith("#"):
        raise ValueError(f"{path}: missing CSV header line")
    fields = dict(tok.split("=", 1) for tok in lines[0][1:].split() if "=" in tok)
    for name in expected:
        if name not in fields:
            raise ValueError(f"{path}: CSV header missing field {name!r}")
    rows = [ln for ln in lines[1:] if ln and not ln.startswith(("#", "node,"))]
    if not rows:
        raise ValueError(f"{path}: no data rows")
    return fields, rows


def _table(path: str | Path, rows: list[str]) -> np.ndarray:
    """The (node, value) table of data lines; a field float() refuses, or a
    row of other than two columns, raises ValueError naming the file."""
    # one float() per field over a single split; the comma counts give the
    # row widths, so fields are converted (and rejected) exactly as per row
    try:
        table = np.fromiter(map(float, ",".join(rows).split(",")), float)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    if any(ln.count(",") != 1 for ln in rows):
        raise ValueError(f"{path}: every data row must have 2 columns")
    return table.reshape(len(rows), 2)


def _value_column(fields: dict[str, str], rows: list[str]) -> tuple[RadialGrid, list[str]] | None:
    """The grid the header names and the rows' value fields, when every row
    is `node,value` with the node in that grid's ``_node_text``; None when
    the header names no grid or any row differs."""
    try:
        # the row count first: a header n alone must not build a grid
        if len(rows) != int(fields["n"]):
            return None
        _check_kernel_size(len(rows), "header n")
        grid = make_grid(float(fields["rmax"]), len(rows))
    except ValueError:
        return None
    cols = ",".join(rows).split(",")
    # n rows holding 2n fields and a comma each hold exactly one comma each
    if len(cols) != 2 * grid.n or not all(map(operator.contains, rows, repeat(","))):
        return None
    return (grid, cols[1::2]) if tuple(cols[::2]) == _node_text(grid) else None


def _load_csv(path: str | Path, extra: tuple[str, ...] = ()
              ) -> tuple[RadialFunction, float, dict[str, str]]:
    """Samples, lambda and header fields of a CSV written by ``_write_csv``.

    The grid is rebuilt by make_grid from the header's (rmax, n), once n is
    known to match the rows and to give a kernel that fits in physical
    memory.  Nodes that are the grid's ``_node_text`` are taken as its nodes
    unparsed; otherwise every field is parsed and the nodes are checked
    against the grid to 1e-12 rmax, so only grids this package produces
    load.  The header lambda must lie in the Bessel range.  Last, on either
    path, a NaN or infinite value is refused, naming its node.  Every error
    is a ValueError naming the file.
    """
    fields, rows = _csv_rows(path, ("lambda", "rmax", "n", *extra))
    known = _value_column(fields, rows)
    if known is not None:
        grid, column = known
        try:
            values = np.fromiter(map(float, column), float, count=grid.n)
            lam = _check_lambda(fields["lambda"], "header lambda")
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
        nodes = grid.nodes
    else:
        data = _table(path, rows)
        try:
            lam, n = _check_lambda(fields["lambda"], "header lambda"), int(fields["n"])
            if data.shape[0] != n:
                raise ValueError(f"expected {n} rows, found {data.shape[0]}")
            _check_kernel_size(n, "header n")
            grid = make_grid(float(fields["rmax"]), n)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
        nodes, values = data[:, 0], data[:, 1]
        if not np.allclose(grid.nodes, nodes, rtol=0, atol=1e-12 * grid.rmax):
            raise ValueError(f"{path}: nodes are not those of make_grid({grid.rmax!r}, {n})")
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        i = bad[0]
        raise ValueError(f"{path}: value {float(values[i])!r} at node {float(nodes[i])!r}"
                         " is not finite")
    return RadialFunction(grid=grid, values=values), lam, fields


def save_radial_csv(f: RadialFunction, path: str | Path, lam: float) -> None:
    """Write node,value rows with a `# lambda=... rmax=... n=...` header."""
    _write_csv(path, f.grid, f.values, lam)


def load_radial_csv(path: str | Path) -> tuple[RadialFunction, float]:
    """Read a radial CSV written by :func:`save_radial_csv`: the profile on
    the grid its header names, and lambda."""
    f, lam, _ = _load_csv(path)
    return f, lam

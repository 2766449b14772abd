"""Radial grids, nu_lam-weighted quadrature, and weighted Lp norms.

Grids are composite rules on [0, rmax] with geometric panel refinement toward
the origin so the fractional weight t^(2*lam+1) is resolved; all nodes are
strictly positive, which is what lets frequency symbols with a singularity at
zero be evaluated safely downstream.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path

import numpy as np

from .weights import b_lambda

__all__ = [
    "RadialGrid",
    "RadialFunction",
    "GRID_KINDS",
    "DEFAULT_RMAX",
    "DEFAULT_N",
    "make_grid",
    "default_grid",
    "nu_weights",
    "lp_norm",
    "save_radial_csv",
    "load_radial_csv",
]

GRID_KINDS = ("gauss-legendre-composite", "clenshaw-curtis")
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
    kind: str = "gauss-legendre-composite"
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


def _fejer_rule(m: int) -> tuple[np.ndarray, np.ndarray]:
    # Open Chebyshev (Fejer-1) rule on [-1, 1]: interior nodes only, positive
    # weights, interpolatory exactness of degree m-1.
    k = np.arange(1, m + 1)
    theta = (2 * k - 1) * np.pi / (2 * m)
    x = np.cos(theta)
    j = np.arange(1, m // 2 + 1)
    corr = 2.0 * np.sum(
        np.cos(2.0 * np.outer(j, theta)) / (4.0 * j[:, None] ** 2 - 1.0), axis=0
    )
    w = (2.0 / m) * (1.0 - corr)
    order = np.argsort(x)
    return x[order], w[order]


@lru_cache(maxsize=16)
def make_grid(rmax: float, n: int, kind: str = "gauss-legendre-composite") -> RadialGrid:
    """Composite quadrature grid on [0, rmax] with 2^-j panel refinement at 0.

    Node budget n is split as evenly as possible across the panels, with the
    remainder going to the outermost (longest) ones.  Repeated calls return
    the same (immutable) grid.
    """
    rmax = float(rmax)
    if not (rmax > 0):
        raise ValueError(f"rmax must be positive, got {rmax!r}")
    if int(n) != n or n < 16:
        raise ValueError(f"n must be an integer >= 16, got {n!r}")
    if kind not in GRID_KINDS:
        raise ValueError(f"kind must be one of {GRID_KINDS}, got {kind!r}")
    n = int(n)
    levels = min(12, max(1, n // 16))
    edges = [0.0] + [rmax * 2.0 ** (-j) for j in range(levels, -1, -1)]
    panels = len(edges) - 1
    counts = [n // panels] * panels
    for i in range(n - sum(counts)):
        counts[panels - 1 - (i % panels)] += 1
    rule = np.polynomial.legendre.leggauss if kind == "gauss-legendre-composite" else _fejer_rule
    # panels take at most two node counts; a Gauss rule of ~150 nodes costs
    # tens of ms, so each count's rule is computed once
    rules = {m: rule(m) for m in set(counts)}
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
        kind=kind,
        panel_edges=tuple(edges),
    )


def default_grid() -> RadialGrid:
    """The desk-scale grid every stated tolerance refers to (rmax=30, n=2048)."""
    return make_grid(DEFAULT_RMAX, DEFAULT_N)


@lru_cache(maxsize=32)
def nu_weights(grid: RadialGrid, lam: float) -> np.ndarray:
    """Quadrature weights of d nu_lam on the grid: b_lam * w_i * t_i^(2*lam+1)
    (read-only)."""
    lam = float(lam)
    weights = b_lambda(lam) * grid.weights * grid.nodes ** (2.0 * lam + 1.0)
    weights.flags.writeable = False
    return weights


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


def save_radial_csv(f: RadialFunction, path: str | Path, lam: float) -> None:
    """Write node,value rows with a `# lambda=... rmax=... n=...` header."""
    lines = [f"# lambda={float(lam)!r} rmax={float(f.grid.rmax)!r} n={f.grid.n}"]
    lines.append("node,value")
    for t, v in zip(f.grid.nodes, f.values):
        lines.append(f"{float(t)!r},{float(v)!r}")
    Path(path).write_text("\n".join(lines) + "\n")


def _read_csv(
    path: str | Path, expected: tuple[str, ...], columns: tuple[int, ...]
) -> tuple[dict[str, str], np.ndarray]:
    """Header fields and numeric rows of a CSV written by this package.

    A file that is empty, lacks a header field, holds no data rows, or whose
    rows do not all have the same column count from ``columns`` raises
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
    # one float() per field over a single split; the comma counts give the
    # row widths, so fields are converted (and rejected) exactly as per row
    try:
        table = np.fromiter(map(float, ",".join(rows).split(",")), float)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    width = rows[0].count(",") + 1
    if width not in columns or any(ln.count(",") != width - 1 for ln in rows):
        allowed = " or ".join(map(str, columns))
        raise ValueError(f"{path}: every data row must have the same {allowed} columns")
    return fields, table.reshape(len(rows), width)


def _match_grid(path: str | Path, nodes: np.ndarray, rmaxes: tuple[float, ...]) -> RadialGrid:
    """The make_grid grid (any kind, any of ``rmaxes``) whose nodes are ``nodes``."""
    for kind in GRID_KINDS:
        for rmax in rmaxes:
            grid = make_grid(rmax, nodes.size, kind)
            if np.allclose(grid.nodes, nodes, rtol=0, atol=1e-12 * rmax):
                return grid
    raise ValueError(f"{path}: node set does not match any make_grid construction")


def load_radial_csv(path: str | Path) -> tuple[RadialFunction, float]:
    """Read a radial CSV written by :func:`save_radial_csv`.

    The grid is rebuilt from the header (rmax, n) via make_grid and checked
    against the stored nodes, so only grids this package produces round-trip.
    """
    fields, data = _read_csv(path, ("lambda", "rmax", "n"), (2,))
    n = int(fields["n"])
    if data.shape[0] != n:
        raise ValueError(f"{path}: expected {n} rows, found {data.shape[0]}")
    grid = _match_grid(path, data[:, 0], (float(fields["rmax"]),))
    return RadialFunction(grid=grid, values=data[:, 1]), float(fields["lambda"])

"""Reflection-group weight parameters and the radial measure they induce.

Everything radial in this package is measured against
``d nu_lam(t) = b_lam * t^(2*lam+1) dt`` on (0, inf).  The index ``lam`` is
derived from an ambient dimension ``d`` and per-axis multiplicities
``k_j >= 0`` of the sign-change group Z_2^d::

    lam = d/2 - 1 + sum_j k_j,        d_k = 2 * (lam + 1),

where ``d_k`` acts as the generalized dimension of the weighted space.  The
normalizer ``b_lam = 1 / (2^lam * Gamma(lam+1))`` gives the Gaussian
``exp(-t^2/2)`` unit mass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .special import _check_lambda

__all__ = [
    "WeightParams",
    "MeasureConstants",
    "make_params",
    "params_from_lambda",
    "weight_z2d",
    "measure_constants",
]


@dataclass(frozen=True)
class WeightParams:
    """Ambient dimension, multiplicities, and the derived radial index.

    ``multiplicities`` is None when the index was set directly through
    :func:`params_from_lambda`; such parameters cannot evaluate the
    coordinate weight (see :func:`weight_z2d`).
    """

    d: int
    multiplicities: tuple[float, ...] | None
    lambda_k: float
    d_k: float


@dataclass(frozen=True)
class MeasureConstants:
    """Normalizer of the radial measure: b_lam = 1/(2^lam Gamma(lam+1))."""

    lam: float
    b_lambda: float


def make_params(d: int, multiplicities: Sequence[float]) -> WeightParams:
    """Derive WeightParams from the Z_2^d multiplicities (one per axis).

    Rejects negative multiplicities and any combination with
    ``lambda_k <= -1/2`` (only the unweighted line reaches the boundary,
    and the radial calculus needs d_k > 1) or above the Bessel range.
    """
    if int(d) != d or d < 1:
        raise ValueError(f"d must be a positive integer, got {d!r}")
    ks = tuple(float(k) for k in multiplicities)
    if len(ks) != d:
        raise ValueError(f"expected {d} multiplicities, got {len(ks)}")
    if any(k < 0 or not math.isfinite(k) for k in ks):
        raise ValueError("multiplicities must be finite and nonnegative")
    lam = _check_lambda(d / 2.0 - 1.0 + math.fsum(ks))
    return WeightParams(d=int(d), multiplicities=ks, lambda_k=lam, d_k=2.0 * (lam + 1.0))


def params_from_lambda(lam: float, d: int = 1) -> WeightParams:
    """Target a radial index directly, without choosing multiplicities.

    The radial theory sees only ``lam``; this constructor serves purely
    radial experiments that sweep the index.
    """
    lam = _check_lambda(lam)
    return WeightParams(d=int(d), multiplicities=None, lambda_k=lam, d_k=2.0 * (lam + 1.0))


def weight_z2d(x: Sequence[float], params: WeightParams) -> float:
    """Product weight prod_j |x_j|^(2*k_j) on R^d.

    Equals 1 when every multiplicity vanishes and 0 on any reflection
    hyperplane x_j = 0 carrying k_j > 0.
    """
    if params.multiplicities is None:
        raise ValueError("params built from a direct lambda override carry no multiplicities")
    xa = np.asarray(x, dtype=float)
    if xa.shape != (params.d,):
        raise ValueError(f"point must have {params.d} coordinates, got shape {xa.shape}")
    ks = np.asarray(params.multiplicities)
    return float(np.prod(np.abs(xa) ** (2.0 * ks)))


def measure_constants(lam: float) -> MeasureConstants:
    """Normalizer of d nu_lam; requires lam > -1 for integrability at 0."""
    lam = float(lam)
    if not math.isfinite(lam) or lam <= -1.0:
        raise ValueError(f"lambda must exceed -1, got {lam!r}")
    return MeasureConstants(lam=lam, b_lambda=1.0 / (2.0**lam * math.gamma(lam + 1.0)))

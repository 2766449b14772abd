"""The benchmark's span tracer still finds the names it wraps.

``perfbench/tracing.py`` replaces dunklsmooth functions by name; a renamed
or re-wrapped function would otherwise break only traced benchmark runs.
"""

import importlib.util
from pathlib import Path

import numpy as np

from dunklsmooth import quad, smoothness, special, transforms

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_and_restores():
    tracing = _load_tracing()
    nu_weights, hankel = quad.nu_weights, transforms.hankel
    call = special.BesselEvaluator.__dict__["__call__"]
    tracer = tracing.Tracer()
    with tracer.installed():
        assert special.BesselEvaluator.__call__ is not call
        assert quad.nu_weights is not nu_weights
        assert quad.nu_weights.__wrapped__ is nu_weights
        assert transforms.hankel is not hankel
        grid = quad.make_grid(4.0, 32)
        f = quad.RadialFunction(grid=grid, values=np.exp(-0.5 * grid.nodes**2))
        # the functionals reach hankel through transforms._spectrum_of
        smoothness.modulus(f, 0.5, 1.0, 2, 0.5)
    assert quad.nu_weights is nu_weights
    assert transforms.hankel is hankel
    assert special.BesselEvaluator.__dict__["__call__"] is call
    names = {span[0] for span in tracer.spans}
    assert {"smoothness.modulus.p2", "transforms.hankel"} <= names
    # the Bessel spans wrap BesselEvaluator.__call__ and .one_minus by name,
    # whatever branch (series, table or library) serves the points
    assert {"special.bessel", "special.one_minus"} <= names
    points = [span[tracing.ATTRS]["points"] for span in tracer.spans
              if span[tracing.NAME] == "special.bessel"]
    assert points and all(n > 0 for n in points)

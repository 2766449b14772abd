"""Acceptance suite: one test per criterion, each timed and reported.

Run with `pytest tests/test_acceptance.py -v`; a one-line verdict per
criterion is echoed in the terminal summary (and printed live under -s).
All tolerances are fixed here, at the desk-scale default grid
(rmax=30, n=2048, composite Gauss panels).
"""

import math
import time

import numpy as np
import pytest

from dunklsmooth.harness import (
    bandlimited_spectrum,
    concentrated_spectrum,
    make_profile,
    run_all,
)
from dunklsmooth.operators import (
    frac_difference,
    frac_difference_series,
    frac_laplacian,
    translate_T,
    vallee_poussin,
)
from dunklsmooth.transforms import bandlimit_project
from dunklsmooth.quad import RadialFunction, default_grid, lp_norm, nu_weights
from dunklsmooth.smoothness import (
    _best_approxes,
    _marchaud_bounds,
    _marchaud_sigmas,
    diff_norm,
    inverse_bound,
    k_functional_upper,
    modulus,
)
from dunklsmooth.special import bessel_norm
from dunklsmooth.transforms import (
    dunkl_kernel_1d,
    hankel,
    inverse_hankel,
    spectral_tail_l2,
    spectrum_from_values,
)

LAMBDAS = (0.0, 0.25, 1.0, 2.5)
UNITARITY_SET = ("gaussian", "gaussian_t2", "gaussian_wide", "gaussian_narrow")


@pytest.fixture(scope="module")
def grid():
    return default_grid()


@pytest.fixture(scope="module", autouse=True)
def warm_kernels(grid):
    """Prebuild the four transform matrices (the cached-kernel design is part
    of the artifact; criterion timings measure the checks, the one-time build
    cost is reported separately)."""
    t0 = time.perf_counter()
    f = RadialFunction(grid=grid, values=np.exp(-0.5 * grid.nodes**2))
    for lam in LAMBDAS:
        hankel(f, lam)
    return time.perf_counter() - t0


class _Criterion:
    def __init__(self, label, log, spent=0.0):
        """``spent``: seconds a fixture already spent on the criterion."""
        self.label = label
        self.log = log
        self.start = time.perf_counter() - spent

    def finish(self, passed, detail=""):
        elapsed = time.perf_counter() - self.start
        status = "PASS" if passed else "FAIL"
        line = f"[{status}] {self.label} ({elapsed:.1f}s){': ' + detail if detail else ''}"
        self.log.append(line)
        print(line)
        return passed


def test_criterion_1_transform_exactness(grid, acceptance_log, warm_kernels):
    crit = _Criterion("criterion 1: Gaussian transform fixed point (tol 1e-8)", acceptance_log)
    f = RadialFunction(grid=grid, values=np.exp(-0.5 * grid.nodes**2))
    worst = 0.0
    for lam in LAMBDAS:
        s = hankel(f, lam)
        worst = max(worst, float(np.max(np.abs(s.values - np.exp(-0.5 * grid.nodes**2)))))
    elapsed = time.perf_counter() - crit.start
    ok = worst <= 1e-8 and elapsed < 5.0
    crit.finish(ok, f"max abs err {worst:.2e}, kernels prebuilt in {warm_kernels:.1f}s")
    assert worst <= 1e-8
    assert elapsed < 5.0


def test_criterion_2_unitarity_and_round_trip(grid, acceptance_log):
    crit = _Criterion("criterion 2: unitarity 1e-7 / round trip 1e-6", acceptance_log)
    worst_unit = 0.0
    worst_round = 0.0
    for lam in LAMBDAS:
        for name in UNITARITY_SET:
            f = make_profile(name, grid, lam)
            s = hankel(f, lam)
            norm_f = lp_norm(f, 2, lam)
            norm_s = lp_norm(RadialFunction(grid=grid, values=s.values), 2, lam)
            worst_unit = max(worst_unit, abs(norm_f - norm_s) / norm_f)
            back = inverse_hankel(s)
            err = lp_norm(RadialFunction(grid=grid, values=back.values - f.values), 2, lam)
            worst_round = max(worst_round, err / norm_f)
    elapsed = time.perf_counter() - crit.start
    ok = worst_unit <= 1e-7 and worst_round <= 1e-6 and elapsed < 20.0
    crit.finish(ok, f"unitarity {worst_unit:.2e}, round trip {worst_round:.2e}")
    assert worst_unit <= 1e-7
    assert worst_round <= 1e-6
    assert elapsed < 20.0


def test_criterion_3_operator_identities(grid, acceptance_log):
    crit = _Criterion("criterion 3: operator identities and bit-exact commutation", acceptance_log)
    lam = 0.25
    s = spectrum_from_values(grid, lam, np.exp(-0.5 * grid.nodes**2))

    # Delta_t^2 = I - T^t, to the bit
    t = 0.37
    exact = np.array_equal(
        frac_difference(s, t, 2.0).values, (s - translate_T(s, t)).values
    )

    # series/multiplier agreement within the binomial tail certificate
    f = RadialFunction(grid=grid, values=np.exp(-0.5 * grid.nodes**2))
    series_ok = True
    for m in (0.5, 1.0, 3.0):
        series = frac_difference_series(f, 0.5, m, 64, lam)
        direct = inverse_hankel(frac_difference(hankel(f, lam), 0.5, m))
        sup = float(np.max(np.abs(series.result.values - direct.values)))
        series_ok = series_ok and sup <= series.tail_bound + 1e-10

    # all multiplier compositions commute bit-exactly
    ops = {
        "T": lambda x: translate_T(x, 0.45),
        "D1": lambda x: frac_difference(x, 0.3, 1.0),
        "Dhalf": lambda x: frac_difference(x, 0.8, 0.5),
        "L": lambda x: frac_laplacian(x, 1.2),
        "P": lambda x: vallee_poussin(x, 2.5),
        "proj": lambda x: bandlimit_project(x, 5.0),
    }
    names = list(ops)
    commute_ok = all(
        np.array_equal(ops[b](ops[a](s)).values, ops[a](ops[b](s)).values)
        for i, a in enumerate(names)
        for b in names[i + 1 :]
    )
    elapsed = time.perf_counter() - crit.start
    ok = exact and series_ok and commute_ok and elapsed < 30.0
    crit.finish(ok, f"I-T exact: {exact}, series in cert: {series_ok}, commute: {commute_ok}")
    assert exact and series_ok and commute_ok
    assert elapsed < 30.0


def test_criterion_4_small_scale_law(grid, acceptance_log):
    crit = _Criterion("criterion 4: small-step difference law within 2%", acceptance_log)
    worst = 0.0
    for lam in (0.25, 1.0):
        f = RadialFunction(grid=grid, values=np.exp(-0.5 * grid.nodes**2))
        for m in (1.0, 2.0):
            measured = diff_norm(f, 1e-2, m, 2, lam) / (1e-2) ** m
            predicted = (4.0 * (lam + 1.0)) ** (-m / 2.0) * math.sqrt(
                math.gamma(m + lam + 1.0) / (2.0 ** (lam + 1.0) * math.gamma(lam + 1.0))
            )
            worst = max(worst, abs(measured - predicted) / predicted)
    ok = worst <= 0.02
    crit.finish(ok, f"max rel deviation {worst:.2e}")
    assert worst <= 0.02


def test_criterion_5_bernstein_sharpness(grid, acceptance_log):
    crit = _Criterion("criterion 5: Bernstein exact constant and sharpness at p=2", acceptance_log)
    lam = 0.25
    w = nu_weights(grid, lam)
    nodes = grid.nodes
    worst_hi = 0.0
    for r in (1.0, 2.0):
        for sigma in (1.0, 2.0, 4.0, 8.0, 16.0):
            shat = bandlimited_spectrum(grid, lam, sigma)
            num = math.sqrt(float(np.sum(w * (nodes**r * shat.values) ** 2)))
            den = sigma**r * math.sqrt(float(np.sum(w * shat.values**2)))
            worst_hi = max(worst_hi, num / den)
    sharp_lo = math.inf
    for sigma in (2.0, 4.0, 8.0):
        shat = concentrated_spectrum(grid, lam, sigma)
        num = math.sqrt(float(np.sum(w * (nodes * shat.values) ** 2)))
        den = sigma * math.sqrt(float(np.sum(w * shat.values**2)))
        sharp_lo = min(sharp_lo, num / den)
    elapsed = time.perf_counter() - crit.start
    ok = worst_hi <= 1.0 + 1e-8 and sharp_lo >= 0.8 and elapsed < 10.0
    crit.finish(ok, f"max ratio {worst_hi:.10f}, sharpness witness {sharp_lo:.3f}")
    assert worst_hi <= 1.0 + 1e-8
    assert sharp_lo >= 0.8
    assert elapsed < 10.0


def _worst_window_breach(rows, window):
    """The row farthest outside the ratio window, with the bound it broke."""
    lo, hi = window

    def factor(row):
        if row.ratio > hi:
            return row.ratio / hi
        return lo / row.ratio if row.ratio > 0 else math.inf

    row = max(rows, key=factor)
    bound = f"> {hi:g}" if row.ratio > hi else f"< {lo:g}"
    return (
        f"{row.check} lam={row.lam:g} p={row.p:g} r={row.r:g} scale={row.scale:.3g}: "
        f"ratio {row.ratio:.3g} {bound}"
    )


def test_criterion_6_equivalence_chains(criterion_6_reports, acceptance_log):
    # the sweep (tests/golden/update.py: criterion_6_configs) runs in a
    # fixture, whose rows the golden gate also compares
    (eq, re), elapsed = criterion_6_reports
    crit = _Criterion(
        "criterion 6: equivalence + realization windows [1/20,20], drift < 4", acceptance_log,
        spent=elapsed,
    )
    failures = [row for rep in (eq, re) for row in rep.rows if not row.passed]
    ok = eq.verdict and re.verdict and elapsed < 300.0
    detail = (
        f"equivalence {'pass' if eq.verdict else 'FAIL'} (drift {eq.drift:.2f}), "
        f"realization {'pass' if re.verdict else 'FAIL'} (drift {re.drift:.2f}, "
        f"{len(failures)} rows outside window"
        + (f"; worst {_worst_window_breach(failures, eq.window)}" if failures else "")
        + ")"
    )
    crit.finish(ok, detail)
    assert elapsed < 300.0
    assert eq.verdict, "equivalence chain left the ratio window"
    assert re.verdict, (
        "realization chain outside window/drift policy: "
        + "; ".join(
            f"{row.check} lam={row.lam:g} p={row.p:g} r={row.r:g} "
            f"scale={row.scale:.3g} ratio={row.ratio:.3g}"
            for row in re.rows
            if not row.passed
        )
        + f"; drift={re.drift:.2f}"
    )


def test_criterion_7_jackson_inverse_closure(grid, acceptance_log):
    crit = _Criterion("criterion 7: Jackson bounded + inverse bound dominates", acceptance_log)
    lam = 0.25
    f = make_profile("gaussian", grid, lam)
    fhat = hankel(f, lam)
    m = 2.0
    jackson_ok = True
    for r in (0.0, 1.0):
        if r > 0:
            df = inverse_hankel(spectrum_from_values(grid, lam, fhat.values * grid.nodes**r))
        else:
            df = f
        for sigma in (2.0, 4.0, 8.0, 16.0, 32.0):
            e_val = spectral_tail_l2(f, lam, sigma)
            om = modulus(df, 1.0 / sigma, m, 2, lam).value
            ratio = e_val / (sigma ** (-r) * om)
            jackson_ok = jackson_ok and ratio <= 20.0
    table = {j: spectral_tail_l2(f, lam, float(j)) for j in range(33)}
    inverse_ok = True
    worst = 0.0
    for n in (2, 4, 8, 16, 32):
        om = modulus(f, 1.0 / n, m, 2, lam).value
        bound = inverse_bound(table, n, m)
        worst = max(worst, om / bound)
        inverse_ok = inverse_ok and om <= bound
    elapsed = time.perf_counter() - crit.start
    ok = jackson_ok and inverse_ok and elapsed < 180.0
    crit.finish(ok, f"Jackson bounded: {jackson_ok}, domination margin {worst:.3f}")
    assert jackson_ok and inverse_ok
    assert elapsed < 180.0


def test_criterion_8_marchaud_and_derivative_tail(grid, acceptance_log):
    crit = _Criterion("criterion 8: Marchaud and derivative-tail bounds dominate", acceptance_log)
    lam = 0.25
    m, r = 1.0, 1.0
    worst = 0.0
    for name in ("gaussian", "gaussian_t2", "rational"):
        f = make_profile(name, grid, lam)
        fhat = hankel(f, lam)
        # one sweep per profile; each entry equals the single marchaud_bound
        deltas = (0.1, 0.2, 0.4)
        approxes = _best_approxes(f, fhat, _marchaud_sigmas(deltas), (2,), lam)[2]
        bounds = _marchaud_bounds(f, deltas, (m,), 2, lam, approxes)
        for delta in deltas:
            lhs = k_functional_upper(f, delta, m, 2, lam)
            worst = max(worst, lhs / bounds[delta, m])
        table = {j: spectral_tail_l2(f, lam, float(j)) for j in range(33)}
        df = inverse_hankel(spectrum_from_values(grid, lam, fhat.values * grid.nodes**r))
        for n in (4, 8, 16):
            lhs = modulus(df, 1.0 / n, m, 2, lam).value
            head = sum((j + 1.0) ** (m + r - 1.0) * table[j] for j in range(n + 1))
            tail = sum(float(j) ** (r - 1.0) * table[j] for j in range(n + 1, 33))
            rhs = n ** (-r) * head + tail
            worst = max(worst, lhs / rhs)
    elapsed = time.perf_counter() - crit.start
    ok = worst <= 1.0 and elapsed < 180.0
    crit.finish(ok, f"worst lhs/rhs {worst:.3f}")
    assert worst <= 1.0
    assert elapsed < 180.0


def test_criterion_9_rank_one_kernel(acceptance_log):
    crit = _Criterion("criterion 9: rank-one kernel ODE residual / degenerations", acceptance_log)
    h = 1e-6
    xs = np.concatenate([np.linspace(-5.0, -0.25, 10), np.linspace(0.25, 5.0, 10)])
    ys = np.linspace(-5.0, 5.0, 11)
    worst_resid = 0.0
    for k in (0.0, 0.75):
        for y in ys:
            fp = (dunkl_kernel_1d(k, xs + h, y) - dunkl_kernel_1d(k, xs - h, y)) / (2 * h)
            refl = k * (dunkl_kernel_1d(k, xs, y) - dunkl_kernel_1d(k, -xs, y)) / xs
            resid = fp + refl - 1j * y * dunkl_kernel_1d(k, xs, y)
            worst_resid = max(worst_resid, float(np.max(np.abs(resid))))
    X, Y = np.meshgrid(np.linspace(-5, 5, 21), np.linspace(-5, 5, 21))
    from dunklsmooth.transforms import DunklKernel1D

    plane_err = float(np.max(np.abs(DunklKernel1D(0.0)(X, Y) - np.exp(1j * X * Y))))
    k = 0.75
    even_err = 0.0
    for x in np.linspace(-5, 5, 9):
        for y in np.linspace(-5, 5, 9):
            mean = 0.5 * (dunkl_kernel_1d(k, x, y) + dunkl_kernel_1d(k, x, -y))
            even_err = max(even_err, abs(mean - bessel_norm(k - 0.5, abs(x * y))))
            mean0 = 0.5 * (dunkl_kernel_1d(0.0, x, y) + dunkl_kernel_1d(0.0, x, -y))
            even_err = max(even_err, abs(mean0 - math.cos(x * y)))
    elapsed = time.perf_counter() - crit.start
    ok = worst_resid <= 1e-8 and plane_err <= 1e-10 and even_err <= 1e-8 and elapsed < 30.0
    crit.finish(
        ok,
        f"ODE residual {worst_resid:.2e}, plane-wave err {plane_err:.2e}, "
        f"even-part err {even_err:.2e}",
    )
    assert worst_resid <= 1e-8
    assert plane_err <= 1e-10
    assert even_err <= 1e-8
    assert elapsed < 30.0


def test_criterion_10_determinism(tmp_path, acceptance_log):
    crit = _Criterion("criterion 10: byte-identical reports across reruns", acceptance_log)
    out1 = tmp_path / "run1"
    out2 = tmp_path / "run2"
    rc1 = run_all(None, output_dir=out1)
    rc2 = run_all(None, output_dir=out2)
    identical = True
    names1 = sorted(p.name for p in out1.glob("*.csv"))
    names2 = sorted(p.name for p in out2.glob("*.csv"))
    identical = names1 == names2 and len(names1) > 0
    for name in names1:
        if (out1 / name).read_bytes() != (out2 / name).read_bytes():
            identical = False
    ok = identical and rc1 == 0 and rc2 == 0
    crit.finish(ok, f"{len(names1)} report files compared, exit codes ({rc1}, {rc2})")
    assert rc1 == 0 and rc2 == 0
    assert identical

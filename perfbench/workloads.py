"""The benchmark's three workloads.

Each workload drives dunklsmooth only through its public functions and the
CLI entry point ``dunklsmooth.cli.main`` (looked up on the module at call
time, so the traced run's wrapper is seen).  A workload has

* ``setup()``: what a fresh process pays before its first result: import,
  grid construction and, for the sweeps, the kernels of its lambda set;
* ``run_pass(i)``: one timed pass; ``after_pass(i)`` checks it, untimed;
* ``probe(calls)``: the sweeps' untimed ``transform`` CLI calls, made in
  chunks before the first pass and after each one; they fill ``latencies``
  (seconds per call), which ``transform-batch`` fills from its passes;
* ``outcome()``: operations attempted, failed checks and report rows whose
  verdict is ``pass=false``.

README.md in this directory says why each workload was chosen.
"""

from __future__ import annotations

import contextlib
import io
import math
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import dunklsmooth
import dunklsmooth.cli

ROOT = Path(__file__).resolve().parent.parent

FIXED_POINT_TOL = 1e-8  # criterion 1: transform of a Gaussian-family profile
ROUND_TRIP_TOL = 1e-6  # criterion 2: relative L2 error of a round trip
# p90 of the transform latency needs at least ten samples beyond it
MIN_TRANSFORM_CALLS = 110
PLAIN_RUN_TIMEOUT_S = 150


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0  # raised, or an output check did not hold
    verdict_failed: int = 0  # report rows with pass=false
    problems: list[str] = field(default_factory=list)

    def fail(self, count: int, problem: str) -> None:
        self.failed += count
        if len(self.problems) < 20:
            self.problems.append(problem)


def exact_spectrum(name: str, lam: float, r: np.ndarray) -> np.ndarray:
    """Closed-form Hankel transforms of the Gaussian-family profiles."""
    gauss = np.exp(-0.5 * r * r)
    if name == "gaussian":
        return gauss  # the fixed point of criterion 1
    if name == "gaussian_t2":
        # H(t^2 g) = -B_lam H(g), B_lam the Bessel operator
        return (2.0 * lam + 2.0 - r * r) * gauss
    if name == "gaussian_narrow":
        return 4.0 ** -(lam + 1.0) * np.exp(-r * r / 8.0)
    if name == "gaussian_wide":
        return 4.0 ** (lam + 1.0) * np.exp(-2.0 * r * r)
    raise ValueError(f"no closed form for profile {name!r}")


def spectrum_problem(path: Path, grid, name: str, lam: float) -> str | None:
    """Parse a spectrum CSV independently of the program and compare it to
    the closed form; return what is wrong, or None."""
    lines = path.read_text().splitlines()
    header = dict(tok.split("=", 1) for tok in lines[0].lstrip("#").split())
    if float(header["lambda"]) != lam:
        return f"{path.name}: header lambda {header['lambda']} != {lam!r}"
    data = np.array([[float(x) for x in ln.split(",")] for ln in lines[2:]])
    if data.shape != (grid.n, 2) or not np.array_equal(data[:, 0], grid.nodes):
        return f"{path.name}: nodes do not match the input grid"
    exact = exact_spectrum(name, lam, grid.nodes)
    err = float(np.max(np.abs(data[:, 1] - exact))) / max(1.0, float(np.max(np.abs(exact))))
    if not err <= FIXED_POINT_TOL:
        return f"{path.name}: {name} at lambda={lam!r} off its closed form by {err:.3g}"
    return None


def stratified(rng: np.random.Generator, n: int, lo: float, hi: float) -> list[float]:
    """One uniform draw from each of n equal strata of [lo, hi], shuffled:
    fresh values every time, with nearly the same spread on every seed."""
    u = (np.arange(n) + rng.random(n)) / n
    return [float(v) for v in rng.permutation(lo + (hi - lo) * u)]


class Workload:
    name = ""
    min_passes = 2
    probe_chunk = 0

    def __init__(self, seed: int, workdir: Path | None) -> None:
        self.seed = seed
        self.workdir = workdir
        self.rng = np.random.default_rng(seed)
        self.latencies: list[float] = []
        self.unchecked: list[tuple] = []
        self.calls = Outcome()  # transform calls and round trips

    def setup(self) -> None:
        raise NotImplementedError

    def run_pass(self, index: int) -> None:
        raise NotImplementedError

    def after_pass(self, index: int) -> None:
        pass

    def probe(self, calls: int) -> None:
        pass

    def outcome(self) -> Outcome:
        raise NotImplementedError

    def transform_call(self, in_path: Path, out_path: Path, grid, name: str, lam: float) -> None:
        """One timed ``dunklsmooth transform`` call; ``check_calls`` checks it."""
        argv = ["transform", "--input", str(in_path), "--lambda", repr(lam), "--output", str(out_path)]
        with contextlib.redirect_stdout(io.StringIO()):
            t0 = time.perf_counter()
            rc = dunklsmooth.cli.main(argv)
            self.latencies.append(time.perf_counter() - t0)
        self.unchecked.append((rc, out_path, grid, name, lam))

    def check_calls(self) -> None:
        for rc, out_path, grid, name, lam in self.unchecked:
            self.calls.attempted += 1
            problem = f"transform exit code {rc}" if rc != 0 else spectrum_problem(out_path, grid, name, lam)
            if problem:
                self.calls.fail(1, problem)
        self.unchecked.clear()


class _Sweep(Workload):
    """Shared by the two sweeps: kernels of the lambda set built in set-up,
    and a probe of ``transform`` calls that only read those kernels."""

    probe_profiles = ("gaussian", "gaussian_t2", "gaussian_wide", "gaussian_narrow")
    # probe calls before the first pass and after each one, so that the
    # latency samples span the run
    probe_chunk = 48
    lambdas: tuple[float, ...] = ()

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.probe_inputs: dict[tuple[str, float], Path] = {}

    def build_grid(self):
        raise NotImplementedError

    def setup(self) -> None:
        self.grid = self.build_grid()
        for lam in self.lambdas:
            dunklsmooth.hankel(dunklsmooth.make_profile("gaussian", self.grid, lam), lam)

    def after_pass(self, index: int) -> None:
        self.probe(self.probe_chunk)

    def probe(self, calls: int) -> None:
        """``calls`` transform calls.  Each (profile, lambda) input is used
        equally often, in a seeded order."""
        if not self.probe_inputs:
            for name in self.probe_profiles:
                for lam in self.lambdas:
                    path = self.workdir / f"probe-{name}-{lam!r}.csv"
                    dunklsmooth.save_radial_csv(dunklsmooth.make_profile(name, self.grid, lam), path, lam)
                    self.probe_inputs[name, lam] = path
        keys = list(self.probe_inputs)
        done = len(self.latencies)
        out_path = self.workdir / "probe-out.csv"
        for j in self.rng.permutation(np.arange(done, done + max(calls, 0)) % len(keys)):
            name, lam = keys[j]
            self.transform_call(self.probe_inputs[name, lam], out_path, self.grid, name, lam)
            self.check_calls()


class DefaultRun(_Sweep):
    """The built-in default sweep through ``cli.main(["run", ...])``."""

    name = "default-run"

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.config = dunklsmooth.parse_config(dunklsmooth.default_config())
        self.lambdas = tuple(sorted({lam for e in self.config.experiments for lam in e.lambda_values}))
        self.reports: dict[int, tuple[int, dict[str, bytes]]] = {}

    def build_grid(self):
        return self.config.grid()

    def run_pass(self, index):
        with contextlib.redirect_stdout(io.StringIO()):
            rc = dunklsmooth.cli.main(["run", "--output-dir", str(self.workdir / f"run{index}")])
        self.reports[index] = (rc, {})

    def after_pass(self, index):
        out = self.workdir / f"run{index}"
        if index in self.reports:
            files = {p.name: p.read_bytes() for p in sorted(out.glob("*.csv"))}
            self.reports[index] = (self.reports[index][0], files)
        shutil.rmtree(out, ignore_errors=True)
        super().after_pass(index)

    def outcome(self):
        tally = Outcome()
        if not self.reports:
            return tally
        first = min(self.reports)
        ref = self.reports[first][1]
        for index, (rc, files) in sorted(self.reports.items()):
            for name in sorted(set(ref) | set(files)):
                data = files.get(name, ref.get(name))
                rows = data.decode().splitlines()[2:]
                tally.attempted += len(rows)
                if rc not in (0, 1) or files.get(name) != ref.get(name):
                    tally.fail(len(rows), f"pass {index}: {name} differs from pass {first} (exit {rc})")
                else:
                    tally.verdict_failed += sum(row.endswith(",false") for row in rows)
        self._compare_plain_run(ref, tally)
        return tally

    def _compare_plain_run(self, ref, tally):
        """The benchmark's reports must be byte-identical to a plain
        ``dunklsmooth run`` of the same sources in a fresh process."""
        plain = self.workdir / "plain"
        proc = subprocess.run(
            [sys.executable, "-m", "dunklsmooth.cli", "run", "--output-dir", str(plain)],
            cwd=ROOT, stdout=subprocess.DEVNULL, timeout=PLAIN_RUN_TIMEOUT_S,
        )
        for name, data in ref.items():
            path = plain / name
            if proc.returncode not in (0, 1) or not path.is_file() or path.read_bytes() != data:
                rows = len(data.decode().splitlines()[2:])
                tally.fail(rows, f"{name} differs from a plain `dunklsmooth run` (exit {proc.returncode})")


class ChainSweep(_Sweep):
    """The criterion-6 configuration: equivalence and realization chains."""

    name = "chain-sweep"
    lambdas = (0.25, 1.0)
    # a run holds only two passes, so three probe chunks: larger ones sample
    # more of the host's fast and slow phases
    probe_chunk = 96

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        shared = dict(
            lambda_values=self.lambdas,
            p_values=(1.0, 2.0, math.inf),
            r_values=(0.5, 1.0, 2.0),
            scale=dunklsmooth.ScaleGrid(1e-2, 1.0, 9),
            test_functions=("gaussian",),
            window=(1.0 / 20.0, 20.0),
            drift_max=4.0,
        )
        self.configs = [
            dunklsmooth.ExperimentConfig(name=name, **shared) for name in ("equivalence", "realization")
        ]
        self.rows: dict[int, list] = {}

    def build_grid(self):
        return dunklsmooth.default_grid()

    def run_pass(self, index):
        rows = []
        for cfg in self.configs:
            rows += dunklsmooth.EXPERIMENTS[cfg.name](cfg, self.grid).rows
        self.rows[index] = rows

    def outcome(self):
        tally = Outcome()
        if not self.rows:
            return tally
        first = min(self.rows)
        ref = [repr(row) for row in self.rows[first]]
        for index, rows in sorted(self.rows.items()):
            tally.attempted += len(rows)
            got = [repr(row) for row in rows]
            if len(got) != len(ref):
                tally.fail(len(rows), f"pass {index}: {len(got)} rows, pass {first} had {len(ref)}")
                continue
            bad = {i for i, (a, b) in enumerate(zip(got, ref)) if a != b}
            if bad:
                tally.fail(len(bad), f"pass {index}: {len(bad)} rows differ from pass {first}")
            tally.verdict_failed += sum(
                not row.passed for i, row in enumerate(rows) if i not in bad
            )
        return tally


class TransformBatch(Workload):
    """Seeded ``transform`` CLI calls, each at a fresh lambda, plus rank-one
    round trips."""

    name = "transform-batch"
    calls_per_pass = 24
    round_trips_per_pass = 4
    # gaussian_wide is left out: at n=512 its narrow spectrum meets its
    # closed form only to ~7e-6, outside the criterion-1 tolerance.
    profiles = ("gaussian", "gaussian_t2", "gaussian_narrow")
    lambda_range = (0.0, 2.5)  # the range criterion 1 certifies
    k_range = (0.0, 2.5)
    min_passes = math.ceil(MIN_TRANSFORM_CALLS / calls_per_pass)

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.trips: list[tuple] = []

    def setup(self):
        self.grid = dunklsmooth.make_grid(30.0, 512)
        self.line_grid = dunklsmooth.SymmetricGrid.from_radial(dunklsmooth.make_grid(12.0, 256))

    def run_pass(self, index):
        for j, lam in enumerate(stratified(self.rng, self.calls_per_pass, *self.lambda_range)):
            name = self.profiles[j % len(self.profiles)]
            in_path = self.workdir / f"in{j}.csv"
            dunklsmooth.save_radial_csv(dunklsmooth.make_profile(name, self.grid, lam), in_path, lam)
            self.transform_call(in_path, self.workdir / f"out{j}.csv", self.grid, name, lam)
        x = self.line_grid.nodes
        for k in stratified(self.rng, self.round_trips_per_pass, *self.k_range):
            vals = np.exp(-0.5 * x * x) * (1.0 + self.rng.uniform(-0.5, 0.5) * x)
            f = dunklsmooth.LineFunction(grid=self.line_grid, values=vals)
            back = dunklsmooth.dunkl_inverse_1d(dunklsmooth.dunkl_transform_1d(f, k), k)
            self.trips.append((k, vals, back.values))

    def after_pass(self, index):
        self.check_calls()
        x, w = self.line_grid.nodes, self.line_grid.weights
        for k, vals, back in self.trips:
            mu = w * np.abs(x) ** (2.0 * k)
            err = math.sqrt(np.sum(mu * np.abs(back - vals) ** 2) / np.sum(mu * np.abs(vals) ** 2))
            self.calls.attempted += 1
            if not err <= ROUND_TRIP_TOL:
                self.calls.fail(1, f"rank-one round trip at k={k!r} off by {err:.3g}")
        self.trips.clear()

    def outcome(self):
        return Outcome()


WORKLOADS = {cls.name: cls for cls in (DefaultRun, ChainSweep, TransformBatch)}

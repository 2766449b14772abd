"""Golden reports: the committed values every later change is compared with.

This directory holds

* ``default/``: the 16 files of ``dunklsmooth run`` (the built-in sweep);
* ``criterion6.csv``: the 1,458 rows of acceptance criterion 6 (the
  equivalence and realization chains at p in {1, 2, inf}) as
  (check, lambda, p, r, scale, lhs, rhs), every float in ``float.hex``;
* ``fingerprint.json``: the numpy, BLAS and CPU they were computed with.

``tests/test_golden.py`` compares a fresh run with them and names every row
that moved, with its relative change.  On the recorded fingerprint the
comparison is exact; on another one a value may move by rounding alone, so
values are compared to ``FOREIGN_RTOL`` relative (``FOREIGN_ATOL`` absolute
near zero) and a warning names the two fingerprints.

Run this file to rewrite the golden files from the current tree; it prints
the rows that moved::

    PYTHONPATH=src python tests/golden/update.py

A change that moves values updates the golden files in the same commit.
"""

from __future__ import annotations

import json
import math
import platform
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
DEFAULT = HERE / "default"
CHAIN = HERE / "criterion6.csv"
FINGERPRINT = HERE / "fingerprint.json"
CHAIN_HEADER = "check,lambda,p,r,scale,lhs,rhs"

FOREIGN_RTOL = 1e-9
FOREIGN_ATOL = 1e-14


def fingerprint() -> dict:
    """What the bits of a report depend on beyond the source: numpy, its
    BLAS, and the CPU features its kernels dispatch on."""
    config = np.show_config(mode="dicts")
    blas = config["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "blas": f"{blas['name']} {blas['version']}",
        "machine": platform.machine(),
        "simd": sorted(config["SIMD Extensions"]["found"]),
    }


def criterion_6_configs() -> list:
    """Criterion 6's equivalence and realization sweeps, in run order."""
    from dunklsmooth.harness import ExperimentConfig, ScaleGrid

    shared = dict(
        lambda_values=(0.25, 1.0),
        p_values=(1.0, 2.0, math.inf),
        r_values=(0.5, 1.0, 2.0),
        scale=ScaleGrid(1e-2, 1.0, 9),
        test_functions=("gaussian",),
        window=(1.0 / 20.0, 20.0),
        drift_max=4.0,
    )
    return [ExperimentConfig(name=name, **shared) for name in ("equivalence", "realization")]


def chain_lines(reports) -> list[str]:
    """The golden lines of criterion 6's reports."""
    return [
        ",".join([row.check] + [float(x).hex() for x in
                                (row.lam, row.p, row.r, row.scale, row.lhs, row.rhs)])
        for report in reports for row in report.rows
    ]


def _relative(old: float, new: float) -> float:
    if old == new:
        return 0.0
    return abs(new - old) / abs(old) if old else math.inf


def _close(old: float, new: float, exact: bool) -> bool:
    if exact or not (math.isfinite(old) and math.isfinite(new)):
        return old == new
    return abs(new - old) <= FOREIGN_RTOL * abs(old) + FOREIGN_ATOL


def _field(text: str) -> float | str:
    try:
        return float.fromhex(text) if text.startswith(("0x", "-0x")) else float(text)
    except ValueError:
        return text


def _moved(name: str, old, new, exact: bool) -> list[str]:
    """The message for one field that moved, with its relative change when
    it is a float: none when it did not move."""
    if isinstance(old, float) and isinstance(new, float):
        if _close(old, new, exact):
            return []
        return [f"{name} {old!r} -> {new!r} (relative change {_relative(old, new):.3g})"]
    return [] if old == new else [f"{name} {old!r} -> {new!r}"]


def compare_lines(label: str, header: str, old: list[str], new: list[str],
                  exact: bool = True) -> list[str]:
    """One message per row of ``new`` that differs from ``old``: the row's
    key fields, then each moved field with its relative change."""
    names = header.split(",")
    messages = []
    if len(old) != len(new):
        messages.append(f"{label}: {len(old)} rows -> {len(new)}")
    for i, (a, b) in enumerate(zip(old, new)):
        if a == b:
            continue
        fa, fb = [list(map(_field, line.split(","))) for line in (a, b)]
        moved = [f"{len(fa)} fields -> {len(fb)}"] if len(fa) != len(fb) else [
            m for name, x, y in zip(names, fa, fb) for m in _moved(name, x, y, exact)]
        if exact and not moved:
            moved = ["formatting differs"]
        if moved:
            key = " ".join(f"{n}={v!r}" for n, v in zip(names[: names.index("scale") + 1], fb))
            messages.append(f"{label} row {i + 1} ({key}): " + "; ".join(moved))
    return messages


def compare_report_dir(fresh: Path, exact: bool = True) -> list[str]:
    """Messages for every file of ``fresh`` that differs from ``default/``:
    a missing or extra file, a moved CSV row or a moved summary field."""
    old = {p.name for p in DEFAULT.iterdir()}
    new = {p.name for p in fresh.iterdir()}
    messages = [f"{name}: missing" for name in sorted(old - new)]
    messages += [f"{name}: not in the golden set" for name in sorted(new - old)]
    for name in sorted(old & new):
        a, b = (DEFAULT / name).read_text(), (fresh / name).read_text()
        if a == b:
            continue
        if name.endswith(".csv"):
            la, lb = a.splitlines(), b.splitlines()
            if la[:2] != lb[:2]:
                messages.append(f"{name}: header {la[:2]!r} -> {lb[:2]!r}")
            messages += compare_lines(name, la[1], la[2:], lb[2:], exact)
        else:
            ja, jb = json.loads(a), json.loads(b)
            keys = sorted(set(ja) | set(jb))
            moved = [m for k in keys for m in _moved(k, ja.get(k), jb.get(k), exact)]
            if exact and not moved:
                moved = ["formatting differs"]
            messages += [f"{name}: {m}" for m in moved]
    return messages


def read_chain() -> list[str]:
    lines = CHAIN.read_text().splitlines()
    assert lines[0] == CHAIN_HEADER, f"{CHAIN}: unexpected header {lines[0]!r}"
    return lines[1:]


def main() -> int:
    from dunklsmooth.harness import EXPERIMENTS, _HANDOFF, run_all
    from dunklsmooth.quad import default_grid

    grid = default_grid()
    _HANDOFF.clear()
    lines = chain_lines([EXPERIMENTS[cfg.name](cfg, grid) for cfg in criterion_6_configs()])
    with tempfile.TemporaryDirectory() as tmp:
        fresh = Path(tmp) / "default"
        run_all(None, output_dir=fresh)
        moved = compare_report_dir(fresh) if DEFAULT.is_dir() else ["default/: new"]
        moved += compare_lines(CHAIN.name, CHAIN_HEADER, read_chain(), lines) if CHAIN.exists() \
            else [f"{CHAIN.name}: new"]
        shutil.rmtree(DEFAULT, ignore_errors=True)
        shutil.copytree(fresh, DEFAULT)
    CHAIN.write_text("\n".join([CHAIN_HEADER] + lines) + "\n")
    FINGERPRINT.write_text(json.dumps(fingerprint(), indent=2) + "\n")
    for message in moved:
        print(message)
    print(f"{len(moved)} moved; golden files rewritten in {HERE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

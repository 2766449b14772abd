"""Golden reports: the committed values every later change is compared with.

This directory holds

* ``default/``: the 16 files of ``dunklsmooth run`` (the built-in sweep);
* ``off_p2/``: the 16 files of the built-in sweep at p = inf, and at
  p in {1, inf} for bernstein, nikolskii_stechkin, boas and general_entire
  (``off_p2_config``), the rows the p = 2 default run never reaches;
* ``criterion6.csv``: the 1,458 rows of acceptance criterion 6 (the
  equivalence and realization chains at p in {1, 2, inf}) as
  (check, lambda, p, r, scale, lhs, rhs), every float in ``float.hex``;
* ``fingerprint.json``: the numpy, BLAS, CPU and scipy they were computed with.

``tests/test_golden.py`` compares a fresh run with them and names every row
that moved, with its relative change.  On the recorded fingerprint the
comparison is exact; on another one a value may move by rounding alone, so
values are compared to ``FOREIGN_RTOL`` relative (``FOREIGN_ATOL`` absolute
near zero) and a warning names the two fingerprints.

Run this file to rewrite the golden files from the current tree::

    PYTHONPATH=src python tests/golden/update.py

It prints every moved row, then one line per golden file that moved: the
rows moved, the largest relative and absolute change of any value but a
ratio, and the verdicts that flipped (a report's ``pass`` column and summary
``verdict``; for criterion 6 each row's verdict under its experiment's
window).  A change that moves values updates the golden files in the same
commit.
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
OFF_P2 = HERE / "off_p2"
CHAIN = HERE / "criterion6.csv"
FINGERPRINT = HERE / "fingerprint.json"
CHAIN_HEADER = "check,lambda,p,r,scale,lhs,rhs"

FOREIGN_RTOL = 1e-9
FOREIGN_ATOL = 1e-14


def fingerprint() -> dict:
    """What the bits of a report depend on beyond the source: numpy, its
    BLAS, the CPU features its kernels dispatch on, and scipy, whose HiGHS
    solves the p = 1 fits."""
    import scipy

    config = np.show_config(mode="dicts")
    blas = config["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas['name']} {blas['version']}",
        "machine": platform.machine(),
        "simd": sorted(config["SIMD Extensions"]["found"]),
    }


# the experiments the off-p = 2 set also runs at p = 1
_L1_TOO = ("bernstein", "nikolskii_stechkin", "boas", "general_entire")


def off_p2_config() -> dict:
    """The built-in sweep with p = inf for every experiment, and p = 1
    besides for the experiments of ``_L1_TOO``."""
    from dunklsmooth.harness import default_config

    data = default_config()
    for experiment in data["experiments"]:
        experiment["p_values"] = [1.0, math.inf] if experiment["name"] in _L1_TOO else [math.inf]
    return data


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


def compare_report_dir(fresh: Path, exact: bool = True, golden: Path = DEFAULT) -> list[str]:
    """Messages for every file of ``fresh`` that differs from the golden
    directory ``golden``: a missing or extra file, a moved CSV row or a
    moved summary field."""
    old = {p.name for p in golden.iterdir()}
    new = {p.name for p in fresh.iterdir()}
    messages = [f"{name}: missing" for name in sorted(old - new)]
    messages += [f"{name}: not in the golden set" for name in sorted(new - old)]
    for name in sorted(old & new):
        a, b = (golden / name).read_text(), (fresh / name).read_text()
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


def _chain_verdict(fields: list) -> bool:
    """A criterion-6 row's verdict, (check, lambda, p, r, scale, lhs, rhs),
    under the window of the experiment its check names."""
    from dunklsmooth.harness import SmoothnessReport

    check, lam, p, r, scale, lhs, rhs = fields
    cfg = next(c for c in criterion_6_configs() if c.name == check.split(":")[0])
    report = SmoothnessReport(cfg.name, cfg.window, cfg.drift_max)
    return report.add(check, lam, p, 0.0, r, scale, lhs, rhs).passed


def summarize_lines(label: str, header: str, old: list[str], new: list[str],
                    verdict=None) -> str | None:
    """One line for a golden file whose rows moved, none if none did: the
    rows moved, the largest relative and absolute change over every value
    but the ratio (lhs / rhs, which moves with them), and the verdicts that
    flipped, read from a ``pass`` column or, given ``verdict``
    (fields -> bool), recomputed for both sides."""
    names = header.split(",")
    rows = flips = 0
    rel = absolute = 0.0
    for a, b in zip(old, new):
        if a == b:
            continue
        rows += 1
        fa, fb = [list(map(_field, line.split(","))) for line in (a, b)]
        for name, x, y in zip(names, fa, fb):
            if name != "ratio" and isinstance(x, float) and isinstance(y, float) and x != y:
                rel = max(rel, _relative(x, y))
                absolute = max(absolute, abs(y - x))
        if "pass" in names:
            flips += fa[names.index("pass")] != fb[names.index("pass")]
        elif verdict is not None:
            flips += verdict(fa) != verdict(fb)
    if not rows and len(old) == len(new):
        return None
    count = f"{rows} of {len(new)} rows moved" + (
        f" ({len(old)} rows -> {len(new)})" if len(old) != len(new) else "")
    return (f"{label}: {count}, largest relative change {rel:.3g}, "
            f"largest absolute change {absolute:.3g}, {flips} verdicts flipped")


def summarize_report_dir(fresh: Path, golden: Path) -> list[str]:
    """``summarize_lines`` for each CSV of ``fresh`` that moved against the
    golden directory, and one line per moved summary: its fields that moved
    and whether its verdict flipped."""
    gone = {p.name for p in golden.iterdir()} - {p.name for p in fresh.iterdir()}
    lines = [f"{golden.name}/{name}: missing" for name in sorted(gone)]
    for path in sorted(fresh.iterdir()):
        old_path = golden / path.name
        if not old_path.exists():
            lines.append(f"{golden.name}/{path.name}: new")
            continue
        a, b = old_path.read_text(), path.read_text()
        if a == b:
            continue
        label = f"{golden.name}/{path.name}"
        if path.suffix == ".csv":
            la, lb = a.splitlines(), b.splitlines()
            lines.append(summarize_lines(label, lb[1], la[2:], lb[2:]) or f"{label}: header moved")
        else:
            ja, jb = json.loads(a), json.loads(b)
            moved = sorted(k for k in set(ja) | set(jb) if ja.get(k) != jb.get(k))
            flip = "no " if ja.get("verdict") == jb.get("verdict") else ""
            lines.append(f"{label}: fields {', '.join(moved)} moved, {flip}verdict flipped")
    return lines


def read_chain() -> list[str]:
    lines = CHAIN.read_text().splitlines()
    assert lines[0] == CHAIN_HEADER, f"{CHAIN}: unexpected header {lines[0]!r}"
    return lines[1:]


def main() -> int:
    from dunklsmooth.harness import EXPERIMENTS, _HANDOFF, default_config, parse_config, run_config
    from dunklsmooth.quad import default_grid

    grid = default_grid()
    _HANDOFF.clear()
    lines = chain_lines([EXPERIMENTS[cfg.name](cfg, grid) for cfg in criterion_6_configs()])
    moved, summary = [], []
    with tempfile.TemporaryDirectory() as tmp:
        for golden, config in ((DEFAULT, default_config()), (OFF_P2, off_p2_config())):
            fresh = Path(tmp) / golden.name
            _HANDOFF.clear()
            run_config(parse_config(config), output_dir=fresh)
            if golden.is_dir():
                moved += compare_report_dir(fresh, golden=golden)
                summary += summarize_report_dir(fresh, golden)
            else:
                summary.append(f"{golden.name}/: new")
            shutil.rmtree(golden, ignore_errors=True)
            shutil.copytree(fresh, golden)
        if CHAIN.exists():
            old = read_chain()
            moved += compare_lines(CHAIN.name, CHAIN_HEADER, old, lines)
            summary.append(summarize_lines(CHAIN.name, CHAIN_HEADER, old, lines, _chain_verdict))
        else:
            summary.append(f"{CHAIN.name}: new")
    CHAIN.write_text("\n".join([CHAIN_HEADER] + lines) + "\n")
    FINGERPRINT.write_text(json.dumps(fingerprint(), indent=2) + "\n")
    for message in moved:
        print(message)
    for line in filter(None, summary):
        print(line)
    print(f"{len(moved)} moved; golden files rewritten in {HERE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

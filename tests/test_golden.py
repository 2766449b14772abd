"""The golden-report gate: a fresh run against the committed golden files.

``tests/golden/update.py`` says what the files hold and rewrites them.
The default run and the off-p = 2 run cover every experiment at p = 2 and
p = inf, and four of them at p = 1; criterion 6 covers the chains at
p in {1, 2, inf} on its wider sweep.  The
gate is exact on the fingerprint the files record; on another it compares
to the module's foreign tolerance and warns, naming both fingerprints, how
many rows moved and their largest relative change, so a move that the
tolerance lets through still shows.
"""

import json
import math
import warnings

import pytest
import scipy

from dunklsmooth import harness


def _exact(golden, movement) -> bool:
    """True on the recorded fingerprint.  On another, warn with the
    fingerprints and ``movement()``, the summary lines of every golden file
    that moved (``update.summarize_lines``), and return False."""
    recorded = json.loads(golden.FINGERPRINT.read_text())
    here = golden.fingerprint()
    if recorded == here:
        return True
    moves = "; ".join(filter(None, movement())) or "no row moved"
    warnings.warn(
        f"golden files were computed on {recorded}, this run is on {here}: values are "
        f"compared to relative {golden.FOREIGN_RTOL:g}, not bit for bit; {moves}"
    )
    return False


def _report_dir_gate(golden, out, golden_dir):
    exact = _exact(golden, lambda: golden.summarize_report_dir(out, golden_dir))
    return golden.compare_report_dir(out, exact, golden_dir)


def test_default_run_matches_golden(golden, default_run):
    _, out = default_run
    moved = _report_dir_gate(golden, out, golden.DEFAULT)
    assert not moved, "default-run reports moved:\n" + "\n".join(moved)


def test_off_p2_run_matches_golden(golden, tmp_path):
    reports = harness.run_config(harness.parse_config(golden.off_p2_config()), tmp_path)
    assert sum(len(report.rows) for report in reports) == 185
    moved = _report_dir_gate(golden, tmp_path, golden.OFF_P2)
    assert not moved, "off-p=2 reports moved:\n" + "\n".join(moved)


def test_criterion_6_rows_match_golden(golden, criterion_6_reports):
    reports, _ = criterion_6_reports
    old, lines = golden.read_chain(), golden.chain_lines(reports)
    name, header = golden.CHAIN.name, golden.CHAIN_HEADER
    exact = _exact(golden, lambda: [golden.summarize_lines(name, header, old, lines,
                                                           golden._chain_verdict)])
    moved = golden.compare_lines(name, header, old, lines, exact)
    assert not moved, "criterion-6 rows moved:\n" + "\n".join(moved)


def test_fingerprint_records_scipy(golden):
    # the p = 1 fits are scipy's HiGHS solves
    assert golden.fingerprint()["scipy"] == scipy.__version__
    assert "scipy" in json.loads(golden.FINGERPRINT.read_text())


def test_foreign_warning_names_rows_moved_under_the_tolerance(golden, monkeypatch):
    old = golden.read_chain()[:3]
    check, *fields = old[1].split(",")
    lhs = float.fromhex(fields[4])
    new = list(old)
    new[1] = ",".join([check, *fields[:4], (lhs * (1 + 1e-12)).hex(), fields[5]])
    header = golden.CHAIN_HEADER
    assert golden.compare_lines("rows", header, old, new, exact=False) == []
    monkeypatch.setattr(golden, "fingerprint", lambda: {"numpy": "0"})
    with pytest.warns(UserWarning, match="1 of 3 rows moved, largest relative change 1e-12"):
        assert not _exact(golden, lambda: [golden.summarize_lines("rows", header, old, new)])
    with pytest.warns(UserWarning, match="not bit for bit; no row moved$"):
        _exact(golden, lambda: [golden.summarize_lines("rows", header, old, old)])


def test_gate_names_a_one_ulp_move(golden):
    old = golden.read_chain()[:3]
    check, *fields = old[1].split(",")
    lhs = float.fromhex(fields[4])
    new = list(old)
    new[1] = ",".join([check, *fields[:4], math.nextafter(lhs, math.inf).hex(), fields[5]])
    header = golden.CHAIN_HEADER
    (moved,) = golden.compare_lines("rows", header, old, new)
    assert moved.startswith(f"rows row 2 (check='{check}'") and "lhs" in moved
    assert f"lhs {lhs!r} -> {math.nextafter(lhs, math.inf)!r} (relative change" in moved
    # off the recorded fingerprint a rounding move passes, a larger one does not
    assert golden.compare_lines("rows", header, old, new, exact=False) == []
    new[1] = ",".join([check, *fields[:4], (lhs * (1 + 1e-6)).hex(), fields[5]])
    assert len(golden.compare_lines("rows", header, old, new, exact=False)) == 1


def test_summary_names_rows_moved_changes_and_flips(golden):
    header = "experiment,lambda,p,m,r,scale,lhs,rhs,ratio,pass"
    old = ["jackson,0.25,inf,2.0,0.0,2.0,0.5,0.25,2.0,true",
           "jackson,0.25,inf,2.0,0.0,4.0,1.0,0.5,2.0,true",
           "jackson,0.25,inf,2.0,0.0,8.0,1.0,0.5,2.0,true"]
    new = [old[0],
           "jackson,0.25,inf,2.0,0.0,4.0,1.5,0.5,3.0,false",
           "jackson,0.25,inf,2.0,0.0,8.0,1.0,0.5000000000000001,1.9999999999999996,true"]
    line = golden.summarize_lines("jackson.csv", header, old, new)
    # the ratio moved by 1, but it is lhs / rhs: lhs moved by 0.5
    assert line == ("jackson.csv: 2 of 3 rows moved, largest relative change 0.5, "
                    "largest absolute change 0.5, 1 verdicts flipped")
    assert golden.summarize_lines("jackson.csv", header, old, old) is None
    # criterion-6 rows carry no verdict: it is recomputed in the window
    row = golden.read_chain()[0]
    check, *fields = row.split(",")
    lhs, rhs = (float.fromhex(x) for x in fields[4:])
    far = ",".join([check, *fields[:4], (1e3 * rhs).hex(), fields[5]])
    summary = golden.summarize_lines("c6", golden.CHAIN_HEADER, [row], [far],
                                     golden._chain_verdict)
    assert summary.endswith("1 verdicts flipped")
    assert golden._chain_verdict([check, *map(float.fromhex, fields)])

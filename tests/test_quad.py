import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad as adaptive_quad

from dunklsmooth.quad import (
    RadialFunction,
    RadialGrid,
    _csv_rows,
    _node_text,
    _table,
    _write_csv,
    b_lambda,
    load_radial_csv,
    lp_norm,
    make_grid,
    nu_weights,
    save_radial_csv,
)
from dunklsmooth.smoothness import modulus
from dunklsmooth.transforms import hankel, load_spectrum_csv, save_spectrum_csv


class TestMakeGrid:
    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            make_grid(-1.0, 64)
        with pytest.raises(ValueError):
            make_grid(1.0, 8)

    def test_invariants(self):
        g = make_grid(5.0, 200)
        assert g.n == 200
        assert np.all(np.diff(g.nodes) > 0)
        assert g.nodes[0] > 0 and g.nodes[-1] <= 5.0
        assert np.all(g.weights > 0)
        # sum of weights reproduces the interval length
        assert np.sum(g.weights) == pytest.approx(5.0, rel=1e-12)

    def test_polynomial_exactness(self):
        g = make_grid(1.0, 64)
        assert float(np.sum(g.weights * g.nodes**2)) == pytest.approx(1.0 / 3.0, abs=1e-14)

    def test_gaussian_antiderivative(self):
        g = make_grid(20.0, 512)
        val = float(np.sum(g.weights * np.exp(-0.5 * g.nodes**2) * g.nodes))
        assert val == pytest.approx(1.0 - math.exp(-200.0), abs=1e-12)

    def test_exponential(self):
        g = make_grid(30.0, 1024)
        val = float(np.sum(g.weights * np.exp(-g.nodes)))
        assert val == pytest.approx(1.0, abs=1e-10)

    def test_equal_builds_are_equal_grids(self):
        cached = make_grid(5.0, 200)
        fresh = make_grid.__wrapped__(5.0, 200)
        assert fresh is not cached
        assert fresh == cached and hash(fresh) == hash(cached)
        assert make_grid(6.0, 200) != cached

    def test_grid_and_nu_weights_are_read_only(self):
        nodes = make_grid(5.0, 200).nodes.copy()
        g = RadialGrid(nodes=nodes, weights=make_grid(5.0, 200).weights, rmax=5.0)
        nodes[0] = 1.0  # the grid holds its own copy
        assert g.nodes[0] < 1.0
        for arr in (g.nodes, g.weights, nu_weights(g, 0.5)):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 0.0

    def test_nu_weights_shared_by_equal_grids(self):
        g = make_grid(5.0, 200)
        assert nu_weights(make_grid.__wrapped__(5.0, 200), 0.5) is nu_weights(g, 0.5)

    @given(
        rmax=st.floats(min_value=0.5, max_value=50.0, allow_nan=False),
        n=st.integers(min_value=16, max_value=600),
    )
    @settings(max_examples=40, deadline=None)
    def test_weight_sum_property(self, rmax, n):
        g = make_grid(rmax, n)
        assert np.sum(g.weights) == pytest.approx(rmax, rel=1e-12)


class TestIntegrateNu:
    """Integrals against d nu_lam as sums of the nu_weights quadrature."""

    def test_gaussian_normalization(self):
        g = make_grid(30.0, 2048)
        assert np.sum(nu_weights(g, 1.0) * np.exp(-0.5 * g.nodes**2)) == pytest.approx(
            1.0, abs=1e-10
        )

    def test_squared_gaussian_closed_form(self):
        # integral exp(-t^2) d nu_lam = 2^-(lam+1) by substitution u = t sqrt(2).
        g = make_grid(30.0, 2048)
        value = np.sum(nu_weights(g, 0.25) * np.exp(-(g.nodes**2)))
        assert value == pytest.approx(2.0**-1.25, abs=1e-10)

    def test_refinement_stability(self):
        vals = []
        for n in (1024, 2048):
            g = make_grid(30.0, n)
            vals.append(np.sum(nu_weights(g, 0.25) * np.exp(-0.5 * g.nodes**2)))
        assert abs(vals[0] - vals[1]) <= 1e-12


class TestMeasureConstants:
    def test_lambda_zero(self):
        assert b_lambda(0.0) == pytest.approx(1.0, abs=1e-15)

    def test_lambda_one(self):
        assert b_lambda(1.0) == pytest.approx(0.5, abs=1e-15)

    def test_quarter_against_adaptive_quadrature(self):
        # Oracle: 1/b = integral_0^inf exp(-t^2/2) t^(2*0.25+1) dt.
        oracle, err = adaptive_quad(lambda t: math.exp(-0.5 * t * t) * t**1.5, 0, np.inf)
        assert err < 1e-7
        b = b_lambda(0.25)
        assert b == pytest.approx(1.0 / oracle, rel=1e-10)
        assert b == pytest.approx(1.0 / (2.0**0.25 * math.gamma(1.25)), rel=1e-14)

    def test_rejects_lambda_at_minus_one(self):
        with pytest.raises(ValueError):
            b_lambda(-1.0)

    @pytest.mark.parametrize("lam", [0.0, 0.25, 1.0, 2.5])
    def test_gaussian_has_unit_nu_mass(self, lam):
        grid = make_grid(30.0, 1024)
        mass = np.sum(nu_weights(grid, lam) * np.exp(-0.5 * grid.nodes**2))
        assert mass == pytest.approx(1.0, abs=1e-11)


class TestLpNorm:
    def test_gaussian_l2_lambda0(self):
        g = make_grid(30.0, 2048)
        f = RadialFunction(grid=g, values=np.exp(-0.5 * g.nodes**2))
        assert lp_norm(f, 2, 0.0) == pytest.approx(2.0**-0.5, abs=1e-10)

    def test_gaussian_l1_lambda1(self):
        g = make_grid(30.0, 2048)
        f = RadialFunction(grid=g, values=np.exp(-0.5 * g.nodes**2))
        assert lp_norm(f, 1, 1.0) == pytest.approx(1.0, abs=1e-10)

    def test_sup_norm_of_constant(self):
        g = make_grid(10.0, 64)
        f = RadialFunction(grid=g, values=np.full(64, -3.25))
        assert lp_norm(f, math.inf, 0.5) == 3.25

    def test_rejects_p_below_one(self):
        g = make_grid(10.0, 64)
        f = RadialFunction(grid=g, values=np.ones(64))
        with pytest.raises(ValueError):
            lp_norm(f, 0.5, 0.0)

    def test_rejects_nan_p(self):
        # NaN fails every comparison, so the check must not read "p < 1"
        g = make_grid(10.0, 64)
        f = RadialFunction(grid=g, values=np.ones(64))
        with pytest.raises(ValueError, match="p must be"):
            lp_norm(f, math.nan, 0.25)
        with pytest.raises(ValueError, match="p must be"):
            modulus(f, 0.3, 1.0, math.nan, 0.25)

    def test_holder_sanity_on_compact_support(self):
        # ||f||_1 <= ||f||_2 * ||1_supp||_2 (Cauchy-Schwarz, exact for the
        # discrete weighted sums).
        g = make_grid(10.0, 256)
        mask = (g.nodes >= 1.0) & (g.nodes <= 2.0)
        vals = np.where(mask, np.sin(3 * g.nodes) + 1.2, 0.0)
        f = RadialFunction(grid=g, values=vals)
        ind = RadialFunction(grid=g, values=mask.astype(float))
        lam = 0.75
        assert lp_norm(f, 1, lam) <= lp_norm(f, 2, lam) * lp_norm(ind, 2, lam) * (1 + 1e-14)


class TestCsvRoundTrip:
    def test_round_trip(self, tmp_path):
        g = make_grid(12.0, 128)
        f = RadialFunction(grid=g, values=np.exp(-g.nodes))
        path = tmp_path / "f.csv"
        save_radial_csv(f, path, lam=0.25)
        loaded, lam = load_radial_csv(path)
        assert lam == 0.25
        assert np.array_equal(loaded.values, f.values)
        assert np.array_equal(loaded.grid.nodes, g.nodes)

    def test_header_recorded(self, tmp_path):
        g = make_grid(12.0, 128)
        f = RadialFunction(grid=g, values=np.zeros(128))
        path = tmp_path / "f.csv"
        save_radial_csv(f, path, lam=1.5)
        first = path.read_text().splitlines()[0]
        assert first.startswith("# lambda=1.5 rmax=12.0 n=128")

    def test_foreign_nodes_rejected(self, tmp_path):
        g = make_grid(12.0, 128)
        f = RadialFunction(grid=g, values=np.zeros(128))
        path = tmp_path / "f.csv"
        save_radial_csv(f, path, lam=0.5)
        lines = path.read_text().splitlines()
        # perturb one node so it no longer matches any constructible grid
        t, v = lines[40].split(",")
        lines[40] = f"{float(t) * 1.01!r},{v}"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="make_grid"):
            load_radial_csv(path)

    @pytest.mark.parametrize(
        "text, match",
        [
            ("", "empty file"),
            ("# lambda=0.5 rmax=12.0 n=128\nnode,value\n", "no data rows"),
            ("# lambda=0.5 rmax=12.0 n=128\nnode,value\n0.1,1.0,2.0\n", "columns"),
            ("# lambda=0.5 rmax=12.0 n=128\n0.1,1.0\n0.2\n", "columns"),
            ("# lambda=0.5 rmax=12.0\n0.1,1.0\n", "missing field 'n'"),
            ("# lambda=0.5 rmax=12.0 n=x\n0.1,1.0\n", "invalid literal"),
            ("# lambda=0.5 rmax=12.0 n=128\n0.1,1.0\n", "expected 128 rows, found 1"),
            ("# lambda=0.5 rmax=-1.0 n=1\n0.1,1.0\n", "rmax must be positive"),
            ("node,value\n0.1,1.0\n", "header"),
        ],
    )
    def test_malformed_file_names_itself(self, tmp_path, text, match):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match=match) as info:
            load_radial_csv(path)
        assert str(path) in str(info.value)


# any doubles, and the extremes a shortest repr must spell exactly
_DOUBLE = st.floats() | st.sampled_from(
    [-0.0, 0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308,
     math.nan, math.inf, -math.inf]
)


def per_row_csv(grid, values, lam, extra=""):
    """The CSV text of one f-string row per node: the bytes the writer must
    give, with or without the grid's node text cached."""
    lines = [f"# lambda={float(lam)!r} rmax={float(grid.rmax)!r} n={grid.n}{extra}", "node,value"]
    lines += [f"{t!r},{v!r}" for t, v in zip(grid.nodes.tolist(), values.tolist())]
    return "\n".join(lines) + "\n"


class TestCsvWriterProperty:
    @given(
        rmax=st.sampled_from([30.0, 12.0, 0.1 + 0.2, 1e-3, 1e5]),
        values=st.lists(_DOUBLE, min_size=16, max_size=16),
        lam=_DOUBLE,
        extra=st.sampled_from(["", " bandlimit=none", " bandlimit=2.5"]),
    )
    @settings(max_examples=150, deadline=None)
    def test_bytes_match_per_row_repr(self, csv_path, rmax, values, lam, extra):
        grid = make_grid(rmax, 16)
        values = np.array(values)
        for _ in range(2):  # the first write may build the node text
            _write_csv(csv_path, grid, values, lam, extra)
            assert csv_path.read_bytes() == per_row_csv(grid, values, lam, extra).encode()

    def test_node_text_is_a_bounded_read_only_memo(self):
        grid = make_grid(12.0, 128)
        text = _node_text(grid)
        assert isinstance(text, tuple) and text == tuple(repr(t) for t in grid.nodes.tolist())
        assert _node_text(make_grid.__wrapped__(12.0, 128)) is text
        assert _node_text.cache_info().maxsize == 16


def _rewrite_nodes(path, node_text):
    """Rewrite a CSV's node column row by row, keeping header and values."""
    lines = path.read_text().splitlines()
    rows = [ln.split(",") for ln in lines[2:]]
    path.write_text("\n".join(lines[:2] + [f"{node_text(float(t))},{v}" for t, v in rows]) + "\n")


class TestCsvNodeColumns:
    """Nodes spelled other than by ``repr`` load exactly as the canonical text
    does; nodes off the grid by more than 1e-12 rmax fail as always."""

    RMAX, LAM = 12.0, 0.5

    @pytest.fixture(scope="class")
    def profile(self):
        grid = make_grid(self.RMAX, 128)
        return RadialFunction(grid=grid, values=np.exp(-grid.nodes) * np.cos(3 * grid.nodes))

    def saved(self, tmp_path, profile, kind):
        radial, spectrum = tmp_path / f"{kind}-f.csv", tmp_path / f"{kind}-s.csv"
        save_radial_csv(profile, radial, lam=self.LAM)
        save_spectrum_csv(hankel(profile, self.LAM), spectrum)
        return radial, spectrum

    @pytest.mark.parametrize("node_text", [
        "%.17e".__mod__,
        lambda t: repr(t + 0.4e-12 * 12.0),
        lambda t: repr(t - 0.4e-12 * 12.0),
    ], ids=["%.17e", "up", "down"])
    def test_foreign_node_text_loads_bit_identical(self, tmp_path, profile, node_text):
        canonical = [load_radial_csv(p) if i == 0 else load_spectrum_csv(p)
                     for i, p in enumerate(self.saved(tmp_path, profile, "canonical"))]
        radial, spectrum = self.saved(tmp_path, profile, "foreign")
        for path in (radial, spectrum):
            _rewrite_nodes(path, node_text)
            assert path.read_text().splitlines()[2].split(",")[0] != repr(profile.grid.nodes[0])
        (f, lam), s = load_radial_csv(radial), load_spectrum_csv(spectrum)
        (f0, lam0), s0 = canonical
        assert lam == lam0 and f.grid == f0.grid == profile.grid
        assert f.values.tobytes() == f0.values.tobytes() == profile.values.tobytes()
        assert s.grid == s0.grid and s.lam == s0.lam and s.bandlimit == s0.bandlimit
        assert s.values.tobytes() == s0.values.tobytes()

    def test_nodes_beyond_the_tolerance_fail(self, tmp_path, profile):
        for path, load in zip(self.saved(tmp_path, profile, "moved"),
                              (load_radial_csv, load_spectrum_csv)):
            _rewrite_nodes(path, lambda t: repr(t + 2e-12 * self.RMAX))
            with pytest.raises(ValueError) as info:
                load(path)
            assert str(info.value) == f"{path}: nodes are not those of make_grid(12.0, 128)"


class TestNonFiniteSamples:
    """A NaN or infinite sample is refused on both load paths (the grid's
    own node text, and nodes parsed field by field), naming the file and the
    first such sample's node."""

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("node_text", [None, "%.17e".__mod__], ids=["known", "parsed"])
    def test_radial_and_spectrum_loaders_refuse(self, tmp_path, bad, node_text):
        grid = make_grid(12.0, 64)
        f = RadialFunction(grid=grid, values=np.exp(-grid.nodes))
        radial, spectrum = tmp_path / "f.csv", tmp_path / "s.csv"
        save_radial_csv(f, radial, lam=0.5)
        save_spectrum_csv(hankel(f, 0.5), spectrum)
        for path, load in ((radial, load_radial_csv), (spectrum, load_spectrum_csv)):
            if node_text is not None:
                _rewrite_nodes(path, node_text)
            lines = path.read_text().splitlines()
            for i in (12, 30):  # data rows 10 and 28
                lines[i] = f"{lines[i].partition(',')[0]},{bad}"
            path.write_text("\n".join(lines) + "\n")
            with pytest.raises(ValueError) as info:
                load(path)
            assert str(info.value) == (
                f"{path}: value {float(bad)!r} at node {grid.nodes.tolist()[10]!r} is not finite"
            )


class TestHeaderLambda:
    """A header lambda outside the Bessel range is refused on both load paths,
    naming the file and the header field; it used to load and fail only at
    first use, without naming the file."""

    @pytest.mark.parametrize("bad", ["nan", "inf", "-0.5", "500.0"])
    @pytest.mark.parametrize("node_text", [None, "%.17e".__mod__], ids=["known", "parsed"])
    def test_radial_and_spectrum_loaders_refuse(self, tmp_path, bad, node_text):
        grid = make_grid(12.0, 64)
        f = RadialFunction(grid=grid, values=np.exp(-grid.nodes))
        radial, spectrum = tmp_path / "f.csv", tmp_path / "s.csv"
        save_radial_csv(f, radial, lam=0.5)
        save_spectrum_csv(hankel(f, 0.5), spectrum)
        for path, load in ((radial, load_radial_csv), (spectrum, load_spectrum_csv)):
            if node_text is not None:
                _rewrite_nodes(path, node_text)
            lines = path.read_text().splitlines()
            lines[0] = lines[0].replace("lambda=0.5", f"lambda={bad}")
            path.write_text("\n".join(lines) + "\n")
            with pytest.raises(ValueError) as info:
                load(path)
            assert str(info.value) == (
                f"{path}: header lambda must lie in (-1/2, 120], where the Bessel evaluation"
                f" is accurate, got {float(bad)!r}"
            )


# CSV fields: float spellings (subnormals, signed zeros, infinities and nan
# included), and junk that float() may or may not accept
_FLOAT_FIELD = st.floats().map(repr) | st.sampled_from(
    ["-0", "+0.0", "5e-324", "-2.2250738585072e-310", "1e309", "-inf", "Infinity", "nan",
     " 2.5 ", "1_0"]
)
_FIELD = (
    _FLOAT_FIELD
    | st.sampled_from(["", " ", "x", "1.0.0", "--1", "1e", "0x1p3", "nan(1)"])
    | st.text(alphabet="0123456789.eE+-_xnaif ", max_size=6)
)
# equal widths, mixed widths, and junk fields
_CSV_ROWS = st.one_of(
    st.integers(2, 3).flatmap(
        lambda w: st.lists(st.lists(_FLOAT_FIELD, min_size=w, max_size=w), min_size=1, max_size=8)
    ),
    st.lists(st.lists(_FLOAT_FIELD, min_size=1, max_size=4), min_size=1, max_size=8),
    st.lists(st.lists(_FIELD, min_size=1, max_size=4), min_size=1, max_size=8),
)


@pytest.fixture(scope="module")
def csv_path(tmp_path_factory):
    return tmp_path_factory.mktemp("csv") / "rows.csv"


def read_rows_per_field(path, text):
    """The data rows of ``text`` converted one row and one float() at a time:
    the array, or the ValueError message, a reader of the file must give."""
    lines = text.strip().splitlines()
    rows = [ln for ln in lines[1:] if ln and not ln.startswith(("#", "node,"))]
    if not rows:
        return f"{path}: no data rows"
    try:
        table = [[float(x) for x in ln.split(",")] for ln in rows]
    except ValueError as exc:
        return f"{path}: {exc}"
    if any(len(row) != 2 for row in table):
        return f"{path}: every data row must have 2 columns"
    return np.array(table)


class TestCsvReaderProperty:
    @given(rows=_CSV_ROWS)
    @settings(max_examples=150, deadline=None)
    def test_rows_match_per_field_float(self, csv_path, rows):
        text = "# lambda=0.5\n" + "\n".join(",".join(row) for row in rows) + "\n"
        csv_path.write_text(text)
        expected = read_rows_per_field(csv_path, text)
        if isinstance(expected, str):
            with pytest.raises(ValueError) as info:
                _table(csv_path, _csv_rows(csv_path, ("lambda",))[1])
            assert str(info.value) == expected
        else:
            data = _table(csv_path, _csv_rows(csv_path, ("lambda",))[1])
            assert data.shape == expected.shape and data.tobytes() == expected.tobytes()


def load_per_field(path, text):
    """What loading ``text`` must give: (values, lambda), or the ValueError
    message, with every field parsed by float(), the header lambda checked
    against the Bessel range, the nodes checked against the header's grid to
    1e-12 rmax, and then every value checked finite."""
    expected = read_rows_per_field(path, text)
    if isinstance(expected, str):
        return expected
    header = text.strip().splitlines()[0]
    fields = dict(tok.split("=", 1) for tok in header[1:].split() if "=" in tok)
    try:
        lam, n = float(fields["lambda"]), int(fields["n"])
        if not -0.5 < lam <= 120.0:
            raise ValueError(f"header lambda must lie in (-1/2, 120], where the Bessel"
                             f" evaluation is accurate, got {lam!r}")
        if expected.shape[0] != n:
            raise ValueError(f"expected {n} rows, found {expected.shape[0]}")
        grid = make_grid(float(fields["rmax"]), n)
    except ValueError as exc:
        return f"{path}: {exc}"
    if not np.allclose(grid.nodes, expected[:, 0], rtol=0, atol=1e-12 * grid.rmax):
        return f"{path}: nodes are not those of make_grid({grid.rmax!r}, {n})"
    for node, value in expected.tolist():
        if not math.isfinite(value):
            return f"{path}: value {value!r} at node {node!r} is not finite"
    return expected[:, 1], lam


def _edit(lines, kind, i, x):
    """Apply one edit, with drawn text x, at data line i of a CSV's lines."""
    node, _, value = lines[i].partition(",")
    j = 2 + (i - 1) % (len(lines) - 2)  # the next data line, cyclically
    if kind == "value":
        lines[i] = f"{node},{x}"
    elif kind == "node":
        lines[i] = f"{x},{value}"
    elif kind == "node %.17e":
        try:
            lines[i] = f"{float(node):.17e},{value}"
        except ValueError:  # an earlier edit left no number there
            pass
    elif kind == "extra column":
        lines[i] += f",{x}"
    elif kind == "move a comma":
        lines[i], lines[j] = node, f"{lines[j]},{x}"
    elif kind == "shift":
        # row i loses its value, row j gains its own node in front: the
        # node fields at even places of the comma split are still the grid's
        lines[i], lines[j] = node, f"{lines[j].partition(',')[0]},{lines[j]}"
    elif kind == "drop a row":
        del lines[i]
    elif kind == "insert a line":
        lines.insert(i, x)
    elif kind == "header n":
        lines[0] = lines[0].replace("n=16", f"n={x}")
    elif kind == "header lambda":
        lines[0] = lines[0].replace("lambda=0.5", f"lambda={x}")


_EDITS = ["value", "node", "node %.17e", "extra column", "move a comma", "shift",
          "drop a row", "insert a line", "header n", "header lambda"]


class TestCsvLoaderProperty:
    """A file that starts as canonical text and is then edited loads, or
    fails, exactly as a field-by-field parse with the tolerance check."""

    @given(
        values=st.lists(_DOUBLE, min_size=16, max_size=16),
        edits=st.lists(
            st.tuples(st.sampled_from(_EDITS), st.integers(2, 17),
                      _FIELD | st.sampled_from(["", "# note", "node,value", "16", "15", "1e3"])),
            max_size=3,
        ),
    )
    @settings(max_examples=200, deadline=None)
    def test_edited_canonical_files_load_as_per_field(self, csv_path, values, edits):
        grid = make_grid(12.0, 16)
        save_radial_csv(RadialFunction(grid=grid, values=np.array(values)), csv_path, lam=0.5)
        lines = csv_path.read_text().splitlines()
        for kind, i, x in edits:
            if i < len(lines) > 3:
                _edit(lines, kind, i, x)
        text = "\n".join(lines) + "\n"
        csv_path.write_text(text)
        expected = load_per_field(csv_path, text)
        if isinstance(expected, str):
            with pytest.raises(ValueError) as info:
                load_radial_csv(csv_path)
            assert str(info.value) == expected
        else:
            f, lam = load_radial_csv(csv_path)
            assert lam == expected[1] and f.grid == grid
            assert f.values.tobytes() == expected[0].tobytes()

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dunklsmooth.quad import (
    GRID_KINDS,
    RadialFunction,
    RadialGrid,
    _read_csv,
    load_radial_csv,
    lp_norm,
    make_grid,
    nu_weights,
    save_radial_csv,
)
from dunklsmooth.smoothness import modulus


class TestMakeGrid:
    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            make_grid(-1.0, 64)
        with pytest.raises(ValueError):
            make_grid(1.0, 8)
        with pytest.raises(ValueError):
            make_grid(1.0, 64, kind="simpson")

    @pytest.mark.parametrize("kind", GRID_KINDS)
    def test_invariants(self, kind):
        g = make_grid(5.0, 200, kind)
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
        assert make_grid(5.0, 200, kind="clenshaw-curtis") != cached

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

    def test_fejer_exactness(self):
        g = make_grid(1.0, 64, kind="clenshaw-curtis")
        assert float(np.sum(g.weights * g.nodes**2)) == pytest.approx(1.0 / 3.0, abs=1e-12)

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
            ("node,value\n0.1,1.0\n", "header"),
        ],
    )
    def test_malformed_file_names_itself(self, tmp_path, text, match):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match=match) as info:
            load_radial_csv(path)
        assert str(path) in str(info.value)


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


def read_rows_per_field(path, text, columns):
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
    width = len(table[0])
    if width not in columns or any(len(row) != width for row in table):
        return f"{path}: every data row must have the same {' or '.join(map(str, columns))} columns"
    return np.array(table)


class TestCsvReaderProperty:
    @given(rows=_CSV_ROWS)
    @settings(max_examples=150, deadline=None)
    def test_rows_match_per_field_float(self, csv_path, rows):
        text = "# lambda=0.5\n" + "\n".join(",".join(row) for row in rows) + "\n"
        csv_path.write_text(text)
        expected = read_rows_per_field(csv_path, text, (2, 3))
        if isinstance(expected, str):
            with pytest.raises(ValueError) as info:
                _read_csv(csv_path, ("lambda",), (2, 3))
            assert str(info.value) == expected
        else:
            _, data = _read_csv(csv_path, ("lambda",), (2, 3))
            assert data.shape == expected.shape and data.tobytes() == expected.tobytes()

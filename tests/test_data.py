"""Tests for planted generators, CSV ingestion, and splitting."""

import csv
import io
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from subspace_net.data import (
    Dataset,
    _write_table,
    gen_deep,
    gen_heteroscedastic,
    gen_single_layer,
    load_csv,
    parse_numeric_csv,
    save_csv,
    split,
)
from subspace_net.errors import InvalidArgumentError, ParseError


class TestGenSingleLayer:
    def test_shapes_and_nonnegativity(self):
        data, truth = gen_single_layer(50, 8, 4, 2, 1.0, seed=0)
        assert data.X.shape == (50, 8)
        assert data.Y.shape == (50, 4)
        assert np.all(data.Y >= 0)
        assert truth.us[0].shape == (4, 2)
        assert truth.vs[0].shape == (2, 8)

    def test_noiseless_matches_relu_of_planted_map(self):
        data, truth = gen_single_layer(20, 6, 3, 2, 0.0, seed=1)
        expected = np.maximum(data.X @ truth.vs[0].T @ truth.us[0].T, 0.0)
        np.testing.assert_array_equal(data.Y, expected)

    def test_deterministic_per_seed(self):
        a, _ = gen_single_layer(30, 5, 4, 2, 2.0, seed=42)
        b, _ = gen_single_layer(30, 5, 4, 2, 2.0, seed=42)
        np.testing.assert_array_equal(a.X, b.X)
        np.testing.assert_array_equal(a.Y, b.Y)
        c, _ = gen_single_layer(30, 5, 4, 2, 2.0, seed=43)
        assert not np.array_equal(a.Y, c.Y)

    def test_censoring_fraction_at_reference_scale(self):
        # symmetric noise on a symmetric predictor censors about half the entries
        data, _ = gen_single_layer(5000, 200, 100, 10, 3.0, seed=7)
        frac = float((data.Y == 0).mean())
        assert 0.35 <= frac <= 0.65

    def test_invalid_rank(self):
        with pytest.raises(InvalidArgumentError):
            gen_single_layer(10, 5, 3, 4, 1.0, seed=0)


class TestGenDeep:
    def test_depth_one_equals_single_layer(self):
        a, ta = gen_single_layer(25, 6, 4, 2, 1.5, seed=9)
        b, tb = gen_deep(25, 6, 4, 2, 1.5, depth=1, seed=9)
        np.testing.assert_array_equal(a.X, b.X)
        np.testing.assert_array_equal(a.Y, b.Y)
        np.testing.assert_array_equal(ta.us[0], tb.us[0])

    def test_three_layer_shapes(self):
        data, truth = gen_deep(40, 10, 6, 3, 1.0, depth=3, seed=2)
        assert truth.depth == 3
        assert len(truth.us) == 3
        assert truth.vs[0].shape == (3, 10)
        assert truth.vs[1].shape == (3, 6)
        assert truth.vs[2].shape == (3, 6)
        assert np.all(data.Y >= 0)
        assert np.isfinite(data.Y).all()

    def test_composes_layer_by_layer(self):
        data, truth = gen_deep(15, 8, 5, 2, 0.0, depth=2, seed=3)
        h1 = np.maximum(data.X @ truth.vs[0].T @ truth.us[0].T, 0.0)
        h2 = np.maximum(h1 @ truth.vs[1].T @ truth.us[1].T, 0.0)
        np.testing.assert_allclose(data.Y, h2, rtol=1e-12)

    def test_bad_depth(self):
        with pytest.raises(InvalidArgumentError):
            gen_deep(10, 5, 3, 2, 1.0, depth=0, seed=0)


class TestGenHeteroscedastic:
    def test_singleton_matches_single_layer_bitwise(self):
        a, _ = gen_single_layer(30, 6, 5, 2, 2.5, seed=11)
        b, tb = gen_heteroscedastic(30, 6, 5, 2, [2.5], seed=11)
        np.testing.assert_array_equal(a.Y, b.Y)
        np.testing.assert_array_equal(tb.sigma, np.full(5, 2.5))

    def test_noisier_tasks_have_larger_residuals(self):
        data, truth = gen_heteroscedastic(4000, 20, 12, 3, [0.5, 3.0], seed=13)
        assert set(np.unique(truth.sigma)) == {0.5, 3.0}
        noiseless = data.X @ truth.vs[0].T @ truth.us[0].T
        # compare pre-ReLU residuals on uncensored entries per task
        resid = np.where(data.Y > 0, data.Y - noiseless, np.nan)
        scale = np.sqrt(np.nanmean(resid ** 2, axis=0))
        low = scale[truth.sigma == 0.5]
        high = scale[truth.sigma == 3.0]
        assert low.max() < high.min()

    def test_truth_records_sigma(self):
        _, truth = gen_heteroscedastic(10, 5, 4, 2, [1.0, 2.0], seed=1)
        assert truth.sigma.shape == (4,)

    def test_empty_sigma_set(self):
        with pytest.raises(Exception):
            gen_heteroscedastic(10, 5, 4, 2, [], seed=1)


class TestSplit:
    def test_floor_arithmetic(self):
        data, _ = gen_single_layer(670, 5, 3, 2, 1.0, seed=5)
        train, valid = split(data, 0.8, seed=0)
        assert train.n == 536
        assert valid.n == 134

    def test_union_is_original_multiset(self):
        data, _ = gen_single_layer(37, 4, 3, 2, 1.0, seed=6)
        train, valid = split(data, 0.6, seed=3)
        combined = np.vstack([train.X, valid.X])
        assert combined.shape == data.X.shape
        order = np.lexsort(combined.T)
        order0 = np.lexsort(data.X.T)
        np.testing.assert_array_equal(combined[order], data.X[order0])

    def test_seeded_determinism(self):
        data, _ = gen_single_layer(50, 4, 3, 2, 1.0, seed=8)
        t1, _ = split(data, 0.5, seed=9)
        t2, _ = split(data, 0.5, seed=9)
        np.testing.assert_array_equal(t1.X, t2.X)
        t3, _ = split(data, 0.5, seed=10)
        assert not np.array_equal(t1.X, t3.X)

    def test_degenerate_fraction(self):
        data, _ = gen_single_layer(10, 4, 3, 2, 1.0, seed=0)
        for frac in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(InvalidArgumentError):
                split(data, frac, seed=0)


class TestCsvRoundTrip:
    def test_small_wellformed_pair(self, tmp_path):
        fx = tmp_path / "features.csv"
        fy = tmp_path / "targets.csv"
        fx.write_text("a,b,c\n1,2,3\n4,5,6\n")
        fy.write_text("s1,s2\n0.5,0\n1.25,2\n")
        data = load_csv(fx, fy)
        assert (data.n, data.d, data.t) == (2, 3, 2)
        assert data.feature_names == ["a", "b", "c"]
        assert data.target_names == ["s1", "s2"]

    def test_nan_cell_rejected_with_location(self, tmp_path):
        fx = tmp_path / "features.csv"
        fy = tmp_path / "targets.csv"
        fx.write_text("a,b\n1,2\n3,NaN\n")
        fy.write_text("s\n0\n1\n")
        with pytest.raises(ParseError, match=r"features\.csv:3:2"):
            load_csv(fx, fy)

    def test_missing_cell_rejected_with_row(self, tmp_path):
        fx = tmp_path / "features.csv"
        fy = tmp_path / "targets.csv"
        fx.write_text("a,b\n1,2\n")
        fy.write_text("s\n0\n")
        fx.write_text("a,b\n1,\n5,6\n")
        with pytest.raises(ParseError, match=r"features\.csv:2:2: missing"):
            load_csv(fx, fy)

    def test_negative_target_rejected(self, tmp_path):
        fx = tmp_path / "features.csv"
        fy = tmp_path / "targets.csv"
        fx.write_text("a\n1\n2\n")
        fy.write_text("s\n0.5\n-0.1\n")
        with pytest.raises(ParseError, match=r"targets\.csv:3:1: negative"):
            load_csv(fx, fy)

    def test_row_count_mismatch(self, tmp_path):
        fx = tmp_path / "features.csv"
        fy = tmp_path / "targets.csv"
        fx.write_text("a\n1\n2\n3\n")
        fy.write_text("s\n0\n1\n")
        with pytest.raises(ParseError, match="row-count mismatch"):
            load_csv(fx, fy)

    def test_all_bad_rows_reported(self, tmp_path):
        fx = tmp_path / "features.csv"
        fy = tmp_path / "targets.csv"
        fx.write_text("a,b\n1,\n2,3\nx,4\n5,inf\n")
        fy.write_text("s\n0\n1\n2\n3\n")
        with pytest.raises(ParseError) as excinfo:
            load_csv(fx, fy)
        message = str(excinfo.value)
        assert "features.csv:2:2" in message
        assert "features.csv:4:1" in message
        assert "features.csv:5:2" in message

    @pytest.mark.parametrize("token", ["1_000", "\u0661\u0662"])
    def test_non_plain_number_rejected(self, tmp_path, token):
        # float() reads digit grouping and Arabic-Indic digits; the files
        # hold plain ASCII decimals only
        fx = tmp_path / "features.csv"
        fy = tmp_path / "targets.csv"
        fx.write_text(f"a,b\n2,{token}\n", encoding="utf-8")
        fy.write_text("s\n0\n")
        with pytest.raises(ParseError, match=r"features\.csv:2:2: non-numeric cell"):
            load_csv(fx, fy)

    def test_non_utf8_byte_is_a_parse_error(self, tmp_path):
        fx = tmp_path / "features.csv"
        fy = tmp_path / "targets.csv"
        fx.write_bytes(b"x0,x1\n1,\xff\n")
        fy.write_text("s\n0\n")
        with pytest.raises(ParseError, match=r"features\.csv: not UTF-8 text") as excinfo:
            load_csv(fx, fy)
        assert isinstance(excinfo.value.__cause__, UnicodeDecodeError)

    def test_empty_header_row_rejected(self, tmp_path):
        fx = tmp_path / "features.csv"
        fy = tmp_path / "targets.csv"
        fx.write_text("\n\n")
        fy.write_text("s\n0\n")
        with pytest.raises(ParseError, match=r"features\.csv:1: header row has no columns"):
            load_csv(fx, fy)

    def test_negative_feature_allowed(self, tmp_path):
        fx = tmp_path / "features.csv"
        fy = tmp_path / "targets.csv"
        fx.write_text("a\n-3.5\n2\n")
        fy.write_text("s\n0\n1\n")
        data = load_csv(fx, fy)
        assert data.X[0, 0] == -3.5

    def test_generated_dataset_round_trips_exactly(self, tmp_path):
        data, _ = gen_single_layer(25, 6, 4, 2, 1.7, seed=21)
        fx = tmp_path / "x.csv"
        fy = tmp_path / "y.csv"
        save_csv(data, fx, fy)
        back = load_csv(fx, fy)
        np.testing.assert_array_equal(back.X, data.X)
        np.testing.assert_array_equal(back.Y, data.Y)


def cell_by_cell_parse(path, *, nonnegative=False):
    """The reader as it was before the row check: every cell of every
    record converted and checked on its own. The oracle for
    `parse_numeric_csv`."""
    problems = []
    rows = []
    with open(path, newline="", encoding="utf-8") as fh:
        records = csv.reader(fh)
        header = next(records)
        width = len(header)
        for line_no, raw in enumerate(records, start=2):
            if len(raw) != width:
                problems.append(f"{path}:{line_no}: expected {width} cells, got {len(raw)}")
                continue
            row = np.empty(width)
            for col, tok in enumerate(raw, start=1):
                tok = tok.strip()
                if tok == "":
                    problems.append(f"{path}:{line_no}:{col}: missing cell")
                    break
                try:
                    if "_" in tok or not tok.isascii():
                        raise ValueError(tok)
                    val = float(tok)
                except ValueError:
                    problems.append(f"{path}:{line_no}:{col}: non-numeric cell {tok!r}")
                    break
                if not math.isfinite(val):
                    problems.append(f"{path}:{line_no}:{col}: non-finite cell {tok!r}")
                    break
                if nonnegative and val < 0:
                    problems.append(f"{path}:{line_no}:{col}: negative target {tok!r}")
                    break
                row[col - 1] = val
            else:
                rows.append(row)
    if problems:
        raise ParseError("rejected rows:\n" + "\n".join(problems))
    if not rows:
        raise ParseError(f"{path}: no data rows")
    return header, np.vstack(rows)


# odd cells reach every rule of the reader: "1e308" pairs overflow a row sum
# of finite values, and "\x1c"-"\x1f" are stripped by str.strip but not by
# float()
ODD_CORES = ["-0", "1e308", "-1e308", "5e-324", "1_0", "1_000.5",
             "\u0661\u0662", "\uff11", "nan", "-inf", "Infinity", "1e309", "",
             "x", "0x10", "1e", "."]
PADDING = ["", " ", "\t", "\x1c", "\x1d", "\x1e", "\x1f", "\xa0", "\u2003"]
plain_cells = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.floats(min_value=0.0, allow_infinity=False).map(repr),
    st.integers(-10**20, 10**20).map(str))
odd_cells = st.one_of(
    st.sampled_from(ODD_CORES),
    st.tuples(st.sampled_from(PADDING), st.sampled_from(ODD_CORES),
              st.sampled_from(PADDING)).map("".join))


@st.composite
def numeric_tables(draw):
    """A header of 1-4 columns and up to 6 records of plain decimals, some
    of the wrong width, with up to two odd cells dropped into each."""
    width = draw(st.integers(1, 4))
    records = []
    for _ in range(draw(st.integers(0, 6))):
        size = draw(st.sampled_from([width, width, width, width - 1, width + 1]))
        record = draw(st.lists(plain_cells, min_size=size, max_size=size))
        for _ in range(draw(st.integers(0, 2)) if record else 0):
            record[draw(st.integers(0, size - 1))] = draw(odd_cells)
        records.append(record)
    return width, records


class TestRowCheckMatchesCellRules:
    @settings(max_examples=400,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(table=numeric_tables(), nonnegative=st.booleans())
    def test_same_matrix_or_same_message(self, tmp_path, table, nonnegative):
        width, records = table
        path = tmp_path / "table.csv"
        lines = [",".join(f"c{j}" for j in range(width))]
        lines += [",".join(record) for record in records]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        try:
            expected = cell_by_cell_parse(path, nonnegative=nonnegative)
        except ParseError as exc:
            with pytest.raises(ParseError) as excinfo:
                parse_numeric_csv(path, nonnegative=nonnegative)
            assert str(excinfo.value) == str(exc)
            return
        header, matrix = parse_numeric_csv(path, nonnegative=nonnegative)
        assert header == expected[0]
        assert matrix.dtype == np.float64
        assert matrix.shape == expected[1].shape
        assert matrix.tobytes() == expected[1].tobytes()

    def test_control_separator_padding_loads(self, tmp_path):
        # float() rejects "1\x1f"; the cell rules strip it first
        path = tmp_path / "table.csv"
        path.write_text("a,b\n1\x1f,\x1c2\n", encoding="utf-8")
        _, matrix = parse_numeric_csv(path)
        assert matrix.tolist() == [[1.0, 2.0]]

    def test_overflowing_row_sum_loads(self, tmp_path):
        path = tmp_path / "table.csv"
        path.write_text("a,b\n1e308,1e308\n")
        _, matrix = parse_numeric_csv(path, nonnegative=True)
        assert matrix.tolist() == [[1e308, 1e308]]


# the values whose 17-digit form is easiest to get wrong
EDGE_VALUES = [0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1e16, 1e300, 0.1,
               1.0, 3.0, 12345678901234567.0, -7.0, 1.0 / 3.0]


class TestWriteTable:
    @staticmethod
    def reference_bytes(header, matrix):
        buf = io.StringIO(newline="")
        writer = csv.writer(buf)
        writer.writerow(header)
        for row in matrix:
            writer.writerow([f"{v:.17g}" for v in row])
        return buf.getvalue().encode("utf-8")

    @pytest.mark.parametrize("shape", [(12, 1), (4, 3), (1, 12), (3, 4)])
    def test_bytes_match_csv_writer(self, tmp_path, shape):
        matrix = np.array(EDGE_VALUES).reshape(shape)
        header = [f"h{j}" for j in range(shape[1])]
        _write_table(tmp_path / "t.csv", header, matrix)
        assert (tmp_path / "t.csv").read_bytes() == self.reference_bytes(header, matrix)

    def test_header_is_quoted_by_csv_writer(self, tmp_path):
        header = ["a,b", 'say "hi"']
        matrix = np.array([[1.0, 2.0]])
        _write_table(tmp_path / "t.csv", header, matrix)
        assert (tmp_path / "t.csv").read_bytes() == self.reference_bytes(header, matrix)

    def test_edge_values_round_trip_bitwise(self, tmp_path):
        x = np.array(EDGE_VALUES).reshape(3, 4)
        y = np.abs(x)
        y[0, 1] = -0.0  # a nonnegative target with its sign bit set
        data = Dataset(X=x, Y=y)
        fx = tmp_path / "x.csv"
        fy = tmp_path / "y.csv"
        save_csv(data, fx, fy)
        back = load_csv(fx, fy)
        assert back.X.tobytes() == x.tobytes()
        assert back.Y.tobytes() == y.tobytes()


class TestDatasetInvariants:
    def test_rejects_negative_targets(self):
        with pytest.raises(InvalidArgumentError):
            Dataset(X=np.ones((2, 2)), Y=np.array([[1.0], [-0.5]]))

    def test_rejects_nan(self):
        with pytest.raises(InvalidArgumentError):
            Dataset(X=np.array([[np.nan, 1.0]]), Y=np.ones((1, 1)))

    def test_rejects_row_mismatch(self):
        with pytest.raises(Exception):
            Dataset(X=np.ones((3, 2)), Y=np.ones((2, 1)))

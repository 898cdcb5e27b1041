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
        assert len(truth.us) == 3
        assert len(truth.vs) == 3
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


# `nan < 0` and `inf <= 0` are false, so only a finiteness check stops a
# non-finite noise scale before it fills the targets
@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: gen_deep(10, 4, 3, 2, math.nan, 1, seed=0),
                 "sigma must be nonnegative and finite, got nan", id="gen_deep_nan"),
    pytest.param(lambda: gen_single_layer(10, 4, 3, 2, math.inf, seed=0),
                 "sigma must be nonnegative and finite, got inf", id="gen_single_layer_inf"),
    pytest.param(lambda: gen_heteroscedastic(10, 4, 3, 2, [0.5, math.inf], seed=0),
                 r"sigma_set entries must be positive and finite, got \[0.5, inf\]",
                 id="gen_heteroscedastic_inf")])
def test_non_finite_planted_noise_is_invalid(call, message):
    with pytest.raises(InvalidArgumentError, match=message):
        call()


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


# numpy's seeding raises a bare ValueError on a negative seed, and a
# TypeError on a fractional one
@pytest.mark.parametrize("seed", [-1, 1.5])
@pytest.mark.parametrize("call", [
    pytest.param(lambda s: gen_single_layer(10, 4, 3, 2, 1.0, seed=s), id="gen_single_layer"),
    pytest.param(lambda s: gen_deep(10, 4, 3, 2, 1.0, 2, seed=s), id="gen_deep"),
    pytest.param(lambda s: gen_heteroscedastic(10, 4, 3, 2, [0.5, 3.0], seed=s),
                 id="gen_heteroscedastic"),
    pytest.param(lambda s: split(gen_single_layer(10, 4, 3, 2, 1.0, seed=0)[0], 0.5, seed=s),
                 id="split")])
def test_seed_that_is_not_a_nonnegative_integer_is_invalid(call, seed):
    with pytest.raises(InvalidArgumentError,
                       match=f"seed must be a nonnegative integer, got {seed}"):
        call(seed)


class TestCsvRoundTrip:
    def test_small_wellformed_pair(self, tmp_path):
        fx = tmp_path / "features.csv"
        fy = tmp_path / "targets.csv"
        fx.write_text("a,b,c\n1,2,3\n4,5,6\n")
        fy.write_text("s1,s2\n0.5,0\n1.25,2\n")
        data = load_csv(fx, fy)
        np.testing.assert_array_equal(data.X, [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        np.testing.assert_array_equal(data.Y, [[0.5, 0.0], [1.25, 2.0]])

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

    def test_rows_are_named_by_their_physical_line(self, tmp_path):
        # the quoted cell spans lines 2 and 3, so the bad record is on line 4
        path = tmp_path / "features.csv"
        path.write_text('a,b\n"1\n",2\nx,3\n')
        with pytest.raises(ParseError) as excinfo:
            parse_numeric_csv(path)
        assert str(excinfo.value) == f"rejected rows:\n{path}:4:1: non-numeric cell 'x'"

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

    def test_oversized_field_is_a_parse_error(self, tmp_path):
        fx = tmp_path / "features.csv"
        fy = tmp_path / "targets.csv"
        fx.write_text("x0\n" + "1" * (csv.field_size_limit() + 1) + "\n")
        fy.write_text("s\n0\n")
        with pytest.raises(ParseError) as excinfo:
            load_csv(fx, fy)
        assert str(excinfo.value) == f"{fx}:2: field larger than field limit (131072)"
        assert isinstance(excinfo.value.__cause__, csv.Error)

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
    """The reader with no plain-file tier: every cell of every record
    converted and checked on its own, each record named by the physical
    line it starts on. The oracle for `parse_numeric_csv`."""
    problems = []
    rows = []
    with open(path, newline="", encoding="utf-8") as fh:
        records = csv.reader(fh)
        try:
            header = next(records)
            width = len(header)
            start = records.line_num + 1
            for raw in records:
                line_no, start = start, records.line_num + 1
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
        except csv.Error as exc:
            raise ParseError(f"{path}:{records.line_num}: {exc}") from exc
    if problems:
        raise ParseError("rejected rows:\n" + "\n".join(problems))
    if not rows:
        raise ParseError(f"{path}: no data rows")
    return header, np.vstack(rows)


# odd cells reach every rule of the reader: "1e308" pairs are finite values
# whose sum overflows, and "\x1c"-"\x1f" are stripped by str.strip but not
# by float()
ODD_CORES = ["-0", "1e308", "-1e308", "5e-324", "1_0", "1_000.5",
             "\u0661\u0662", "\uff11", "nan", "-inf", "Infinity", "1e309", "",
             "x", "0x10", "1e", "."]
PADDING = ["", " ", "\t", "\x1c", "\x1d", "\x1e", "\x1f", "\xa0", "\u2003"]
# a plain, finite field one byte longer than csv's field limit
LONG_FIELD = "0" * (csv.field_size_limit() + 1)
plain_cells = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.floats(min_value=0.0, allow_infinity=False).map(repr),
    st.integers(-10**20, 10**20).map(str))
odd_cells = st.one_of(
    st.sampled_from(ODD_CORES),
    st.tuples(st.sampled_from(PADDING), st.sampled_from(ODD_CORES),
              st.sampled_from(PADDING)).map("".join))


def rarely(draw):
    """True for about one draw in eight."""
    return draw(st.integers(0, 7)) == 0


@st.composite
def numeric_tables(draw):
    """The text of a CSV file: a header of 1-4 columns and up to 6 records
    of plain decimals. In half the files some records have the wrong width
    and up to two odd cells are dropped into each record. Lines end in LF or in CRLF. Now
    and then a file also holds a form that only the cell rules read: a
    quoted or non-ASCII header name, a quoted cell (which may span two
    lines), a field longer than the field limit, a blank line, a lone CR
    ending a line."""
    width = draw(st.integers(1, 4))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    odd = draw(st.booleans())
    header = [f"c{j}" for j in range(width)]
    if rarely(draw):
        header[draw(st.integers(0, width - 1))] = draw(st.sampled_from(['"c,0"', "\u00e90"]))
    records = []
    for _ in range(draw(st.integers(0, 6))):
        size = draw(st.sampled_from([width, width, width, width - 1, width + 1])
                    if odd else st.just(width))
        record = draw(st.lists(plain_cells, min_size=size, max_size=size))
        for _ in range(draw(st.integers(0, 2)) if record and odd else 0):
            record[draw(st.integers(0, size - 1))] = draw(odd_cells)
        records.append(record)
    if any(records) and rarely(draw):
        record = draw(st.sampled_from([r for r in records if r]))
        at = draw(st.integers(0, len(record) - 1))
        record[at] = draw(st.sampled_from([f'"{record[at]}"', f'"{record[at]}{newline}"',
                                           LONG_FIELD]))
    lines = [",".join(header)] + [",".join(record) for record in records]
    if rarely(draw):
        lines.insert(draw(st.integers(1, len(lines))), "")
    ends = [newline] * len(lines)
    if rarely(draw):
        ends[draw(st.integers(0, len(lines) - 1))] = "\r"
    if rarely(draw):
        ends[-1] = ""
    return "".join(line + end for line, end in zip(lines, ends))


def assert_reads_as_cell_rules(path, text, nonnegative):
    """``parse_numeric_csv`` of ``text`` gives the oracle's header and matrix
    bytes, or its ParseError text."""
    path.write_bytes(text.encode("utf-8"))
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


class TestReaderMatchesCellRules:
    @settings(max_examples=400,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(text=numeric_tables(), nonnegative=st.booleans())
    def test_same_matrix_or_same_message(self, tmp_path, text, nonnegative):
        assert_reads_as_cell_rules(tmp_path / "table.csv", text, nonnegative)

    # files of plain-looking bytes that np.loadtxt reads otherwise than
    # csv.reader, each caught by one condition of the plain tier
    @pytest.mark.parametrize("text", [
        pytest.param('"a"\n1\n', id="quoted-header"),
        pytest.param("a\r\r\n1\n", id="cr-in-header"),
        pytest.param("a,b\n1\n2\n", id="narrow-rows"),
        pytest.param("a\n1\r\r\n", id="lone-cr"),
        pytest.param("a\n1\n\n2\n", id="blank-line"),
        pytest.param("a\n" + LONG_FIELD + "\n", id="long-field"),
        pytest.param("a\n1e309\n", id="overflow"),
        pytest.param("a\n-1\n", id="negative")])
    @pytest.mark.parametrize("nonnegative", [False, True])
    def test_near_plain_file(self, tmp_path, text, nonnegative):
        assert_reads_as_cell_rules(tmp_path / "table.csv", text, nonnegative)

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

    @pytest.mark.parametrize("bad", [-5.0, math.nan, math.inf])
    def test_rejects_bad_target(self, bad):
        # training reads its targets from a Dataset, so this is where they are checked
        with pytest.raises(InvalidArgumentError):
            Dataset(X=np.ones((2, 4)), Y=np.array([[1.0, 0.0], [1.0, bad]]))

    def test_rejects_nan(self):
        with pytest.raises(InvalidArgumentError):
            Dataset(X=np.array([[np.nan, 1.0]]), Y=np.ones((1, 1)))

    def test_rejects_row_mismatch(self):
        with pytest.raises(Exception):
            Dataset(X=np.ones((3, 2)), Y=np.ones((2, 1)))

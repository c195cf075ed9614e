"""CSV ingestion contract: accepted tokens, parsed values, and the first
fault in file order with its exact message."""

import csv

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kryging.data import Dataset, InputError, read_dataset, read_locations, write_dataset


def write_rows(path, rows):
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    return path


def reference_rows(rows, names, width):
    """Row-by-row reading with Python ``float()``: the tokens of the named
    leading columns of each non-blank row after the header, or the message
    of the first fault in file order."""
    values = []
    for line_no, row in enumerate(rows[1:], start=2):
        if not row or all(not c.strip() for c in row):
            continue
        if len(row) < width:
            return f"line {line_no}: expected {width} fields, got {len(row)}"
        parsed = []
        for name, token in zip(names, row):
            try:
                v = float(token)
            except ValueError:
                return f"line {line_no}: cannot parse {name}={token!r} as a number"
            if not np.isfinite(v):
                return f"line {line_no}: non-finite {name}={token!r}"
            parsed.append(v)
        values.append(parsed)
    return np.array(values, dtype=float).reshape(len(values), len(names))


def read_error(path, **kwargs):
    with pytest.raises(InputError) as info:
        read_dataset(path, **kwargs)
    return str(info.value)


class TestFaults:
    def test_parse_error_names_line_column_and_token(self, tmp_path):
        path = write_rows(tmp_path / "d.csv", [
            ["lon", "lat", "y"], ["0.1", "0.2", "1.0"], ["0.3", "oops", "2.0"],
        ])
        assert read_error(path) == "line 3: cannot parse lat='oops' as a number"

    def test_covariate_parse_error_names_the_covariate(self, tmp_path):
        path = write_rows(tmp_path / "d.csv", [
            ["lon", "lat", "y", "elev"], ["0.1", "0.2", "1.0", "0x10"],
        ])
        assert read_error(path) == "line 2: cannot parse elev='0x10' as a number"

    @pytest.mark.parametrize("token", ["inf", "-Infinity", "nan", "1e400"])
    def test_non_finite_value_reports_its_line(self, tmp_path, token):
        path = write_rows(tmp_path / "d.csv", [
            ["lon", "lat", "y"], ["0.1", "0.2", "1.0"], ["0.3", "0.4", token],
        ])
        assert read_error(path) == f"line 3: non-finite y={token!r}"

    def test_short_row(self, tmp_path):
        path = write_rows(tmp_path / "d.csv", [
            ["lon", "lat", "y", "elev"], ["0.1", "0.2", "1.0", "5"], ["0.3", "0.4", "2.0"],
        ])
        assert read_error(path) == "line 3: expected 4 fields, got 3"

    def test_bad_token_before_short_row_wins(self, tmp_path):
        path = write_rows(tmp_path / "d.csv", [
            ["lon", "lat", "y"], ["0.1", "0.2", "1.0"], ["0.3", "0.4", "x"], ["0.5"],
        ])
        assert read_error(path) == "line 3: cannot parse y='x' as a number"

    def test_short_row_before_bad_token_wins(self, tmp_path):
        path = write_rows(tmp_path / "d.csv", [
            ["lon", "lat", "y"], ["0.1", "0.2"], ["0.3", "0.4", "x"],
        ])
        assert read_error(path) == "line 2: expected 3 fields, got 2"

    def test_bad_token_before_oversized_field_wins(self, tmp_path):
        path = tmp_path / "d.csv"
        oversized = "9" * (csv.field_size_limit() + 1)
        path.write_text(f"lon,lat,y\n0.1,x,1\n0.2,0.3,{oversized}\n")
        assert read_error(path) == "line 2: cannot parse lat='x' as a number"
        path.write_text(f"lon,lat,y\n0.1,0.2,1\n0.2,0.3,{oversized}\n")
        with pytest.raises(csv.Error, match="field limit"):
            read_dataset(path)

    def test_first_bad_column_in_a_row_wins(self, tmp_path):
        path = write_rows(tmp_path / "d.csv", [
            ["lon", "lat", "y"], ["0.1", "inf", "x"],
        ])
        assert read_error(path) == "line 2: non-finite lat='inf'"

    def test_blank_rows_skipped_but_counted(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("lon,lat,y\n0.1,0.2,1.0\n\n,,,\n  , ,\n0.3,0.4,2.0\n0.5,0.6,?\n")
        assert read_error(path) == "line 7: cannot parse y='?' as a number"
        path.write_text("lon,lat,y\n0.1,0.2,1.0\n\n,,,\n  , ,\n0.3,0.4,2.0\n")
        ds = read_dataset(path)
        np.testing.assert_array_equal(ds.y, [1.0, 2.0])
        np.testing.assert_array_equal(ds.locations, [[0.1, 0.2], [0.3, 0.4]])

    def test_header_only_dataset(self, tmp_path):
        path = write_rows(tmp_path / "d.csv", [["lon", "lat", "y", "elev"]])
        assert read_error(path) == f"{path}: no observations"

    def test_header_only_locations(self, tmp_path):
        path = write_rows(tmp_path / "l.csv", [["lon", "lat"]])
        locs = read_locations(path)
        assert locs.shape == (0, 2) and locs.dtype == float

    def test_locations_faults(self, tmp_path):
        path = write_rows(tmp_path / "l.csv", [["lon", "lat", "id"], ["0.1", "nan", "a"]])
        with pytest.raises(InputError, match=r"^line 2: non-finite lat='nan'$"):
            read_locations(path)

    def test_locations_short_row(self, tmp_path):
        path = write_rows(tmp_path / "l.csv", [["lon", "lat"], ["0.1", "0.2"], ["0.3"]])
        with pytest.raises(InputError, match=r"^line 3: expected 2 fields, got 1$"):
            read_locations(path)


class TestValues:
    def test_tokens_parse_as_float_does(self, tmp_path):
        tokens = ["1_000", " 2.5 ", "+3", "-0", "١٢", "1e-320"]
        path = write_rows(tmp_path / "d.csv", [["lon", "lat", "y"]] + [
            [t, t, t] for t in tokens
        ])
        ds = read_dataset(path)
        want = np.array([float(t) for t in tokens])
        assert ds.y.tobytes() == want.tobytes()
        assert ds.locations.tobytes() == np.column_stack([want, want]).tobytes()

    def test_unused_covariate_column_is_ignored(self, tmp_path):
        path = write_rows(tmp_path / "d.csv", [
            ["lon", "lat", "y", "junk", "elev"],
            ["0.1", "0.2", "1.0", "oops", "10"],
            ["0.3", "0.4", "2.0", "", "20"],
            ["0.5", "0.6", "3.0", "nan", "30"],
        ])
        ds = read_dataset(path, covariates=["elev"])
        assert ds.covariate_names == ("intercept", "elev")
        np.testing.assert_array_equal(ds.X, [[1, 10], [1, 20], [1, 30]])
        assert read_error(path) == "line 2: cannot parse junk='oops' as a number"

    def test_covariates_read_in_requested_order(self, tmp_path):
        path = write_rows(tmp_path / "d.csv", [
            ["lon", "lat", "y", "a", "b"], ["0.1", "0.2", "1.0", "x", "y"],
        ])
        assert read_error(path, covariates=["b", "a"]) == (
            "line 2: cannot parse b='y' as a number"
        )
        path = write_rows(tmp_path / "d.csv", [
            ["lon", "lat", "y", "a", "b"],
            ["0.1", "0.2", "1.0", "4", "5"],
            ["0.3", "0.4", "2.0", "6", "7"],
            ["0.5", "0.6", "3.0", "8", "9"],
        ])
        X = read_dataset(path, covariates=["b", "a"]).X
        np.testing.assert_array_equal(X, [[1, 5, 4], [1, 7, 6], [1, 9, 8]])

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.lists(
                st.sampled_from(
                    ["0.5", "-3", "1_0", " 7 ", "", " ", "x", "inf", "nan", "1e400",
                     "0x1", "4e-320", "٣"]
                ),
                min_size=0, max_size=4,
            ),
            min_size=0, max_size=6,
        )
    )
    def test_matches_row_by_row_reference(self, tmp_path_factory, body):
        rows = [["lon", "lat", "y", "c"]] + body
        path = write_rows(tmp_path_factory.mktemp("ref") / "d.csv", rows)
        ref = reference_rows(rows, ["lon", "lat", "y", "c"], 4)
        if isinstance(ref, np.ndarray) and ref.shape[0] == 0:
            ref = f"{path}: no observations"
        elif isinstance(ref, np.ndarray) and ref.shape[0] < 2:
            ref = "fewer observations than mean coefficients"
        if isinstance(ref, str):
            assert read_error(path) == ref
        else:
            ds = read_dataset(path)
            assert ds.locations.tobytes() == np.ascontiguousarray(ref[:, :2]).tobytes()
            assert ds.y.tobytes() == np.ascontiguousarray(ref[:, 2]).tobytes()
            assert ds.X[:, 1].tobytes() == np.ascontiguousarray(ref[:, 3]).tobytes()


finite = st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=True)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(2, 6).flatmap(
        lambda p: st.lists(st.lists(finite, min_size=4, max_size=4), min_size=p, max_size=p)
    )
)
def test_write_read_round_trip_is_bitwise(tmp_path_factory, rows):
    values = np.array(rows, dtype=float)
    values[0, :3] = [5e-324, -1.7976931348623157e308, -0.0]
    p = values.shape[0]
    ds = Dataset(values[:, :2], values[:, 2], np.column_stack([np.ones(p), values[:, 3]]),
                 ("intercept", "elev"))
    path = tmp_path_factory.mktemp("rt") / "d.csv"
    write_dataset(path, ds)
    back = read_dataset(path)
    assert back.covariate_names == ds.covariate_names
    for got, want in ((back.locations, ds.locations), (back.y, ds.y), (back.X, ds.X)):
        assert got.shape == want.shape and got.tobytes() == want.tobytes()

"""CSV ingestion contract: accepted tokens, parsed values, and the first
fault in file order with its exact message."""

import csv
import os
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kryging import data
from kryging.data import (Dataset, InputError, read_dataset, read_locations, write_dataset,
                          write_predictions)


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


# eight data rows, with the all-blank rows 4 and 8 between them
SPACED_ROWS = [["lon", "lat", "y"]] + [
    [repr(i / 7), repr(-i / 3), repr(i * 1e-300)] if i % 4 else [" ", ""]
    for i in range(1, 12)
]


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
        assert read_error(path) == (
            f"line 3: field larger than field limit ({csv.field_size_limit()})"
        )

    def test_first_bad_column_in_a_row_wins(self, tmp_path):
        path = write_rows(tmp_path / "d.csv", [
            ["lon", "lat", "y"], ["0.1", "inf", "x"],
        ])
        assert read_error(path) == "line 2: non-finite lat='inf'"

    @pytest.mark.parametrize("bad, short", [(2, 7), (6, 9), (10, 11), (9, 3)])
    def test_first_fault_in_file_order_wins(self, tmp_path, bad, short):
        rows = [list(r) for r in SPACED_ROWS]
        rows[bad][1] = "x"
        rows[short] = ["0.5"]
        path = write_rows(tmp_path / "d.csv", rows)
        first = min(bad, short) + 1
        want = reference_rows(rows, ["lon", "lat", "y"], 3)
        assert want.startswith(f"line {first}: ")
        assert read_error(path) == want

    def test_blank_rows_skipped_but_counted(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("lon,lat,y\n0.1,0.2,1.0\n\n,,,\n  , ,\n0.3,0.4,2.0\n0.5,0.6,?\n")
        assert read_error(path) == "line 7: cannot parse y='?' as a number"
        path.write_text("lon,lat,y\n0.1,0.2,1.0\n\n,,,\n  , ,\n0.3,0.4,2.0\n")
        ds = read_dataset(path)
        np.testing.assert_array_equal(ds.y, [1.0, 2.0])
        np.testing.assert_array_equal(ds.locations, [[0.1, 0.2], [0.3, 0.4]])

    def test_duplicate_column_names_refused_when_read(self, tmp_path):
        path = write_rows(tmp_path / "d.csv", [
            ["lon", "lat", "y", "a", "a", "b"],
            ["0.1", "0.2", "1.0", "5", "7", "9"],
            ["0.3", "0.4", "2.0", "6", "8", "4"],
        ])
        assert read_error(path) == f"{path}: duplicate column name(s): a"
        assert read_error(path, covariates=["a"]) == f"{path}: duplicate column name(s): a"
        assert read_error(path, covariates=["b", "a", "b"]) == (
            f"{path}: duplicate column name(s): b, a"
        )
        # a repeated name that is not read leaves the other columns usable
        np.testing.assert_array_equal(read_dataset(path, covariates=["b"]).X, [[1, 9], [1, 4]])

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

    @pytest.mark.parametrize("reader,text,message", [
        (read_dataset, "", "empty file"),
        (read_dataset, "\nlon,lat,y\n", "header must start with lon,lat,y (got )"),
        (read_dataset, "lat,lon,y\n", "header must start with lon,lat,y (got lat,lon,y)"),
        (read_locations, "", "empty file"),
        (read_locations, "\nlon,lat\n", "header must start with lon,lat (got )"),
        (read_locations, "lat,lon,id\n", "header must start with lon,lat (got lat,lon)"),
    ])
    def test_header_faults(self, tmp_path, reader, text, message):
        path = tmp_path / "h.csv"
        path.write_text(text)
        with pytest.raises(InputError) as info:
            reader(path)
        assert str(info.value) == f"{path}: {message}"


    @pytest.mark.parametrize("field, value, message", [
        ("locations", np.zeros((4, 3)), r"^locations must be \(4, 2\)$"),
        ("locations", np.zeros((3, 2)), r"^locations must be \(4, 2\)$"),
        ("X", np.ones((3, 1)), "^X row count differs from y$"),
        ("locations", np.array([[0.0, 0.0], [0.0, np.inf], [1.0, 0.0], [1.0, 1.0]]),
         "^non-finite values in locations$"),
        ("y", np.array([1.0, np.nan, 2.0, 3.0]), "^non-finite values in y$"),
        ("X", np.array([[1.0], [1.0], [-np.inf], [1.0]]), "^non-finite values in X$"),
    ])
    def test_dataset_refuses_malformed_arrays(self, field, value, message):
        arrays = {"locations": np.zeros((4, 2)), "y": np.arange(4.0), "X": np.ones((4, 1))}
        arrays[field] = value
        with pytest.raises(InputError, match=message):
            Dataset(**arrays)


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

    def test_values_between_blank_rows_match_the_reference(self, tmp_path):
        ref = reference_rows(SPACED_ROWS, ["lon", "lat", "y"], 3)
        ds = read_dataset(write_rows(tmp_path / "d.csv", SPACED_ROWS))
        assert ds.locations.tobytes() == np.ascontiguousarray(ref[:, :2]).tobytes()
        assert ds.y.tobytes() == np.ascontiguousarray(ref[:, 2]).tobytes()

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
            ref = f"{path}: fewer observations than mean coefficients"
        if isinstance(ref, str):
            assert read_error(path) == ref
        else:
            ds = read_dataset(path)
            assert ds.locations.tobytes() == np.ascontiguousarray(ref[:, :2]).tobytes()
            assert ds.y.tobytes() == np.ascontiguousarray(ref[:, 2]).tobytes()
            assert ds.X[:, 1].tobytes() == np.ascontiguousarray(ref[:, 3]).tobytes()


class TestTwoTiers:
    """Files that numpy's tokenizer reads must give, bitwise, the arrays of
    the checked reader, which is what the readers return with that tier
    turned off."""

    EDGE = ["-0.0", "5e-324", "2.2250738585072014e-308", "1.7976931348623157e308",
            "-1.7976931348623157e308", "0.1", "-7.25"]
    CORPUS = {
        "lf": ("lon,lat,y,a,b\n{rows}", "\n"),
        "crlf": ("lon,lat,y,a,b\r\n{rows}", "\r\n"),
        "quoted": ('"lon","lat","y","a","b"\r\n{rows}', "\r\n"),
        "empty lines": ("lon,lat,y,a,b\n\n{rows}\n\n", "\n\n"),
        "wider than header": ("lon,lat,y,a,b\n{rows}", ",9,-1\n"),
        "byte-order mark": ("\ufefflon,lat,y,a,b\r\n{rows}", "\r\n"),  # Excel's CSV UTF-8
    }

    def body(self, case):
        """Seven rows of the edge values, each value quoted in the
        "quoted" case and each row ended by the case's separator."""
        rows = []
        for i in range(len(self.EDGE)):
            row = [self.EDGE[(i + j) % len(self.EDGE)] for j in range(5)]
            if case == "quoted":
                row = [f'"{v}"' for v in row]
            rows.append(",".join(row))
        template, end = self.CORPUS[case]
        return template.format(rows=end.join(rows) + end)

    @pytest.mark.parametrize("covariates", [None, ["b"], ["b", "a"]])
    @pytest.mark.parametrize("case", list(CORPUS))
    def test_fast_tier_matches_the_checked_reader(self, tmp_path, monkeypatch, case,
                                                  covariates):
        path = tmp_path / "d.csv"
        path.write_bytes(self.body(case).encode())
        fast, kept = data._loadtxt_columns, []

        def spy(*args):
            kept.append(fast(*args))
            return kept[-1]

        monkeypatch.setattr(data, "_loadtxt_columns", spy)
        got_ds = read_dataset(path, covariates=covariates)
        got_locs = read_locations(path)
        assert len(kept) == 2 and all(v is not None for v in kept)
        monkeypatch.setattr(data, "_loadtxt_columns", lambda *args: None)
        want_ds = read_dataset(path, covariates=covariates)
        want_locs = read_locations(path)
        assert got_ds.covariate_names == want_ds.covariate_names
        for got, want in ((got_ds.locations, want_ds.locations), (got_ds.y, want_ds.y),
                          (got_ds.X, want_ds.X), (got_locs, want_locs)):
            assert got.shape == want.shape and got.flags.c_contiguous
            assert got.tobytes() == want.tobytes()
        assert want_ds.y.tobytes() == np.array(
            [float(self.EDGE[(i + 2) % 7]) for i in range(7)]).tobytes()

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    @pytest.mark.parametrize("text, want", [
        ("lon,lat\n0.5,0.25\n", [[0.5, 0.25]]),
        ("lon,lat\n0.5,x\n", "line 2: cannot parse lat='x' as a number"),
        ("\ufefflon,lat\r\n0.5,0.25\r\n", [[0.5, 0.25]]),
    ])
    def test_a_pipe_that_cannot_be_rewound_is_read_once(self, tmp_path, text, want):
        pipe = tmp_path / "pipe.csv"
        os.mkfifo(pipe)
        writer = threading.Thread(target=pipe.write_text, args=(text, "utf-8"), daemon=True)
        writer.start()
        try:
            if isinstance(want, str):
                with pytest.raises(InputError, match=f"^{want}$"):
                    read_locations(pipe)
            else:
                np.testing.assert_array_equal(read_locations(pipe), want)
        finally:
            writer.join(timeout=10)


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


def csv_writer_reference(path, header, rows):
    """The writer both CSV functions once used: csv.writer on each value's
    repr, kept here as the byte-level reference."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([repr(v) for v in row] for row in rows)


def test_writers_match_the_csv_writer_bytes(tmp_path):
    rng = np.random.default_rng(5)
    values = rng.standard_normal((50, 6)) * 10.0 ** rng.integers(-300, 300, (50, 6))
    values[0] = [5e-324, -1.7976931348623157e308, -0.0, 0.0, 1e16, 0.1]
    ds = Dataset(values[:, :2], values[:, 2], np.column_stack([np.ones(50), values[:, 3:]]),
                 ("intercept", "elev", "a,b", 'say "c"'))
    cases = [
        (write_dataset, (ds,), ["lon", "lat", "y", "elev", "a,b", 'say "c"'], values),
        (write_predictions, (values[:, :2], values[:, 2]), ["lon", "lat", "y_hat"],
         values[:, :3]),
        (write_predictions, (values[:, :2], *values[:, 2:].T), ["lon", "lat", "y_hat", "se",
                                                                 "ci_lo", "ci_hi"], values),
        (write_predictions, (np.zeros((0, 2)), np.zeros(0)), ["lon", "lat", "y_hat"],
         np.zeros((0, 3))),
    ]
    for writer, args, header, rows in cases:
        got, want = tmp_path / "got.csv", tmp_path / "want.csv"
        writer(got, *args)
        csv_writer_reference(want, header, rows.tolist())
        assert got.read_bytes() == want.read_bytes()

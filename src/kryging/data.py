"""Dataset container and every file format: the CSVs and the fit artifact.

CSV headers: input data ``lon,lat,y[,name1,...]``, whose extra columns
are covariates (an intercept is always prepended); prediction locations
``lon,lat``; predictions ``lon,lat,y_hat[,se,ci_lo,ci_hi]`` (uncertainty
only from a bootstrap); a simulation's truth ``lon,lat,x,y``. Values
are written as float ``repr``, so they read back bitwise.

Input data and prediction locations are read as UTF-8, with or without
a byte-order mark, in two tiers. Once the header is checked, numpy's C
tokenizer (``np.loadtxt``) parses the data rows, and its array is kept
when every row has the same number of fields, at least the header's,
and every value used is finite. Any other body is read again by the
checked reader ``_read_columns``, which converts one row at a time in
file order and alone reads a file that cannot be rewound (a pipe). So
values, refusals and messages are those of the checked reader; both
tiers convert a token with the correctly rounded conversion of
``float()``. One refusal is the checked reader's alone: a field longer
than ``csv.field_size_limit()`` characters that still parses as a
finite number (``0.`` and 200,000 zeros) is read by the fast tier.

The fit artifact is an uncompressed numpy archive (``.npz``) with a
format version field; all arrays needed to predict and bootstrap from
the fit are stored, so the artifact is self-contained. Keys are
documented in :func:`save_fit_artifact`.
"""

from __future__ import annotations

import array
import csv
import itertools
import math
import zipfile
from dataclasses import dataclass

import numpy as np

from .estimation import FitResult
from .grid import GridSpec, ThetaParams

__all__ = [
    "Dataset",
    "InputError",
    "read_dataset",
    "write_dataset",
    "read_locations",
    "write_predictions",
    "write_truth",
    "save_fit_artifact",
    "load_fit_artifact",
]

ARTIFACT_VERSION = 1


class InputError(ValueError):
    """Malformed user input (CSV, config, or flag values)."""


@dataclass
class Dataset:
    """Point-referenced observations: coordinates, responses, and
    covariates."""

    locations: np.ndarray
    y: np.ndarray
    X: np.ndarray
    covariate_names: tuple = ()

    def __post_init__(self):
        self.locations = np.atleast_2d(np.asarray(self.locations, dtype=float))
        self.y = np.asarray(self.y, dtype=float)
        self.X = np.atleast_2d(np.asarray(self.X, dtype=float))
        p = self.y.size
        if self.locations.shape != (p, 2):
            raise InputError(f"locations must be ({p}, 2)")
        if self.X.shape[0] != p:
            raise InputError("X row count differs from y")
        if p < self.X.shape[1]:
            raise InputError("fewer observations than mean coefficients")
        for name, arr in (("locations", self.locations), ("y", self.y), ("X", self.X)):
            if not np.all(np.isfinite(arr)):
                raise InputError(f"non-finite values in {name}")

    @property
    def p(self) -> int:
        return self.y.size

    def subset(self, idx: np.ndarray) -> "Dataset":
        return Dataset(
            self.locations[idx], self.y[idx], self.X[idx], self.covariate_names
        )


def _parse_float(token: str, line_no: int, col: str) -> float:
    try:
        v = float(token)
    except ValueError:
        raise InputError(f"line {line_no}: cannot parse {col}={token!r} as a number")
    if not math.isfinite(v):
        raise InputError(f"line {line_no}: non-finite {col}={token!r}")
    return v


def _read_columns(reader, columns: list, width: int) -> np.ndarray:
    """The named columns of the data rows left in ``reader``, as a
    (rows, len(columns)) float array.

    ``columns`` lists (field index, name) pairs; every row needs at least
    ``width`` fields. Rows that are empty or all blank are skipped but
    still count toward line numbers. Rows are converted one at a time, in
    file order, so the first fault in the file is the one reported: a bad
    token, a short row or a malformed record.
    """
    values = array.array("d")
    line_no = 1
    try:
        for line_no, row in enumerate(reader, start=2):
            if not any(map(str.strip, row)):
                continue
            if len(row) < width:
                raise InputError(f"line {line_no}: expected {width} fields, got {len(row)}")
            for i, name in columns:
                values.append(_parse_float(row[i], line_no, name))
    except csv.Error as exc:  # e.g. a field longer than csv.field_size_limit()
        raise InputError(f"line {line_no + 1}: {exc}") from exc
    return np.frombuffer(values, dtype=float).reshape(-1, len(columns))


def _loadtxt_columns(fh, columns: list, width: int) -> np.ndarray | None:
    """The named columns of the data rows left in ``fh``, parsed by
    ``np.loadtxt``, or None where the checked reader must decide.

    None stands for a body without a data line (loadtxt would warn), a
    body loadtxt refuses (a token ``float()`` would accept with
    underscores or non-ASCII digits, an empty field, a ragged or
    whitespace-only row), rows narrower than ``width``, and a non-finite
    value in a used column. Blank lines before the first data line are
    skipped, as the checked reader skips them.
    """
    for line in fh:
        if line.strip():
            break
    else:
        return None
    try:
        values = np.loadtxt(itertools.chain([line], fh), delimiter=",", comments=None,
                            quotechar='"', dtype=float, ndmin=2)
    except ValueError:
        return None
    if values.shape[1] < width:
        return None
    values = values.take([i for i, _ in columns], axis=1)  # C order, as the checked reader's
    return values if np.isfinite(values).all() else None


def _read_body(fh, columns: list, width: int) -> np.ndarray:
    """The named columns of the data rows after the header already read
    from ``fh``: :func:`_loadtxt_columns` when it vouches for them, else
    :func:`_read_columns`, from the rewound file when it can be rewound."""
    if fh.seekable():
        values = _loadtxt_columns(fh, columns, width)
        if values is not None:
            return values
        fh.seek(0)
        next(csv.reader(fh))  # the header, checked already
    return _read_columns(csv.reader(fh), columns, width)


def _header(reader, path, first: list) -> list:
    """The stripped header row of ``reader``, which must start with the
    column names ``first``."""
    try:
        header = [h.strip() for h in next(reader)]
    except StopIteration:
        raise InputError(f"{path}: empty file")
    got = header[: len(first)]
    if got != first:
        raise InputError(f"{path}: header must start with {','.join(first)} (got {','.join(got)})")
    return header


def read_dataset(path, covariates: list | None = None) -> Dataset:
    """Read observations from CSV; an intercept column is always prepended.

    Parameters
    ----------
    path : str or Path
        UTF-8 CSV file, a byte-order mark allowed, whose header starts
        with lon,lat,y.
    covariates : list of str, optional
        Names of covariate columns to use. Defaults to every column after
        y. A named column missing from the header, or a name that repeats
        in ``covariates`` or among the header's columns after y, is an
        error; a repeated header name that is not used is not.
    """
    with open(path, newline="", encoding="utf-8-sig") as fh:
        header = _header(csv.reader(fh), path, ["lon", "lat", "y"])
        extra = header[3:]
        if covariates is None:
            use = list(extra)
        else:
            missing = [c for c in covariates if c not in extra]
            if missing:
                raise InputError(
                    f"{path}: covariate column(s) not found: {', '.join(missing)}"
                )
            use = list(covariates)
        # a repeated name would silently read its first column twice
        repeated = [c for c in use if use.count(c) > 1 or extra.count(c) > 1]
        if repeated:
            raise InputError(
                f"{path}: duplicate column name(s): {', '.join(dict.fromkeys(repeated))}"
            )
        cols = [extra.index(c) + 3 for c in use]
        columns = [(0, "lon"), (1, "lat"), (2, "y")] + [(c, header[c]) for c in cols]
        values = _read_body(fh, columns, 3 + len(extra))

    p = values.shape[0]
    if not p:
        raise InputError(f"{path}: no observations")
    X = np.column_stack([np.ones(p), values[:, 3:]])
    return Dataset(values[:, :2].copy(), values[:, 2].copy(), X, ("intercept", *use))


def read_locations(path) -> np.ndarray:
    """Read lon,lat rows from a CSV with at least those two columns."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        _header(csv.reader(fh), path, ["lon", "lat"])
        return _read_body(fh, [(0, "lon"), (1, "lat")], 2)


def _write_rows(path, header: list, columns: list):
    """Write ``header`` through ``csv.writer``, which quotes a name that
    needs it, then the rows of the stacked float ``columns`` as CRLF lines
    of ``repr`` values, which never need quoting."""
    rows = np.column_stack(columns).tolist()
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(header)
        fh.writelines(",".join(map(repr, row)) + "\r\n" for row in rows)


def write_dataset(path, dataset: Dataset):
    """Write a dataset in the input CSV schema (intercept column not
    written). ``covariate_names`` must name every column of X, with
    "intercept" first, so the header describes every field."""
    names = tuple(dataset.covariate_names)
    if len(names) != dataset.X.shape[1] or names[:1] != ("intercept",):
        raise InputError(
            f"covariate_names {names} must name every column of X, intercept first"
        )
    _write_rows(path, ["lon", "lat", "y", *names[1:]],
                [dataset.locations, dataset.y, dataset.X[:, 1:]])


def write_predictions(path, locations, y_hat, se=None, ci_lo=None, ci_hi=None):
    """Write predictions CSV; uncertainty columns included when given."""
    locations = np.atleast_2d(locations)
    columns = {"lon": locations[:, 0], "lat": locations[:, 1], "y_hat": y_hat}
    if se is not None:
        columns.update(se=se, ci_lo=ci_lo, ci_hi=ci_hi)
    _write_rows(path, list(columns), list(columns.values()))


def write_truth(path, grid: GridSpec, x, y):
    """Write a simulated field ``x`` and response ``y`` at ``grid``'s nodes."""
    _write_rows(path, ["lon", "lat", "x", "y"], [grid.node_coords(), x, y])


def save_fit_artifact(path, fitres: FitResult, dataset: Dataset):
    """Persist a fit and its training data as a versioned .npz archive.

    Keys: format_version, grid (n1, n2, x_min, x_max, y_min, y_max), nu,
    k, beta, sigma2, tau2, rho, x_hat, converged, iterations,
    objective_trace, locations, y, X, covariate_names, plus the
    diagnostics clamp_count, wall_time, stop_reason (a str array) and
    embedding_failures. The archive is uncompressed: zlib on the float64
    fields halves the file but costs more time than the rest of the save.
    """
    g = fitres.grid
    th = fitres.theta_hat
    diag = fitres.diagnostics
    np.savez(
        path,
        format_version=ARTIFACT_VERSION,
        grid=np.array([g.n1, g.n2, g.x_min, g.x_max, g.y_min, g.y_max]),
        nu=th.nu,
        k=fitres.k,
        beta=th.beta,
        sigma2=th.sigma2,
        tau2=th.tau2,
        rho=th.rho,
        x_hat=fitres.x_hat,
        converged=fitres.converged,
        iterations=fitres.iterations,
        objective_trace=np.asarray(fitres.objective_trace),
        locations=dataset.locations,
        y=dataset.y,
        X=dataset.X,
        covariate_names=np.asarray(dataset.covariate_names, dtype=str),
        clamp_count=diag.get("clamp_count", 0),
        wall_time=diag.get("wall_time", float("nan")),
        stop_reason=np.asarray(diag.get("stop_reason", "unknown"), dtype=str),
        embedding_failures=diag.get("embedding_failures", 0),
    )


def load_fit_artifact(path):
    """Load a fit artifact; returns (FitResult, Dataset).

    Artifacts written before ``stop_reason`` and ``embedding_failures``
    were stored load with "unknown" and 0 for them. Arrays are read with
    pickling disabled, so an archive holding object arrays (which could
    run code when unpickled) is refused with :class:`InputError`, as is
    a truncated archive, one missing a required array, or a file that is
    not an ``.npz`` archive at all (a single ``.npy`` array, a CSV), or
    an array of another shape or type than it should have (naming it).
    """
    try:
        archive = np.load(path, allow_pickle=False)
    except (zipfile.BadZipFile, EOFError) as exc:
        raise InputError(f"{path}: not a readable fit artifact: {exc}") from exc
    except ValueError as exc:  # neither a zip archive nor an .npy array
        raise InputError(f"{path}: not a fit archive (.npz)") from exc
    if not isinstance(archive, np.lib.npyio.NpzFile):
        raise InputError(f"{path}: not a fit archive (.npz) but a single .npy array")
    try:
        with archive:
            z = {key: archive[key] for key in archive.files}
    except ValueError as exc:
        raise InputError(f"{path}: refusing to load fit artifact: {exc}") from exc
    try:
        return _unpack_artifact(path, z)
    except KeyError as exc:
        raise InputError(f"{path}: fit artifact has no {exc.args[0]!r} array") from exc


def _stored(path, key, value, kind, shape=()):
    """``value``, the array stored under ``key``, which must have ``shape``
    and a dtype ``kind`` reads; an int must be a finite whole number."""
    value = np.asarray(value)
    if value.shape != shape or value.dtype.kind not in {bool: "b", str: "U"}.get(kind, "iuf"):
        raise InputError(f"{path}: fit artifact's {key!r} must be {kind.__name__} data "
                         f"of shape {shape}, got {value.dtype} of shape {value.shape}")
    if kind is not int:
        return value if shape else kind(value)
    if not (np.isfinite(value).all() and (value == value.round()).all()):
        raise InputError(f"{path}: fit artifact's {key!r} holds {value}, not whole numbers")
    return list(map(int, value)) if shape else int(value)


def _unpack_artifact(path, z):
    z = {"stop_reason": "unknown", "embedding_failures": 0, **z}  # older artifacts lack them

    def scalar(key, kind):
        return _stored(path, key, z[key], kind)

    version = scalar("format_version", int)
    if version != ARTIFACT_VERSION:
        raise InputError(f"{path}: artifact format version {version} not supported "
                         f"(expected {ARTIFACT_VERSION})")
    stored = _stored(path, "grid", z["grid"], float, (6,))  # n1, n2 and the extents
    n1, n2 = _stored(path, "grid", stored[:2], int, (2,))
    grid = GridSpec(n1, n2, *map(float, stored[2:]))
    theta = ThetaParams(z["beta"], *(scalar(key, float)
                                     for key in ("sigma2", "tau2", "rho", "nu")))
    fitres = FitResult(
        theta_hat=theta,
        x_hat=z["x_hat"],
        objective_trace=list(z["objective_trace"]),
        converged=scalar("converged", bool),
        iterations=scalar("iterations", int),
        grid=grid,
        k=scalar("k", int),
        diagnostics={
            "clamp_count": scalar("clamp_count", int),
            "wall_time": scalar("wall_time", float),
            "stop_reason": scalar("stop_reason", str),
            "embedding_failures": scalar("embedding_failures", int),
        },
    )
    dataset = Dataset(
        locations=z["locations"],
        y=z["y"],
        X=z["X"],
        covariate_names=tuple(str(name) for name in z["covariate_names"]),
    )
    return fitres, dataset

"""Dataset container, CSV ingestion, and the fit artifact format.

Input CSV schema: header ``lon,lat,y[,name1,name2,...]`` with one
observation per row; extra columns are covariates and an intercept is
always prepended. Prediction output schema: header
``lon,lat,y_hat,se,ci_lo,ci_hi`` (the uncertainty columns are omitted
when no bootstrap was run).

The fit artifact is an uncompressed numpy archive (``.npz``) with a
format version field; all arrays needed to predict and bootstrap from
the fit are stored, so the artifact is self-contained. Keys are
documented in :func:`save_fit_artifact`.
"""

from __future__ import annotations

import csv
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
    if not np.isfinite(v):
        raise InputError(f"line {line_no}: non-finite {col}={token!r}")
    return v


def _read_columns(reader, columns: list, width: int) -> np.ndarray:
    """The named columns of the data rows left in ``reader``, as a
    (rows, len(columns)) float array.

    ``columns`` lists (field index, name) pairs; every row needs at least
    ``width`` fields. Rows that are empty or all blank are skipped but
    still count toward line numbers. All tokens are converted in one
    array operation, which applies ``float()`` to each; only when that
    fails or yields a non-finite value is the first bad token located.
    Faults are reported in file order: a bad token wins over a short row
    or a malformed record after it.
    """
    index = [i for i, _ in columns]
    tokens, lines = [], []
    fault = None
    try:
        for line_no, row in enumerate(reader, start=2):
            if not any(map(str.strip, row)):
                continue
            if len(row) < width:
                fault = InputError(f"line {line_no}: expected {width} fields, got {len(row)}")
                break
            tokens.extend([row[i] for i in index])
            lines.append(line_no)
    except csv.Error as exc:
        fault = exc
    try:
        values = np.array(tokens, dtype=float)
        clean = bool(np.isfinite(values).all())
    except ValueError:
        clean = False
    if not clean:
        ncol = len(columns)
        for j, token in enumerate(tokens):
            _parse_float(token, lines[j // ncol], columns[j % ncol][1])
    if fault is not None:
        raise fault
    return values.reshape(len(lines), len(columns))


def read_dataset(path, covariates: list | None = None) -> Dataset:
    """Read observations from CSV; an intercept column is always prepended.

    Parameters
    ----------
    path : str or Path
        CSV file whose header starts with lon,lat,y.
    covariates : list of str, optional
        Names of covariate columns to use. Defaults to every column after
        y. A named column missing from the header is an error.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise InputError(f"{path}: empty file")
        header = [h.strip() for h in header]
        if header[:3] != ["lon", "lat", "y"]:
            raise InputError(
                f"{path}: header must start with lon,lat,y (got {','.join(header[:3])})"
            )
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
        cols = [extra.index(c) + 3 for c in use]
        columns = [(0, "lon"), (1, "lat"), (2, "y")] + [(c, header[c]) for c in cols]
        values = _read_columns(reader, columns, 3 + len(extra))

    p = values.shape[0]
    if not p:
        raise InputError(f"{path}: no observations")
    X = np.column_stack([np.ones(p), values[:, 3:]])
    return Dataset(values[:, :2].copy(), values[:, 2].copy(), X, ("intercept", *use))


def read_locations(path) -> np.ndarray:
    """Read lon,lat rows from a CSV with at least those two columns."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = [h.strip() for h in next(reader)]
        except StopIteration:
            raise InputError(f"{path}: empty file")
        if header[:2] != ["lon", "lat"]:
            raise InputError(f"{path}: header must start with lon,lat")
        return _read_columns(reader, [(0, "lon"), (1, "lat")], 2)


def write_dataset(path, dataset: Dataset):
    """Write a dataset in the input CSV schema (intercept column not
    written). ``covariate_names`` must name every column of X, with
    "intercept" first, so the header describes every field."""
    names = tuple(dataset.covariate_names)
    if len(names) != dataset.X.shape[1] or names[:1] != ("intercept",):
        raise InputError(
            f"covariate_names {names} must name every column of X, intercept first"
        )
    rows = np.column_stack([dataset.locations, dataset.y, dataset.X[:, 1:]]).tolist()
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["lon", "lat", "y", *names[1:]])
        writer.writerows([repr(v) for v in row] for row in rows)


def write_predictions(path, locations, y_hat, se=None, ci_lo=None, ci_hi=None):
    """Write predictions CSV; uncertainty columns included when given."""
    locations = np.atleast_2d(locations)
    columns = {"lon": locations[:, 0], "lat": locations[:, 1], "y_hat": y_hat}
    if se is not None:
        columns.update(se=se, ci_lo=ci_lo, ci_hi=ci_hi)
    rows = np.column_stack(list(columns.values())).tolist()
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        writer.writerows([repr(v) for v in row] for row in rows)


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
        nu=fitres.nu,
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
    run code when unpickled) is refused with :class:`InputError`.
    """
    with np.load(path, allow_pickle=False) as archive:
        try:
            z = {key: archive[key] for key in archive.files}
        except ValueError as exc:
            raise InputError(f"{path}: refusing to load fit artifact: {exc}") from exc
    version = int(z["format_version"])
    if version != ARTIFACT_VERSION:
        raise InputError(
            f"{path}: artifact format version {version} not supported "
            f"(expected {ARTIFACT_VERSION})"
        )
    n1, n2, x0, x1, y0, y1 = z["grid"]
    grid = GridSpec(int(n1), int(n2), float(x0), float(x1), float(y0), float(y1))
    nu = float(z["nu"])
    theta = ThetaParams(
        beta=z["beta"],
        sigma2=float(z["sigma2"]),
        tau2=float(z["tau2"]),
        rho=float(z["rho"]),
        nu=nu,
    )
    fitres = FitResult(
        theta_hat=theta,
        x_hat=z["x_hat"],
        objective_trace=list(z["objective_trace"]),
        converged=bool(z["converged"]),
        iterations=int(z["iterations"]),
        grid=grid,
        k=int(z["k"]),
        nu=nu,
        diagnostics={
            "clamp_count": int(z["clamp_count"]),
            "wall_time": float(z["wall_time"]),
            "stop_reason": str(z.get("stop_reason", "unknown")),
            "embedding_failures": int(z.get("embedding_failures", 0)),
        },
    )
    dataset = Dataset(
        locations=z["locations"],
        y=z["y"],
        X=z["X"],
        covariate_names=tuple(str(name) for name in z["covariate_names"]),
    )
    return fitres, dataset

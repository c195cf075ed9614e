"""Benchmark workloads: inputs made from a seed, one request, output checks.

Every workload simulates a field with the generating parameters THETA,
holds out a seeded 5% of the observations, and serves one request at a
time (closed loop, one client). A request fits the model and predicts
the held-out points with parametric-bootstrap standard errors:

- ``colocated-200``: co-located observations on a 200 x 200 lattice, so
  the map is a row selection and p ~ n; library ``fit`` then
  ``bootstrap_uq``. The FFT matvec (400 x 400 padded layout) and GK's own
  overhead dominate; the operator build is cheap.
- ``irregular-300``: a 600 x 600 source thinned by 90%, modelled on a
  300 x 300 lattice through the Wendland map (up to 4 nonzeros per row,
  p/n ~ 0.4). The minimal embedding has prime length 599, so operator
  builds weigh more, and every FFT is larger.
- ``bootstrap-cli``: the command-line path on the colocated-200 data,
  in-process through ``kryging.cli.main``: ``kryging fit`` reads the CSV
  and writes the artifact, then ``kryging bootstrap --B 20`` draws the
  replicates from one operator build, so sampling replaces
  logdet/gradient there and artifact and CSV I/O are added.

Fits start at the generating parameters, as the study protocol does, and
stop after at most ``max_evals`` evaluations: uncapped, some seeds run
away for all 200 evaluations (a known defect of the current stop rule),
which no run budget holds. Evaluation counts and stop reasons are
reported, not checked, because rounding can move them.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import os
import time
from dataclasses import dataclass

import numpy as np

from kryging import cli, data, estimation, mapping, simulate, study
from kryging.grid import GridSpec, ThetaParams
from kryging.likelihood import ModelData

THETA = (44.49, 3.0, 0.5, 0.1)  # beta, sigma2, tau2, rho
NU = 0.5
HOLDOUT = 0.05
PREDICTION_HEADER = ["lon", "lat", "y_hat", "se", "ci_lo", "ci_hi"]


@dataclass(frozen=True)
class Design:
    via_cli: bool  # request through kryging.cli.main instead of the library
    source: int  # side of the simulated lattice
    latent: int  # side of the modelling lattice
    thin: float  # share of source nodes discarded
    k: int
    max_evals: int
    B: int


DESIGNS = {
    "colocated-200": Design(False, 200, 200, 0.0, 50, 16, 8),
    "irregular-300": Design(False, 600, 300, 0.9, 50, 16, 8),
    "bootstrap-cli": Design(True, 200, 200, 0.0, 50, 16, 20),
}

# the same workloads shrunk for the smoke test
TOY_DESIGNS = {
    "colocated-200": Design(False, 24, 24, 0.0, 8, 4, 2),
    "irregular-300": Design(False, 48, 20, 0.5, 8, 4, 2),
    "bootstrap-cli": Design(True, 24, 24, 0.0, 8, 4, 2),
}


class RequestError(RuntimeError):
    """The program refused a request (nonzero CLI exit code)."""


@dataclass
class Prepared:
    """A workload's inputs, made once per set-up."""

    design: Design
    seed: int
    theta: ThetaParams
    grid: GridSpec
    model: ModelData | None  # library workloads
    targets: np.ndarray  # held-out locations
    X_targets: np.ndarray
    y_targets: np.ndarray
    files: dict  # CLI workload: train, targets, artifact, predictions


@dataclass
class Outcome:
    """What one request produced, as the checks and metrics need it."""

    fit_s: float
    eval_s: float
    bootstrap_s: float
    evals: int
    accepted: int
    stop_reason: str
    objective_trace: np.ndarray
    theta_vec: np.ndarray
    rows: int
    y_hat: np.ndarray
    se: np.ndarray


def prepare(name: str, seed: int, workdir: str, toy: bool = False) -> Prepared:
    """Make the inputs of workload ``name`` from ``seed``, then serve one
    small warm-up request so first-call costs land in set-up."""
    design = (TOY_DESIGNS if toy else DESIGNS)[name]
    theta = ThetaParams(np.array([THETA[0]]), *THETA[1:], nu=NU)
    grid = GridSpec(design.latent, design.latent)
    sim = simulate.simulate_dataset(
        GridSpec(design.source, design.source), theta, seed=seed, thin_fraction=design.thin
    )
    rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
    p = sim.dataset.p
    hold = np.zeros(p, dtype=bool)
    hold[rng.choice(p, size=max(1, round(HOLDOUT * p)), replace=False)] = True
    train, test = sim.dataset.subset(~hold), sim.dataset.subset(hold)

    model, files = None, {}
    if design.via_cli:
        files = {key: os.path.join(workdir, f"{name}.{key}") for key in
                 ("train.csv", "targets.csv", "fit.npz", "predictions.csv")}
        data.write_dataset(files["train.csv"], train)
        with open(files["targets.csv"], "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["lon", "lat"])
            writer.writerows([repr(float(a)), repr(float(b))] for a, b in test.locations)
    else:
        model = ModelData(
            y=train.y, X=train.X, amap=mapping.build_map(train.locations, grid), grid=grid, nu=NU
        )
    prepared = Prepared(design, seed, theta, grid, model, test.locations, test.X, test.y, files)
    request(prepared, B=1, max_evals=1)
    return prepared


def request(w: Prepared, B: int | None = None, max_evals: int | None = None) -> Outcome:
    """Serve one request: fit, then predict the held-out points with
    bootstrap standard errors. Raises :class:`RequestError` when the CLI
    exits nonzero."""
    B = w.design.B if B is None else B
    max_evals = w.design.max_evals if max_evals is None else max_evals
    if w.design.via_cli:
        return _cli_request(w, B, max_evals)
    t0 = time.perf_counter()
    res = estimation.fit(w.model, k=w.design.k, init=w.theta, max_iter=max_evals)
    t1 = time.perf_counter()
    pset = estimation.bootstrap_uq(
        res, w.model, w.targets, X_pred=w.X_targets, B=B, seed=w.seed + 1,
        allow_unconverged=True,
    )
    t2 = time.perf_counter()
    return Outcome(
        fit_s=t1 - t0,
        eval_s=(t1 - t0) / res.iterations,
        bootstrap_s=t2 - t1,
        evals=res.iterations,
        accepted=len(res.objective_trace) - 1,
        stop_reason=res.diagnostics.get("stop_reason", ""),
        objective_trace=np.asarray(res.objective_trace, dtype=float),
        theta_vec=res.theta_hat.to_optimizer_vector(),
        rows=pset.y_hat.size,
        y_hat=pset.y_hat,
        se=pset.se,
    )


def _cli_request(w: Prepared, B: int, max_evals: int) -> Outcome:
    f, g = w.files, w.grid
    beta, sigma2, tau2, rho = THETA
    fit_argv = [
        "fit", "--grid", f"{g.n1}x{g.n2}",
        "--extent", f"{g.x_min!r},{g.x_max!r},{g.y_min!r},{g.y_max!r}",
        "--k", str(w.design.k), "--nu", repr(NU), "--init", f"{beta},{sigma2},{tau2},{rho}",
        "--max-iter", str(max_evals), "--out", f["fit.npz"], f["train.csv"],
    ]
    boot_argv = [
        "bootstrap", "--fit", f["fit.npz"], "--locations", f["targets.csv"],
        "--B", str(B), "--seed", str(w.seed + 1), "--out", f["predictions.csv"],
    ]
    chatter = io.StringIO()
    with contextlib.redirect_stdout(chatter), contextlib.redirect_stderr(chatter):
        t0 = time.perf_counter()
        code_fit = cli.main(fit_argv)
        t1 = time.perf_counter()
        code_boot = cli.main(boot_argv) if code_fit == 0 else None
        t2 = time.perf_counter()
    if code_fit != 0 or code_boot != 0:
        raise RequestError(f"kryging exited {code_fit}/{code_boot}: {chatter.getvalue()[-400:]}")
    with np.load(f["fit.npz"], allow_pickle=False) as z:
        evals = int(z["iterations"])
        fit_wall = float(z["wall_time"])
        trace = np.asarray(z["objective_trace"], dtype=float)
        theta_vec = np.concatenate(
            [z["beta"], np.log([float(z["sigma2"]), float(z["tau2"]), float(z["rho"])])]
        )
    # the report's "converged: <bool> (<stop reason>)" line
    with open(f["fit.npz"] + ".report.txt") as fh:
        verdict = next((line for line in fh if line.startswith("converged:")), "")
    stop = verdict.partition("(")[2].rpartition(")")[0]
    rows, y_hat, se = read_predictions(f["predictions.csv"])
    return Outcome(
        fit_s=t1 - t0,
        eval_s=fit_wall / evals,
        bootstrap_s=t2 - t1,
        evals=evals,
        accepted=trace.size - 1,
        stop_reason=stop,
        objective_trace=trace,
        theta_vec=theta_vec,
        rows=rows,
        y_hat=y_hat,
        se=se,
    )


def read_predictions(path) -> tuple:
    """Parse a prediction CSV into (row count, y_hat, se); a malformed
    header or field raises ValueError."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != PREDICTION_HEADER:
            raise ValueError(f"prediction header {header} != {PREDICTION_HEADER}")
        rows = [r for r in reader if r]
    y_hat = np.array([float(r[2]) for r in rows])
    se = np.array([float(r[3]) for r in rows])
    return len(rows), y_hat, se


def check(w: Prepared, o: Outcome) -> list:
    """Validity problems of one outcome (empty when it passes)."""
    problems = []
    if o.objective_trace.size < 1 or np.any(np.diff(o.objective_trace) > 0):
        problems.append("objective trace is not non-increasing")
    if not np.all(np.isfinite(o.theta_vec)):
        problems.append("theta_hat is not finite")
    if o.rows != w.y_targets.size or o.y_hat.size != o.rows or o.se.size != o.rows:
        problems.append(f"{o.rows} prediction rows for {w.y_targets.size} targets")
        return problems
    if not np.all(np.isfinite(o.y_hat)):
        problems.append("non-finite y_hat")
    if not np.all(np.isfinite(o.se) & (o.se > 0)):
        problems.append("se not finite and positive")
    limit = math.sqrt(THETA[1] + THETA[2])
    rmse = math.sqrt(float(np.mean((o.y_hat - w.y_targets) ** 2)))
    if not rmse < limit:
        problems.append(f"held-out rmse {rmse:.4g} not below sqrt(sigma2 + tau2) = {limit:.4g}")
    return problems


def scores(w: Prepared, o: Outcome) -> dict:
    """Held-out RMSE and CRPS of a checked outcome."""
    s = study.score_predictions(w.y_targets, o.y_hat, o.se)
    return {"heldout_rmse": s["rmse"], "heldout_crps": s["crps"]}

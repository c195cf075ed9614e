"""Command-line interface.

Subcommands: fit, predict, bootstrap, simulate, study. Flags can also be
supplied through a flat key=value config file (--config); explicit flags
override config values. Exit codes: 0 success, 2 input error, 3
numerical failure (no usable circulant embedding).
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

from .data import (
    InputError,
    load_fit_artifact,
    read_dataset,
    read_locations,
    save_fit_artifact,
    write_dataset,
    write_predictions,
)
from .estimation import bootstrap_uq, fit, predict
from .grid import GridSpec, ThetaParams
from .likelihood import ModelData
from .mapping import LocationError, build_map
from .simulate import simulate_dataset
from .study import (
    format_study_tables,
    score_predictions,
    study_grid_scaling,
    study_irregular,
    study_settings,
)
from .toeplitz import EmbeddingError

# config keys accepted in --config files, with their converters
CONFIG_KEYS = {
    "grid": str,
    "extent": str,
    "k": int,
    "B": int,
    "seed": int,
    "init": str,
    "tol": float,
    "max_iter": int,
    "nu": float,
    "theta": str,
    "thin": float,
    "out": str,
    "covariates": str,
    "scale": float,
    "replicates": int,
    "clamp_threshold": float,
}


def _parse_config(path) -> dict:
    values = {}
    with open(path) as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise InputError(f"{path} line {line_no}: expected key=value")
            key, _, val = line.partition("=")
            key = key.strip()
            if key not in CONFIG_KEYS:
                raise InputError(f"{path} line {line_no}: unknown key {key!r}")
            try:
                values[key] = CONFIG_KEYS[key](val.strip())
            except ValueError:
                raise InputError(f"{path} line {line_no}: bad value for {key!r}")
    return values


def _parse_grid(text) -> tuple:
    try:
        n1, n2 = text.lower().split("x")
        return int(n1), int(n2)
    except ValueError:
        raise InputError(f"grid must look like N1xN2, got {text!r}")


def _parse_theta(text, nu) -> ThetaParams:
    try:
        parts = [float(v) for v in text.split(",")]
    except ValueError:
        raise InputError(f"theta must be beta,sigma2,tau2,rho; got {text!r}")
    if len(parts) != 4:
        raise InputError(f"theta must have 4 components, got {len(parts)}")
    return ThetaParams(np.array([parts[0]]), parts[1], parts[2], parts[3], nu)


def _parse_extent(text):
    """(xmin, xmax, ymin, ymax) from an --extent value; None for "auto"."""
    if not text or text == "auto":
        return None
    try:
        x0, x1, y0, y1 = (float(v) for v in text.split(","))
    except ValueError:
        raise InputError(f"extent must be xmin,xmax,ymin,ymax; got {text!r}")
    return x0, x1, y0, y1


def _grid_from_args(args, locations) -> GridSpec:
    n1, n2 = _parse_grid(args.grid)
    extent = _parse_extent(args.extent)
    if extent is not None:
        return GridSpec(n1, n2, *extent)
    # auto: observation bounding box padded by one raw spacing per side
    x0, x1 = locations[:, 0].min(), locations[:, 0].max()
    y0, y1 = locations[:, 1].min(), locations[:, 1].max()
    dx = (x1 - x0) / max(n1 - 1, 1) or 1.0
    dy = (y1 - y0) / max(n2 - 1, 1) or 1.0
    return GridSpec(n1, n2, x0 - dx, x1 + dx, y0 - dy, y1 + dy)


def _resolve_init(text, nu):
    if text == "auto":
        return "auto"
    return _parse_theta(text, nu)


def _validate_counts(args):
    if args.k < 1:
        raise InputError(f"k must be >= 1, got {args.k}")
    if args.B < 0:
        raise InputError(f"B must be >= 0, got {args.B}")


def cmd_fit(args) -> int:
    _validate_counts(args)
    covs = args.covariates.split(",") if args.covariates else None
    dataset = read_dataset(args.data, covariates=covs)
    grid = _grid_from_args(args, dataset.locations)
    amap = build_map(dataset.locations, grid)
    data = ModelData(
        y=dataset.y, X=dataset.X, amap=amap, grid=grid, nu=args.nu,
        clamp_fail_fraction=args.clamp_threshold,
    )
    res = fit(
        data,
        k=args.k,
        init=_resolve_init(args.init, args.nu),
        max_iter=args.max_iter,
        tol=args.tol,
    )
    save_fit_artifact(args.out, res, dataset)

    th = res.theta_hat
    beta_txt = ", ".join(f"{b:.6g}" for b in th.beta)
    trace = res.objective_trace
    report = "\n".join(
        [
            f"observations: {dataset.p}   grid: {grid.n1}x{grid.n2}   k: {args.k}",
            f"beta: [{beta_txt}]",
            f"sigma2: {th.sigma2:.6g}   tau2: {th.tau2:.6g}   rho: {th.rho:.6g}   nu: {th.nu:g}",
            f"converged: {res.converged} ({res.diagnostics['stop_reason']})",
            f"evaluations: {res.iterations}   accepted steps: {len(trace) - 1}",
            f"embedding failures: {res.diagnostics['embedding_failures']}",
            f"objective: {trace[0]:.4f} -> {trace[-1]:.4f}",
            f"effective k: {res.diagnostics.get('k_effective')}   "
            f"logdet clamp_count: {res.diagnostics.get('clamp_count')}",
            f"wall time: {res.diagnostics['wall_time']:.2f}s",
        ]
    )
    print(report)
    with open(str(args.out) + ".report.txt", "w") as fh:
        fh.write(report + "\n")
    return 0


def _predict_common(args, with_uncertainty) -> int:
    _validate_counts(args)
    res, dataset = load_fit_artifact(args.fit)
    if not res.converged:
        print(f"warning: fit artifact did not converge "
              f"({res.diagnostics['stop_reason']}); predicting anyway",
              file=sys.stderr)
    locations = read_locations(args.locations)
    if locations.shape[0] == 0:
        empty = (np.zeros(0),) * (4 if with_uncertainty else 1)
        write_predictions(args.out, locations, *empty)
        return 0
    q = res.theta_hat.beta.size
    if q != 1:
        raise InputError(
            "prediction with covariates requires programmatic use; the CLI "
            "supports intercept-only means"
        )
    if with_uncertainty:
        amap = build_map(dataset.locations, res.grid)
        data = ModelData(
            y=dataset.y, X=dataset.X, amap=amap, grid=res.grid, nu=res.nu,
            clamp_fail_fraction=args.clamp_threshold,
        )
        pset = bootstrap_uq(res, data, locations, B=args.B, seed=args.seed,
                            allow_unconverged=True)
        write_predictions(args.out, locations, pset.y_hat, pset.se, pset.ci_lo, pset.ci_hi)
    else:
        amap_pred = build_map(locations, res.grid)
        y_hat = predict(res, amap_pred, allow_unconverged=True)
        write_predictions(args.out, locations, y_hat)
    print(f"wrote {locations.shape[0]} predictions to {args.out}")
    return 0


def cmd_predict(args) -> int:
    return _predict_common(args, with_uncertainty=args.B > 0)


def cmd_bootstrap(args) -> int:
    if args.B < 1:
        raise InputError("bootstrap requires B >= 1")
    return _predict_common(args, with_uncertainty=True)


def cmd_simulate(args) -> int:
    n1, n2 = _parse_grid(args.grid)
    grid = GridSpec(n1, n2, *(_parse_extent(args.extent) or (0.0, 1.0, 0.0, 1.0)))
    theta = _parse_theta(args.theta, args.nu)
    sim = simulate_dataset(grid, theta, seed=args.seed, thin_fraction=args.thin)
    write_dataset(args.out, sim.dataset)
    truth_path = str(args.out) + ".truth.csv"
    coords = grid.node_coords()
    with open(truth_path, "w") as fh:
        fh.write("lon,lat,x,y\n")
        for i in range(grid.n):
            fh.write(
                f"{float(coords[i, 0])!r},{float(coords[i, 1])!r},"
                f"{float(sim.x[i])!r},{float(sim.y[i])!r}\n"
            )
    print(f"wrote {sim.dataset.p} observations to {args.out}; truth in {truth_path}")
    return 0


def cmd_study(args) -> int:
    common = dict(
        k=args.k, replicates=args.replicates, scale=args.scale, seed=args.seed,
        B=args.B, init="truth" if args.init == "truth" else _resolve_init(args.init, args.nu),
        max_iter=args.max_iter,
    )
    if args.study == "grid-scaling":
        results = study_grid_scaling(**common)
    elif args.study == "settings":
        results = study_settings(**common)
    elif args.study == "irregular":
        results = study_irregular(**common)
    elif args.study == "modis":
        return _study_modis(args)
    else:
        raise InputError(f"unknown study {args.study!r}")
    table = format_study_tables(results)
    print(table)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(table + "\n")
    return 0


def _cv_select_init(train, grid, candidates, args):
    """Pick the initial value whose cross-validated prediction error is
    smallest; folds and the candidate list are explicit options."""
    rng = np.random.default_rng(args.seed)
    folds = rng.integers(0, args.cv_folds, size=train.p)
    scores = []
    for cand in candidates:
        errs = []
        for f in range(args.cv_folds):
            tr = train.subset(folds != f)
            te = train.subset(folds == f)
            amap = build_map(tr.locations, grid)
            data = ModelData(y=tr.y, X=tr.X, amap=amap, grid=grid, nu=args.nu,
                             clamp_fail_fraction=args.clamp_threshold)
            res = fit(data, k=args.k, init=cand, max_iter=args.max_iter)
            amap_te = build_map(te.locations, grid)
            yhat = predict(res, amap_te, X_pred=te.X, allow_unconverged=True)
            errs.append(float(np.sqrt(np.mean((yhat - te.y) ** 2))))
        scores.append(float(np.mean(errs)))
    best = int(np.argmin(scores))
    print(f"cv init selection: candidate {best} (rmse {scores[best]:.4f})")
    return candidates[best]


def _study_modis(args) -> int:
    """Train/test evaluation on an archived gridded temperature split."""
    if not (args.train and args.test):
        raise InputError("study modis requires --train and --test CSV paths")
    train = read_dataset(args.train)
    test = read_dataset(args.test)
    grid = _grid_from_args(args, np.vstack([train.locations, test.locations]))
    t0 = time.perf_counter()
    if args.init_grid:
        candidates = [
            _parse_theta(part, args.nu) for part in args.init_grid.split(";") if part
        ]
        theta0 = _cv_select_init(train, grid, candidates, args)
    else:
        theta0 = _resolve_init(args.init, args.nu)
    amap = build_map(train.locations, grid)
    data = ModelData(y=train.y, X=train.X, amap=amap, grid=grid, nu=args.nu,
                     clamp_fail_fraction=args.clamp_threshold)
    res = fit(data, k=args.k, init=theta0, max_iter=args.max_iter)
    pset = bootstrap_uq(res, data, test.locations, X_pred=test.X, B=args.B,
                        seed=args.seed, allow_unconverged=True)
    minutes = (time.perf_counter() - t0) / 60.0
    s = score_predictions(test.y, pset.y_hat, pset.se)
    line = (
        f"k={args.k}  MAE={s['mae']:.3f}  RMSE={s['rmse']:.3f}  CRPS={s['crps']:.3f}"
        f"  INT={s['int']:.3f}  CVG={s['cvg']:.3f}  time={minutes:.2f}min"
    )
    print(line)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(line + "\n")
    return 0


def _add_common(p):
    p.add_argument("--config", help="key=value config file; flags override it")
    p.add_argument("--k", type=int, default=50, help="Krylov subspace order")
    p.add_argument("--B", type=int, default=20, help="bootstrap replicates")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--init", default="auto",
                   help='"auto", "truth" (studies), or beta,sigma2,tau2,rho')
    p.add_argument("--tol", type=float, default=1e-8,
                   help="relative objective-change stopping tolerance")
    p.add_argument("--max-iter", dest="max_iter", type=int, default=200)
    p.add_argument("--nu", type=float, default=0.5, help="fixed smoothness")
    p.add_argument("--clamp-threshold", dest="clamp_threshold", type=float,
                   default=0.05,
                   help="max tolerated fraction of clamped embedding eigenvalues")
    p.add_argument("--out", help="output path")


def build_parser() -> tuple:
    """The top-level parser and a dict of its subcommand parsers by name."""
    parser = argparse.ArgumentParser(
        prog="kryging",
        description="Krylov-subspace kriging for large spatial datasets",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fit", help="estimate parameters from a CSV dataset")
    _add_common(p)
    p.add_argument("--grid", default="100x100", help="latent grid N1xN2")
    p.add_argument("--extent", default="auto",
                   help='"auto" or xmin,xmax,ymin,ymax')
    p.add_argument("--covariates", help="comma-separated covariate columns")
    p.add_argument("data", help="input CSV (lon,lat,y[,covariates...])")
    p.set_defaults(func=cmd_fit, requires_out=True)

    p = sub.add_parser("predict", help="predict at new locations from a fit")
    _add_common(p)
    p.add_argument("--fit", required=True, help="fit artifact (.npz)")
    p.add_argument("--locations", required=True, help="CSV with lon,lat")
    p.set_defaults(func=cmd_predict, requires_out=True)

    p = sub.add_parser("bootstrap", help="predict with bootstrap uncertainty")
    _add_common(p)
    p.add_argument("--fit", required=True, help="fit artifact (.npz)")
    p.add_argument("--locations", required=True, help="CSV with lon,lat")
    p.set_defaults(func=cmd_bootstrap, requires_out=True)

    p = sub.add_parser("simulate", help="generate a synthetic dataset")
    _add_common(p)
    p.add_argument("--grid", default="100x100")
    p.add_argument("--extent", default="auto", help="defaults to the unit square")
    p.add_argument("--theta", default="44.49,3,0.5,0.1",
                   help="beta,sigma2,tau2,rho")
    p.add_argument("--thin", type=float, default=0.0,
                   help="fraction of lattice rows to discard at random")
    p.set_defaults(func=cmd_simulate, requires_out=True)

    p = sub.add_parser("study", help="run a desk-scale study design")
    _add_common(p)
    p.add_argument("--study", required=True,
                   choices=["grid-scaling", "settings", "irregular", "modis"])
    p.add_argument("--scale", type=float, default=1.0,
                   help="shrink factor for grid sizes")
    p.add_argument("--replicates", type=int, default=5)
    p.add_argument("--grid", default="500x300", help="latent grid for modis")
    p.add_argument("--extent", default="auto")
    p.add_argument("--train", help="training CSV (modis)")
    p.add_argument("--test", help="test CSV (modis)")
    p.add_argument("--init-grid", dest="init_grid",
                   help="semicolon-separated initial values for CV selection "
                        "(modis), each beta,sigma2,tau2,rho")
    p.add_argument("--cv-folds", dest="cv_folds", type=int, default=5)
    p.set_defaults(func=cmd_study, requires_out=False)

    return parser, sub.choices


def main(argv=None) -> int:
    parser, commands = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.config:
            # reparse with config values as defaults so flags keep precedence
            commands[args.command].set_defaults(**_parse_config(args.config))
            args = parser.parse_args(argv)
        if getattr(args, "requires_out", False) and not args.out:
            parser.error(f"{args.command} requires --out")
        return args.func(args)
    except (InputError, LocationError, FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except EmbeddingError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

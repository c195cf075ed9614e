"""Command-line interface.

Subcommands: fit, predict (point predictions), bootstrap (predictions
with bootstrap uncertainty), simulate, and study <design>, whose designs
(grid-scaling, settings, irregular, modis) are subcommands of their own.
Each takes only the flags it reads and reports any other with its own
usage. An --init is auto, truth (synthetic designs) or beta_1,...,beta_q,
sigma2,tau2,rho; study modis picks one of a ';'-separated list by
cross-validation. --extent auto is the observations' bounding box, so
gridded data lands on the nodes.
An argument @args.txt is replaced, where it stands, by the file's lines,
one argument per line (--max-iter=50); later arguments win, so flags
after it override it. A path that starts with @ is written ./@name.
Exit codes: 0 success, 2 input error, 3 numerical failure (no usable
circulant embedding).
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
    write_truth,
)
from .estimation import bootstrap_uq, fit, predict
from .grid import GridSpec, ThetaParams
from .likelihood import ModelData
from .mapping import build_map
from .simulate import simulate_dataset
from .study import format_study_tables, run_study, score_predictions
from .toeplitz import EmbeddingError

CV_FOLDS = 5  # study modis's cross-validation folds for a list of --init starts


def _parse_grid(text) -> tuple:
    try:
        n1, n2 = text.lower().split("x")
        shape = int(n1), int(n2)
    except ValueError:
        raise InputError(f"grid must look like N1xN2, got {text!r}")
    GridSpec(*shape)  # the lattice's own 2x2 minimum, before any file is read
    return shape


def _parse_theta(text, nu) -> ThetaParams:
    """beta_1,...,beta_q,sigma2,tau2,rho (q >= 1) at smoothness nu."""
    try:
        parts = [float(v) for v in text.split(",")]
    except ValueError:
        raise InputError(f"theta must be beta,sigma2,tau2,rho; got {text!r}")
    if len(parts) < 4:
        raise InputError(f"theta must have at least 4 components, got {len(parts)}")
    return ThetaParams(np.array(parts[:-3]), *parts[-3:], nu)


def _parse_init(text, nu, named=("auto",), many=False) -> list:
    """The ';'-separated starts of an --init, each a name in ``named`` or
    beta_1,...,beta_q,sigma2,tau2,rho at smoothness nu; one unless ``many``."""
    starts = [part if part in named else _parse_theta(part, nu) for part in text.split(";")]
    if len(starts) > 1 and not many:
        raise InputError(f"--init takes one start here, got {len(starts)}: "
                         "only study modis cross-validates a list")
    return starts


def _parse_extent(text):
    """(xmin, xmax, ymin, ymax) from an --extent value; None for "auto"."""
    if not text or text == "auto":
        return None
    try:
        x0, x1, y0, y1 = (float(v) for v in text.split(","))
    except ValueError:
        raise InputError(f"extent must be xmin,xmax,ymin,ymax; got {text!r}")
    return x0, x1, y0, y1


def _fit_grid(shape, extent, locations) -> GridSpec:
    n1, n2 = shape
    if extent is not None:
        return GridSpec(n1, n2, *extent)
    # auto: the observations' bounding box, an axis of zero width widened
    # by 1 on each side; gridded data then lands on the nodes
    lo, hi = locations.min(axis=0), locations.max(axis=0)
    pad = (lo == hi).astype(float)
    return GridSpec(n1, n2, lo[0] - pad[0], hi[0] + pad[0], lo[1] - pad[1], hi[1] + pad[1])


def _report(text, path=None):
    """Print a text result and, when ``path`` is given, save it there."""
    print(text)
    if path:
        with open(path, "w") as fh:
            fh.write(text + "\n")


def _check_fit_settings(args):
    """Check each of --k, --B, --nu and --max-iter the command has."""
    for name in ("k", "B", "max_iter"):
        if getattr(args, name, 1) < 1:
            raise InputError(f"{name} must be >= 1, got {getattr(args, name)}")
    nu = getattr(args, "nu", 1.0)
    if not (np.isfinite(nu) and nu > 0):
        raise InputError(f"nu must be finite and positive, got {nu}")


def cmd_fit(args) -> int:
    # every flag value is checked before the data file is opened
    _check_fit_settings(args)
    shape, extent = _parse_grid(args.grid), _parse_extent(args.extent)
    [init] = _parse_init(args.init, args.nu)
    covs = args.covariates.split(",") if args.covariates else None
    dataset = read_dataset(args.data, covariates=covs)
    grid = _fit_grid(shape, extent, dataset.locations)
    amap = build_map(dataset.locations, grid)
    data = ModelData(y=dataset.y, X=dataset.X, amap=amap, grid=grid, nu=args.nu)
    res = fit(data, k=args.k, init=init, max_iter=args.max_iter)
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
            f"largest log-scale move from init: {res.diagnostics['max_log_step']:.4g}",
            f"evaluations: {res.iterations}   accepted steps: {len(trace) - 1}",
            f"embedding failures: {res.diagnostics['embedding_failures']}",
            f"objective: {trace[0]:.4f} -> {trace[-1]:.4f}",
            f"effective k: {res.diagnostics.get('k_effective')}   "
            f"logdet clamp_count: {res.diagnostics.get('clamp_count')}",
            f"wall time: {res.diagnostics['wall_time']:.2f}s",
        ]
    )
    _report(report, str(args.out) + ".report.txt")
    return 0


def _load_for_prediction(args):
    """The fit artifact, its training data and the prediction locations."""
    res, dataset = load_fit_artifact(args.fit)
    if not res.converged:
        print(f"warning: fit artifact did not converge "
              f"({res.diagnostics['stop_reason']}); predicting anyway",
              file=sys.stderr)
    locations = read_locations(args.locations)
    if locations.shape[0] and res.theta_hat.beta.size != 1:
        raise InputError(
            "prediction with covariates requires programmatic use; the CLI "
            "supports intercept-only means"
        )
    return res, dataset, locations


def cmd_predict(args) -> int:
    res, _, locations = _load_for_prediction(args)
    y_hat = np.zeros(0)
    if locations.shape[0]:
        y_hat = predict(res, build_map(locations, res.grid))
    write_predictions(args.out, locations, y_hat)
    print(f"wrote {locations.shape[0]} predictions to {args.out}")
    return 0


def cmd_bootstrap(args) -> int:
    _check_fit_settings(args)
    res, dataset, locations = _load_for_prediction(args)
    columns = (np.zeros(0),) * 4
    if locations.shape[0]:
        amap = build_map(dataset.locations, res.grid)
        data = ModelData(y=dataset.y, X=dataset.X, amap=amap, grid=res.grid, nu=res.theta_hat.nu)
        pset = bootstrap_uq(res, data, locations, B=args.B, seed=args.seed)
        columns = (pset.y_hat, pset.se, pset.ci_lo, pset.ci_hi)
    write_predictions(args.out, locations, *columns)
    print(f"wrote {locations.shape[0]} predictions to {args.out}")
    return 0


def cmd_simulate(args) -> int:
    n1, n2 = _parse_grid(args.grid)
    grid = GridSpec(n1, n2, *(_parse_extent(args.extent) or (0.0, 1.0, 0.0, 1.0)))
    theta = _parse_theta(args.theta, args.nu)
    if theta.beta.size != 1:  # the simulated mean is an intercept
        raise InputError(f"theta must have 4 components, got {theta.beta.size + 3}")
    sim = simulate_dataset(grid, theta, seed=args.seed, thin_fraction=args.thin)
    write_dataset(args.out, sim.dataset)
    truth_path = str(args.out) + ".truth.csv"
    write_truth(truth_path, grid, sim.x, sim.y)
    print(f"wrote {sim.dataset.p} observations to {args.out}; truth in {truth_path}")
    return 0


def cmd_study(args) -> int:
    _check_fit_settings(args)
    # an explicit init's nu goes unread: fit takes nu from the data
    [init] = _parse_init(args.init, 0.5, named=("truth", "auto"))
    results = run_study(args.design, k=args.k, replicates=args.replicates, scale=args.scale,
                        seed=args.seed, B=args.B, init=init, max_iter=args.max_iter)
    _report(format_study_tables(results), args.out)
    return 0


def _cv_select_init(train, grid, candidates, args):
    """Pick the start whose cross-validated prediction error is smallest.
    Rows are dealt round-robin to CV_FOLDS folds in a seeded random order,
    so every fold holds at least one row."""
    if train.p < CV_FOLDS:
        raise InputError(f"cross-validating {len(candidates)} --init starts needs at "
                         f"least {CV_FOLDS} training rows, got {train.p}")
    folds = np.random.default_rng(args.seed).permutation(train.p) % CV_FOLDS
    scores = []
    for cand in candidates:
        errs = []
        for f in range(CV_FOLDS):
            tr = train.subset(folds != f)
            te = train.subset(folds == f)
            amap = build_map(tr.locations, grid)
            data = ModelData(y=tr.y, X=tr.X, amap=amap, grid=grid, nu=args.nu)
            res = fit(data, k=args.k, init=cand, max_iter=args.max_iter)
            amap_te = build_map(te.locations, grid)
            yhat = predict(res, amap_te, X_pred=te.X)
            errs.append(score_predictions(te.y, yhat)["rmse"])
        scores.append(float(np.mean(errs)))
    best = int(np.argmin(scores))
    print(f"cv init selection: candidate {best} (rmse {scores[best]:.4f})")
    return candidates[best]


def _study_modis(args) -> int:
    """Train/test evaluation on an archived gridded temperature split."""
    # every flag value is checked before the CSVs are opened
    _check_fit_settings(args)
    shape, extent = _parse_grid(args.grid), _parse_extent(args.extent)
    starts = _parse_init(args.init, args.nu, many=True)
    train = read_dataset(args.train)
    # the test covariates by the training columns' names, not their places
    test = read_dataset(args.test, covariates=list(train.covariate_names[1:]))
    grid = _fit_grid(shape, extent, np.vstack([train.locations, test.locations]))
    t0 = time.perf_counter()
    theta0 = _cv_select_init(train, grid, starts, args) if len(starts) > 1 else starts[0]
    amap = build_map(train.locations, grid)
    data = ModelData(y=train.y, X=train.X, amap=amap, grid=grid, nu=args.nu)
    res = fit(data, k=args.k, init=theta0, max_iter=args.max_iter)
    pset = bootstrap_uq(res, data, test.locations, X_pred=test.X, B=args.B, seed=args.seed)
    minutes = (time.perf_counter() - t0) / 60.0
    s = score_predictions(test.y, pset.y_hat, pset.se)
    _report(
        f"k={args.k}  MAE={s['mae']:.3f}  RMSE={s['rmse']:.3f}  CRPS={s['crps']:.3f}"
        f"  INT={s['int']:.3f}  CVG={s['cvg']:.3f}  time={minutes:.2f}min",
        args.out,
    )
    return 0


# flags that several subcommands read; each subparser adds only its own
_SHARED_FLAGS = {
    "--k": dict(type=int, default=50, help="Krylov subspace order"),
    "--B": dict(type=int, default=20, help="bootstrap replicates"),
    "--seed": dict(type=int, default=0),
    "--max-iter": dict(type=int, default=200),
    "--nu": dict(type=float, default=0.5, help="fixed smoothness"),
    "--fit": dict(required=True, help="fit artifact (.npz)"),
    "--locations": dict(required=True, help="CSV with lon,lat"),
    "--out": dict(required=True, help="output path"),
}


def _add_shared(p, *flags):
    for flag in flags:
        p.add_argument(flag, **_SHARED_FLAGS[flag])


def build_parser() -> tuple:
    """The top-level parser and a dict of its subcommand parsers by name,
    the study designs among them. The top-level parser expands @file
    arguments for every subcommand."""
    parser = argparse.ArgumentParser(
        prog="kryging",
        description="Krylov-subspace kriging for large spatial datasets",
        fromfile_prefix_chars="@",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fit", help="estimate parameters from a CSV dataset")
    _add_shared(p, "--k", "--max-iter", "--nu", "--out")
    p.add_argument("--init", default="auto", help='"auto" or beta_1,...,beta_q,sigma2,tau2,rho')
    p.add_argument("--grid", default="100x100", help="latent grid N1xN2")
    p.add_argument("--extent", default="auto",
                   help='"auto" or xmin,xmax,ymin,ymax')
    p.add_argument("--covariates", help="comma-separated covariate columns")
    p.add_argument("data", help="input CSV (lon,lat,y[,covariates...])")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("predict", help="point predictions at new locations from a fit")
    _add_shared(p, "--fit", "--locations", "--out")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("bootstrap", help="predict with bootstrap uncertainty")
    _add_shared(p, "--fit", "--locations", "--B", "--seed", "--out")
    p.set_defaults(func=cmd_bootstrap)

    p = sub.add_parser("simulate", help="generate a synthetic dataset")
    _add_shared(p, "--seed", "--nu", "--out")
    p.add_argument("--grid", default="100x100")
    p.add_argument("--extent", default="auto", help="defaults to the unit square")
    p.add_argument("--theta", default="44.49,3,0.5,0.1",
                   help="beta,sigma2,tau2,rho")
    p.add_argument("--thin", type=float, default=0.0,
                   help="fraction of lattice rows to discard at random")
    p.set_defaults(func=cmd_simulate)

    designs = sub.add_parser("study", help="run a desk-scale study design").add_subparsers(
        dest="design", required=True)
    for design in ("grid-scaling", "settings", "irregular"):
        p = designs.add_parser(design, help="synthetic study design (shrink with --scale)")
        _add_shared(p, "--k", "--B", "--seed", "--max-iter")
        p.add_argument("--out", help="output path for the results")
        p.add_argument("--init", default="truth", help='"truth", "auto" or beta,sigma2,tau2,rho')
        p.add_argument("--scale", type=float, default=1.0, help="shrink factor for grid sizes")
        p.add_argument("--replicates", type=int, default=5, help="replicates per setting")
        p.set_defaults(func=cmd_study)

    p = designs.add_parser("modis", help="train/test evaluation on an archived gridded split")
    _add_shared(p, "--k", "--B", "--seed", "--max-iter", "--nu")
    p.add_argument("--out", help="output path for the results")
    p.add_argument("--init", default="auto", help='"auto" or beta_1,...,beta_q,sigma2,tau2,rho, '
                   f'or a ";"-separated list of them to pick by {CV_FOLDS}-fold CV')
    p.add_argument("--grid", default="500x300", help="latent grid N1xN2")
    p.add_argument("--extent", default="auto", help='"auto" or xmin,xmax,ymin,ymax')
    p.add_argument("--train", required=True, help="training CSV")
    p.add_argument("--test", required=True, help="test CSV")
    p.set_defaults(func=_study_modis)

    return parser, {**sub.choices, **designs.choices}


def _unrecognized(argv, extra) -> list:
    """The stray arguments to report: each unknown flag with the word after
    it in ``argv`` (@files expanded), or the leftover words if no flag is
    unknown. argparse hands that word to the next free positional, which
    leaves a positional the user gave (the data path of ``fit``) among the
    leftovers instead. An @file line with a space (``--max-iter 3``) is a
    flag and its value that argparse may have taken for the data path."""
    flags = {word for word in argv if word.startswith("-") and " " in word}
    flags |= {word for word in extra if word.startswith("-")}
    if not flags:
        return extra
    stray = []
    for i, word in enumerate(argv):
        if word in flags:
            stray.append(word)
            if ("=" not in word and " " not in word and i + 1 < len(argv)
                    and not argv[i + 1].startswith("-")):
                stray.append(argv[i + 1])
    return stray


def main(argv=None) -> int:
    parser, commands = build_parser()
    argv = sys.argv[1:] if argv is None else [str(word) for word in argv]
    try:
        # argparse's own @file expansion, kept so that _unrecognized scans
        # the words the parse saw; parsing the result expands nothing more
        argv = parser._read_args_from_files(argv)
        args, extra = parser.parse_known_args(argv)
        if extra:  # reported by the parser of the command or study design
            commands[getattr(args, "design", args.command)].error(
                f"unrecognized arguments: {' '.join(_unrecognized(argv, extra))}")
        return args.func(args)
    except (OSError, ValueError) as exc:  # InputError and LocationError included
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except EmbeddingError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

"""Desk-scale studies: synthetic designs and held-out scoring.

A synthetic design (grid-scaling, settings, irregular) is a list of rows,
each a source lattice, a latent lattice, generating parameters and a
thinned share, and :func:`run_study` runs every row of one design. Each
replicate simulates a field, holds out a share of the observations,
fits on the rest, predicts the held-out responses with bootstrap
intervals, and scores RMSE, 95% coverage, and timing; parameter-recovery
errors are aggregated across replicates.

Synthetic studies initialize the optimizer at the generating parameters
by default. The profiled objective has no finite global optimum (see the
estimation module), so the estimation protocol for the synthetic designs
is explicitly local: polish from the truth and stop at the model's
resolution. Pass ``init="auto"`` to exercise the data-driven start
instead.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .estimation import bootstrap_uq, fit
from .grid import GridSpec, ThetaParams
from .likelihood import ModelData
from .mapping import build_map
from .simulate import simulate_dataset

__all__ = [
    "ReplicateResult",
    "StudyResult",
    "run_replicate",
    "run_study",
    "score_predictions",
    "SETTING_THETAS",
]

# the four parameter settings exercised at a fixed grid size:
# small range, large range, small sill, large sill
SETTING_THETAS = {
    1: (44.49, 3.0, 0.5, 0.05),
    2: (44.49, 3.0, 0.5, 0.2),
    3: (44.49, 1.5, 0.5, 0.1),
    4: (44.49, 6.0, 0.5, 0.1),
}

BASELINE_THETA = (44.49, 3.0, 0.5, 0.1)

# share of each replicate's observations held out for scoring
HOLDOUT = 0.05


@dataclass
class ReplicateResult:
    rmse: float
    coverage: float
    seconds: float
    theta_hat: ThetaParams
    converged: bool


def _mean_se(values) -> tuple:
    """Mean and standard error of the mean over replicates."""
    return float(np.mean(values)), float(np.std(values) / math.sqrt(len(values)))


@dataclass
class StudyResult:
    label: str
    replicates: list
    theta_true: ThetaParams

    def param_rmse(self) -> dict:
        def vec(th):
            return [th.beta[0], th.sigma2, th.tau2, th.rho]

        err = np.array([vec(r.theta_hat) for r in self.replicates]) - vec(self.theta_true)
        return {name: float(np.sqrt(np.mean(e**2)))
                for name, e in zip(("beta", "sigma2", "tau2", "rho"), err.T)}

    def table_row(self) -> str:
        r, rse = _mean_se([rep.rmse for rep in self.replicates])
        c, cse = _mean_se([rep.coverage for rep in self.replicates])
        medtime = np.median([rep.seconds for rep in self.replicates])
        converged = sum(rep.converged for rep in self.replicates)
        return (
            f"{self.label:<16} rmse={r:.3f} (se {rse:.3f})  "
            f"coverage={c:.3f} (se {cse:.3f})  medtime={medtime:.1f}s  "
            f"converged={converged}/{len(self.replicates)}"
        )


# Cephes' erf/erfc rational approximations, as scipy.special.ndtr runs
# them: numerators P, R, T and denominators Q, S, U, highest degree
# first. Cephes leaves the denominators' leading 1 implicit (p1evl); it
# is written out here, which rounds the same, as 1.0 * x is exact
_MAXLOG = 7.09782712893383996843e2
_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
      4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
      9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2)
_Q = (1.0, 1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
      9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
      1.65666309194161350182e3, 5.57535340817727675546e2)
_R = (5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
      6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0)
_S = (1.0, 2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1,
      1.70814450747565897222e1, 9.60896809063285878198e0, 3.36907645100081516050e0)
_T = (9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
      7.00332514112805075473e3, 5.55923013010394962768e4)
_U = (1.0, 3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
      2.26290000613890934246e4, 4.92673942608635921086e4)
_SQRT1_2 = math.sqrt(0.5)


def _polevl(x, coefs):
    """Horner's rule, as Cephes' polevl."""
    y = coefs[0]
    for c in coefs[1:]:
        y = y * x + c
    return y


def _erf(x):
    """erf for |x| < 1, the only arguments _ndtr and _erfc pass."""
    z = x * x
    return x * _polevl(z, _T) / _polevl(z, _U)


def _erfc(a):
    """erfc for a >= sqrt(1/2), the only arguments _ndtr passes."""
    if a < 1.0:
        return 1.0 - _erf(a)
    z = -a * a
    if z < -_MAXLOG:  # exp underflows, and a = inf would give 0 * inf
        return 0.0
    if a < 8.0:
        p, q = _polevl(a, _P), _polevl(a, _Q)
    else:
        p, q = _polevl(a, _R), _polevl(a, _S)
    return math.exp(z) * p / q


def _ndtr(a):
    """The standard normal cdf at the Python float ``a``: Cephes' ndtr,
    step for step, with libm exp (math.exp; np.exp rounds differently
    on some CPUs), so it equals scipy.special.ndtr bitwise."""
    if math.isnan(a):
        return math.nan
    x = a * _SQRT1_2
    z = abs(x)
    if z < _SQRT1_2:
        return 0.5 + 0.5 * _erf(x)
    y = 0.5 * _erfc(z)
    return 1.0 - y if x > 0 else y


def score_predictions(y_true, y_hat, se=None) -> dict:
    """Held-out scores: MAE, RMSE and, with standard errors available,
    CRPS, mean 95% interval score, and coverage (Gaussian intervals).

    The normal cdf in the CRPS is a port of the Cephes ``ndtr`` that
    ``scipy.special.ndtr`` runs, evaluated on Python floats with libm
    ``exp``; it matches ``ndtr`` bitwise, so scoring imports no scipy."""
    y_true = np.asarray(y_true)
    y_hat = np.asarray(y_hat)
    err = y_hat - y_true
    out = {
        "mae": float(np.mean(np.abs(err))),
        "rmse": float(np.sqrt(np.mean(err**2))),
    }
    if se is not None:
        se = np.maximum(np.asarray(se), 1e-300)
        zed = err / se
        # standard normal cdf and pdf, computed as scipy.stats.norm does
        cdf = np.array([_ndtr(v) for v in zed.ravel().tolist()]).reshape(zed.shape)
        pdf = np.exp(-zed**2 / 2.0) / np.sqrt(2 * np.pi)
        out["crps"] = float(np.mean(se * (zed * (2 * cdf - 1) + 2 * pdf - 1 / math.sqrt(math.pi))))
        lo, hi = y_hat - 1.96 * se, y_hat + 1.96 * se
        out["int"] = float(
            np.mean((hi - lo) + 40.0 * (lo - y_true) * (y_true < lo) + 40.0 * (y_true - hi) * (y_true > hi))
        )
        out["cvg"] = float(np.mean((y_true >= lo) & (y_true <= hi)))
    return out


def run_replicate(
    source_grid: GridSpec,
    latent_grid: GridSpec,
    theta_true: ThetaParams,
    k: int,
    seed: int,
    thin_fraction: float = 0.0,
    B: int = 20,
    init="truth",
    max_iter: int = 200,
) -> ReplicateResult:
    """One simulate / fit / predict / bootstrap cycle with held-out scoring."""
    sim = simulate_dataset(source_grid, theta_true, seed=seed, thin_fraction=thin_fraction)
    rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
    p = sim.dataset.p
    n_hold = max(1, round(HOLDOUT * p))
    hold = np.zeros(p, dtype=bool)
    hold[rng.choice(p, size=n_hold, replace=False)] = True

    train, test = sim.dataset.subset(~hold), sim.dataset.subset(hold)

    t0 = time.perf_counter()
    amap = build_map(train.locations, latent_grid)
    data = ModelData(y=train.y, X=train.X, amap=amap, grid=latent_grid, nu=theta_true.nu)
    theta0 = theta_true if init == "truth" else init
    res = fit(data, k=k, init=theta0, max_iter=max_iter)
    pset = bootstrap_uq(res, data, test.locations, X_pred=test.X, B=B, seed=seed + 1)
    seconds = time.perf_counter() - t0

    scores = score_predictions(test.y, pset.y_hat, pset.se)
    return ReplicateResult(
        rmse=scores["rmse"],
        coverage=scores["cvg"],
        seconds=seconds,
        theta_hat=res.theta_hat,
        converged=res.converged,
    )


def _configs(design: str, scale: float) -> list:
    """The rows of one synthetic design: (label, source side, latent
    side, generating theta values, thinned share), each side shrunk by
    ``scale`` and kept at 16 nodes or more."""
    def side(size):
        return max(16, round(size * scale))

    if design == "grid-scaling":  # co-located, increasing sizes
        return [(f"{side(s)}x{side(s)}", side(s), side(s), BASELINE_THETA, 0.0)
                for s in (100, 200, 300, 400)]
    if design == "settings":  # one co-located size, four parameter settings
        return [(f"setting-{s}", side(200), side(200), vals, 0.0)
                for s, vals in SETTING_THETAS.items()]
    if design == "irregular":  # a thinned source on coarser latent grids
        return [(f"latent {side(s)}x{side(s)}", side(1000), side(s), BASELINE_THETA, 0.96)
                for s in (200, 300, 400)]
    raise ValueError(f"unknown study design {design!r}")


def run_study(design: str, k: int = 50, replicates: int = 5, scale: float = 1.0,
              seed: int = 0, **kw) -> list:
    """Run each row of a synthetic design ("grid-scaling", "settings" or
    "irregular") ``replicates`` times on the unit square; ``kw`` goes to
    :func:`run_replicate`. One StudyResult per row."""
    if not (math.isfinite(scale) and scale > 0):
        raise ValueError(f"scale must be finite and positive, got {scale}")
    rows = _configs(design, scale)
    if replicates < 1:
        raise ValueError(f"replicates must be >= 1, got {replicates}")
    out = []
    for label, source, latent, vals, thin in rows:
        theta = ThetaParams(np.array([vals[0]]), *vals[1:])
        src, lat = (GridSpec(m, m, 0.0, 1.0, 0.0, 1.0) for m in (source, latent))
        reps = [
            run_replicate(src, lat, theta, k, seed=seed + 1000 * r, thin_fraction=thin, **kw)
            for r in range(replicates)
        ]
        out.append(StudyResult(label=label, replicates=reps, theta_true=theta))
    return out


def format_study_tables(results: list) -> str:
    """Human-readable prediction and parameter-recovery tables."""
    lines = ["prediction (held-out):"]
    for res in results:
        lines.append("  " + res.table_row())
    lines.append("parameter recovery RMSE:")
    for res in results:
        pr = res.param_rmse()
        lines.append(
            f"  {res.label:<16} "
            + "  ".join(f"{name}={v:.3f}" for name, v in pr.items())
        )
    return "\n".join(lines)

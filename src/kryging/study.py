"""Desk-scale study runners: synthetic designs and held-out scoring.

Each replicate simulates a field, holds out a share of the observations,
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
from dataclasses import dataclass, field

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
    "study_grid_scaling",
    "study_settings",
    "study_irregular",
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


@dataclass
class ReplicateResult:
    rmse: float
    coverage: float
    seconds: float
    theta_hat: ThetaParams
    converged: bool


@dataclass
class StudyResult:
    label: str
    replicates: list
    theta_true: ThetaParams

    def rmse(self) -> tuple:
        vals = [r.rmse for r in self.replicates]
        return float(np.mean(vals)), float(np.std(vals) / math.sqrt(len(vals)))

    def coverage(self) -> tuple:
        vals = [r.coverage for r in self.replicates]
        return float(np.mean(vals)), float(np.std(vals) / math.sqrt(len(vals)))

    def median_time(self) -> float:
        return float(np.median([r.seconds for r in self.replicates]))

    def param_rmse(self) -> dict:
        t = self.theta_true
        out = {}
        for name, true in (
            ("beta", t.beta[0]),
            ("sigma2", t.sigma2),
            ("tau2", t.tau2),
            ("rho", t.rho),
        ):
            ests = np.array(
                [
                    r.theta_hat.beta[0] if name == "beta" else getattr(r.theta_hat, name)
                    for r in self.replicates
                ]
            )
            out[name] = float(np.sqrt(np.mean((ests - true) ** 2)))
        return out

    def table_row(self) -> str:
        r, rse = self.rmse()
        c, cse = self.coverage()
        return (
            f"{self.label:<16} rmse={r:.3f} (se {rse:.3f})  "
            f"coverage={c:.3f} (se {cse:.3f})  medtime={self.median_time():.1f}s"
        )


def score_predictions(y_true, y_hat, se=None) -> dict:
    """Held-out scores: MAE, RMSE and, with standard errors available,
    CRPS, mean 95% interval score, and coverage (Gaussian intervals)."""
    y_true = np.asarray(y_true)
    y_hat = np.asarray(y_hat)
    err = y_hat - y_true
    out = {
        "mae": float(np.mean(np.abs(err))),
        "rmse": float(np.sqrt(np.mean(err**2))),
    }
    if se is not None:
        from scipy.special import ndtr  # loaded only when scoring intervals

        se = np.maximum(np.asarray(se), 1e-300)
        zed = err / se
        # standard normal cdf and pdf, computed as scipy.stats.norm does
        cdf = ndtr(zed)
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
    holdout_frac: float = 0.05,
    thin_fraction: float = 0.0,
    B: int = 20,
    init="truth",
    max_iter: int = 200,
) -> ReplicateResult:
    """One simulate / fit / predict / bootstrap cycle with held-out scoring."""
    sim = simulate_dataset(source_grid, theta_true, seed=seed, thin_fraction=thin_fraction)
    rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
    p = sim.dataset.p
    n_hold = max(1, round(holdout_frac * p))
    hold = np.zeros(p, dtype=bool)
    hold[rng.choice(p, size=n_hold, replace=False)] = True

    train, test = sim.dataset.subset(~hold), sim.dataset.subset(hold)

    t0 = time.perf_counter()
    amap = build_map(train.locations, latent_grid)
    data = ModelData(y=train.y, X=train.X, amap=amap, grid=latent_grid, nu=theta_true.nu)
    theta0 = theta_true if init == "truth" else init
    res = fit(data, k=k, init=theta0, max_iter=max_iter)
    pset = bootstrap_uq(
        res, data, test.locations, X_pred=test.X, B=B, seed=seed + 1,
        allow_unconverged=True,
    )
    seconds = time.perf_counter() - t0

    scores = score_predictions(test.y, pset.y_hat, pset.se)
    return ReplicateResult(
        rmse=scores["rmse"],
        coverage=scores["cvg"],
        seconds=seconds,
        theta_hat=res.theta_hat,
        converged=res.converged,
    )


def _unit_grid(size: int) -> GridSpec:
    return GridSpec(size, size, 0.0, 1.0, 0.0, 1.0)


def _scaled(size: int, scale: float) -> int:
    return max(16, round(size * scale))


def _run_config(label, source_grid, latent_grid, theta, k, replicates, seed, **kw):
    reps = [
        run_replicate(source_grid, latent_grid, theta, k, seed=seed + 1000 * r, **kw)
        for r in range(replicates)
    ]
    return StudyResult(label=label, replicates=reps, theta_true=theta)


def study_grid_scaling(
    k: int = 50, replicates: int = 5, scale: float = 1.0, seed: int = 0,
    sizes=(100, 200, 300, 400), **kw,
) -> list:
    """Co-located design at increasing grid sizes, baseline parameters."""
    theta = ThetaParams(np.array([BASELINE_THETA[0]]), *BASELINE_THETA[1:])
    out = []
    for size in sizes:
        m = _scaled(size, scale)
        g = _unit_grid(m)
        out.append(_run_config(f"{m}x{m}", g, g, theta, k, replicates, seed, **kw))
    return out


def study_settings(
    k: int = 50, replicates: int = 5, scale: float = 1.0, seed: int = 0,
    size: int = 200, settings=(1, 2, 3, 4), **kw,
) -> list:
    """Fixed grid size, four covariance-parameter settings."""
    m = _scaled(size, scale)
    g = _unit_grid(m)
    out = []
    for s in settings:
        vals = SETTING_THETAS[s]
        theta = ThetaParams(np.array([vals[0]]), *vals[1:])
        out.append(_run_config(f"setting-{s}", g, g, theta, k, replicates, seed, **kw))
    return out


def study_irregular(
    k: int = 50, replicates: int = 5, scale: float = 1.0, seed: int = 0,
    source_size: int = 1000, thin_fraction: float = 0.96,
    latent_sizes=(200, 300, 400), **kw,
) -> list:
    """Thinned irregular observations modeled on coarser latent grids."""
    theta = ThetaParams(np.array([BASELINE_THETA[0]]), *BASELINE_THETA[1:])
    src = _unit_grid(_scaled(source_size, scale))
    out = []
    for size in latent_sizes:
        m = _scaled(size, scale)
        out.append(
            _run_config(
                f"latent {m}x{m}", src, _unit_grid(m), theta, k, replicates, seed,
                thin_fraction=thin_fraction, **kw,
            )
        )
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

"""Model fitting, prediction, and parametric-bootstrap uncertainty.

Fitting minimizes the negative approximate profile log-likelihood with a
trust-region iteration whose model Hessian is the rank-one gradient outer
product plus a small ridge. The gradient is an eigenvector of that model,
so the exact subproblem step is closed-form: the Newton step along the
negative gradient, shortened to the trust radius, then clipped to the
feasibility box. The fit starts from ``"auto"`` (:func:`auto_init`) or a
given ``ThetaParams`` and stops at parameter resolution, on a small
objective change, or once the objective is linear along the gradient at
the step scale. Embedding failures at trial parameters reject the step
and shrink the radius.

Prediction applies the fitted mean and the observation mapping at new
locations. Uncertainty comes from a parametric bootstrap: simulate fields
and noise from the fitted model, re-estimate each replicate with the
parameters held fixed, and average squared prediction errors. The
replicates run concurrently, one thread per usable CPU (the calling
thread among them), and their squared errors are summed in replicate
order, so the result is bitwise that of a serial loop. A replicate makes
no BLAS call (see :mod:`kryging.gengk`), so replicates do not contend for
the BLAS thread pool at any k.
"""

from __future__ import annotations

import math
import operator
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .gengk import _blas_free, gengk_factorize, solve
from .grid import GridSpec, ThetaParams
from .likelihood import ModelData, evaluate_objective
from .mapping import SparseMap, build_map
from .toeplitz import BttbOperator, EmbeddingError

__all__ = ["FitResult", "PredictionSet", "fit", "predict", "bootstrap_uq", "auto_init"]


@dataclass
class FitResult:
    """Outcome of :func:`fit`: parameter estimates, the latent estimate at
    those parameters, and optimizer diagnostics."""

    theta_hat: ThetaParams
    x_hat: np.ndarray
    objective_trace: list
    converged: bool
    iterations: int
    grid: GridSpec
    k: int
    diagnostics: dict = field(default_factory=dict)


@dataclass
class PredictionSet:
    """Pointwise predictions with bootstrap standard errors and 95% bounds."""

    y_hat: np.ndarray
    se: np.ndarray
    ci_lo: np.ndarray
    ci_hi: np.ndarray


def auto_init(data: ModelData) -> ThetaParams:
    """Deterministic starting point: least-squares mean coefficients, the
    residual variance split evenly between sill and nugget, and a range
    of 10% of the domain diagonal."""
    coef, *_ = np.linalg.lstsq(data.X, data.y, rcond=None)
    resid = data.y - data.X @ coef
    v = float(resid.var())
    if v <= 0:
        v = 1.0
    g = data.grid
    rho0 = 0.1 * float(np.hypot(g.x_max - g.x_min, g.y_max - g.y_min))
    return ThetaParams(beta=coef, sigma2=v / 2, tau2=v / 2, rho=rho0, nu=data.nu)


def _trust_step(g, radius, vec, lo, hi):
    """Trust-region step from ``vec`` and the reduction its model predicts.

    The model Hessian is H = g g' + ridge I, and g is an eigenvector of
    H, so the exact minimizer of g's + s'Hs/2 over ||s|| <= radius is the
    Newton step -g / (|g|^2 + ridge), shortened to the radius when longer.
    The step is then clipped to the box [lo, hi]; clipping keeps every
    component's sign, so the predicted reduction is never negative and
    is zero only when the whole step is clipped away.
    """
    if not np.all(np.isfinite(g)):
        raise ValueError("gradient must be finite")
    gg = float(g @ g)
    ridge = 1e-6 * (1.0 + gg)
    t = 1.0 / (gg + ridge)
    if t * math.sqrt(gg) > radius:
        t = radius / math.sqrt(gg)
    s = np.clip(vec - t * g, lo, hi) - vec
    a = -float(g @ s)
    return s, a - 0.5 * (a * a + ridge * float(s @ s))


def _feasible_box(data: ModelData, theta0: ThetaParams):
    """Bounds in packed optimizer space keeping iterates statistically
    sensible.

    The profiled objective is unbounded along sigma2 -> 0 and rho -> inf
    (the log-determinant collapse has no counterweight once the latent
    state is profiled out), so the estimate is the local stationary point
    reached from the initialization; the box stops runaways toward those
    degenerate boundaries. Mean coefficients are unconstrained.
    """
    g = data.grid
    q = theta0.beta.size
    vscale = math.log(max(theta0.sigma2 + theta0.tau2, np.finfo(float).tiny))
    diag = float(np.hypot(g.x_max - g.x_min, g.y_max - g.y_min))
    spacing = min(g.dx1, g.dx2)
    lo = np.full(q + 3, -np.inf)
    hi = np.full(q + 3, np.inf)
    lo[q] = lo[q + 1] = vscale - 14.0
    hi[q] = hi[q + 1] = vscale + 6.0
    lo[q + 2] = math.log(0.1 * spacing)
    hi[q + 2] = math.log(3.0 * diag)
    return lo, hi


def fit(
    data: ModelData,
    k: int = 50,
    init: ThetaParams | str = "auto",
    max_iter: int = 200,
) -> FitResult:
    """Estimate the model parameters by approximate profile maximum
    likelihood.

    Minimizes the negative objective from the starting point by a
    trust-region iteration. The model Hessian is the rank-one gradient
    outer product plus a small ridge, rebuilt at every iterate, so each
    step is taken in closed form (:func:`_trust_step`): the Newton step
    along the negative gradient, shortened to the trust radius and
    clipped to the feasibility box. The profiled objective is unbounded
    toward sigma2 -> 0 and rho -> inf (see :func:`_feasible_box`), so the
    estimator is defined by this conservative local iteration: short
    steps from the initialization that settle at a nearby stationary
    point when one exists and otherwise stop before drifting toward a
    degenerate boundary. Swapping in an aggressive quasi-Newton model
    empirically races to those boundaries and destroys the estimates.

    Three tests end the iteration, and ``diagnostics["stop_reason"]``
    names the one that fired: the trust radius falls below parameter
    resolution (1e-6 in log space); an accepted step changes the
    objective by less than 1e-8 relative; or an accepted step gains
    more than 1.75 times the model's predicted reduction. The last means
    the objective's curvature along the gradient is under a quarter of
    the model's, so it is linear at the step scale and no stationary
    point is within reach; each further step would gain about one unit
    of log-likelihood and move the estimate by 1/|g| toward the boundary.
    Only the first two are convergence; the third, like the evaluation
    cap, leaves ``converged`` False. ``diagnostics["max_log_step"]`` is
    the largest move of log sigma2, tau2 or rho from the clipped start.

    A trial point whose embedding fails (:class:`EmbeddingError`) counts
    as an evaluation and a rejected step;
    ``diagnostics["embedding_failures"]`` counts them.

    Parameters
    ----------
    data : ModelData
        Observations, covariates, observation mapping, and grid.
    k : int
        Krylov subspace order used throughout (default 50); an integer.
    init : "auto" or ThetaParams
        Starting point: :func:`auto_init`'s heuristic for ``"auto"``, else
        the given parameters, with one mean coefficient per column of X
        (``ValueError`` otherwise). Any other value raises ``TypeError``.
    max_iter : int
        Cap on objective evaluations, an integer >= 1.

    Returns
    -------
    FitResult
        Parameter estimates, latent estimate, trace, and diagnostics.
        The objective trace is non-increasing by construction.
    """
    if operator.index(max_iter) < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")
    k = operator.index(k)
    if isinstance(init, ThetaParams):
        theta0 = init
    elif isinstance(init, str) and init == "auto":
        theta0 = auto_init(data)
    else:
        raise TypeError(f'init must be "auto" or a ThetaParams, got {init!r}')
    if theta0.beta.size != data.X.shape[1]:
        raise ValueError(f"init gives {theta0.beta.size} mean coefficient(s) "
                         f"for {data.X.shape[1]} column(s) of X")

    t0 = time.perf_counter()
    lo, hi = _feasible_box(data, theta0)
    vec = start = np.clip(theta0.to_optimizer_vector(), lo, hi)
    state = evaluate_objective(
        data, ThetaParams.from_optimizer_vector(vec, nu=data.nu), k
    )
    trace = [state.value]
    radius = 1.0
    n_eval = 1
    converged = False
    note = "max_iter reached"
    consecutive_failures = 0
    embedding_failures = 0

    while n_eval < max_iter:
        g = state.grad
        if radius < 1e-6:
            # no step longer than parameter resolution (in log space)
            # improves the objective: stationary at that resolution
            converged, note = True, "trust radius below parameter resolution"
            break

        s, predicted = _trust_step(g, radius, vec, lo, hi)
        if predicted <= 0:
            # the feasibility box clipped the whole step away
            radius /= 4.0
            continue

        try:
            trial_theta = ThetaParams.from_optimizer_vector(vec + s, nu=data.nu)
            trial = evaluate_objective(data, trial_theta, k)
            n_eval += 1
            consecutive_failures = 0
        except EmbeddingError:
            n_eval += 1
            embedding_failures += 1
            consecutive_failures += 1
            if consecutive_failures >= 10:
                note = "persistent embedding failure"
                break
            radius /= 4.0
            continue

        actual = state.value - trial.value
        ratio = actual / predicted
        if ratio < 0.25:
            radius /= 4.0
        elif ratio > 0.75 and np.linalg.norm(s) >= 0.99 * radius:
            radius = min(2.0 * radius, 1.0)

        if actual > 0:
            vec = vec + s
            state = trial
            trace.append(state.value)
            if abs(trace[-2] - trace[-1]) <= 1e-8 * (1.0 + abs(trace[-1])):
                converged, note = True, "objective change below tolerance"
                break
            if ratio > 1.75:
                note = "objective linear along the gradient: no stationary point within reach"
                break

    at_bound = bool(np.any(np.isclose(vec, lo)) or np.any(np.isclose(vec, hi)))
    if at_bound:
        converged = False
        note += "; estimate at feasibility bound"
    wall = time.perf_counter() - t0

    return FitResult(
        theta_hat=state.theta,
        x_hat=state.solution.x_star,
        objective_trace=trace,
        converged=converged,
        iterations=n_eval,
        grid=data.grid,
        k=k,
        diagnostics={
            "stop_reason": note,
            "embedding_failures": embedding_failures,
            "gradient": state.grad,
            "max_log_step": float(np.abs(vec[-3:] - start[-3:]).max()),
            "wall_time": wall,
            **state.diagnostics,
        },
    )


def predict(
    fitres: FitResult,
    amap_pred: SparseMap,
    X_pred: np.ndarray | None = None,
) -> np.ndarray:
    """Predicted responses X_pred beta_hat + A_pred x_hat.

    ``X_pred`` defaults to an intercept column when the fitted mean has a
    single coefficient. Any fit predicts, converged or not; its verdict
    is reported by :func:`fit`, never checked here.
    """
    q = fitres.theta_hat.beta.size
    if X_pred is None:
        if q != 1:
            raise ValueError("X_pred required when the mean has covariates")
        X_pred = np.ones((amap_pred.p, 1))
    X_pred = np.atleast_2d(np.asarray(X_pred, dtype=float))
    if X_pred.shape != (amap_pred.p, q):
        raise ValueError(f"X_pred must be ({amap_pred.p}, {q}), got {X_pred.shape}")
    return X_pred @ fitres.theta_hat.beta + amap_pred.apply(fitres.x_hat)


def _rekryge(amap, op, bsim, theta, k):
    """Latent re-estimate for one bootstrap replicate with theta known.
    Replicates run concurrently, so its factorization calls no BLAS."""
    with _blas_free():
        fact = gengk_factorize(amap, op, bsim, theta.tau2, k)
    return solve(fact, theta.sigma2, op).x_star


def _workers(count: int) -> int:
    """Threads for ``count`` independent tasks: one per CPU this process
    may use (``os.sched_getaffinity`` exists on Linux only)."""
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return max(1, min(count, cpus))


def _sum_in_order(task, count: int, total: np.ndarray) -> np.ndarray:
    """Add ``task(0) + ... + task(count - 1)`` to ``total`` in index order.

    The tasks run on :func:`_workers` threads, the calling thread among
    them, each taking the next index as it frees up. A result that
    finishes before its predecessors is held until they are added, so the
    sum rounds exactly as a serial loop's. A failing task stops further
    tasks from starting, and its exception is raised once the running
    ones end.

    The calling thread works rather than waits because each extra thread
    costs memory. A plain ``ThreadPoolExecutor(workers)`` with in-order
    ``result()`` calls gave bitwise the same sums with bootstrap times
    within noise, but on a 2-CPU Linux machine it raised the benchmark's
    peak RSS by about a fifth (106 to 127 MB on the co-located 200 x 200
    workload, 122 to 146 MB on the irregular 300 x 300 one). The extra
    thread's malloc arena is the likely cause: under glibc's
    ``MALLOC_ARENA_MAX=1`` both designs peaked at about 98 MB.
    """
    lock = threading.Lock()
    todo = iter(range(count))
    ready = {}
    added = 0

    def work():
        nonlocal added
        while True:
            with lock:
                i = next(todo, None)
            if i is None:
                return
            try:
                part = task(i)
            except BaseException:
                with lock:
                    for _ in todo:  # drain, so no other thread starts a task
                        pass
                raise
            with lock:
                ready[i] = part
                while added in ready:
                    np.add(total, ready.pop(added), out=total)
                    added += 1

    workers = _workers(count)
    if workers == 1:
        work()
        return total
    with ThreadPoolExecutor(workers - 1, thread_name_prefix="kryging") as pool:
        helpers = [pool.submit(work) for _ in range(workers - 1)]
        try:
            work()
        finally:
            for helper in helpers:
                helper.result()
    return total


def bootstrap_uq(
    fitres: FitResult,
    data: ModelData,
    locations: np.ndarray,
    X_pred: np.ndarray | None = None,
    B: int = 20,
    seed: int = 0,
    # no effect: kept for perfbench/workloads.py, which passes it; ROADMAP item 12 deletes it
    allow_unconverged: bool = False,
) -> PredictionSet:
    """Parametric-bootstrap prediction standard errors (theta held fixed).

    For each of B replicates: draw a latent field from the fitted
    covariance, add fitted-variance noise at the training locations,
    re-estimate the field with the fitted parameters known, and record
    the resulting prediction's expected squared error at each target
    location: e^2 + tau2, with e the latent field's error there, is the
    exact mean of (e + eps)^2 over the target's own noise eps (Casella
    & Robert 1996). The pointwise mean over replicates is the bootstrap
    variance.

    Replicates run concurrently on up to one thread per usable CPU,
    the calling thread included (B = 1 runs inline), and share one
    covariance operator. Each replicate draws from its own child stream
    of ``seed``, and the squared errors are summed in replicate order, so
    the result is deterministic given ``seed`` and bitwise equal to a
    serial loop's, whatever the thread count or finishing order.

    ``data`` must hold the fit's grid and smoothness; otherwise the draws
    would come from another model than the one that predicts, and a
    ``ValueError`` is raised. An untrustworthy embedding at theta_hat
    makes the first draw raise :class:`EmbeddingError`. Any fit is used,
    converged or not.
    """
    if B < 1:
        raise ValueError("B must be >= 1")
    if data.grid != fitres.grid or data.nu != fitres.theta_hat.nu:
        raise ValueError(
            "data does not match the fit: bootstrap needs the fit's grid and nu"
        )
    theta = fitres.theta_hat
    amap_pred = build_map(locations, fitres.grid)
    y_hat = predict(fitres, amap_pred, X_pred)

    op = BttbOperator.from_matern(data.grid, theta.rho, data.nu)
    sigma = np.sqrt(theta.sigma2)
    tau = np.sqrt(theta.tau2)
    streams = np.random.SeedSequence(seed).spawn(B)

    def replicate(i):
        rng = np.random.default_rng(streams[i])
        x_b = sigma * op.sample(rng)
        noise_train = tau * rng.standard_normal(data.p)
        bsim = data.amap.apply(x_b) + noise_train
        x_hat_b = _rekryge(data.amap, op, bsim, theta, fitres.k)
        diff = amap_pred.apply(x_b - x_hat_b)
        return diff * diff + theta.tau2

    sq = _sum_in_order(replicate, B, np.zeros(amap_pred.p))
    se = np.sqrt(sq / B)
    return PredictionSet(
        y_hat=y_hat,
        se=se,
        ci_lo=y_hat - 1.96 * se,
        ci_hi=y_hat + 1.96 * se,
    )

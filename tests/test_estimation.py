import dataclasses
import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import kryging
from kryging import estimation
from kryging.estimation import FitResult, _trust_step, auto_init, bootstrap_uq, fit, predict
from kryging.gengk import KrygingSolution, gengk_factorize, solve
from kryging.grid import GridSpec, ThetaParams
from kryging.likelihood import ModelData, ObjectiveState, evaluate_objective
from kryging.mapping import build_map
from kryging.simulate import simulate_dataset
from kryging.toeplitz import BttbOperator, EmbeddingError

from oracles import dense_corr, identity_map, selection_map


def simulated_data(m, theta, seed):
    g = GridSpec(m, m)
    sim = simulate_dataset(g, theta, seed=seed)
    data = ModelData(
        y=sim.y, X=np.ones((g.n, 1)), amap=identity_map(g.n), grid=g,
        nu=theta.nu,
    )
    return g, sim, data


TRUTH = ThetaParams(beta=np.array([5.0]), sigma2=1.0, tau2=0.25, rho=0.3)


def manual_fit(grid, theta, x_hat, k=10):
    return FitResult(
        theta_hat=theta,
        x_hat=x_hat,
        objective_trace=[0.0],
        converged=True,
        iterations=1,
        grid=grid,
        k=k,
    )


class TestFit:
    def test_truth_init_stays_local_and_trace_monotone(self):
        g, sim, data = simulated_data(10, TRUTH, seed=2)
        res = fit(data, k=20, init=TRUTH, max_iter=60)
        trace = np.asarray(res.objective_trace)
        assert np.all(np.diff(trace) <= 0)
        th = res.theta_hat
        assert abs(np.log(th.sigma2 / TRUTH.sigma2)) < 1.5
        assert abs(np.log(th.rho / TRUTH.rho)) < 1.5
        assert th.sigma2 > 0 and th.tau2 > 0 and th.rho > 0
        assert res.iterations <= 60

    def test_stops_once_objective_is_linear_along_gradient(self):
        # far from a stationary point the model's step gains about twice
        # its predicted reduction; the fit stops there instead of walking
        # one unit of log-likelihood per evaluation toward the boundary,
        # and says it did not converge
        g, sim, data = simulated_data(10, TRUTH, seed=2)
        for init in (TRUTH, "auto"):
            res = fit(data, k=20, init=init, max_iter=60)
            assert res.diagnostics["stop_reason"] == (
                "objective linear along the gradient: no stationary point within reach")
            assert not res.converged
            assert (res.iterations, len(res.objective_trace)) == (2, 2)
            assert res.diagnostics["max_log_step"] > 0

    def test_reproducible(self):
        g, sim, data = simulated_data(8, TRUTH, seed=3)
        r1 = fit(data, k=10, init=TRUTH, max_iter=30)
        r2 = fit(data, k=10, init=TRUTH, max_iter=30)
        assert r1.theta_hat.sigma2 == r2.theta_hat.sigma2
        assert r1.theta_hat.rho == r2.theta_hat.rho
        np.testing.assert_array_equal(r1.x_hat, r2.x_hat)

    def test_same_fit_under_one_and_two_blas_threads(self):
        # the thread count changes OpenBLAS's summation order; the fit
        # must take the same steps and the objective may move only at
        # the level of the smoothness bound in test_likelihood
        code = (
            "import json, numpy as np\n"
            "from kryging.estimation import fit\n"
            "from kryging.grid import GridSpec, ThetaParams\n"
            "from kryging.likelihood import ModelData\n"
            "from kryging.mapping import build_map\n"
            "from kryging.simulate import simulate_dataset\n"
            "theta = ThetaParams(np.array([44.49]), 3.0, 0.5, 0.1)\n"
            "g = GridSpec(200, 200)\n"
            "ds = simulate_dataset(g, theta, seed=7).dataset\n"
            "data = ModelData(y=ds.y, X=ds.X, amap=build_map(ds.locations, g), grid=g)\n"
            "r = fit(data, k=50, init=theta, max_iter=4)\n"
            "print(json.dumps([r.iterations, r.converged, r.diagnostics['stop_reason'],\n"
            "    r.objective_trace, r.theta_hat.to_optimizer_vector().tolist()]))\n"
        )
        src = str(Path(kryging.__file__).resolve().parents[1])
        runs = []
        for threads in ("1", "2"):
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads,
                   "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
            proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                                  text=True, env=env, check=True)
            runs.append(json.loads(proc.stdout))
        (n1, c1, stop1, trace1, vec1), (n2, c2, stop2, trace2, vec2) = runs
        assert (n1, c1, stop1) == (n2, c2, stop2)
        np.testing.assert_allclose(trace2, trace1, rtol=1e-8)
        np.testing.assert_allclose(vec2, vec1, rtol=1e-12)

    @pytest.mark.parametrize("source, latent, thin", [(40, 40, 0.0), (60, 30, 0.9)])
    def test_same_fit_under_permuted_observations(self, source, latent, thin):
        # permuting the rows permutes y and the rows of A together, which
        # leaves the objective unchanged up to summation order
        sim = simulate_dataset(GridSpec(source, source), TRUTH, seed=5, thin_fraction=thin)
        grid = GridSpec(latent, latent)
        ds = sim.dataset
        perm = np.random.default_rng(11).permutation(ds.p)

        def fit_rows(rows, init):
            sub = ds.subset(rows)
            data = ModelData(y=sub.y, X=sub.X, amap=build_map(sub.locations, grid),
                             grid=grid, nu=TRUTH.nu)
            res = fit(data, k=30, init=init)
            th = res.theta_hat
            vec = np.concatenate([th.beta, [th.sigma2, th.tau2, th.rho]])
            return (res.converged, res.diagnostics["stop_reason"], res.iterations), vec

        for init in (TRUTH, "auto"):
            verdict, vec = fit_rows(np.arange(ds.p), init)
            verdict_perm, vec_perm = fit_rows(perm, init)
            assert verdict_perm == verdict
            np.testing.assert_allclose(vec_perm, vec, rtol=1e-6)

    def test_embedding_failure_at_trial_point_is_counted(self, monkeypatch):
        g, sim, data = simulated_data(10, TRUTH, seed=2)
        evaluate = kryging.estimation.evaluate_objective
        calls = []

        def fail_first_trial(*args, **kwargs):
            calls.append(args)
            if len(calls) == 2:
                raise EmbeddingError("injected")
            return evaluate(*args, **kwargs)

        monkeypatch.setattr(kryging.estimation, "evaluate_objective", fail_first_trial)
        res = fit(data, k=20, init=TRUTH, max_iter=60)
        assert res.diagnostics["embedding_failures"] == 1
        assert res.iterations == len(calls) > 2
        assert len(res.objective_trace) >= 2

    def test_duplicate_readings_that_cancel_fit(self):
        # two readings at each of two nodes; the least-squares mean is 0
        # to rounding, so A' b vanishes to rounding at every iterate and
        # each Golub-Kahan run stops at k = 0
        g = GridSpec(3, 3)
        locs = np.array([[0.5, 0.5], [0.5, 0.5], [0.0, 0.0], [0.0, 0.0]])
        y = np.array([1.0, -1.0, 2.0, -2.0])
        data = ModelData(y=y, X=np.ones((4, 1)), amap=build_map(locs, g), grid=g)
        res = fit(data)
        assert res.diagnostics["k_effective"] == 0
        np.testing.assert_array_equal(res.x_hat, np.zeros(g.n))
        assert abs(res.theta_hat.beta[0]) < 1e-15

    def test_auto_init_heuristic(self):
        g, sim, data = simulated_data(8, TRUTH, seed=4)
        theta0 = auto_init(data)
        v = (sim.y - sim.y.mean()).var()
        assert theta0.sigma2 == pytest.approx(v / 2, rel=0.1)
        assert theta0.tau2 == pytest.approx(theta0.sigma2)
        assert theta0.rho == pytest.approx(0.1 * np.sqrt(2.0), rel=1e-6)
        assert theta0.beta[0] == pytest.approx(sim.y.mean(), rel=1e-6)

    def test_init_other_than_auto_or_theta_rejected(self):
        g, sim, data = simulated_data(6, TRUTH, seed=5)
        for init in ([TRUTH], "truth", None):
            with pytest.raises(TypeError, match="init"):
                fit(data, k=5, init=init, max_iter=2)

    def test_init_with_another_number_of_mean_coefficients_rejected(self, monkeypatch):
        g, sim, data = simulated_data(6, TRUTH, seed=5)
        data = dataclasses.replace(data, X=np.column_stack([data.X, np.arange(g.n)]))
        calls = []
        monkeypatch.setattr(estimation, "evaluate_objective",
                            lambda *args: calls.append(args) or evaluate_objective(*args))
        with pytest.raises(ValueError, match=r"init gives 1 mean coefficient\(s\) "
                                             r"for 2 column\(s\) of X"):
            fit(data, k=5, init=TRUTH, max_iter=2)
        assert calls == []

    @pytest.mark.parametrize("settings", [{"max_iter": 2.5}, {"max_iter": 2.0}, {"k": 5.0},
                                          {"k": 2.5}])
    def test_non_integer_counts_rejected(self, monkeypatch, settings):
        g, sim, data = simulated_data(6, TRUTH, seed=5)
        calls = []
        monkeypatch.setattr(estimation, "evaluate_objective",
                            lambda *args: calls.append(args) or evaluate_objective(*args))
        with pytest.raises(TypeError):
            fit(data, init=TRUTH, **{"k": 5, "max_iter": 2, **settings})
        assert calls == []

    def test_numpy_integer_counts_accepted(self):
        g, sim, data = simulated_data(6, TRUTH, seed=5)
        res = fit(data, k=np.int64(5), init=TRUTH, max_iter=np.int64(2))
        assert type(res.k) is int and res.iterations <= 2

    @pytest.mark.parametrize("settings,message", [
        ({"max_iter": 0}, "max_iter must be >= 1, got 0"),
        ({"max_iter": -5}, "max_iter must be >= 1, got -5"),
        ({"tol": -1e-8}, "tol must be finite and >= 0"),
        ({"tol": float("nan")}, "tol must be finite and >= 0, got nan"),
        ({"tol": float("inf")}, "tol must be finite and >= 0, got inf"),
    ])
    def test_out_of_range_stopping_settings_rejected(self, monkeypatch, settings, message):
        g, sim, data = simulated_data(6, TRUTH, seed=5)
        calls = []
        monkeypatch.setattr(estimation, "evaluate_objective",
                            lambda *args: calls.append(args) or evaluate_objective(*args))
        with pytest.raises(ValueError, match=message):
            fit(data, k=5, init=TRUTH, **settings)
        assert calls == []
        # one evaluation and a zero tolerance stay valid
        assert fit(data, k=5, init=TRUTH, max_iter=1, tol=0.0).iterations == 1


class TestTrustRegionStops:
    """Each stop and radius update of fit's loop, driven by a scripted
    objective in place of evaluate_objective; the loop runs unchanged."""

    @staticmethod
    def scripted(monkeypatch, value, grad):
        """Make ``value(call, vec)`` the objective, with constant gradient
        ``grad``; return the optimizer vectors it is called at."""
        calls = []

        def evaluate(data, theta, k):
            vec = theta.to_optimizer_vector()
            calls.append(vec)
            solution = KrygingSolution(np.zeros(1), np.zeros(data.grid.n), 0.0, np.zeros(1))
            return ObjectiveState(theta=theta, value=value(len(calls), vec), solution=solution,
                                  psi=np.zeros(data.p), grad=np.asarray(grad, float),
                                  diagnostics={})

        monkeypatch.setattr(estimation, "evaluate_objective", evaluate)
        return calls

    @pytest.fixture
    def data(self):
        return simulated_data(6, TRUTH, seed=5)[2]

    def test_radius_below_parameter_resolution(self, monkeypatch, data):
        # every trial is worse: ten quarterings take the radius from 1
        # below 1e-6, so the fit stops after 11 evaluations
        calls = self.scripted(monkeypatch, lambda i, vec: float(i), [0.0, 1.0, 1.0, 1.0])
        res = fit(data, k=5, init=TRUTH, max_iter=60)
        assert res.diagnostics["stop_reason"] == "trust radius below parameter resolution"
        assert res.converged
        assert res.iterations == len(calls) == 11
        assert res.objective_trace == [1.0]
        np.testing.assert_array_equal(res.theta_hat.to_optimizer_vector(),
                                      TRUTH.to_optimizer_vector())
        assert res.diagnostics["max_log_step"] == 0.0

    def test_objective_change_below_tolerance(self, monkeypatch, data):
        grad = 1e-12 * np.array([0.0, 1.0, 1.0, 1.0])
        calls = self.scripted(monkeypatch, lambda i, vec: float(grad @ vec), grad)
        res = fit(data, k=5, init=TRUTH, max_iter=60)
        assert res.diagnostics["stop_reason"] == "objective change below tolerance"
        assert res.converged
        assert res.iterations == len(calls) == 2
        assert res.objective_trace[1] < res.objective_trace[0]

    def test_persistent_embedding_failure(self, monkeypatch, data):
        def value(i, vec):
            if i > 1:
                raise EmbeddingError("injected")
            return 0.0

        self.scripted(monkeypatch, value, [0.0, 1.0, 1.0, 1.0])
        res = fit(data, k=5, init=TRUTH, max_iter=60)
        assert res.diagnostics["stop_reason"] == "persistent embedding failure"
        assert not res.converged
        assert (res.iterations, res.diagnostics["embedding_failures"]) == (11, 10)
        assert res.objective_trace == [0.0]

    def test_start_on_the_feasibility_bound(self, monkeypatch, data):
        # rho starts at its upper bound, 3 x the domain diagonal, and the
        # gradient pushes it up: the box clips that component of each step
        start = dataclasses.replace(TRUTH, rho=3.0 * np.sqrt(2.0))
        grad = np.array([0.0, 1.0, 1.0, -1.0])
        calls = self.scripted(monkeypatch, lambda i, vec: float(grad @ vec), grad)
        res = fit(data, k=5, init=start, max_iter=4)
        assert res.diagnostics["stop_reason"] == "max_iter reached; estimate at feasibility bound"
        assert not res.converged
        assert len(calls) == len(res.objective_trace) == 4
        steps = np.diff(calls, axis=0)
        assert np.all(steps[:, 3] == 0) and np.all(steps[:, 1:3] < 0)
        assert res.theta_hat.rho == pytest.approx(start.rho, rel=1e-12)

    def test_box_clips_the_whole_step_away(self, monkeypatch, data):
        # rho starts on its upper bound and the gradient pushes only rho
        # up, so every step is clipped to zero: the radius shrinks below
        # parameter resolution with no evaluation beyond the first
        start = dataclasses.replace(TRUTH, rho=3.0 * np.sqrt(2.0))
        calls = self.scripted(monkeypatch, lambda i, vec: 0.0, [0.0, 0.0, 0.0, -1.0])
        res = fit(data, k=5, init=start, max_iter=60)
        assert res.iterations == len(calls) == 1
        assert res.diagnostics["stop_reason"] == (
            "trust radius below parameter resolution; estimate at feasibility bound")
        assert not res.converged
        assert res.objective_trace == [0.0]

    def test_radius_shrinks_on_a_poor_step_and_grows_back(self, monkeypatch, data):
        # a small linear objective, so each step is cut to the radius and
        # gains what the model predicts; the second evaluation is worse
        grad = 1e-2 * np.array([0.0, 1.0, 1.0, 1.0])
        calls = self.scripted(
            monkeypatch, lambda i, vec: float(grad @ vec) + (1.0 if i == 2 else 0.0), grad)
        res = fit(data, k=5, init=TRUTH, max_iter=6)
        assert res.diagnostics["stop_reason"] == "max_iter reached"
        accepted = [calls[0], *calls[2:]]
        lengths = [np.linalg.norm(calls[1] - calls[0]),
                   *np.linalg.norm(np.diff(accepted, axis=0), axis=1)]
        np.testing.assert_allclose(lengths, [1.0, 0.25, 0.5, 1.0, 1.0], rtol=1e-12)
        assert len(res.objective_trace) == 5


class TestTrustStep:
    """The closed-form step against the trust-region subproblem's
    optimality conditions for the model Hessian H = g g' + ridge I."""

    @staticmethod
    def model(scale):
        g = scale * np.array([0.6, -0.3, 0.7, -0.25])
        ridge = 1e-6 * (1.0 + g @ g)
        return g, np.outer(g, g) + ridge * np.eye(g.size)

    @pytest.mark.parametrize("scale", [1e-3, 1.0, 2.5e4])
    @pytest.mark.parametrize("radius_factor", [10.0, 0.1])
    def test_kkt_conditions(self, scale, radius_factor):
        g, H = self.model(scale)
        radius = radius_factor * np.linalg.norm(np.linalg.solve(H, g))
        s, predicted = _trust_step(g, radius, np.zeros(4), np.full(4, -np.inf), np.full(4, np.inf))
        norm = np.linalg.norm(s)
        lam = np.linalg.norm(H, 2)
        # the multiplier that makes (H + mu I) s = -g hold along s
        mu = -float((H @ s + g) @ s) / float(s @ s)
        assert mu >= -1e-12 * lam
        assert np.linalg.norm(H @ s + mu * s + g) <= 1e-12 * np.linalg.norm(g)
        assert norm <= radius * (1.0 + 1e-12)
        assert abs(mu * (radius - norm)) <= 1e-12 * lam * radius
        if radius_factor > 1.0:
            assert abs(mu) <= 1e-12 * lam
        else:
            assert norm == pytest.approx(radius, rel=1e-12)
        assert predicted == pytest.approx(-(g @ s + 0.5 * s @ H @ s), rel=1e-12)

    @pytest.mark.parametrize("scale", [1e-3, 1.0, 2.5e4])
    def test_predicted_reduction_with_box_clipping(self, scale):
        g, H = self.model(scale)
        vec = np.zeros(4)
        free = np.full(4, np.inf)
        radius = 0.5 * np.linalg.norm(np.linalg.solve(H, g))
        s_free, _ = _trust_step(g, radius, vec, -free, free)
        # bounds halfway along the first two components' steps
        lo, hi = -free, free.copy()
        for i in (0, 1):
            (lo if s_free[i] < 0 else hi)[i] = 0.5 * s_free[i]
        s, predicted = _trust_step(g, radius, vec, lo, hi)
        np.testing.assert_allclose(s, s_free * [0.5, 0.5, 1.0, 1.0], rtol=1e-12)
        assert predicted > 0
        assert predicted == pytest.approx(-(g @ s + 0.5 * s @ H @ s), rel=1e-12)
        # every component already at the bound it moves toward: no step
        s, predicted = _trust_step(g, radius, vec, np.where(g > 0, 0.0, -np.inf),
                                   np.where(g < 0, 0.0, np.inf))
        assert np.all(s == 0) and predicted == 0

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError, match="finite"):
            _trust_step(np.array([1.0, np.nan]), 1.0, np.zeros(2),
                        np.full(2, -np.inf), np.full(2, np.inf))


class TestPredict:
    def test_constant_field_maps_to_constant(self, rng):
        g = GridSpec(6, 6)
        theta = ThetaParams(np.array([0.0]), 1.0, 0.5, 0.2)
        res = manual_fit(g, theta, np.full(g.n, 2.5))
        locs = np.column_stack([rng.uniform(0, 1, 30), rng.uniform(0, 1, 30)])
        amap = build_map(locs, g)
        np.testing.assert_allclose(predict(res, amap), 2.5, atol=1e-12)

    def test_affine_in_mean_linear_in_field(self, rng):
        g = GridSpec(5, 5)
        x = rng.standard_normal(g.n)
        locs = np.column_stack([rng.uniform(0, 1, 12), rng.uniform(0, 1, 12)])
        amap = build_map(locs, g)
        t0 = ThetaParams(np.array([0.0]), 1.0, 1.0, 0.2)
        t1 = ThetaParams(np.array([3.0]), 1.0, 1.0, 0.2)
        base = predict(manual_fit(g, t0, x), amap)
        np.testing.assert_allclose(predict(manual_fit(g, t1, x), amap), base + 3.0, atol=1e-12)
        np.testing.assert_allclose(predict(manual_fit(g, t0, 2.0 * x), amap), 2.0 * base, atol=1e-12)

    def test_interpolation_limit_small_nugget(self, rng):
        # co-located, tiny noise, full subspace: predictions at the
        # training nodes reproduce the observations
        g = GridSpec(6, 6)
        theta = ThetaParams(np.array([0.0]), 1.0, 1e-8, 0.3)
        op = BttbOperator.from_matern(g, theta.rho, theta.nu)
        amap = identity_map(g.n)
        y = op.sample(rng)
        fact = gengk_factorize(amap, op, y, theta.tau2, k=g.n)
        sol = solve(fact, theta.sigma2, op)
        res = manual_fit(g, theta, sol.x_star, k=g.n)
        yhat = predict(res, identity_map(g.n))
        assert np.abs(yhat - y).max() < 1e-4

    def test_requires_covariates_when_mean_has_them(self, rng):
        g = GridSpec(4, 4)
        theta = ThetaParams(np.array([1.0, 2.0]), 1.0, 1.0, 0.2)
        res = manual_fit(g, theta, np.zeros(g.n))
        amap = identity_map(g.n)
        with pytest.raises(ValueError):
            predict(res, amap)
        X_pred = np.column_stack([np.ones(g.n), rng.standard_normal(g.n)])
        for bad in (X_pred[:, :1], X_pred[1:], np.ones((g.n, 3))):
            with pytest.raises(ValueError, match=r"X_pred must be \(16, 2\)"):
                predict(res, amap, bad)
        out = predict(res, amap, X_pred)
        np.testing.assert_allclose(out, X_pred @ theta.beta, atol=1e-12)


class TestBootstrap:
    def test_deterministic_given_seed(self):
        g, sim, data = simulated_data(8, TRUTH, seed=6)
        res = fit(data, k=10, init=TRUTH, max_iter=20)
        locs = data.grid.node_coords()[:25]
        p1 = bootstrap_uq(res, data, locs, B=5, seed=11)
        p2 = bootstrap_uq(res, data, locs, B=5, seed=11)
        np.testing.assert_array_equal(p1.se, p2.se)
        p3 = bootstrap_uq(res, data, locs, B=5, seed=12)
        assert not np.array_equal(p1.se, p3.se)

    def test_se_nonnegative_and_interval_order(self):
        g, sim, data = simulated_data(8, TRUTH, seed=7)
        res = fit(data, k=10, init=TRUTH, max_iter=20)
        locs = data.grid.node_coords()[::3]
        pset = bootstrap_uq(res, data, locs, B=6, seed=0)
        assert np.all(pset.se >= 0)
        assert np.all(pset.ci_lo <= pset.y_hat)
        assert np.all(pset.y_hat <= pset.ci_hi)

    def test_noiseless_identity_limit_shrinks_se(self):
        # tau2 ~ 0, A = I, k = n, theta known: the re-estimate recovers
        # each replicate field and the bootstrap errors vanish
        g = GridSpec(6, 6)
        theta = ThetaParams(np.array([0.0]), 1.0, 1e-12, 0.3)
        data = ModelData(
            y=np.zeros(g.n) + 1.0, X=np.ones((g.n, 1)),
            amap=identity_map(g.n), grid=g,
        )
        res = manual_fit(g, theta, np.zeros(g.n), k=g.n)
        pset = bootstrap_uq(res, data, g.node_coords(), B=3, seed=5)
        assert pset.se.max() < 1e-4

    def test_coverage_sanity_theta_known(self):
        # fields simulated from the model, theta held at truth: pooled
        # 95% interval coverage lands in a wide nominal band
        theta = ThetaParams(np.array([0.0]), 2.0, 0.4, 0.12)
        g = GridSpec(24, 24)
        hits = 0
        total = 0
        for rep in range(6):
            sim = simulate_dataset(g, theta, seed=100 + rep)
            rng = np.random.default_rng(200 + rep)
            hold = np.zeros(g.n, dtype=bool)
            hold[rng.choice(g.n, size=150, replace=False)] = True
            train_idx = np.nonzero(~hold)[0]
            amap = selection_map(train_idx, g.n)
            data = ModelData(
                y=sim.y[train_idx], X=np.ones((train_idx.size, 1)),
                amap=amap, grid=g,
            )
            op = BttbOperator.from_matern(g, theta.rho, theta.nu)
            fact = gengk_factorize(amap, op, data.y, theta.tau2, k=40)
            sol = solve(fact, theta.sigma2, op)
            res = manual_fit(g, theta, sol.x_star, k=40)
            locs = g.node_coords()[hold]
            pset = bootstrap_uq(res, data, locs, B=20, seed=300 + rep)
            y_true = sim.y[hold]
            hits += int(((y_true >= pset.ci_lo) & (y_true <= pset.ci_hi)).sum())
            total += y_true.size
        coverage = hits / total
        assert 0.90 <= coverage <= 0.99

    def test_se_matches_the_dense_kriging_variance(self):
        # theta known, off-node data on a 16 x 16 lattice: each replicate
        # records e^2 + tau2, whose mean is the kriging variance of the
        # latent field at the target plus the target's own noise
        theta = ThetaParams(np.array([0.0]), 1.0, 0.25, 0.2)
        g = GridSpec(16, 16)
        rng = np.random.default_rng(0)
        amap = build_map(rng.uniform(0.0, 1.0, (150, 2)), g)
        targets = rng.uniform(0.0, 1.0, (40, 2))
        data = ModelData(y=np.zeros(amap.p), X=np.ones((amap.p, 1)), amap=amap, grid=g)
        pset = bootstrap_uq(manual_fit(g, theta, np.zeros(g.n), k=50), data, targets,
                            B=200, seed=0)
        A, A_pred = amap.matrix.toarray(), build_map(targets, g).matrix.toarray()
        S = dense_corr(g, theta.rho, theta.nu)
        post = np.linalg.inv(np.linalg.inv(S) / theta.sigma2 + A.T @ A / theta.tau2)
        variance = np.einsum("ij,jk,ik->i", A_pred, post, A_pred) + theta.tau2
        # per target the ratio's Monte Carlo s.d. is about sqrt(2 / B) = 0.1
        # at most; the median over 40 targets sits well inside 5%
        assert abs(np.median(pset.se ** 2 / variance) - 1.0) < 0.05

    @pytest.mark.parametrize("change", [
        {"grid": GridSpec(8, 8, 0.0, 2.0, 0.0, 1.0)},  # same size, other extents
        {"nu": 1.5},
    ])
    def test_rejects_data_for_another_model(self, change):
        g, sim, data = simulated_data(8, TRUTH, seed=6)
        res = manual_fit(g, TRUTH, np.zeros(g.n))
        other = dataclasses.replace(data, **change)
        with pytest.raises(ValueError, match="does not match the fit"):
            bootstrap_uq(res, other, g.node_coords()[:4], B=2)

    def test_rejects_bad_b(self):
        g, sim, data = simulated_data(6, TRUTH, seed=8)
        res = fit(data, k=5, init=TRUTH, max_iter=5)
        with pytest.raises(ValueError):
            bootstrap_uq(res, data, g.node_coords()[:4], B=0)


def serial_bootstrap_se(res, data, locs, B, seed):
    """Reference for :func:`bootstrap_uq`'s standard errors: the same
    replicates, one after another on the calling thread."""
    theta = res.theta_hat
    amap_pred = build_map(locs, res.grid)
    op = BttbOperator.from_matern(data.grid, theta.rho, data.nu)
    sq = np.zeros(amap_pred.p)
    for child in np.random.SeedSequence(seed).spawn(B):
        rng = np.random.default_rng(child)
        x_b = np.sqrt(theta.sigma2) * op.sample(rng)
        noise_train = np.sqrt(theta.tau2) * rng.standard_normal(data.p)
        bsim = data.amap.apply(x_b) + noise_train
        x_hat = estimation._rekryge(data.amap, op, bsim, theta, res.k)
        diff = amap_pred.apply(x_b - x_hat)
        sq += diff * diff + theta.tau2
    return np.sqrt(sq / B)


class TestConcurrentBootstrap:
    """Replicates run on several threads; the result must not show it."""

    @pytest.fixture(scope="class")
    def problem(self):
        # a thinned Wendland map, so apply and apply_t both do real work
        grid = GridSpec(20, 20)
        ds = simulate_dataset(GridSpec(30, 30), TRUTH, seed=4, thin_fraction=0.6).dataset
        data = ModelData(y=ds.y, X=ds.X, amap=build_map(ds.locations, grid), grid=grid,
                         nu=TRUTH.nu)
        res = manual_fit(grid, TRUTH, np.zeros(grid.n), k=15)
        locs = np.random.default_rng(9).uniform(0.0, 1.0, (40, 2))
        return res, data, locs

    def test_equals_a_serial_loop_bitwise(self, problem):
        res, data, locs = problem
        pset = bootstrap_uq(res, data, locs, B=7, seed=21)
        np.testing.assert_array_equal(pset.se, serial_bootstrap_se(res, data, locs, 7, 21))

    def test_many_threads_with_fast_switching(self, problem, monkeypatch):
        # more threads than cores and a thread switch every microsecond:
        # still the serial result, and in bounded time (no deadlock)
        res, data, locs = problem
        monkeypatch.setattr(estimation, "_workers", lambda count: min(count, 8))
        out = {}

        def run():
            out["se"] = bootstrap_uq(res, data, locs, B=16, seed=5).se

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            runner = threading.Thread(target=run, daemon=True)
            runner.start()
            runner.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not runner.is_alive(), "bootstrap_uq did not finish within 120 s"
        np.testing.assert_array_equal(out["se"], serial_bootstrap_se(res, data, locs, 16, 5))

    def test_replicate_failure_propagates(self, problem, monkeypatch):
        res, data, locs = problem
        monkeypatch.setattr(estimation, "_workers", lambda count: min(count, 3))
        calls = []
        rekryge = estimation._rekryge

        def failing(*args):
            calls.append(None)
            if len(calls) == 4:
                raise FloatingPointError("replicate 4 failed")
            return rekryge(*args)

        monkeypatch.setattr(estimation, "_rekryge", failing)
        with pytest.raises(FloatingPointError, match="replicate 4"):
            bootstrap_uq(res, data, locs, B=40, seed=1)
        # the failure stops further replicates from starting: each of the two
        # other threads finishes its current one and starts at most one more
        assert len(calls) <= 4 + 2 * 2

    def test_bootstrap_on_two_workers_starts_one_helper(self, problem, monkeypatch):
        # the calling thread takes replicates too, so two workers are the
        # caller and a pool of one
        res, data, locs = problem
        monkeypatch.setattr(estimation, "_workers", lambda count: min(count, 2))
        pool = estimation.ThreadPoolExecutor
        sizes = []

        def recording(max_workers, **kwargs):
            sizes.append(max_workers)
            return pool(max_workers, **kwargs)

        monkeypatch.setattr(estimation, "ThreadPoolExecutor", recording)
        pset = bootstrap_uq(res, data, locs, B=4, seed=3)
        assert sizes == [1]
        np.testing.assert_array_equal(pset.se, serial_bootstrap_se(res, data, locs, 4, 3))

    def test_single_replicate_runs_inline(self, problem, monkeypatch):
        res, data, locs = problem

        def no_pool(*args, **kwargs):
            raise AssertionError("B = 1 started a thread pool")

        monkeypatch.setattr(estimation, "ThreadPoolExecutor", no_pool)
        pset = bootstrap_uq(res, data, locs, B=1, seed=2)
        np.testing.assert_array_equal(pset.se, serial_bootstrap_se(res, data, locs, 1, 2))


class TestConvergenceVerdict:
    def test_predict_and_bootstrap_do_not_read_the_verdict(self):
        # the verdict is reported, never gated: an unconverged fit gives
        # bitwise the numbers of the same fit marked converged
        g, sim, data = simulated_data(6, TRUTH, seed=9)
        res = fit(data, k=5, init=TRUTH, max_iter=1)
        assert not res.converged
        marked = dataclasses.replace(res, converged=True)
        amap, locs = identity_map(g.n), g.node_coords()[::2]
        np.testing.assert_array_equal(predict(res, amap), predict(marked, amap))
        got = bootstrap_uq(res, data, locs, B=3, seed=4)
        want = bootstrap_uq(marked, data, locs, B=3, seed=4)
        for field in ("y_hat", "se", "ci_lo", "ci_hi"):
            np.testing.assert_array_equal(getattr(got, field), getattr(want, field))


class TestCovariateMean:
    def test_fit_recovers_regression_coefficients(self, rng):
        g = GridSpec(24, 24)
        coords = g.node_coords()
        X = np.column_stack([np.ones(g.n), coords[:, 0] - 0.5])
        beta_true = np.array([4.0, 2.5])
        theta = ThetaParams(beta_true, 1.5, 0.3, 0.15)
        op = BttbOperator.from_matern(g, theta.rho, theta.nu)
        x = np.sqrt(theta.sigma2) * op.sample(np.random.default_rng(31))
        y = X @ beta_true + x + np.sqrt(theta.tau2) * np.random.default_rng(32).standard_normal(g.n)
        data = ModelData(y=y, X=X, amap=identity_map(g.n), grid=g)
        res = fit(data, k=25, init=theta, max_iter=80)
        np.testing.assert_allclose(res.theta_hat.beta, beta_true, atol=0.5)
        assert res.theta_hat.beta.size == 2


class TestMatvecBudget:
    """Covariance matvecs, counted across every operator: k in the
    Golub-Kahan run, one for x* = Sigma m, and in an evaluation one
    derivative product for the rho-score."""

    K = 12

    @pytest.fixture
    def matvecs(self, monkeypatch):
        calls = []
        matvec = BttbOperator.matvec

        def counted(op, v):
            calls.append(op)
            return matvec(op, v)

        monkeypatch.setattr(BttbOperator, "matvec", counted)
        return calls

    def test_evaluation_makes_k_plus_two(self, matvecs):
        g, sim, data = simulated_data(16, TRUTH, seed=3)
        st = evaluate_objective(data, TRUTH, self.K)
        assert st.diagnostics["k_effective"] == self.K
        assert len(matvecs) == self.K + 2

    def test_bootstrap_replicate_makes_k_plus_one(self, matvecs):
        g, sim, data = simulated_data(16, TRUTH, seed=3)
        res = manual_fit(g, TRUTH, np.zeros(g.n), k=self.K)
        bootstrap_uq(res, data, g.node_coords()[:5], B=3, seed=0)
        assert len(matvecs) == 3 * (self.K + 1)

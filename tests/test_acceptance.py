"""Acceptance suite.

Each test pins one exit criterion at its stated tolerance and prints a
PASS/FAIL line directly to the terminal (bypassing capture) so the
criterion status is visible in any pytest run.
"""

import os
import time

import numpy as np
import pytest

from kryging.estimation import bootstrap_uq, fit
from kryging.gengk import gengk_factorize, solve
from kryging.grid import GridSpec, ThetaParams
from kryging.likelihood import ModelData, evaluate_objective
from kryging.mapping import build_map
from kryging import study
from kryging.study import run_replicate
from kryging.toeplitz import BttbOperator

from oracles import dense_corr, dense_solution, identity_map, latent_basis, pairwise_distances


@pytest.fixture
def report(capsys):
    def _report(criterion, passed, detail):
        with capsys.disabled():
            status = "PASS" if passed else "FAIL"
            print(f"\nACCEPTANCE {criterion}: {status} | {detail}", flush=True)

    return _report


# --------------------------------------------------------------------------
# 1. dense-oracle solver equivalence at full subspace order


def test_criterion_1_dense_solver_equivalence(report):
    t0 = time.perf_counter()
    worst = 0.0
    rng = np.random.default_rng(1)
    for m in (6, 8):
        g = GridSpec(m, m)
        S = dense_corr(g, 0.3, 0.5)
        op = BttbOperator.from_matern(g, 0.3, 0.5)
        amap = identity_map(g.n)
        b = rng.standard_normal(g.n)
        fact = gengk_factorize(amap, op, b, 0.25, k=g.n)
        sol = solve(fact, 1.0, op)
        ref = dense_solution(S, np.eye(g.n), b, 1.0, 0.25)
        worst = max(worst, np.linalg.norm(sol.x_star - ref) / np.linalg.norm(ref))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-6 and elapsed < 1.0
    report(1, ok, f"solver vs dense rel L2 err {worst:.2e} (<1e-6), {elapsed:.2f}s (<1s)")
    assert worst < 1e-6
    assert elapsed < 1.0


# --------------------------------------------------------------------------
# 2. factorization identities on randomized problems


def test_criterion_2_gengk_relations(report):
    rng = np.random.default_rng(2)
    worst = 0.0
    for trial in range(100):
        n1 = int(rng.integers(3, 21))
        n2 = int(rng.integers(3, min(21, 400 // n1 + 1)))
        g = GridSpec(n1, n2)
        p = int(rng.integers(5, 61))
        k = int(rng.integers(1, min(p, 25) + 1))
        rho = float(rng.uniform(0.05, 0.6))
        nu = float(rng.choice([0.5, 1.5]))
        tau2 = float(rng.uniform(0.05, 2.0))
        S = dense_corr(g, rho, nu)
        op = BttbOperator.from_matern(g, rho, nu)
        locs = np.column_stack([rng.uniform(0, 1, p), rng.uniform(0, 1, p)])
        amap = build_map(locs, g)
        b = rng.standard_normal(p)
        f = gengk_factorize(amap, op, b, tau2, k)
        Ad, V = amap.matrix.toarray(), latent_basis(f)
        scale = max(1.0, np.abs(f.B).max())
        r1 = np.abs(Ad @ S @ V - f.U @ f.B).max() / scale
        r2 = np.abs(f.U.T @ f.U - tau2 * np.eye(f.k + 1)).max() / max(1.0, tau2)
        r3 = np.abs(V.T @ S @ V - np.eye(f.k)).max()
        worst = max(worst, r1, r2, r3)
    ok = worst < 1e-8
    report(2, ok, f"worst identity residual over 100 trials {worst:.2e} (<1e-8)")
    assert worst < 1e-8


# --------------------------------------------------------------------------
# 3. log-determinant error decreases with grid size


def test_criterion_3_logdet_convergence(report):
    t0 = time.perf_counter()
    all_monotone = True
    details = []
    for rho in (0.05, 0.1):
        errs = []
        for m in (8, 16, 32):
            g = GridSpec(m, m)
            op = BttbOperator.from_matern(g, rho, 0.5)
            L = np.linalg.cholesky(dense_corr(g, rho, 0.5))
            exact = 2.0 * np.log(np.diag(L)).sum()
            errs.append(abs(op.logdet() - exact) / abs(exact))
        monotone = all(b <= a for a, b in zip(errs, errs[1:]))
        all_monotone &= monotone
        details.append(f"rho={rho}: " + " -> ".join(f"{e:.3f}" for e in errs))
    elapsed = time.perf_counter() - t0
    ok = all_monotone and elapsed < 30.0
    report(3, ok, "; ".join(details) + f"; {elapsed:.1f}s (<30s)")
    assert all_monotone
    assert elapsed < 30.0


# --------------------------------------------------------------------------
# 4. analytic gradient vs finite differences with dense substitutions


def test_criterion_4_gradient_correctness(report):
    from kryging.grid import matern_corr_drho

    rng = np.random.default_rng(4)
    worst = 0.0
    configs = [(6, 6, None), (8, 8, 40), (10, 10, 80)]  # n = 36, 64, 100
    for n1, n2, p in configs:
        g = GridSpec(n1, n2)
        theta = ThetaParams(
            beta=np.array([1.5]),
            sigma2=float(rng.uniform(0.8, 2.0)),
            tau2=float(rng.uniform(0.2, 0.6)),
            rho=float(rng.uniform(0.15, 0.35)),
        )
        S = dense_corr(g, theta.rho, 0.5)
        if p is None:
            amap = identity_map(g.n)
            p_eff = g.n
        else:
            locs = np.column_stack([rng.uniform(0, 1, p), rng.uniform(0, 1, p)])
            amap = build_map(locs, g)
            p_eff = p
        x = np.linalg.cholesky(theta.sigma2 * S) @ rng.standard_normal(g.n)
        y = theta.beta[0] + amap.apply(x) + np.sqrt(theta.tau2) * rng.standard_normal(p_eff)
        data = ModelData(y=y, X=np.ones((p_eff, 1)), amap=amap, grid=g)

        D = pairwise_distances(g)
        _, ld_exact = np.linalg.slogdet(S)

        def dense_substituted_value(th):
            st = evaluate_objective(data, th, k=g.n)
            Sd = dense_corr(g, th.rho, 0.5)
            _, ld = np.linalg.slogdet(Sd)
            return st.value - 0.5 * st.diagnostics["logdet"] + 0.5 * ld

        st = evaluate_objective(data, theta, k=g.n)
        dS = matern_corr_drho(D, theta.rho, 0.5)
        dL_dense = np.trace(np.linalg.solve(S, dS))
        # the log-rho component holds rho * dlogdet / 2; swap in the dense
        # trace the same way the value swaps in the dense logdet
        grad = st.grad.copy()
        grad[-1] += 0.5 * theta.rho * (dL_dense - st.diagnostics["dlogdet"])

        v0 = theta.to_optimizer_vector()
        for i in range(v0.size):
            h = 1e-6 * max(1.0, abs(v0[i]))
            vp, vm = v0.copy(), v0.copy()
            vp[i] += h
            vm[i] -= h
            fd = (
                dense_substituted_value(ThetaParams.from_optimizer_vector(vp))
                - dense_substituted_value(ThetaParams.from_optimizer_vector(vm))
            ) / (2 * h)
            worst = max(worst, abs(grad[i] - fd) / max(abs(fd), 1e-8))
    ok = worst < 1e-4
    report(4, ok, f"worst componentwise gradient rel err {worst:.2e} (<1e-4)")
    assert worst < 1e-4


# --------------------------------------------------------------------------
# 5 & 6. baseline co-located study: prediction quality and recovery


@pytest.fixture(scope="module")
def setting1_study():
    theta = ThetaParams(np.array([44.49]), 3.0, 0.5, 0.1)
    g = GridSpec(100, 100)
    t0 = time.perf_counter()
    reps = [
        run_replicate(g, g, theta, k=50, seed=9000 + 7 * r, B=20)
        for r in range(5)
    ]
    return reps, theta, time.perf_counter() - t0


def test_criterion_5_baseline_prediction(report, setting1_study):
    reps, theta, elapsed = setting1_study
    rmse = float(np.mean([r.rmse for r in reps]))
    coverage = float(np.mean([r.coverage for r in reps]))
    ok = 0.81 <= rmse <= 1.01 and coverage >= 0.85 and elapsed < 1200.0
    report(
        5,
        ok,
        f"rmse {rmse:.3f} (in [0.81, 1.01]), coverage {coverage:.3f} (>=0.85), "
        f"{elapsed:.0f}s (<1200s), 5 replicates",
    )
    assert 0.81 <= rmse <= 1.01
    assert coverage >= 0.85
    assert elapsed < 1200.0


def test_criterion_6_parameter_recovery(report, setting1_study):
    reps, theta, _ = setting1_study
    s2 = np.array([r.theta_hat.sigma2 for r in reps])
    rho = np.array([r.theta_hat.rho for r in reps])
    rmse_s2 = float(np.sqrt(np.mean((s2 - theta.sigma2) ** 2)))
    rmse_rho = float(np.sqrt(np.mean((rho - theta.rho) ** 2)))
    ok = rmse_s2 <= 0.7 and rmse_rho <= 0.06
    report(
        6,
        ok,
        f"sigma2 RMSE {rmse_s2:.3f} (<=0.7), rho RMSE {rmse_rho:.4f} (<=0.06)",
    )
    assert rmse_s2 <= 0.7
    assert rmse_rho <= 0.06


@pytest.fixture(scope="module")
def setting1_auto_study():
    """setting1_study's replicates fit from init="auto", the default of
    ``kryging fit``, with each fit's largest move in log space from its
    start (``max_log_step``)."""
    theta = ThetaParams(np.array([44.49]), 3.0, 0.5, 0.1)
    g = GridSpec(100, 100)
    fits = []

    def recorded_fit(*args, **kwargs):
        fits.append(fit(*args, **kwargs))
        return fits[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(study, "fit", recorded_fit)
        reps = [
            run_replicate(g, g, theta, k=50, seed=9000 + 7 * r, B=20, init="auto")
            for r in range(5)
        ]
    return reps, theta, [f.diagnostics["max_log_step"] for f in fits]


def test_criteria_5_6_from_auto_init_report(capsys, setting1_auto_study):
    """Criteria 5 and 6's scores from init="auto": printed, not gated.
    Criterion 6 fits from the truth, so this line shows what the default
    fit recovers."""
    reps, theta, moves = setting1_auto_study
    rmse = {name: float(np.sqrt(np.mean([(getattr(r.theta_hat, name) - getattr(theta, name)) ** 2
                                         for r in reps])))
            for name in ("sigma2", "tau2", "rho")}
    with capsys.disabled():
        print(f"\nACCEPTANCE 5/6 (auto init): REPORT | "
              f"rmse {np.mean([r.rmse for r in reps]):.3f}, "
              f"coverage {np.mean([r.coverage for r in reps]):.3f}, "
              f"sigma2 RMSE {rmse['sigma2']:.3f}, tau2 RMSE {rmse['tau2']:.3f}, "
              f"rho RMSE {rmse['rho']:.4f}, "
              f"median max |d log theta| from init {np.median(moves):.2e}, "
              f"converged {sum(r.converged for r in reps)}/{len(reps)}", flush=True)


# --------------------------------------------------------------------------
# 7. irregular observations against a co-located run on the same field


def test_criterion_7_irregular_path(report):
    theta = ThetaParams(np.array([44.49]), 3.0, 0.5, 0.1)
    src = GridSpec(250, 250)
    thin = 1.0 - 10000.0 / src.n  # keep ~10,000 points
    seed = 7100
    irr = run_replicate(
        src, GridSpec(100, 100), theta, k=50, seed=seed,
        thin_fraction=thin, B=20,
    )
    col = run_replicate(
        src, src, theta, k=50, seed=seed,
        thin_fraction=thin, B=20,
    )
    rel_gap = abs(irr.rmse - col.rmse) / col.rmse
    ok = irr.coverage >= 0.80 and rel_gap <= 0.15
    report(
        7,
        ok,
        f"irregular rmse {irr.rmse:.3f} vs co-located {col.rmse:.3f} "
        f"(gap {100 * rel_gap:.1f}% <= 15%), coverage {irr.coverage:.3f} (>=0.80)",
    )
    assert irr.coverage >= 0.80
    assert rel_gap <= 0.15


# --------------------------------------------------------------------------
# 8. bootstrap determinism and validity


def test_criterion_8_bootstrap_contract(report):
    theta = ThetaParams(np.array([5.0]), 1.0, 0.25, 0.3)
    g = GridSpec(20, 20)
    from kryging.simulate import simulate_dataset

    sim = simulate_dataset(g, theta, seed=81)
    data = ModelData(
        y=sim.y, X=np.ones((g.n, 1)), amap=identity_map(g.n), grid=g
    )
    res = fit(data, k=20, init=theta, max_iter=40)
    locs = g.node_coords()[::7]
    p1 = bootstrap_uq(res, data, locs, B=20, seed=5)
    p2 = bootstrap_uq(res, data, locs, B=20, seed=5)
    identical = bool(np.array_equal(p1.se, p2.se))
    nonneg = bool(np.all(p1.se >= 0))

    # noiseless identity limit: exact replicate recovery drives se to 0
    from kryging.estimation import FitResult

    theta0 = ThetaParams(np.array([0.0]), 1.0, 1e-12, 0.3)
    g0 = GridSpec(8, 8)
    data0 = ModelData(
        y=np.ones(g0.n), X=np.ones((g0.n, 1)), amap=identity_map(g0.n), grid=g0
    )
    res0 = FitResult(
        theta_hat=theta0, x_hat=np.zeros(g0.n), objective_trace=[0.0],
        converged=True, iterations=1, grid=g0, k=g0.n,
    )
    p0 = bootstrap_uq(res0, data0, g0.node_coords(), B=20, seed=3)
    limit_ok = bool(p0.se.max() < 1e-4)

    ok = identical and nonneg and limit_ok
    report(
        8,
        ok,
        f"B=20 seed-identical: {identical}; se >= 0: {nonneg}; "
        f"noiseless-limit max se {p0.se.max():.1e} (<1e-4)",
    )
    assert identical and nonneg and limit_ok


# --------------------------------------------------------------------------
# 9. optional archived-data study (requires fetched files), and a synthetic
# stand-in that reports how the --init start of study modis scores


def cloud_split(seed, directory):
    """Train/test CSVs of a simulated 40 x 40 unit-square lattice at the
    benchmark parameters: the test rows are the nodes under six "clouds",
    rectangles with sides uniform in [0.08, 0.2] drawn from ``seed``."""
    from kryging.data import write_dataset
    from kryging.simulate import simulate_dataset

    theta = ThetaParams(np.array([44.49]), 3.0, 0.5, 0.1)
    ds = simulate_dataset(GridSpec(40, 40), theta, seed=seed).dataset
    rng = np.random.default_rng(seed)
    lon, lat = ds.locations.T
    cloud = np.zeros(ds.p, dtype=bool)
    for _ in range(6):
        w, h = rng.uniform(0.08, 0.2, 2)
        x0, y0 = rng.uniform(0, 1 - w), rng.uniform(0, 1 - h)
        cloud |= (x0 <= lon) & (lon <= x0 + w) & (y0 <= lat) & (lat <= y0 + h)
    train, test = directory / "train.csv", directory / "test.csv"
    write_dataset(train, ds.subset(~cloud))
    write_dataset(test, ds.subset(cloud))
    return train, test


def test_criterion_9_synthetic_clouds_report(capsys, tmp_path):
    """study modis from --init auto, and from a cross-validated list with
    auto, the truth and a wrong start: printed, not gated."""
    from kryging.cli import main

    lines = []
    for seed in (1, 2, 3):
        train, test = cloud_split(seed, tmp_path)
        for init in ("auto", "auto;44.49,3,0.5,0.1;44.49,1,1,0.3"):
            out = tmp_path / "modis.txt"
            assert main(["study", "modis", "--train", str(train), "--test", str(test),
                         "--grid", "40x40", "--k", "50", "--B", "20", "--seed", str(seed),
                         "--init", init, "--out", str(out)]) == 0
            picked = capsys.readouterr().out.partition("cv init selection: candidate ")[2]
            s = dict(kv.split("=") for kv in out.read_text().split() if "=" in kv)
            label = f"cv picks {picked.split()[0]}" if picked else "auto"
            lines.append(f"seed {seed} {label}: MAE {s['MAE']}, CRPS {s['CRPS']}, CVG {s['CVG']}")
    with capsys.disabled():
        print(f"\nACCEPTANCE 9 (synthetic clouds): REPORT | {'; '.join(lines)}", flush=True)


@pytest.mark.skipif(
    not (os.environ.get("KRYGING_MODIS_TRAIN") and os.environ.get("KRYGING_MODIS_TEST")),
    reason="archived train/test CSVs not provided "
    "(set KRYGING_MODIS_TRAIN and KRYGING_MODIS_TEST)",
)
def test_criterion_9_modis_study(report, tmp_path):
    from kryging.cli import main

    out = tmp_path / "modis.txt"
    rc = main(
        [
            "study", "modis", "--k", "200",
            "--train", os.environ["KRYGING_MODIS_TRAIN"],
            "--test", os.environ["KRYGING_MODIS_TEST"],
            "--grid", "500x300", "--out", str(out),
        ]
    )
    assert rc == 0
    text = out.read_text()
    metrics = dict(
        kv.split("=") for kv in text.replace("  ", " ").split() if "=" in kv
    )
    mae = float(metrics["MAE"])
    cvg = float(metrics["CVG"])
    ok = mae <= 1.6 and 0.88 <= cvg <= 0.96
    report(9, ok, f"MAE {mae:.3f} (<=1.6), CVG {cvg:.3f} (in [0.88, 0.96])")
    assert mae <= 1.6
    assert 0.88 <= cvg <= 0.96
